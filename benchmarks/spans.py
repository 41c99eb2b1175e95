"""Layer spans recorded around calls into weightlab's public functions.

The tracer wraps functions from outside the program.  While a
``Tracer.installed()`` block is open, every attribute of a ``weightlab``
module that is bound to a traced function is replaced by one wrapper; that
covers the names other modules bind with ``from .x import y``, such as
``weightlab.constants.uncentered_restricted`` or
``weightlab.czd.dyadic_maximal``.  The originals are restored on exit.

A span's self time is its duration minus the durations of the spans it
directly encloses.  Spans are kept in memory and written out once, at the
end of a run, by ``Tracer.write``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from collections import defaultdict
from time import perf_counter


def _cells(args, out):
    return {"maximal.uncentered_maximal.cells": len(args[0].values)}


def _rh_samples(args, out):
    return {"constants.reverse_holder_check.samples": out.levelset_samples}


def _cubes_selected(args, out):
    return {"czd.cubes_selected": len(out.cubes)}


def _principal(args, out):
    return {"sawyer.gamma_pairs": len(args[0].gamma_pairs()), "sawyer.generations": len(out)}


# (module, function) -> (layer, counter); a counter maps (args, result) to counts
TARGETS = {
    ("weights", "realize"): ("weights.realize", None),
    ("weights", "with_cached"): ("weights.realize", None),
    ("weights", "dual_weight"): ("weights.realize", None),
    ("weights", "product_cell_masses"): ("weights.realize", None),
    ("weights", "load_csv"): ("weights.csv_io", None),
    ("weights", "save_csv"): ("weights.csv_io", None),
    ("weights", "load_function_csv"): ("weights.csv_io", None),
    ("weights", "save_function_csv"): ("weights.csv_io", None),
    ("weights", "parse_weight_spec"): ("weights.csv_io", None),
    ("constants", "ainf_fw_constant"): ("constants.ainf_fw", None),
    ("constants", "ainf_fw_local"): ("constants.ainf_fw", None),
    ("constants", "global_constant"): ("constants.global_constant", None),
    ("constants", "a1_constant"): ("constants.global_constant", None),
    ("constants", "ap_constant"): ("constants.global_constant", None),
    ("constants", "reverse_holder_check"): ("constants.reverse_holder_check", _rh_samples),
    ("maximal", "uncentered_maximal"): ("maximal.uncentered_maximal", _cells),
    ("maximal", "uncentered_restricted"): ("maximal.uncentered_restricted", None),
    ("maximal", "dyadic_maximal"): ("maximal.dyadic_maximal", None),
    ("norms", "mixed_ratio"): ("norms.mixed_ratio", None),
    ("norms", "weak_l1_norm"): ("norms.weak_l1_norm", None),
    ("norms", "lp_norm"): ("norms.lp_norm", None),
    ("czd", "cz_decompose"): ("czd.cz_decompose", _cubes_selected),
    ("czd", "verify_cz"): ("czd.verify_cz", None),
    ("czd", "pointwise_domination_check"): ("czd.pointwise_domination_check", None),
    ("sawyer", "build_record"): ("sawyer.build_record", None),
    ("sawyer", "principal_cubes"): ("sawyer.principal_cubes", _principal),
    ("sawyer", "verify_chain"): ("sawyer.verify_chain", None),
    ("experiments", "bound_audit_ap"): ("experiments.bound_audit_ap", None),
    ("experiments", "buckley_empirical"): ("experiments.buckley_empirical", None),
    ("experiments", "mixed_lemma_check"): ("experiments.mixed_lemma_check", None),
    ("experiments", "sharpness_a1_grid"): ("experiments.sharpness_a1_grid", None),
    ("experiments", "random_a1_weight"): ("experiments.random_a1_weight", None),
    ("cli", "main"): ("cli.main", None),
}

LAYERS = sorted({layer for layer, _ in TARGETS.values()})


class Tracer:
    """Spans and per-instance layer totals for one traced run."""

    def __init__(self):
        self.instance = "setup"
        self.spans: list[tuple] = []  # (instance, layer, start, end, depth)
        self.self_s: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._stack: list[float] = []  # time covered by children, per open span

    def _wrap(self, layer, fn, counter):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                child = stack.pop()
                if stack:
                    stack[-1] += end - start
                inst = self.instance
                self.self_s[inst][layer] += end - start - child
                self.counts[inst][layer + ".calls"] += 1
                self.spans.append((inst, layer, start, end, len(stack)))
            if counter is not None:
                for key, value in counter(args, out).items():
                    self.counts[inst][key] += value
            return out

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Replace every weightlab binding of a traced function by its wrapper."""
        wrappers = {}
        for (module, name), (layer, counter) in TARGETS.items():
            fn = getattr(sys.modules["weightlab." + module], name)
            wrappers[id(fn)] = (fn, self._wrap(layer, fn, counter))
        modules = [m for key, m in list(sys.modules.items()) if key == "weightlab" or key.startswith("weightlab.")]
        patched = []
        for m in modules:
            for attr, value in list(vars(m).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(m, attr, hit[1])
                    patched.append((m, attr, value))
        try:
            yield
        finally:
            for m, attr, value in patched:
                setattr(m, attr, value)

    def write(self, path: str) -> None:
        """One JSON object per span, times in seconds from the first span."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="ascii") as fh:
            for inst, layer, start, end, depth in self.spans:
                fh.write(json.dumps({"instance": inst, "layer": layer, "start": start - t0,
                                     "end": end - t0, "depth": depth}))
                fh.write("\n")


@contextlib.contextmanager
def capture(module, name: str):
    """Record the results of ``module.name`` while the block runs."""
    inner = getattr(module, name)
    seen: list = []

    def recorder(*args, **kwargs):
        out = inner(*args, **kwargs)
        seen.append(out)
        return out

    setattr(module, name, recorder)
    try:
        yield seen
    finally:
        setattr(module, name, inner)
