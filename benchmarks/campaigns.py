"""The three seeded campaigns: their inputs (set-up) and their instances.

An instance is one timed call into weightlab plus an output check that
runs after the timer stops.  Instances are grouped into size classes; a
round runs every instance of the campaign once, in a fixed order.

Calls go through module attributes (``experiments.bound_audit_ap``, not a
name imported into this file) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
import spans
from weightlab import cli, constants, experiments, grid, maximal, norms, weights


@dataclass
class Instance:
    name: str
    cls: str  # size class
    cells: int  # grid size N of the class, for scaling fits
    call: Callable[[], object]  # the timed work
    check: Callable[[object], list]  # problems found in the call's output


@dataclass
class Campaign:
    instances: list
    p50_class: str  # the largest size class, whose median is instance_p50_ms


# ---------------------------------------------------------------------------
# refine: the uncentered maximal at large N through the mixed ratio

SHARP_DELTA = 0.5
STEP_CELLS = 8192
# The fast-path inputs are fixed banks, not drawn from --seed: the hull
# search raises IndexError on about one input in ten, and a seeded draw
# would make the failed share differ from seed to seed.
STEP_BANK_SEED = 14084339
LOGNORMAL_BANK_SEED = 20130425


def step_bank(count: int) -> list:
    """Few-piece step functions on 8192 cells, independent of the run seed.

    The first is the 3-piece function with cuts at 3979 and 5888 on which
    the hull search of the fast path raises IndexError; the bank keeps it
    and every other input that fails, so the failed count is the same in
    every run.
    """
    n = STEP_CELLS
    bank = [(np.array([0, 3979, 5888, n]), np.array([1.0, 3.0, 2.0]))]
    rng = np.random.default_rng(STEP_BANK_SEED)
    while len(bank) < count:
        k = int(rng.integers(2, 7))
        cuts = np.sort(rng.choice(np.arange(1, n), k - 1, replace=False))
        bank.append((np.concatenate([[0], cuts, [n]]), rng.uniform(0.1, 3.0, k)))
    return bank


def _mixed_ratio_M(f, one):
    """mixed_ratio with u = v = 1, returning the report and M f."""
    with spans.capture(maximal, "uncentered_maximal") as seen:
        rep = norms.mixed_ratio(f, one, one, variant="M")
    return rep, seen[-1].values


def build_refine(seed: int, tiny: bool, workdir: str) -> Campaign:
    ladder = range(5, 8) if tiny else range(8, 13)
    log_levels = (11, 12, 13) if tiny else (14, 15, 16)
    log_count = 1 if tiny else 2
    bank = step_bank(2 if tiny else 12)
    rng = np.random.default_rng(LOGNORMAL_BANK_SEED)
    ones = {L: weights.realize(weights.Constant(1.0), grid.build_grid(0, L))
            for L in {13, *log_levels}}
    out = []
    rows: dict = {}
    for L in ladder:
        def call(L=L):
            return experiments.sharpness_a1_grid(SHARP_DELTA, L=L)

        def check(row, L=L):
            rows[L] = row
            return checks.check_sharpness_row(row, rows.get(L - 1))

        out.append(Instance(f"sharp-L{L}", f"sharp-L{L}", 1 << (4 + L), call, check))
    one = ones[13]
    for i, (bounds, heights) in enumerate(bank):
        f = weights.GridFunction(one.grid, np.repeat(heights, np.diff(bounds)))

        def call(f=f):
            return _mixed_ratio_M(f, one)

        def check(res, f=f, bounds=bounds, heights=heights):
            return checks.check_step_row(f.values, bounds, heights, res[1], res[0].ratio)

        out.append(Instance(f"step-{i}", f"step-{STEP_CELLS}", STEP_CELLS, call, check))
    for L in log_levels:
        n = 1 << L
        for i in range(log_count):
            f = weights.GridFunction(ones[L].grid, rng.lognormal(0.0, 1.0, n))

            def call(f=f, one=ones[L]):
                return _mixed_ratio_M(f, one)

            def check(res, f=f):
                return checks.check_lognormal_row(f.values, res[1], res[0].ratio)

            out.append(Instance(f"lognormal-{n}-{i}", f"lognormal-{n}", n, call, check))
    return Campaign(out, f"lognormal-{1 << log_levels[-1]}")


# ---------------------------------------------------------------------------
# audit: weight constants at N <= 4096, J = 1

AUDIT_P = 2.0
AUDIT_CORPUS_RANDOM = 8  # seeded random members of test_function_corpus


def _audit_weight(kind: str, rng, g):
    if kind == "step":
        return weights.realize(weights.Step(float(rng.choice([0.5, 0.25, 0.125]))), g)
    return experiments.random_a1_weight(g, rng, cap=16.0)


def build_audit(seed: int, tiny: bool, workdir: str) -> Campaign:
    # (L, weight kind) per instance; one Step(alpha) leads the smallest class
    plan = [(4, "step"), (5, "walk"), (6, "walk")] if tiny else \
        [(9, "step"), (9, "walk"), (10, "walk"), (11, "walk")]
    rng = np.random.default_rng([seed, 2])
    corpora = {}
    out = []
    for i, (L, kind) in enumerate(plan):
        g = grid.build_grid(1, L)
        if L not in corpora:
            corpora[L] = experiments.test_function_corpus(g, seed=seed, n_random=AUDIT_CORPUS_RANDOM)
        v = _audit_weight(kind, rng, g)

        def call(v=v, corpus=corpora[L]):
            named = [("v", v)]
            return {
                "audit_p1": experiments.bound_audit_ap(named, 1.0, corpus=corpus),
                "audit_p2": experiments.bound_audit_ap(named, AUDIT_P, corpus=corpus),
                "lemma": experiments.mixed_lemma_check(named, [AUDIT_P]),
                "rh": constants.reverse_holder_check(v, seed=seed),
                "buckley": experiments.buckley_empirical(v, AUDIT_P, corpus=corpus),
            }

        def check(res, v=v):
            return checks.check_audit(v.cell_values, AUDIT_P, res)

        out.append(Instance(f"L{L}-{i}-{kind}", f"L{L}", g.ncells, call, check))
    return Campaign(out, f"L{plan[-1][0]}")


# ---------------------------------------------------------------------------
# decompose: CZ decomposition and principal cubes through the CLI

CZ_MULTIPLES = (1.2, 2.0, 4.0)  # heights, as multiples of the root average


def _write_csv(path: str, values: np.ndarray) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("".join(repr(x) + "\n" for x in values.tolist()))


def _read_csv(path: str) -> np.ndarray:
    with open(path, encoding="ascii") as fh:
        return np.array([float(x) for x in fh.read().split()])


def _cli(argv: list) -> tuple:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def build_decompose(seed: int, tiny: bool, workdir: str) -> Campaign:
    plan = {4: 1, 5: 1, 6: 1} if tiny else {9: 4, 10: 4, 11: 4}
    rng = np.random.default_rng([seed, 3])
    out = []
    for L, count in plan.items():
        g = grid.build_grid(1, L)
        for i in range(count):
            u = experiments.random_a1_weight(g, rng, cap=8.0)
            v = experiments.random_a1_weight(g, rng, cap=8.0)
            f = rng.lognormal(size=g.ncells) * (rng.random(g.ncells) < 0.6)
            vcells = v.cell_values
            vmass = vcells * g.cell_width
            root = float(np.sum(f * vmass) / np.sum(vmass))
            stem = os.path.join(workdir, f"L{L}-{i}")
            paths = {k: f"{stem}-{k}.csv" for k in ("u", "v", "g")}
            _write_csv(paths["u"], u.cell_values)
            _write_csv(paths["v"], vcells)
            _write_csv(paths["g"], f)
            heights = [(m * root, f"{stem}-g{j}.csv", f"{stem}-b{j}.csv")
                       for j, m in enumerate(CZ_MULTIPLES)]

            def call(paths=paths, heights=heights):
                res = []
                for t, og, ob in heights:
                    res.append(_cli(["czd", "--f", paths["g"], "--v", "csv:" + paths["v"],
                                     "--height", repr(t), "--J", "1", "--out-g", og, "--out-b", ob]))
                res.append(_cli(["sawyer-verify", "--u", "csv:" + paths["u"],
                                 "--v", "csv:" + paths["v"], "--g", paths["g"], "--J", "1"]))
                return res

            def check(res, f=f, vcells=vcells, L=L, heights=heights):
                problems = []
                for (code, text), (t, og, ob) in zip(res, heights):
                    if code != 0:
                        problems.append(f"czd at t = {t!r} exited {code}")
                        continue
                    report = json.loads(text)
                    if report["t"] != t:
                        problems.append(f"czd reports t = {report['t']!r}, asked {t!r}")
                    problems += checks.check_czd(f, vcells, L, t, report, _read_csv(og), _read_csv(ob))
                code, text = res[-1]
                if code != 0:
                    return problems + [f"sawyer-verify exited {code}"]
                return problems + checks.check_sawyer(f, vcells, L, json.loads(text))

            out.append(Instance(f"L{L}-{i}", f"N{g.ncells}", g.ncells, call, check))
    return Campaign(out, f"N{1 << (1 + max(plan))}")


CAMPAIGNS = {"refine": build_refine, "audit": build_audit, "decompose": build_decompose}
