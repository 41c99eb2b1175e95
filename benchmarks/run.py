#!/usr/bin/env python3
"""weightlab benchmark: three seeded campaigns timed by per-class medians.

    python3 benchmarks/run.py --workload refine --seed 1 --seconds 40 --trace 0

Workloads: refine, audit, decompose, or all (each in turn, one process).
A run sets up its inputs several times (setup_s is the median), then runs
whole rounds of the campaign until the next round would overrun --seconds.
Every instance is timed on its own; a size class reports the median of
its completed instances.  Every time is scaled to the host's typical
speed by a fixed reference kernel timed around each instance (SpeedProbe).
With --trace 1, untraced and traced rounds alternate and the per-layer
metrics come from the traced ones.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The program is imported from the
src/ directory next to this one; without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from time import perf_counter

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("refine", "audit", "decompose")
SETUP_REPEATS = 5
# Median time of reference_work() on the 2-core host the bounds were set on.
REFERENCE_TYPICAL_S = 0.0087

END_TO_END = {
    "campaign_s": "s",
    "instance_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> unit; self times and counts are per set-up plus campaign
PER_LAYER = {
    "weights.realize.self_s": "s",
    "weights.csv_io.self_s": "s",
    "constants.ainf_fw.self_s": "s",
    "constants.ainf_fw.exponent": "1",
    "constants.reverse_holder_check.self_s": "s",
    "constants.reverse_holder_check.samples": "count",
    "constants.reverse_holder_check.exponent": "1",
    "constants.global_constant.self_s": "s",
    "maximal.uncentered_maximal.self_s": "s",
    "maximal.uncentered_maximal.cells": "count",
    "maximal.uncentered_maximal.exponent": "1",
    "maximal.uncentered_restricted.self_s": "s",
    "maximal.uncentered_restricted.calls": "count",
    "maximal.dyadic_maximal.self_s": "s",
    "maximal.dyadic_maximal.calls": "count",
    "norms.mixed_ratio.self_s": "s",
    "norms.weak_l1_norm.self_s": "s",
    "norms.lp_norm.self_s": "s",
    "czd.cz_decompose.self_s": "s",
    "czd.verify_cz.self_s": "s",
    "czd.pointwise_domination_check.self_s": "s",
    "czd.pointwise_domination_check.exponent": "1",
    "czd.cubes_selected": "count",
    "sawyer.build_record.self_s": "s",
    "sawyer.principal_cubes.self_s": "s",
    "sawyer.verify_chain.self_s": "s",
    "sawyer.verify_chain.exponent": "1",
    "sawyer.gamma_pairs": "count",
    "sawyer.generations": "count",
    "experiments.bound_audit_ap.self_s": "s",
    "experiments.buckley_empirical.self_s": "s",
    "experiments.mixed_lemma_check.self_s": "s",
    "experiments.sharpness_a1_grid.self_s": "s",
    "experiments.random_a1_weight.self_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


def reference_work() -> float:
    """A fixed mix of small numpy kernels and interpreter work that does not
    touch weightlab; its speed stands for the host's speed at the moment."""
    x = np.linspace(1.0, 2.0, 4096)
    acc = 0.0
    for i in range(0, 2048, 8):
        acc += float(np.cumsum(x[i:])[-1])
    counts: dict = {}
    for i in range(30000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return acc


class SpeedProbe:
    """reference_work() timed between pieces of measured work.

    A piece timed between two probes is scaled to the host's typical speed
    by REFERENCE_TYPICAL_S over the mean of the two probe times.
    """

    def __init__(self):
        self.samples: list[float] = []

    def tick(self) -> float:
        t0 = perf_counter()
        reference_work()
        self.samples.append(perf_counter() - t0)
        return self.samples[-1]

    @staticmethod
    def factor(before: float, after: float) -> float:
        return 2.0 * REFERENCE_TYPICAL_S / (before + after)


def _import_program():
    """Import weightlab from ROOT/src only; None when it is not there."""
    if not os.path.isfile(os.path.join(SRC, "weightlab", "__init__.py")):
        return None
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import weightlab

    if os.path.dirname(os.path.dirname(os.path.abspath(weightlab.__file__))) != SRC:
        return None
    return weightlab


class Ledger:
    """Per-class instance timings and failures of one workload run."""

    def __init__(self, campaign, probe: SpeedProbe):
        self.campaign = campaign
        self.probe = probe
        self.per_round = {}
        for inst in campaign.instances:
            self.per_round[inst.cls] = self.per_round.get(inst.cls, 0) + 1
        self.cells = {inst.cls: inst.cells for inst in campaign.instances}
        self.attempted = 0
        self.failed = 0
        self.check_failures: list[str] = []
        self.errors: dict[str, int] = {}
        # (mode, instance key, class, measured seconds, speed factor)
        self.completed: list[tuple] = []

    def run_round(self, rnd: int, mode: str, tracer=None) -> None:
        before = self.probe.tick()
        for inst in self.campaign.instances:
            key = f"{rnd}:{inst.name}"
            if tracer is not None:
                tracer.instance = key
            self.attempted += 1
            t0 = perf_counter()
            try:
                result = inst.call()
            except Exception as exc:  # a program fault fails the instance, not the run
                self.failed += 1
                tb = traceback.extract_tb(exc.__traceback__)[-1]
                where = f"{type(exc).__name__} at {os.path.basename(tb.filename)}:{tb.lineno}"
                self.errors[where] = self.errors.get(where, 0) + 1
                before = self.probe.tick()
                continue
            seconds = perf_counter() - t0
            after = self.probe.tick()
            factor = SpeedProbe.factor(before, after)
            before = after
            problems = inst.check(result)
            if problems:
                self.failed += 1
                self.check_failures.append(f"{inst.name}: {problems[0]}")
                continue
            self.completed.append((mode, key, inst.cls, seconds, factor))

    def samples(self, mode: str, scaled: bool = True) -> dict:
        """Wall times of the completed instances by class, at the host's
        typical speed unless scaled is False."""
        out = {c: [] for c in self.per_round}
        for m, _, cls, seconds, factor in self.completed:
            if m == mode:
                out[cls].append(seconds * factor if scaled else seconds)
        return out

    def class_medians(self, mode: str, scaled: bool = True) -> dict:
        return {c: statistics.median(s) for c, s in self.samples(mode, scaled).items() if s}

    def campaign_s(self, mode: str, scaled: bool = True) -> float:
        med = self.class_medians(mode, scaled)
        return sum(self.per_round[c] * med.get(c, 0.0) for c in self.per_round)


def _per_layer(ledger: Ledger, tracer, setup_factor: float, scaling_fit) -> dict:
    """Layer self times and counts per set-up plus campaign (class medians
    times instances per round), and log-log slopes over the size classes.
    Self times are scaled to the host's typical speed like the instances."""
    by_class: dict = {c: [] for c in ledger.per_round}
    for mode, key, cls, seconds, factor in ledger.completed:
        if mode == "traced":
            by_class[cls].append((key, seconds, factor))
    metrics = {name: 0.0 for name in PER_LAYER}
    layer_keys = {k for inst in tracer.self_s.values() for k in inst}
    count_keys = {k for inst in tracer.counts.values() for k in inst}
    slopes: dict = {}
    for cls, items in by_class.items():
        if not items:
            continue
        n = ledger.per_round[cls]
        for layer in layer_keys:
            med = statistics.median(tracer.self_s[key].get(layer, 0.0) * f for key, _, f in items)
            metrics[layer + ".self_s"] = metrics.get(layer + ".self_s", 0.0) + n * med
            if med > 0:
                slopes.setdefault(layer, []).append((ledger.cells[cls], med))
        for name in count_keys:
            med = statistics.median(tracer.counts[key].get(name, 0) for key, _, _ in items)
            metrics[name] = metrics.get(name, 0.0) + n * med
        loose = statistics.median(
            (seconds - sum(tracer.self_s[key].values())) * f for key, seconds, f in items)
        metrics["trace.unattributed_s"] += n * loose
    for layer, value in tracer.self_s["setup"].items():
        metrics[layer + ".self_s"] = metrics.get(layer + ".self_s", 0.0) + value * setup_factor
    for name, value in tracer.counts["setup"].items():
        metrics[name] = metrics.get(name, 0.0) + value
    for layer, points in slopes.items():
        if len({x for x, _ in points}) >= 3:
            metrics[layer + ".exponent"] = scaling_fit(points).slope
    metrics["trace.overhead_s"] = ledger.campaign_s("traced") - ledger.campaign_s("plain")
    return {name: metrics.get(name, 0.0) for name in PER_LAYER}


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One workload run; returns the result dict and prints a summary."""
    import campaigns
    import spans
    from weightlab.experiments import scaling_fit

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    probe = SpeedProbe()
    try:
        setup_measured, setup_scaled = [], []
        before = probe.tick()
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            campaign = campaigns.CAMPAIGNS[name](seed, tiny, workdir)
            setup_measured.append(perf_counter() - t0)
            after = probe.tick()
            setup_scaled.append(setup_measured[-1] * SpeedProbe.factor(before, after))
            before = after
        ledger = Ledger(campaign, probe)
        tracer = None
        if trace:
            tracer = spans.Tracer()
            with tracer.installed():
                campaign = campaigns.CAMPAIGNS[name](seed, tiny, workdir)
            setup_factor = SpeedProbe.factor(before, probe.tick())
            ledger.campaign = campaign
        start = perf_counter()
        longest = 0.0
        rnd = 0
        while True:
            r0 = perf_counter()
            ledger.run_round(rnd, "plain")
            if tracer is not None:
                with tracer.installed():
                    ledger.run_round(rnd, "traced", tracer)
            rnd += 1
            longest = max(longest, perf_counter() - r0)
            if perf_counter() - start + longest > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = not ledger.check_failures
    measured = {
        "campaign_s": ledger.campaign_s("plain", scaled=False),
        "instance_p50_ms": 1000.0 * ledger.class_medians("plain", scaled=False).get(campaign.p50_class, float("nan")),
        "setup_s": statistics.median(setup_measured),
    }
    if trace:
        metrics = _per_layer(ledger, tracer, setup_factor, scaling_fit)
        units = PER_LAYER
        tracer.write(os.path.join(OUT, f"trace-{name}.jsonl"))
    else:
        metrics = {
            "campaign_s": ledger.campaign_s("plain"),
            "instance_p50_ms": 1000.0 * ledger.class_medians("plain").get(campaign.p50_class, float("nan")),
            "setup_s": statistics.median(setup_scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    print(f"[{name}] seed {seed}: {rnd} rounds, attempted {ledger.attempted}, failed {ledger.failed}")
    print(f"[{name}] host speed: reference median {1000 * statistics.median(probe.samples):.3f} ms "
          f"over {len(probe.samples)} samples (typical {1000 * REFERENCE_TYPICAL_S} ms)")
    for where, count in sorted(ledger.errors.items()):
        print(f"[{name}]   failed: {count} x {where}")
    for line in ledger.check_failures[:10]:
        print(f"[{name}]   wrong output: {line}")
    samples = ledger.samples("plain")
    medians = ledger.class_medians("plain")
    for cls in ledger.per_round:
        med = f"{1000 * medians[cls]:.3f} ms" if cls in medians else "-"
        print(f"[{name}]   class {cls}: {ledger.per_round[cls]} per round, "
              f"{len(samples[cls])} samples, median {med}")
    for metric, value in metrics.items():
        note = f" (measured {measured[metric]!r})" if metric in measured and not trace else ""
        print(f"[{name}] {metric} = {value!r} {units[metric]}{note}")
    with open(os.path.join(OUT, f"result-{name}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump({"workload": name, "seed": seed, "rounds": rnd, "setup_s": setup_scaled,
                   "samples": samples, "measured_samples": ledger.samples("plain", scaled=False),
                   "per_round": ledger.per_round, "reference": probe.samples,
                   "measured": measured, "metrics": metrics}, fh)
    return {
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    t0 = perf_counter()
    if _import_program() is None:
        print(f"error: weightlab sources not found under {SRC}", file=sys.stderr)
        return 2
    print(f"import weightlab: {perf_counter() - t0:.3f} s")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
