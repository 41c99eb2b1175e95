"""Tests of the benchmark itself: smoke runs at tiny sizes, the output
checkers against weightlab's brute-force oracles, and the checkers'
rejection of planted wrong answers.

    python3 -m pytest -q benchmarks/tests
"""

import copy
import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import run  # noqa: E402

assert run._import_program() is not None

import campaigns  # noqa: E402
import checks  # noqa: E402
import weightlab as wl  # noqa: E402
from weightlab.constants import ConstantKind, ainf_fw_local  # noqa: E402
from weightlab.maximal import dyadic_maximal_brute, uncentered_maximal_brute  # noqa: E402
from weightlab.sawyer import level_cubes  # noqa: E402

# per-layer metrics that must be non-zero on the workload the README maps them to
MAPPED = {
    "refine": [
        "maximal.uncentered_maximal.self_s",
        "maximal.uncentered_maximal.cells",
        "maximal.uncentered_maximal.exponent",
        "norms.mixed_ratio.self_s",
        "norms.weak_l1_norm.self_s",
        "experiments.sharpness_a1_grid.self_s",
        "weights.realize.self_s",
    ],
    "audit": [
        "constants.ainf_fw.self_s",
        "constants.ainf_fw.exponent",
        "constants.reverse_holder_check.self_s",
        "constants.reverse_holder_check.samples",
        "constants.reverse_holder_check.exponent",
        "constants.global_constant.self_s",
        "maximal.uncentered_restricted.self_s",
        "maximal.uncentered_restricted.calls",
        "norms.lp_norm.self_s",
        "experiments.bound_audit_ap.self_s",
        "experiments.buckley_empirical.self_s",
        "experiments.mixed_lemma_check.self_s",
        "experiments.random_a1_weight.self_s",
        "weights.realize.self_s",
    ],
    "decompose": [
        "weights.csv_io.self_s",
        "weights.realize.self_s",
        "constants.global_constant.self_s",
        "maximal.dyadic_maximal.self_s",
        "maximal.dyadic_maximal.calls",
        "czd.cz_decompose.self_s",
        "czd.verify_cz.self_s",
        "czd.pointwise_domination_check.self_s",
        "czd.pointwise_domination_check.exponent",
        "czd.cubes_selected",
        "sawyer.build_record.self_s",
        "sawyer.principal_cubes.self_s",
        "sawyer.verify_chain.self_s",
        "sawyer.verify_chain.exponent",
        "sawyer.gamma_pairs",
        "sawyer.generations",
        "experiments.random_a1_weight.self_s",
        "cli.main.self_s",
    ],
}


@pytest.fixture
def rng():
    return np.random.default_rng(7)


# ---------------------------------------------------------------------------
# smoke runs


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_smoke_run_every_workload(name):
    shares = set()
    for seed in (5, 6):
        res = run.run_workload(name, seed, 0.01, trace=False, tiny=True)
        assert res["correct"]
        assert res["attempted"] >= 1
        assert set(res["metrics"]) == set(run.END_TO_END)
        assert all(m["value"] > 0 for m in res["metrics"].values())
        shares.add((res["failed"], res["attempted"]))
    assert len(shares) == 1  # the failed share does not depend on the seed
    if name != "refine":
        assert shares == {(0, res["attempted"])}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_run_fills_the_mapped_layers(name):
    res = run.run_workload(name, 5, 0.01, trace=True, tiny=True)
    assert res["correct"]
    assert set(res["metrics"]) == set(run.PER_LAYER)
    for metric in MAPPED[name]:
        assert res["metrics"][metric]["value"] != 0, metric


def test_refine_keeps_the_hull_index_error():
    res = run.run_workload("refine", 5, 0.01, trace=False, tiny=True)
    assert res["failed"] >= 1  # the 3-piece step function with cuts 3979, 5888


def test_benchmark_json_matches_the_code():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "refine", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout


# ---------------------------------------------------------------------------
# checkers against the program's oracles


def _step(rng, n):
    k = int(rng.integers(1, 6))
    cuts = np.sort(rng.choice(np.arange(1, n), k - 1, replace=False))
    bounds = np.concatenate([[0], cuts, [n]])
    heights = rng.uniform(0.0, 3.0, k)
    return bounds, heights, np.repeat(heights, np.diff(bounds))


def test_step_reference_matches_brute_oracle(rng):
    g = wl.build_grid(0, 6)
    for _ in range(40):
        bounds, heights, vals = _step(rng, g.ncells)
        want = uncentered_maximal_brute(wl.GridFunction(g, vals)).values
        got = checks.step_maximal_reference(bounds, heights)
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(want, 1e-300))


def test_dyadic_reference_matches_brute_oracle(rng):
    g = wl.build_grid(1, 5)
    f = wl.GridFunction(g, rng.lognormal(size=g.ncells))
    assert np.array_equal(checks.dyadic_maximal_reference(f.values), dyadic_maximal_brute(f).values)


def test_fujii_wilson_sweep_matches_program(rng):
    g = wl.build_grid(1, 6)
    w = wl.random_a1_weight(g, rng)
    for q in (wl.Cube(-1, 0), wl.Cube(0, 0), wl.Cube(0, 1)):
        cells = wl.cells_of(g, q)
        want = ainf_fw_local(w, q)
        got = checks.fujii_wilson_local(w.cell_values[cells.start : cells.stop])
        assert abs(got - want) <= 1e-12 * want


def test_cube_constants_match_program(rng):
    g = wl.build_grid(1, 6)
    w = wl.random_a1_weight(g, rng)
    ref = checks.cube_constants(w.cell_values, 2.0)
    mixed = wl.global_constant(w, ConstantKind("Mixed", p=2.0, alpha=0.5, beta=0.5)).value
    assert abs(ref["a1"] - wl.a1_constant(w)) <= 1e-12 * ref["a1"]
    assert abs(ref["ap"] - wl.ap_constant(w, 2.0)) <= 1e-12 * ref["ap"]
    assert abs(ref["mixed"] - mixed) <= 1e-12 * ref["mixed"]


def test_strata_reference_matches_level_cubes(rng):
    g = wl.build_grid(1, 6)
    v = wl.random_a1_weight(g, rng, cap=8.0)
    f = wl.GridFunction(g, rng.lognormal(size=g.ncells) * (rng.random(g.ncells) < 0.6))
    for k in range(-2, 3):
        want = [(q.level, q.index) for q in level_cubes(f, v, 4.0, k)]
        assert checks.strata_reference(f.values, v.cell_values, 4.0, k, g.L) == want


def _czd_case(rng, L=6):
    g = wl.build_grid(1, L)
    v = wl.random_a1_weight(g, rng, cap=8.0)
    f = rng.lognormal(size=g.ncells) * (rng.random(g.ncells) < 0.6)
    vmass = v.cell_masses
    t = 2.0 * float(np.sum(f * vmass) / np.sum(vmass))
    dec = wl.cz_decompose(wl.GridFunction(g, f), v, t)
    return g, v, f, t, json.loads(json.dumps(dec.to_json_dict())), dec.good.values, dec.bad_total.values


def test_czd_checker_accepts_the_program(rng):
    for _ in range(5):
        g, v, f, t, report, good, bad = _czd_case(rng)
        assert report["cubes"]
        assert checks.check_czd(f, v.cell_values, g.L, t, report, good, bad) == []


def _sawyer_case(rng, L=6):
    g = wl.build_grid(1, L)
    u = wl.random_a1_weight(g, rng, cap=8.0)
    v = wl.random_a1_weight(g, rng, cap=8.0)
    f = rng.lognormal(size=g.ncells) * (rng.random(g.ncells) < 0.6)
    gf = wl.GridFunction(g, f)
    rec = wl.build_record(gf, v)
    wl.principal_cubes(rec, u)
    chain = wl.verify_chain(rec, u, v, gf)
    report = json.loads(json.dumps(rec.to_json_dict() | {"chain": chain.to_json_dict()}))
    return g, v, f, report


def test_sawyer_checker_accepts_the_program(rng):
    for _ in range(5):
        g, v, f, report = _sawyer_case(rng)
        assert checks.check_sawyer(f, v.cell_values, g.L, report) == []


def _audit_case(rng, L=5):
    g = wl.build_grid(1, L)
    v = wl.random_a1_weight(g, rng, cap=16.0)
    corpus = wl.test_function_corpus(g, seed=1, n_random=4)
    named = [("v", v)]
    reports = {
        "audit_p1": wl.bound_audit_ap(named, 1.0, corpus=corpus),
        "audit_p2": wl.bound_audit_ap(named, 2.0, corpus=corpus),
        "lemma": wl.mixed_lemma_check(named, [2.0]),
        "rh": wl.reverse_holder_check(v, seed=1),
        "buckley": wl.buckley_empirical(v, 2.0, corpus=corpus),
    }
    return v, reports


def test_audit_checker_accepts_the_program(rng):
    v, reports = _audit_case(rng)
    assert checks.check_audit(v.cell_values, 2.0, reports) == []


# ---------------------------------------------------------------------------
# planted wrong answers


def test_step_checker_rejects_one_cell_off_by_1e9(rng):
    bounds, heights, vals = _step(rng, 8192)
    mf = checks.step_maximal_reference(bounds, heights)
    ratio = checks.weak_ratio_reference(mf, vals)
    assert checks.check_step_row(vals, bounds, heights, mf, ratio) == []
    bad = mf.copy()
    bad[int(rng.integers(0, 8192))] *= 1 + 1e-9
    assert checks.check_step_row(vals, bounds, heights, bad, ratio)
    assert checks.check_step_row(vals, bounds, heights, mf, ratio * (1 + 1e-9))


def test_lognormal_checker_rejects_planted_errors(rng):
    f = rng.lognormal(size=1 << 12)
    mf = wl.uncentered_maximal(wl.GridFunction(wl.build_grid(0, 12), f)).values
    ratio = checks.weak_ratio_reference(mf, f)
    assert checks.check_lognormal_row(f, mf, ratio) == []
    low = mf.copy()
    i = int(np.argmin(mf - f))  # a cell where M f is attained by the cell itself
    low[i] = f[i] * (1 - 1e-9)
    assert checks.check_lognormal_row(f, low, checks.weak_ratio_reference(low, f))
    high = mf.copy()
    high[0] = f.max() * (1 + 1e-9)
    assert checks.check_lognormal_row(f, high, checks.weak_ratio_reference(high, f))


def test_sharpness_checker_rejects_a_flat_ladder():
    rows = [{"L": L, "ratio": 2.0 - 2.0 ** -(L + 5)} for L in (8, 9)]
    assert checks.check_sharpness_row(rows[1], rows[0]) == []
    assert checks.check_sharpness_row({"L": 9, "ratio": rows[0]["ratio"]}, rows[0])
    assert checks.check_sharpness_row({"L": 9, "ratio": 2.0}, rows[0])


def test_audit_checker_rejects_planted_errors(rng):
    v, reports = _audit_case(rng)
    bad = copy.deepcopy(reports)
    bad["audit_p2"].rows[0]["ap"] *= 1 + 1e-8
    assert checks.check_audit(v.cell_values, 2.0, bad)
    bad = copy.deepcopy(reports)
    for key in ("audit_p1", "audit_p2"):
        bad[key].rows[0]["ainf_fw"] = 0.99 * checks.fujii_wilson_local(v.cell_values)
    assert checks.check_audit(v.cell_values, 2.0, bad)
    bad = copy.deepcopy(reports)
    bad["rh"] = dataclasses.replace(bad["rh"], levelset_violations=1)
    assert checks.check_audit(v.cell_values, 2.0, bad)
    bad = copy.deepcopy(reports)
    bad["lemma"].rows[0]["mixed"] *= 1 + 1e-8
    assert checks.check_audit(v.cell_values, 2.0, bad)


def test_czd_checker_rejects_a_dropped_cube(rng):
    g, v, f, t, report, good, bad = _czd_case(rng)
    dropped = copy.deepcopy(report)
    dropped["cubes"].pop(len(dropped["cubes"]) // 2)
    assert checks.check_czd(f, v.cell_values, g.L, t, dropped, good, bad)
    off = bad.copy()
    off[np.nonzero(bad)[0][0]] *= 1 + 1e-6
    assert checks.check_czd(f, v.cell_values, g.L, t, report, good, off)


def test_sawyer_checker_rejects_a_dropped_cube(rng):
    g, v, f, report = _sawyer_case(rng)
    bad = copy.deepcopy(report)
    stratum = max(bad["strata"], key=lambda s: len(s["cubes"]))
    stratum["cubes"].pop()
    assert checks.check_sawyer(f, v.cell_values, g.L, bad)
    bad = copy.deepcopy(report)
    bad["chain"]["pass"] = False
    assert checks.check_sawyer(f, v.cell_values, g.L, bad)
