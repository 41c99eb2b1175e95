"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  Tolerances are pinned here, not configurable.
"""

import json
import math
import os
import time

import numpy as np
import pytest

import weightlab as wl
import weightlab.experiments as exp
from weightlab.constants import DIM

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def _report(n, label, elapsed, budget):
    assert elapsed < budget, f"criterion {n} overran its {budget}s budget: {elapsed:.1f}s"
    print(f"ACCEPTANCE {n:02d} {label}: PASS ({elapsed:.1f}s < {budget}s)")


def test_criterion_01_sharpness_table_analytic():
    t0 = time.time()
    deltas = [0.5, 1 / 3, 0.25, 0.2]
    res = wl.sharpness_a1_sweep(deltas)
    for row in res.rows:
        d = row["delta"]
        assert row["numerator"] == d**-3
        assert row["denominator"] == d**-2
        assert row["ratio"] == (d**-3) / (d**-2)
        assert row["numerator"] * d**3 == pytest.approx(1.0, rel=1e-13)
        assert row["ratio"] * d == pytest.approx(1.0, rel=1e-13)
    assert res.rows[0]["ratio"] == 2.0 and res.rows[2]["ratio"] == 4.0
    fit = res.fits["ratio_vs_inv_delta"]
    assert abs(fit.slope - 1.0) <= 1e-3
    _report(1, "linear-sharpness analytic table", time.time() - t0, 1.0)


def test_criterion_02_sharpness_grid_cross_check():
    t0 = time.time()
    ratios = {}
    for L in (12, 13, 14):
        row = exp.sharpness_a1_grid(0.5, L=L)
        assert row["J"] == 4
        ratios[L] = row["ratio"]
    analytic = 2.0
    assert abs(ratios[12] - analytic) / analytic <= 0.15
    # refinement moves the ratio toward/above the analytic bound monotonically
    assert ratios[12] <= ratios[13] <= ratios[14] <= analytic * 1.15
    _report(2, "linear-sharpness grid cross-check L=12..14", time.time() - t0, 60.0)


def test_criterion_03_product_sharpness_table():
    t0 = time.time()
    alphas = [0.5, 0.25, 0.125, 0.0625]
    deltas = [0.5, 1 / 3, 0.25, 0.2]
    res = wl.sharpness_product_sweep(alphas, deltas)
    rows = {(r["alpha"], r["delta"]): r for r in res.rows}
    assert rows[(0.5, 0.5)]["numerator"] == 6.0
    assert rows[(0.5, 0.5)]["denominator"] == 2.0
    assert abs(res.fits["ratio_vs_inv_alpha"].slope - 1.0) <= 1e-3
    assert res.fits["ratio_vs_inv_delta"].slope >= 0.9
    _report(3, "product lower-bound table", time.time() - t0, 5.0)


def test_criterion_04_cz_property_campaign():
    t0 = time.time()
    rng = np.random.default_rng(1234)
    g = wl.build_grid(1, 8)
    checked = 0
    for _ in range(200):
        vals = tuple(float(x) for x in np.exp(rng.standard_normal(g.ncells) * 0.8))
        v = wl.realize(wl.Piecewise(vals), g)
        f = wl.GridFunction(
            g, rng.lognormal(size=g.ncells) * (rng.random(g.ncells) < 0.7)
        )
        root_avg = float(np.sum(np.abs(f.values) * v.cell_masses) / v.cell_masses.sum())
        for c in (1.2, 2.0, 4.0):
            t = root_avg * c
            dec = wl.cz_decompose(f, v, t)
            rep = wl.verify_cz(dec, v, 2.0)
            assert rep.above_height.ok
            assert rep.average_bound.ok  # t < avg <= 2^{nr}[v]_{A_r} t
            assert rep.good_bound.ok
            assert rep.cancellation.ok  # |int b_j v| <= 1e-12 int_{Q_j}|f| v
            assert rep.small_off_omega.ok
            dom = wl.pointwise_domination_check(dec, v)
            assert dom.domination_ok
            assert dom.off_omega_exact_zero  # exact vanishing off Omega
            checked += 1
    assert checked == 600
    _report(4, "CZ property campaign (200x3)", time.time() - t0, 120.0)


def test_criterion_05_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(55)
    for i in range(100):
        J = int(rng.integers(0, 3))
        L = int(rng.integers(4, 11 - J))
        g = wl.build_grid(J, L)
        f = wl.GridFunction(
            g, rng.lognormal(size=g.ncells) * (rng.random(g.ncells) < 0.7)
        )
        signed = bool(i % 2)
        fs = wl.GridFunction(g, f.values * rng.choice([-1.0, 1.0], size=g.ncells))
        assert np.array_equal(
            wl.dyadic_maximal(fs, signed=signed).values,
            wl.dyadic_maximal_brute(fs, signed=signed).values,
        )
        assert np.array_equal(
            wl.uncentered_maximal(f).values, wl.uncentered_maximal_brute(f).values
        )
        v = wl.realize(
            wl.Piecewise(tuple(float(x) for x in rng.lognormal(size=g.ncells))), g
        )
        assert np.array_equal(
            wl.weighted_dyadic_maximal(f, v).values,
            wl.weighted_dyadic_maximal_brute(f, v).values,
        )
        # weak quasi-norm dominates every threshold grid and attains at t*
        mu = rng.lognormal(size=g.ncells)
        value, t_star = wl.weak_l1_norm(f, mu)
        from weightlab.norms import weak_l1_threshold_scan

        assert weak_l1_threshold_scan(f, mu, 1000) <= value * (1 + 1e-12)
        if value > 0:
            attained = t_star * float(mu[f.values >= t_star].sum())
            assert attained == pytest.approx(value, rel=1e-14)
    _report(5, "oracle equivalence (100 seeded instances)", time.time() - t0, 120.0)


def test_criterion_06_constant_suites():
    t0 = time.time()
    rng = np.random.default_rng(66)
    g = wl.build_grid(1, 6)
    ps = (1.5, 2.0, 3.0)
    weights = []
    for i in range(50):
        vals = tuple(float(v) for v in rng.lognormal(size=g.ncells))
        weights.append((f"w{i}", wl.with_cached(wl.realize(wl.Piecewise(vals), g), dual=ps)))
    for _, w in weights:
        for p in ps:
            for k in g.levels():
                scale = 2.0 ** float(k)
                ap_level = (w.mass[g.L - k] * scale) * (w.duals[p][g.L - k] * scale) ** (p - 1.0)
                assert np.all(ap_level >= 1.0 - 1e-12)  # Jensen on every cube
    rep = wl.mixed_lemma_check(weights, list(ps))
    assert rep.all_ok
    for _, w in weights[:10]:
        for r in (1.5, 2.0, 3.0):
            assert exp.dual_exponent_identity_max_rel(w, r) <= 1e-10
    _report(6, "constant suites (Jensen, mixed chain, dual identity)", time.time() - t0, 120.0)


def test_criterion_07_reverse_holder():
    t0 = time.time()
    rng = np.random.default_rng(77)
    g = wl.build_grid(1, 7)
    for i in range(50):
        w = wl.random_a1_weight(g, rng, cap=10.0)
        rep = wl.reverse_holder_check(w, seed=i)
        assert rep.a1 <= 10.0
        assert rep.r_w == 1.0 + 1.0 / (2.0 ** (DIM + 1) * rep.a1)
        assert rep.rh_ok, (i, rep.max_lhs_over_rhs)
        assert rep.levelset_violations == 0
    _report(7, "reverse-Holder campaign (50 weights, zero failures)", time.time() - t0, 60.0)


def test_criterion_08_chain_verification():
    t0 = time.time()
    with open(os.path.join(GOLDEN, "sawyer_envelope.json")) as fh:
        golden = json.load(fh)
    rng = np.random.default_rng(golden["seed"])
    env_max = 0.0
    for i in range(golden["pairs"]):
        J = int(rng.integers(0, 3))
        L = int(rng.integers(6, 9))
        g = wl.build_grid(J, L)
        u = wl.random_a1_weight(g, rng, cap=8.0)
        v = wl.random_a1_weight(g, rng, cap=8.0)
        gf = wl.GridFunction(
            g, rng.lognormal(size=g.ncells) * (rng.random(g.ncells) < 0.6)
        )
        rec = wl.build_record(gf, v, a=4.0, delta_frac=0.5)
        wl.principal_cubes(rec, u)
        rep = wl.verify_chain(rec, u, v, gf, seed=i)
        assert rep.b2.ok and rep.b3.ok and rep.b6.ok and rep.b9.ok and rep.b10.ok, i
        assert rep.h_bound.ok and rep.levelset.ok, i
        env_max = max(env_max, rep.envelope)
    assert env_max <= golden["envelope_cap"]
    _report(8, "principal-cubes chain campaign (50 pairs)", time.time() - t0, 300.0)


def test_criterion_09_parameter_algebra():
    t0 = time.time()
    vs = list(np.geomspace(1.0, 1e6, 121))
    rows = [exp.r_parameters(v, p) for v in vs for p in [1.0, 2.0, 4.0, 8.0]]
    for row in rows:
        assert row["r_pow"] <= 4.0 * row["max_term"], row
        assert row["ap_pow"] <= math.e**4, row
    assert len(rows) == 121 * 4
    _report(9, "decomposition-exponent algebra", time.time() - t0, 1.0)


def test_criterion_10_bound_audit_envelope():
    t0 = time.time()
    envs = {}
    for L in (8, 9):
        g = wl.build_grid(1, L)
        fam = exp.step_family(g)
        env = 0.0
        for p in (1.0, 2.0):
            rep = exp.bound_audit_ap(fam, p)
            assert rep.all_ok  # the r-algebra side conditions
            env = max(env, rep.envelope_ainf)
        envs[L] = env
    assert envs[8] <= 4.0  # one family-wide constant
    assert envs[9] <= 4.0
    assert abs(envs[9] / envs[8] - 1.0) < 0.10  # refinement stability
    _report(10, "weak-type bound-audit envelope", time.time() - t0, 300.0)
