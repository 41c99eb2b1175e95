import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest

import weightlab as wl
from weightlab import czd
from weightlab.constants import DIM, ap_constant, encode_nonfinite
from weightlab.czd import CheckResult, CZVerifyReport
from weightlab.errors import ConfigError
from weightlab.grid import Cube
from conftest import overflowing_weight, random_function


def brute_stopping_cubes(f, v, t):
    """Oracle: a cube is selected iff its |f| v-average exceeds t and no
    strict ancestor's does."""
    g = f.grid

    def avg(q):
        r = wl.cells_of(g, q)
        sl = slice(r.start, r.stop)
        return float(
            np.sum(np.abs(f.values[sl]) * v.cell_masses[sl]) / v.cell_masses[sl].sum()
        )

    out = []
    for q in wl.all_cubes(g):
        if avg(q) <= t:
            continue
        anc_ok = True
        cur = q
        while cur.level > -g.J:
            cur = wl.parent(g, cur)
            if avg(cur) > t:
                anc_ok = False
                break
        if anc_ok:
            out.append(q)
    return sorted(out, key=lambda q: wl.cells_of(g, q).start)


def test_single_indicator_example():
    # f = chi_{Q0} with Q0 = [0,1) inside [0,2), v = 1, t = 3/4
    g = wl.build_grid(1, 3)
    f = wl.GridFunction(g, np.array([1.0] * 8 + [0.0] * 8))
    v = wl.realize(wl.Constant(1.0), g)
    dec = wl.cz_decompose(f, v, 0.75)
    assert dec.cubes == [Cube(0, 0)]
    assert dec.averages == [1.0]
    assert not dec.truncated
    assert np.all(dec.bad_total.values == 0.0)
    assert np.all(dec.good.values[:8] == 1.0)
    assert np.all(dec.good.values[8:] == 0.0)
    rep = wl.verify_cz(dec, v, 2.0)
    # a_j = 1 <= 2^2 * (3/4) * 1 = 3
    assert rep.bound == pytest.approx(3.0)
    assert rep.all_ok


def test_no_selection_when_below_height(rng):
    g = wl.build_grid(1, 5)
    f = random_function(g, rng)
    v = wl.realize(wl.Constant(1.0), g)
    t = float(np.abs(f.values).max()) + 1.0
    dec = wl.cz_decompose(f, v, t)
    assert dec.cubes == []
    assert np.array_equal(dec.good.values, f.values)
    assert np.all(dec.bad_total.values == 0.0)
    assert wl.verify_cz(dec, v, 2.0).all_ok


def test_truncated_root():
    g = wl.build_grid(0, 3)
    f = wl.GridFunction(g, np.full(8, 5.0))
    v = wl.realize(wl.Constant(1.0), g)
    dec = wl.cz_decompose(f, v, 1.0)
    assert dec.truncated
    assert dec.cubes == [g.root]
    rep = wl.verify_cz(dec, v, 2.0)
    assert rep.all_ok  # the parent-route check is vacuous for the root


def test_height_validation(rng):
    g = wl.build_grid(0, 3)
    f = random_function(g, rng)
    v = wl.realize(wl.Constant(1.0), g)
    with pytest.raises(ConfigError):
        wl.cz_decompose(f, v, 0.0)
    with pytest.raises(ConfigError):
        wl.cz_decompose(f, v, -1.0)


def test_matches_brute_stopping_time(rng):
    g = wl.build_grid(1, 6)
    for _ in range(10):
        f = random_function(g, rng)
        vals = tuple(float(x) for x in rng.lognormal(size=g.ncells))
        v = wl.realize(wl.Piecewise(vals), g)
        root_avg = float(
            np.sum(np.abs(f.values) * v.cell_masses) / v.cell_masses.sum()
        )
        t = max(float(np.median(np.abs(f.values))) or 0.1, root_avg * 1.05)
        dec = wl.cz_decompose(f, v, t)
        assert dec.cubes == brute_stopping_cubes(f, v, t)
    # a truncated root, and a height that selects single cells only
    for t, levels in ((root_avg * 0.5, {-g.J}), (float(np.abs(f.values).max()) * 0.99, {g.L})):
        dec = wl.cz_decompose(f, v, t)
        assert dec.cubes == brute_stopping_cubes(f, v, t)
        assert {q.level for q in dec.cubes} == levels
    # a height equal to a cube average, with exact sums (integer f, v = 1):
    # the test is strict, so neither that cube nor the root is selected
    f = wl.GridFunction(g, rng.integers(0, 9, g.ncells).astype(float))
    v = wl.realize(wl.Constant(1.0), g)
    t = max(float(f.values[:64].mean()), float(f.values[64:].mean()))
    dec = wl.cz_decompose(f, v, t)
    assert dec.cubes == brute_stopping_cubes(f, v, t)
    assert dec.cubes and not any(q.level <= 0 for q in dec.cubes)


def test_invariants_random(rng):
    g = wl.build_grid(1, 8)
    v = wl.realize(
        wl.Piecewise(tuple(float(x) for x in np.exp(rng.standard_normal(g.ncells)))), g
    )
    f = random_function(g, rng)
    root_avg = float(np.sum(np.abs(f.values) * v.cell_masses) / v.cell_masses.sum())
    t = root_avg * 1.5
    dec = wl.cz_decompose(f, v, t)
    assert len(dec.cubes) > 0
    # disjointness
    covered = np.zeros(g.ncells, dtype=int)
    for q in dec.cubes:
        r = wl.cells_of(g, q)
        covered[r.start : r.stop] += 1
    assert covered.max() <= 1
    # maximality: parent averages <= t
    for q in dec.cubes:
        p = wl.parent(g, q)
        r = wl.cells_of(g, p)
        sl = slice(r.start, r.stop)
        avg = float(np.sum(np.abs(f.values[sl]) * v.cell_masses[sl]) / v.cell_masses[sl].sum())
        assert avg <= t * (1 + 1e-12)
    # exact reconstruction: b is the float difference f - g by construction,
    # and recombining loses at most an ulp of the pieces
    assert np.array_equal(dec.bad_total.values, f.values - dec.good.values)
    recon = dec.good.values + dec.bad_total.values
    slack = 1e-15 * (np.abs(f.values) + np.abs(dec.good.values) + np.abs(dec.bad_total.values))
    assert np.all(np.abs(recon - f.values) <= slack)
    rep = wl.verify_cz(dec, v, 2.0)
    assert rep.all_ok, rep.to_json_dict()
    # t < a_j for all j
    assert all(a > t for a in dec.selection_averages)


def test_signed_f_cancellation(rng):
    g = wl.build_grid(1, 7)
    f = random_function(g, rng, signed=True)
    vals = tuple(float(x) for x in rng.lognormal(size=g.ncells))
    v = wl.realize(wl.Piecewise(vals), g)
    root_avg = float(np.sum(np.abs(f.values) * v.cell_masses) / v.cell_masses.sum())
    dec = wl.cz_decompose(f, v, root_avg * 1.3)
    rep = wl.verify_cz(dec, v, 2.0)
    assert rep.cancellation.ok
    assert np.array_equal(dec.bad_total.values, f.values - dec.good.values)


def test_domination_b_zero_is_equality():
    g = wl.build_grid(1, 4)
    f = wl.GridFunction(g, np.ones(g.ncells))
    v = wl.realize(wl.Constant(1.0), g)
    dec = wl.cz_decompose(f, v, 2.0)  # nothing selected, b = 0
    rep = wl.pointwise_domination_check(dec, v)
    assert rep.all_ok
    assert rep.max_violation <= 0.0


def off_omega_exact_zero_oracle(dec, v):
    """Oracle: int_Q b v in Fractions for every cell and every dyadic
    ancestor Q of every off-Omega cell, with b = f - a_j on Omega (a_j the
    rational v-average) and b = 0 off it."""
    g = dec.good.grid
    cells = [Fraction(0)] * g.ncells
    for q in dec.cubes:
        rng = wl.cells_of(g, q)
        vm = [Fraction(float(v.cell_masses[i])) for i in rng]
        fv = [Fraction(float(dec.source.values[i])) * vm[k] for k, i in enumerate(rng)]
        a = sum(fv) / sum(vm)
        for off, i in enumerate(rng):
            cells[i] = fv[off] - a * vm[off]
    levels = [cells]
    while len(levels[-1]) > 1:
        cur = levels[-1]
        levels.append([cur[2 * i] + cur[2 * i + 1] for i in range(len(cur) // 2)])
    return all(
        levels[d][int(i) >> d] == 0
        for i in np.flatnonzero(~dec.omega_mask)
        for d in range(len(levels))
    )


def random_decompositions(rng, count=5):
    g = wl.build_grid(1, 8)
    for _ in range(count):
        f = random_function(g, rng)
        vals = tuple(float(x) for x in np.exp(rng.standard_normal(g.ncells) * 0.7))
        v = wl.realize(wl.Piecewise(vals), g)
        root_avg = float(np.sum(np.abs(f.values) * v.cell_masses) / v.cell_masses.sum())
        yield wl.cz_decompose(f, v, root_avg * 1.4), v


@pytest.mark.filterwarnings("error")
def test_domination_fails_on_a_nan_violation(monkeypatch, rng):
    # an infinite maximal on both sides makes lhs - rhs = inf - inf = NaN
    # on that cell, while lhs <= rhs holds there: the check must fail
    dec, v = next(random_decompositions(rng, 1))
    real = czd.dyadic_maximal

    def infinite_at_0(h, signed=False):
        out = real(h, signed=signed).values.copy()
        out[0] = np.inf
        return wl.GridFunction(h.grid, out)

    monkeypatch.setattr(czd, "dyadic_maximal", infinite_at_0)
    rep = wl.pointwise_domination_check(dec, v)
    assert math.isnan(rep.max_violation)
    assert not rep.domination_ok and not rep.all_ok


def test_domination_random_and_off_omega_vanishing(rng):
    for dec, v in random_decompositions(rng):
        rep = wl.pointwise_domination_check(dec, v)
        assert rep.domination_ok
        assert rep.off_omega_exact_zero  # exact rational arithmetic
        assert rep.off_omega_exact_zero == off_omega_exact_zero_oracle(dec, v)
        assert rep.off_omega_float_residual <= 1e-12


def test_domination_holds_for_signed_f(rng):
    # |avg_Q f v| <= avg_Q |g| v + |avg_Q b v| on every cube, so the signed
    # maximal of f v is dominated at every height, truncated root included
    g = wl.build_grid(1, 8)
    for _ in range(6):
        f = random_function(g, rng, signed=True)
        v = wl.realize(wl.Piecewise(tuple(float(x) for x in rng.lognormal(size=g.ncells))), g)
        root_avg = float(np.sum(np.abs(f.values) * v.cell_masses) / v.cell_masses.sum())
        for mult in (0.5, 1.3, 3.0):
            rep = wl.pointwise_domination_check(wl.cz_decompose(f, v, root_avg * mult), v)
            assert rep.all_ok, rep.to_json_dict()
    # for f >= 0 the left side is the unsigned M_d(f v), bit for bit
    for dec, v in random_decompositions(rng):
        fv = wl.GridFunction(dec.good.grid, dec.source.values * v.cell_values)
        assert np.array_equal(wl.dyadic_maximal(fv, signed=True).values, wl.dyadic_maximal(fv).values)


def test_off_omega_exact_zero_catches_faults(rng):
    dec, v = next(random_decompositions(rng, 1))
    off = np.flatnonzero(~dec.omega_mask)
    assert len(dec.cubes) > 1 and len(off) > 0
    assert wl.pointwise_domination_check(dec, v).off_omega_exact_zero
    # a nonzero b off Omega, a value the oracle never reads
    bad = dataclasses.replace(dec, bad_total=wl.GridFunction(dec.good.grid, dec.bad_total.values.copy()))
    bad.bad_total.values[off[0]] = 1e-300
    assert off_omega_exact_zero_oracle(bad, v)
    assert not wl.pointwise_domination_check(bad, v).off_omega_exact_zero
    # two overlapping cubes: a selected cube and its left child
    q = next(q for q in dec.cubes if q.level < dec.good.grid.L)
    child = wl.children(dec.good.grid, q)[0]
    overlap = dataclasses.replace(dec, averages=[*dec.averages, 0.0], **with_cube(dec, child))
    assert not wl.pointwise_domination_check(overlap, v).off_omega_exact_zero


def with_cube(dec, q):
    """The cube set of a decomposition with the cube q appended."""
    return {"d": np.append(dec.d, dec.good.grid.L - q.level), "idx": np.append(dec.idx, q.index)}


def test_mass_accounting(rng):
    g = wl.build_grid(1, 7)
    f = random_function(g, rng)
    v = wl.realize(
        wl.Piecewise(tuple(float(x) for x in rng.lognormal(size=g.ncells))), g
    )
    root_avg = float(np.sum(np.abs(f.values) * v.cell_masses) / v.cell_masses.sum())
    dec = wl.cz_decompose(f, v, root_avg * 2.0)
    total = float(np.sum(np.abs(f.values) * v.cell_masses))
    vsum = sum(v.mass_of(q) for q in dec.cubes)
    assert vsum <= total / dec.height * (1 + 1e-12)


def test_json_shape():
    g = wl.build_grid(1, 3)
    f = wl.GridFunction(g, np.array([1.0] * 8 + [0.0] * 8))
    v = wl.realize(wl.Constant(1.0), g)
    dec = wl.cz_decompose(f, v, 0.75)
    d = dec.to_json_dict()
    assert d["t"] == 0.75
    assert d["cubes"] == [{"level": 0, "index": 0, "avg": 1.0}]
    assert d["truncated"] is False


def omega_mask_oracle(dec):
    """Oracle: the cells of every selected cube, one slice per cube."""
    mask = np.zeros(dec.good.grid.ncells, dtype=bool)
    for q in dec.cubes:
        r = wl.cells_of(dec.good.grid, q)
        mask[r.start : r.stop] = True
    return mask


def verify_cz_oracle(dec, v, r, rtol=1e-12):
    """Oracle for verify_cz: every check as a loop over the selected cubes,
    one cell slice and one np.sum per cube, Python max/min for the worsts."""
    grid = dec.good.grid
    t = dec.height
    ar = ap_constant(v, r)
    bound = 2.0 ** (DIM * r) * ar * t
    tol = 1.0 + rtol

    worst_i = min((a / t for a in dec.selection_averages), default=math.inf)
    check_i = CheckResult(all(a > t for a in dec.selection_averages), worst_i,
                          "min selection average over t")

    worst_ii = 0.0
    ok_ii = True
    for q, a in zip(dec.cubes, dec.selection_averages):
        if q.level == -grid.J:
            continue
        worst_ii = max(worst_ii, a / bound)
        if a > bound * tol:
            ok_ii = False
    check_ii = CheckResult(ok_ii, worst_ii, "max selection average over 2^{nr}[v]_{A_r} t")

    gmax = 0.0
    mask_root = np.zeros(grid.ncells, dtype=bool)
    for q, a in zip(dec.cubes, dec.averages):
        if q.level == -grid.J:
            mask_root[:] = True
            continue
        gmax = max(gmax, abs(a))
    off_root = ~mask_root
    if off_root.any():
        gmax = max(gmax, float(np.abs(np.where(off_root, dec.good.values, 0.0)).max()))
    check_iii = CheckResult(gmax <= bound * tol, gmax / bound, "max |g| over bound")

    worst_iv = 0.0
    for q in dec.cubes:
        rng = wl.cells_of(grid, q)
        sl = slice(rng.start, rng.stop)
        resid = abs(float(np.sum(dec.bad_total.values[sl] * v.cell_masses[sl])))
        scale = float(np.sum(np.abs(dec.source.values[sl]) * v.cell_masses[sl]))
        if scale > 0:
            worst_iv = max(worst_iv, resid / scale)
    check_iv = CheckResult(worst_iv <= 1e-12, worst_iv, "max |int b_j v| / int_{Q_j} |f| v")

    off = np.abs(dec.source.values[~omega_mask_oracle(dec)])
    worst_v = float(off.max() / t) if off.size else 0.0
    check_v = CheckResult(bool(np.all(off <= t)), worst_v, "max |f|/t off Omega")

    vsum = sum(v.mass_of(q) for q in dec.cubes)
    total = float(np.sum(np.abs(dec.source.values) * v.cell_masses))
    ok_m = vsum * t <= total * tol
    check_m = CheckResult(ok_m, (vsum * t / total) if total > 0 else 0.0,
                          "t sum_j v(Q_j) over int |f| v")
    return CZVerifyReport(r, ar, bound, check_i, check_ii, check_iii, check_iv, check_v, check_m)


def oracle_cases(rng):
    """(decomposition, v): random, signed, truncated-root, cells-only, empty
    and overflowing (1e308 cells: inf and NaN averages) selections, and two
    faulty ones: a perturbed average, and an overlapping child cube."""
    g = wl.build_grid(1, 7)
    for signed in (False, True, False, True):
        f = random_function(g, rng, signed=signed)
        v = wl.realize(wl.Piecewise(tuple(float(x) for x in rng.lognormal(size=g.ncells))), g)
        root = float(np.sum(np.abs(f.values) * v.cell_masses) / v.cell_masses.sum())
        top = float(np.abs(f.values).max())
        for t in (root * 1.2, root * 3.0, root * 0.5, top * 0.99, top * 2.0):
            yield wl.cz_decompose(f, v, t), v
    dec, v = next(random_decompositions(rng, 1))
    yield dataclasses.replace(dec, averages=[dec.averages[0] * 1e3, *dec.averages[1:]]), v
    q = next(q for q in dec.cubes if q.level < dec.good.grid.L)
    child = wl.children(dec.good.grid, q)[0]
    yield dataclasses.replace(dec, averages=[*dec.averages, 0.0], **with_cube(dec, child),
                              selection_averages=[*dec.selection_averages, 0.0]), v
    # infinite cells of f (finite ones whose products f v overflow are
    # refused) and v sums of cubes of 4 cells that overflow (which realize
    # refuses): inf and NaN (inf - inf) averages, NaN good values, no
    # truncated root
    g = wl.build_grid(2, 1)
    big = wl.GridFunction(g, np.array([np.inf, -np.inf, 3.0, 1.0, np.inf, np.inf, 2.0, 0.5]))
    with np.errstate(over="ignore", invalid="ignore"):
        for c in (1e308, 1e307):
            v = overflowing_weight(wl.Constant(c), g)
            for t in (0.5, 1.5, 1e300):
                yield wl.cz_decompose(big, v, t), v


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_verify_cz_matches_per_cube_oracle(rng):
    def text(rep):
        return json.dumps(encode_nonfinite(rep.to_json_dict()), sort_keys=True)

    seen = {"nonfinite": 0, "failed": 0, "empty": 0, "root": 0, "cells": 0}
    for dec, v in oracle_cases(rng):
        assert np.array_equal(dec.omega_mask, omega_mask_oracle(dec))
        for r in (2.0, 3.0):
            fast, slow = wl.verify_cz(dec, v, r), verify_cz_oracle(dec, v, r)
            assert text(fast) == text(slow)
        seen["nonfinite"] += not np.all(np.isfinite(dec.averages + dec.selection_averages))
        seen["failed"] += not fast.all_ok
        seen["empty"] += not dec.cubes
        seen["root"] += dec.truncated
        seen["cells"] += bool(dec.cubes) and {q.level for q in dec.cubes} == {dec.good.grid.L}
    assert all(seen.values()), seen
