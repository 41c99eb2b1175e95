import dataclasses
import math

import numpy as np
import pytest

import weightlab as wl
from weightlab import constants, maximal
from weightlab.constants import ConstantKind, ConstantReport, DIM
from weightlab.errors import ConfigError
from weightlab.grid import Cube
from weightlab.maximal import uncentered_restricted
from weightlab.weights import with_cached


def brute_ap_local(w, Q, p):
    """Oracle: averages straight from cell arrays."""
    g = w.grid
    r = wl.cells_of(g, Q)
    sl = slice(r.start, r.stop)
    m = float(w.cell_masses[sl].sum()) / Q.length
    d = float(w.duals[p][0][sl].sum()) / Q.length
    return m * d ** (p - 1.0)


def test_ap_local_identity_weight():
    g = wl.build_grid(0, 4)
    w = wl.with_cached(wl.realize(wl.Constant(1.0), g), dual=(1.5, 2.0, 3.0))
    for p in (1.5, 2.0, 3.0):
        for q in [g.root, Cube(2, 1)]:
            assert wl.ap_local(w, q, p) == pytest.approx(1.0, rel=1e-14)


def test_ap_local_two_cell_example():
    g = wl.build_grid(0, 1)
    w = wl.with_cached(wl.realize(wl.Piecewise((1.0, 4.0)), g), dual=(2.0,))
    assert wl.ap_local(w, g.root, 2.0) == pytest.approx(25.0 / 16.0, rel=1e-15)
    assert wl.ap_local(w, g.root, 2.0) == pytest.approx(
        brute_ap_local(w, g.root, 2.0), rel=1e-15
    )


def test_ap_local_adds_a_missing_dual_table():
    # a weight realized without the dual table of p: the local oracles add
    # it, as global_constant does, where they raised a bare KeyError
    g = wl.build_grid(0, 2)
    w = wl.realize(wl.Piecewise((1.0, 4.0, 2.0, 0.5)), g)
    assert 2.0 not in w.duals
    cached = wl.with_cached(w, dual=(2.0,))
    for q in (g.root, Cube(1, 1)):
        assert wl.ap_local(w, q, 2.0) == wl.ap_local(cached, q, 2.0) > 1.0
        assert wl.mixed_local(w, q, 2.0, 0.5, 0.5) == wl.mixed_local(cached, q, 2.0, 0.5, 0.5)
    assert wl.ap_local(wl.realize(wl.Constant(1.0), g), g.root, 2.0) == pytest.approx(1.0, rel=1e-15)
    assert 2.0 not in w.duals  # the weight itself is left as it was


def test_ap_local_divergent():
    # power weight with (delta-1) r <= -1 via the dual of a small p'
    g = wl.build_grid(0, 6)
    delta = 0.5
    p = 1.5  # dual exponent (delta-1)(1-p') = (-1/2)(-2) = 1 -> fine
    w = wl.with_cached(wl.realize(wl.Power(delta), g), dual=(p,))
    assert math.isfinite(wl.ap_local(w, g.root, p))
    # force divergence through a product weight whose dual blows up
    wp = wl.with_cached(
        wl.realize(wl.Product(wl.Power(0.5), wl.Power(0.5)), g), dual=(2.0,)
    )  # w = x^-1; dual at p=2 is x -> fine; mass itself diverges
    assert math.isinf(wp.mass[-1][0])
    assert math.isinf(wl.ap_local(wp, g.root, 2.0))


def test_a1_local_examples():
    g = wl.build_grid(0, 4)
    w = wl.realize(wl.Constant(3.0), g)
    assert wl.a1_local(w, g.root) == pytest.approx(1.0, rel=1e-14)
    # power weight on left-anchored cube: exactly 1/delta
    delta = 0.5
    gp = wl.build_grid(0, 8)
    wp = wl.realize(wl.Power(delta), gp)
    for k in (0, 2, 5):
        assert wl.a1_local(wp, Cube(k, 0)) == pytest.approx(1.0 / delta, rel=1e-12)
    # step weight on [0,2): (alpha+1)/(2 alpha)
    gs = wl.build_grid(1, 4)
    alpha = 0.25
    ws = wl.realize(wl.Step(alpha), gs)
    assert wl.a1_local(ws, gs.root) == pytest.approx((alpha + 1) / (2 * alpha), rel=1e-14)


def test_ainf_exp_local_examples():
    g = wl.build_grid(0, 1)
    w = wl.realize(wl.Constant(5.0), g)
    assert wl.ainf_exp_local(w, g.root) == pytest.approx(1.0, rel=1e-14)
    we = wl.realize(wl.Piecewise((1.0, math.e**2)), g)
    assert wl.ainf_exp_local(we, g.root) == pytest.approx(
        (1 + math.e**2) / (2 * math.e), rel=1e-14
    )


def test_ainf_exp_is_large_p_limit(rng):
    g = wl.build_grid(0, 4)
    vals = tuple(float(v) for v in rng.lognormal(size=g.ncells))
    w = wl.with_cached(wl.realize(wl.Piecewise(vals), g), dual=(10.0, 100.0, 1000.0))
    q = g.root
    target = wl.ainf_exp_local(w, q)
    gaps = [abs(wl.ap_local(w, q, p) - target) for p in (10.0, 100.0, 1000.0)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert wl.ap_local(w, q, 1000.0) == pytest.approx(target, rel=1e-2)
    for p in (10.0, 100.0, 1000.0):
        assert wl.ap_local(w, q, p) >= target * (1 - 1e-12)


def test_ainf_fw_local_against_interval_oracle():
    g = wl.build_grid(0, 1)
    w = wl.realize(wl.Piecewise((1.0, 0.01)), g)
    # oracle: enumerate the three intervals on two cells by hand
    v0, v1 = 1.0, 0.01
    m0 = max(v0, (v0 + v1) / 2)
    m1 = max(v1, (v0 + v1) / 2)
    oracle = (m0 + m1) * 0.5 / ((v0 + v1) * 0.5)
    assert wl.ainf_fw_local(w, g.root) == pytest.approx(oracle, rel=1e-15)


def test_ainf_fw_exact_match_with_restricted_sweep(rng):
    g = wl.build_grid(1, 5)
    vals = tuple(float(v) for v in rng.lognormal(size=g.ncells))
    w = wl.realize(wl.Piecewise(vals), g)
    for q in [g.root, Cube(0, 1), Cube(3, 5)]:
        r = wl.cells_of(g, q)
        block = w.cell_values[r.start : r.stop]
        mass = float(w.mass[g.L - q.level][q.index])
        oracle = float(uncentered_restricted(block).sum()) * g.cell_width / mass
        assert wl.ainf_fw_local(w, q) == oracle


def test_ainf_fw_refuses_analytic():
    g = wl.build_grid(0, 4)
    w = wl.realize(wl.Power(0.5), g)
    with pytest.raises(ConfigError):
        wl.ainf_fw_local(w, g.root)
    with pytest.raises(ConfigError):
        wl.ainf_fw_constant(w)


def fw_weight(shape, J, L):
    n = 1 << (J + L)
    if shape == "steps":
        vals = np.repeat([1.0, 3.0, 0.25, 2.0], np.diff([0, n // 5, n // 2, (3 * n) // 4, n]))
    elif shape == "plateau":
        vals = np.full(n, 0.7)
    elif shape == "end spikes":
        vals = np.ones(n)
        vals[0], vals[-1] = 40.0, 90.0
    else:
        vals = np.random.default_rng(n).lognormal(size=n)
    return wl.realize(wl.Piecewise(tuple(vals.tolist())), wl.build_grid(J, L))


FW_CASES = [
    ("steps", 0, 0),
    ("lognormal", 0, 1),
    ("steps", 1, 1),
    ("lognormal", 0, 2),
    ("steps", 1, 6),
    ("plateau", 0, 7),
    ("end spikes", 1, 7),
    ("lognormal", 2, 6),
    ("steps", 0, 13),  # the top cube (8192 cells) takes the hull pass
]


@pytest.mark.parametrize("shape, J, L", FW_CASES)
def test_ainf_fw_levels_equal_per_cube_oracle(shape, J, L):
    w = fw_weight(shape, J, L)
    g = w.grid
    rep = wl.global_constant(w, ConstantKind("AinfFW"))
    for k, value, arg in rep.per_level:
        local = [wl.ainf_fw_local(w, Cube(k, i)) for i in range(g.ncubes(k))]
        assert (value, arg) == (max(local), int(np.argmax(local))), k


def assert_carried_levels_equal_per_level_sweep(cells):
    # oracle: every level swept on its own, one uncentered_restricted call each
    levels = list(maximal.uncentered_dyadic(cells))
    assert len(levels) == len(cells).bit_length()
    for d, got in enumerate(levels):
        want = uncentered_restricted(cells.reshape(-1, 1 << d))
        assert got.shape == want.shape and np.array_equal(got, want, equal_nan=True), d


@pytest.mark.parametrize("shape, J, L", FW_CASES)
def test_carried_levels_equal_per_level_sweep(shape, J, L):
    assert_carried_levels_equal_per_level_sweep(fw_weight(shape, J, L).cell_values)


def zero_rich_cells(kind, n):
    """A zero-rich row of n cells: a corpus row at J = 1, or lognormal cells
    of which about 30% are nonzero."""
    if kind == "lognormal":
        rng = np.random.default_rng(n)
        return rng.lognormal(size=n) * (rng.random(n) < 0.3)
    return dict(wl.test_function_corpus(wl.build_grid(1, n.bit_length() - 2), n_random=0))[kind].values


@pytest.mark.parametrize("n", [4096, 8192])
@pytest.mark.parametrize("kind", ["spike_0", "spike_{mid}", "indicator_k2_m0", "indicator_k5_m32",
                                  "one_sided_f_delta0.5", "lognormal"])
def test_carried_levels_equal_per_level_sweep_on_zero_rich_cells(kind, n):
    # zero blocks are their total and short supports are split inside the
    # carried levels, and a carried block's left half may have been found so
    assert_carried_levels_equal_per_level_sweep(zero_rich_cells(kind.format(mid=n // 2), n))


def test_zero_rich_carried_levels_split_no_row_below_split_min():
    # lognormal x (rand < 0.3) on 8192 cells: every 8-cell cube with one
    # nonzero cell used to be split, one call each (221 calls); rows of fewer
    # than SPLIT_MIN cells are swept in their block, and here only the whole
    # row, above the ceiling with a zero end, is split
    rng = np.random.default_rng(1)
    cells = rng.lognormal(size=8192) * (rng.random(8192) < 0.3)
    splits = []
    real = maximal._uncentered_split

    def counted(values, P, lo, hi):
        splits.append(len(values))
        return real(values, P, lo, hi)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(maximal, "_uncentered_split", counted)
        list(maximal.uncentered_dyadic(cells))
    assert maximal.SPLIT_MIN == 64 and cells[-1] == 0.0 and splits == [8192]
    assert_carried_levels_equal_per_level_sweep(cells)


BAD_CELLS = [(1, 0), (2, 0), (2, 1), (64, 0), (64, 31), (64, 32), (64, 63)]


@pytest.mark.parametrize("n, cell, bad", [(n, c, bad) for bad in (np.nan, np.inf) for n, c in BAD_CELLS],
                         ids=[f"{n}-{c}{tag}" for tag in ("", "-inf") for n, c in BAD_CELLS])
def test_carried_levels_equal_per_level_sweep_on_a_nan_cell(n, cell, bad):
    # a NaN cell makes every cell of its blocks NaN, an inf cell inf
    cells = np.random.default_rng(n + cell).lognormal(size=n)
    cells[cell] = bad
    with np.errstate(all="raise"):  # no inf - inf
        assert_carried_levels_equal_per_level_sweep(cells)
        assert np.array_equal(list(maximal.uncentered_dyadic(cells))[-1], np.full((1, n), bad), equal_nan=True)


def test_prefix_rows_of_a_level_are_left_halves_of_the_next(rng):
    # the premise of the carry: np.cumsum is sequential, so the prefix row
    # of a cube's left half is bitwise the prefix row of its left child
    cells = rng.lognormal(sigma=4.0, size=1 << 12) * (rng.random(1 << 12) < 0.7)
    for d in range(12):
        child = maximal._prefix(cells.reshape(-1, 1 << d))
        parent = maximal._prefix(cells.reshape(-1, 2 << d))
        assert np.array_equal(child[::2], parent[:, : (1 << d) + 1]), d


def test_ainf_fw_carried_levels_call_structure(monkeypatch):
    # counted instead of timed: a level of n = 2^d cells up to the naive
    # ceiling evaluates, per cube, the candidates of the intervals that leave
    # its left half and of those of two or more cells inside its right half,
    # (n/2)^2 + n^2/8 - n/4; above it, each cube is one hull call
    sweeps, hulls = [], []
    naive, nodes, levels = maximal._uncentered_naive, maximal._node_maxima, maximal._uncentered_levels

    def counted_naive(P, left=None):
        candidates = []

        def counted_nodes(PL, PR, left_half, right_half):
            candidates.append(PL.size * PR.shape[-1])
            return nodes(PL, PR, left_half, right_half)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(maximal, "_node_maxima", counted_nodes)
            out = naive(P, left)
        sweeps.append((P.shape[-1] - 1, sum(candidates) // len(P)))
        return out

    def counted_hull(P):
        hulls.append(len(P) - 1)
        return levels(P)

    monkeypatch.setattr(maximal, "_uncentered_naive", counted_naive)
    monkeypatch.setattr(maximal, "_uncentered_levels", counted_hull)
    wl.ainf_fw_constant(fw_weight("steps", 0, 13))
    assert maximal.NAIVE_CEILING == 1 << 12
    assert sweeps == [(1, 0)] + [(n, 3 * n * n // 8 - n // 4) for n in (1 << d for d in range(1, 13))]
    assert hulls == [1 << 13]


def counted_fw_sweeps(monkeypatch) -> list[int]:
    """The cell counts of every ``uncentered_dyadic`` call the Fujii-Wilson
    levels make from now on."""
    calls, real = [], constants.uncentered_dyadic

    def counted(values):
        calls.append(len(values))
        return real(values)

    monkeypatch.setattr(constants, "uncentered_dyadic", counted)
    return calls


def test_fw_levels_are_swept_once_per_weight(monkeypatch):
    # [v]_FW does not depend on p: two constants and audits at p = 1 and 2
    # of one weight object sweep its levels once
    w = fw_weight("lognormal", 1, 5)
    corpus = wl.test_function_corpus(w.grid, n_random=2)
    calls = counted_fw_sweeps(monkeypatch)
    first = wl.ainf_fw_constant(w)
    assert wl.ainf_fw_constant(w) == first
    audits = [wl.bound_audit_ap([("v", w)], p, corpus=corpus) for p in (1.0, 2.0)]
    assert calls == [w.grid.ncells]
    assert [a.rows[0]["ainf_fw"] for a in audits] == [first, first]


def test_kept_fw_levels_give_the_report_of_a_fresh_sweep():
    w = fw_weight("steps", 1, 6)
    assert w.fw_levels is None  # never filled at realization
    kind = ConstantKind("AinfFW")
    first = wl.global_constant(w, kind)
    assert w.fw_levels is not None
    second = wl.global_constant(w, kind)
    fresh = wl.global_constant(fw_weight("steps", 1, 6), kind)
    for field in ("kind", "value", "argmax", "per_level", "truncation"):
        assert getattr(second, field) == getattr(first, field) == getattr(fresh, field), field


def test_a_copy_of_a_weight_starts_without_fw_levels(monkeypatch):
    w = fw_weight("end spikes", 1, 5)
    wl.ainf_fw_constant(w)
    copies = [with_cached(w, dual=(2.0,)), wl.dual_weight(w, 2.0), dataclasses.replace(w)]
    assert all(c is not w and c.fw_levels is None for c in copies)
    calls = counted_fw_sweeps(monkeypatch)
    wl.ainf_fw_constant(copies[0])
    assert calls == [w.grid.ncells] and copies[0].fw_levels is not None and w.fw_levels is not None


def test_a_refused_weight_keeps_no_fw_levels():
    w = wl.realize(wl.Power(0.5), wl.build_grid(0, 4))
    for _ in range(2):  # the refusal is not cached: the second call is refused again
        with pytest.raises(ConfigError, match="local exponent 0 on every cell"):
            wl.global_constant(w, ConstantKind("AinfFW"))
        assert w.fw_levels is None


def test_ainf_fw_at_least_one(rng):
    g = wl.build_grid(0, 5)
    for _ in range(5):
        w = wl.realize(
            wl.Piecewise(tuple(float(v) for v in rng.lognormal(size=g.ncells))), g
        )
        for q in [g.root, Cube(2, 2)]:
            assert wl.ainf_fw_local(w, q) >= 1.0 - 1e-13


def test_mixed_local_degenerate_exponents(rng):
    g = wl.build_grid(0, 4)
    vals = tuple(float(v) for v in rng.lognormal(size=g.ncells))
    w = wl.with_cached(wl.realize(wl.Piecewise(vals), g), dual=(2.0,))
    q = Cube(1, 1)
    assert wl.mixed_local(w, q, 2.0, 1.0, 0.0) == pytest.approx(
        wl.ap_local(w, q, 2.0), rel=1e-14
    )
    assert wl.mixed_local(w, q, 2.0, 0.0, 1.0) == pytest.approx(
        wl.ainf_exp_local(w, q), rel=1e-14
    )


def test_mixed_chain_per_cube(rng):
    # mixed(1/p, 1/p') <= A_p <= mixed^p on every cube
    g = wl.build_grid(1, 5)
    vals = tuple(float(v) for v in rng.lognormal(size=g.ncells))
    for p in (1.5, 2.0, 3.0):
        w = wl.with_cached(wl.realize(wl.Piecewise(vals), g), dual=(p,))
        pc = p / (p - 1.0)
        for q in (Cube(k, m) for k in g.levels() for m in range(g.ncubes(k))):
            ap = wl.ap_local(w, q, p)
            mixed = wl.mixed_local(w, q, p, 1.0 / p, 1.0 / pc)
            assert mixed <= ap * (1 + 1e-12)
            assert ap <= mixed**p * (1 + 1e-12)


def test_jensen_lower_bounds(rng):
    g = wl.build_grid(1, 5)
    for _ in range(5):
        vals = tuple(float(v) for v in rng.lognormal(size=g.ncells))
        w = wl.with_cached(wl.realize(wl.Piecewise(vals), g), dual=(2.0,))
        for q in (Cube(k, m) for k in g.levels() for m in range(g.ncubes(k))):
            assert wl.ap_local(w, q, 2.0) >= 1.0 - 1e-12
            assert wl.ainf_exp_local(w, q) >= 1.0 - 1e-12
            assert wl.a1_local(w, q) >= 1.0 - 1e-12


def test_global_constant_reports(rng):
    g = wl.build_grid(1, 4)
    one = wl.with_cached(wl.realize(wl.Constant(1.0), g), dual=(2.0,))
    rep = wl.global_constant(one, ConstantKind("Ap", p=2.0))
    assert rep.value == pytest.approx(1.0, rel=1e-14)
    assert rep.argmax == g.root  # tie-break: lowest level, lowest index
    assert rep.truncation == (1, 4)
    assert len(rep.per_level) == g.J + g.L + 1
    assert rep.value == max(v for _, v, _ in rep.per_level)
    d = rep.to_json_dict()
    assert d["argmax"] == {"level": -1, "index": 0}


def test_global_vs_local_sweep(rng):
    g = wl.build_grid(1, 4)
    vals = tuple(float(v) for v in rng.lognormal(size=g.ncells))
    w = wl.with_cached(wl.realize(wl.Piecewise(vals), g), dual=(2.0,))
    rep = wl.global_constant(w, ConstantKind("Ap", p=2.0))
    cubes = [Cube(k, m) for k in g.levels() for m in range(g.ncubes(k))]
    oracle = max(wl.ap_local(w, q, 2.0) for q in cubes)
    assert rep.value == oracle
    repfw = wl.global_constant(w, ConstantKind("AinfFW"))
    oraclefw = max(wl.ainf_fw_local(w, q) for q in cubes)
    assert repfw.value == oraclefw


def test_global_a1_power_weight():
    g = wl.build_grid(0, 12)
    w = wl.realize(wl.Power(0.5), g)
    rep = wl.global_constant(w, ConstantKind("A1"))
    assert rep.value >= 2.0 - 1e-12
    # observed: the sup is attained along left-anchored cubes at exactly 1/delta
    assert rep.value == pytest.approx(2.0, rel=1e-9)


def test_ap_monotone_in_p(rng):
    g = wl.build_grid(0, 6)
    vals = tuple(float(v) for v in rng.lognormal(size=g.ncells))
    ps = (1.5, 2.0, 3.0, 5.0, 10.0)
    w = wl.with_cached(wl.realize(wl.Piecewise(vals), g), dual=ps)
    seq = [wl.ap_constant(w, p) for p in ps]
    for a, b in zip(seq, seq[1:]):
        assert b <= a * (1 + 1e-12)
    assert wl.ainf_exp_constant(w) <= seq[-1] * (1 + 1e-12)


def test_both_ainf_constants_finite_together(rng):
    g = wl.build_grid(1, 5)
    vals = tuple(float(v) for v in rng.lognormal(size=g.ncells))
    w = wl.realize(wl.Piecewise(vals), g)
    exp_c = wl.ainf_exp_constant(w)
    fw_c = wl.ainf_fw_constant(w)
    assert math.isfinite(exp_c) and math.isfinite(fw_c)
    assert exp_c >= 1.0 - 1e-12 and fw_c >= 1.0 - 1e-12


def test_reverse_holder_unit_weight():
    g = wl.build_grid(1, 5)
    w = wl.realize(wl.Constant(1.0), g)
    rep = wl.reverse_holder_check(w)
    assert rep.a1 == 1.0
    assert rep.r_w == 1.0 + 1.0 / (2.0 ** (DIM + 1))
    assert rep.max_lhs_over_rhs == pytest.approx(0.5, rel=1e-14)
    assert rep.ok


def test_reverse_holder_step_and_random(rng):
    g = wl.build_grid(1, 6)
    assert wl.reverse_holder_check(wl.realize(wl.Step(0.25), g)).ok
    for i in range(8):
        w = wl.random_a1_weight(g, rng, cap=10.0)
        rep = wl.reverse_holder_check(w, seed=i)
        assert rep.ok, (rep.max_lhs_over_rhs, rep.max_levelset_ratio)


def reference_levelset(w, eps, n_subsets, seed):
    """The per-cube, per-subset loop the batched level-set check replaced."""
    g = w.grid
    rng = np.random.default_rng(seed)
    cells = w.cell_masses
    samples, violations, max_ratio = 0, 0, -math.inf
    for k in g.levels():
        m = 1 << (g.L - k)
        for idx in range(g.ncubes(k)):
            block = cells[idx * m : (idx + 1) * m]
            wq = float(w.mass[g.L - k][idx])
            ratios = (block / wq) / (2.0 * (1.0 / m) ** eps)
            samples += m
            violations += int(np.count_nonzero(ratios > 1.0))
            max_ratio = max(max_ratio, float(ratios.max()))
            if m > 1:
                for _ in range(n_subsets):
                    mask = rng.random(m) < 0.5
                    sz = int(mask.sum())
                    if sz == 0:
                        continue
                    ratio = (float(block[mask].sum()) / wq) / (2.0 * (sz / m) ** eps)
                    samples += 1
                    violations += int(ratio > 1.0)
                    max_ratio = max(max_ratio, ratio)
    return samples, violations, max_ratio


@pytest.mark.parametrize("chunk", [3, 100, constants.RH_CHUNK])
@pytest.mark.parametrize("small_a1", [False, True])
def test_reverse_holder_levelset_equals_per_cube_loop(rng, chunk, small_a1, monkeypatch):
    # chunk 3 puts one union per draw (cubes of 4+ cells) and splits the
    # unions of small cubes across draws; the default draws whole levels.
    # An understated A1 constant raises eps_w until samples violate.
    monkeypatch.setattr(constants, "RH_CHUNK", chunk)
    if small_a1:
        monkeypatch.setattr(constants, "a1_constant", lambda w: 0.05)
    g = wl.build_grid(1, 6)
    weights = [wl.realize(wl.Step(0.25), g), fw_weight("end spikes", 1, 6)]
    weights += [wl.random_a1_weight(g, rng, cap=10.0) for _ in range(2)]
    violations = 0
    for seed, w in enumerate(weights):
        for n_subsets in (1, 5, 64):
            rep = wl.reverse_holder_check(w, n_subsets=n_subsets, seed=seed)
            ref = reference_levelset(w, rep.eps_w, n_subsets, seed)
            got = (rep.levelset_samples, rep.levelset_violations, rep.max_levelset_ratio)
            assert got == ref, (seed, n_subsets)
            violations += ref[1]
    assert (violations > 0) == small_a1


def test_union_ratios_equal_row_by_row_sums(rng):
    # single cells usually set the reported maximum, so the union sums are
    # compared one by one: each must be numpy's pairwise sum of its cells
    for m, ncubes in ((5, 3), (64, 4), (300, 2), (2048, 2)):
        blocks = rng.lognormal(size=(ncubes, m))
        wq = blocks.sum(axis=1)
        cube = np.repeat(np.arange(ncubes), 7)
        mask = rng.random((len(cube), m)) < rng.random((len(cube), 1))
        mask[::5] = False
        ref = [
            (blocks[c][row].sum() / wq[c]) / (2.0 * (int(row.sum()) / m) ** 0.3)
            for c, row in zip(cube, mask)
            if row.any()
        ]
        got = constants._union_ratios(blocks, wq, cube, mask, 0.3)
        assert np.array_equal(np.sort(got), np.sort(ref)), m


def levelset_weight(shape, g, seed):
    n = g.ncells
    rng = np.random.default_rng(seed)
    if shape == "spread":  # every cell on its own scale in 1e-200..1e200
        vals = 10.0 ** rng.uniform(-200.0, 200.0, n)
    elif shape == "banded":  # runs of 8 comparable cells, each run on its own scale
        vals = rng.lognormal(size=n) * 10.0 ** np.repeat(rng.uniform(-200.0, 200.0, n // 8), 8)
    elif shape == "constant":
        return wl.realize(wl.Constant(0.3), g)
    elif shape == "step":
        return wl.realize(wl.Step(0.25), g)
    else:
        return wl.random_a1_weight(g, rng, cap=16.0)
    return wl.realize(wl.Piecewise(tuple(vals.tolist())), g)


@pytest.mark.parametrize("shape", ["spread", "banded", "constant", "step", "random_a1"])
def test_certified_levelset_equals_per_cube_loop_on_adversarial_weights(shape, monkeypatch):
    # eps of A1 = 2 and of the understated A1 = 0.05 (ratios straddle 1);
    # the spread weights have no finite A1, so the pass is called directly
    g = wl.build_grid(1, 6)
    w = levelset_weight(shape, g, 7)
    for eps in (1.0 / 9.0, 1.0 / 1.2):
        for n_subsets in (5, 64):
            ref = reference_levelset(w, eps, n_subsets, 11)
            for chunk in (3, 100, constants.RH_CHUNK):
                monkeypatch.setattr(constants, "RH_CHUNK", chunk)
                got = constants._levelset_counts(w, eps, n_subsets, np.random.default_rng(11))
                assert got == ref, (eps, n_subsets, chunk)
    if shape == "banded":
        # the fused sums differ from the pairwise ones in their last bits
        blocks = w.cell_masses.reshape(-1, 32)
        mask = np.random.default_rng(0).random(blocks.shape) < 0.5
        fused = (blocks * mask) @ np.ones(32)
        assert any(f != b[r].sum() for f, b, r in zip(fused, blocks, mask))
    if shape == "random_a1":
        # a full cube's pairwise sum tops its pyramid mass, so w(Q)/w(Q) is
        # above 1 there and that union holds the maximum
        assert reference_levelset(w, 1.0 / 9.0, 64, 11)[2] > 0.5


@pytest.mark.parametrize("theta", [1.0, 1.0 + 1e-9, 1e-3, 0.0, -29.0])
@pytest.mark.parametrize("m", [4, 64])
def test_union_counts_recheck_exactly_the_certified_bands(m, theta, monkeypatch):
    # single-cell unions with eps = 0: the fused ratio is cell / 1 / 2 with
    # no rounding, so the cells put ratios on each edge of the two bands,
    # [theta - b, theta + b] with b = 2t |theta| + s and [top (1 - 2t) - s, inf),
    # 2t = 8 (m + 1) 2^-53 and s = m 2^-1072: a band one ulp narrower or
    # wider fails.  A ratio at theta is no violation, one ulp above it is.
    t2, s = 8 * (m + 1) * 2.0**-53, m * 2.0**-1072
    b = t2 * abs(theta) + s
    near_theta = [theta - b, theta + b, theta, np.nextafter(theta, 2.0),
                  np.nextafter(theta - b, -1.0), np.nextafter(theta + b, 2.0)]
    lo = 0.75 * (1.0 - t2) - s
    cases = [  # (top, ratios); a ratio must be at least 0
        (4.0, [x for x in near_theta if x >= 0.0] + [0.0, 0.5]),
        (0.75, [lo, np.nextafter(lo, 0.0), 0.1, 0.25]),
    ]
    seen = []

    def counting(blocks, wq, cube, mask, eps):
        seen.extend(blocks[cube][mask] / 2.0)
        return ref_union_ratios(blocks, wq, cube, mask, eps)

    ref_union_ratios = constants._union_ratios
    monkeypatch.setattr(constants, "_union_ratios", counting)
    for top, ratios in cases:
        n = len(ratios)
        blocks = np.full((n, m), 0.5)
        blocks[:, 0] = 2.0 * np.array(ratios)
        mask = np.zeros((n, m))
        mask[:, 0] = 1.0
        seen.clear()
        got = constants._union_counts(blocks, np.ones(n), blocks.sum(axis=1), np.full(m + 1, np.nan), np.arange(n),
                                      mask, np.empty_like(mask), 0.0, theta, top)
        again = [x for x in ratios if theta - b <= x <= theta + b or x >= top * (1.0 - t2) - s]
        assert sorted(seen) == sorted(again), (m, theta, top)
        assert got == (n, sum(x > theta for x in ratios), max(top, *ratios))


def test_levelset_pass_sums_few_unions_again(monkeypatch):
    # a work count, steadier than a time on a shared host: on a random A1
    # weight of 4096 cells the exact pairwise sums see at most 0.1% of the
    # unions (none when this was written)
    g = wl.build_grid(1, 11)
    w = wl.random_a1_weight(g, np.random.default_rng(3), cap=16.0)
    rows = []
    exact = constants._union_ratios

    def counting(blocks, wq, cube, mask, eps):
        rows.append(len(cube))
        return exact(blocks, wq, cube, mask, eps)

    monkeypatch.setattr(constants, "_union_ratios", counting)
    rep = wl.reverse_holder_check(w, seed=3)
    unions = rep.levelset_samples - g.ncells * (g.J + g.L + 1)  # less the single cells
    assert unions > 200_000
    assert sum(rows) <= unions // 1000, (sum(rows), unions)


def test_doubling_checks():
    g = wl.build_grid(1, 6)
    one = wl.realize(wl.Constant(1.0), g)
    rep = wl.doubling_check(one, 2.0)
    assert rep.max_double_ratio <= 2.0 + 1e-12
    assert rep.double_bound == pytest.approx(4.0)
    assert rep.parent_ok and rep.double_ok
    # step example at p = 1
    w = wl.realize(wl.Step(0.125), g)
    rep2 = wl.doubling_check(w, 1.0)
    assert rep2.parent_ok
    assert rep2.max_double_ratio <= 2.0 ** (DIM * 1.0) * rep2.ap + 1e-12


@pytest.mark.filterwarnings("error")
def test_doubling_refuses_an_infinite_bound():
    # an overflowing [v]_{A_p}, and an overflowing 2^{np}: either bound is
    # +inf, which every ratio would pass
    g = wl.build_grid(0, 2)
    w = wl.realize(wl.Piecewise((1e-300, 1e300, 1.0, 1.0)), g)
    with pytest.raises(ConfigError, match="finite"):
        wl.doubling_check(w, 1.0)
    with pytest.raises(ConfigError, match="finite"):
        wl.doubling_check(wl.realize(wl.Step(0.5), wl.build_grid(1, 3)), 1e308)


def test_doubling_parent_variant_random(rng):
    g = wl.build_grid(1, 6)
    for _ in range(5):
        vals = tuple(float(v) for v in rng.lognormal(size=g.ncells))
        w = wl.with_cached(wl.realize(wl.Piecewise(vals), g), dual=(2.0,))
        rep = wl.doubling_check(w, 2.0)
        assert rep.parent_ok


def test_kind_validation():
    with pytest.raises(ConfigError):
        ConstantKind("Ap")
    with pytest.raises(ConfigError):
        ConstantKind("Mixed", p=2.0, alpha=-1.0, beta=0.5)
    with pytest.raises(ConfigError):
        ConstantKind("A7")


def test_json_inf_encoding():
    g = wl.build_grid(0, 4)
    wp = wl.with_cached(wl.realize(wl.Product(wl.Power(0.25), wl.Power(0.25)), g), dual=(2.0,))
    rep = wl.global_constant(wp, ConstantKind("Ap", p=2.0))
    assert math.isinf(rep.value)
    assert rep.to_json_dict()["value"] == "inf"
    # NaN and -inf keep their own names
    rep = ConstantReport(
        ConstantKind("A1"), math.nan, Cube(0, 0),
        [(0, -math.inf, 0), (1, math.inf, 1), (2, math.nan, 2)], (0, 2),
    )
    d = rep.to_json_dict()
    assert d["value"] == "nan"
    assert [row["value"] for row in d["per_level"]] == ["-inf", "inf", "nan"]
