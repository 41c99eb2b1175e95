import math

import numpy as np
import pytest

import weightlab as wl
import weightlab.sawyer as sw
from weightlab.grid import Cube, as_cubes, level_rows, rows
from conftest import overflowing_weight, random_function


def test_region_extraction_matches_brute(rng):
    g = wl.build_grid(1, 6)
    single = np.zeros(g.ncells, dtype=bool)
    single[37] = True
    masks = [rng.random(g.ncells) < frac for frac in (0.1, 0.5, 0.9)]
    masks += [np.ones(g.ncells, dtype=bool), np.zeros(g.ncells, dtype=bool), single,
              np.arange(g.ncells) % 2 == 0]
    for mask in masks:
        fast = as_cubes(g, *sw.region_maximal_cubes(g, mask))
        brute = sw.region_maximal_cubes_brute(g, mask)
        assert fast == brute
        # the cubes are disjoint and cover exactly the mask
        covered = np.zeros(g.ncells, dtype=int)
        for q in fast:
            r = wl.cells_of(g, q)
            covered[r.start : r.stop] += 1
        assert np.array_equal(covered.astype(bool), mask)
        assert covered.max() <= 1


@pytest.mark.parametrize("J,L", [(0, 0), (0, 1), (1, 0), (1, 3), (2, 5), (0, 8)])
def test_region_arrays_match_brute_on_adversarial_masks(J, L):
    # first_cubes on the logical-and pyramid, read as arrays, against the
    # per-cube oracle: empty, full, end cells, alternating cells and a
    # plateau over a range that no dyadic cube matches
    g = wl.build_grid(J, L)
    n = g.ncells
    cells = np.arange(n)
    masks = [cells < 0, cells >= 0, cells == 0, cells == n - 1, cells % 2 == 1,
             (cells >= min(3, n - 1)) & (cells < max(n - 5, 1))]
    for mask in masks:
        d, idx = sw.region_maximal_cubes(g, mask)
        assert d.dtype == idx.dtype == np.int64
        brute = sw.region_maximal_cubes_brute(g, mask)
        assert list(zip((g.L - d).tolist(), idx.tolist())) == [(q.level, q.index) for q in brute]


def test_level_cubes_zero_function():
    g = wl.build_grid(0, 5)
    v = wl.realize(wl.Constant(1.0), g)
    gf = wl.GridFunction(g, np.zeros(g.ncells))
    for k in (-2, 0, 3):
        assert wl.level_cubes(gf, v, 4.0, k) == []


def test_level_cubes_indicator():
    # g = chi_{Q0}, v = 1, a = 4, k = -1: Omega_{-1} = {M_d g > 1/4}
    g = wl.build_grid(1, 5)
    vals = np.zeros(g.ncells)
    r = wl.cells_of(g, Cube(1, 0))  # [0, 1/2)
    vals[r.start : r.stop] = 1.0
    gf = wl.GridFunction(g, vals)
    v = wl.realize(wl.Constant(1.0), g)
    mdg = wl.dyadic_maximal(gf).values
    expect = as_cubes(g, *sw.region_maximal_cubes(g, (mdg > 0.25) & np.ones(g.ncells, dtype=bool)))
    assert wl.level_cubes(gf, v, 4.0, -1) == expect
    # the averages over the recovered cubes exceed the threshold
    for q in expect:
        rr = wl.cells_of(g, q)
        assert mdg[rr.start] > 0.25


def test_strata_nesting(rng):
    g = wl.build_grid(1, 7)
    v = wl.random_a1_weight(g, rng, cap=8.0)
    gf = random_function(g, rng)
    rec = wl.build_record(gf, v)
    for hi in rec.strata:
        for lo in rec.strata:
            if hi.k <= lo.k:
                continue
            # k > t: every stratum-k cube meeting a stratum-t cube sits inside it
            for qh in as_cubes(g, hi.d, hi.idx):
                for ql in as_cubes(g, lo.d, lo.idx):
                    inter = set(wl.cells_of(g, qh)) & set(wl.cells_of(g, ql))
                    if inter:
                        assert wl.contains(ql, qh)


def test_gamma_filter_b2_sandwich(rng):
    g = wl.build_grid(1, 6)
    for _ in range(6):
        v = wl.random_a1_weight(g, rng, cap=10.0)
        gf = random_function(g, rng)
        rec = wl.build_record(gf, v)
        for s in rec.strata:
            res = wl.gamma_filter(s.d, s.idx, v, rec.a, s.k, v_a1=rec.v_a1)
            assert res.sandwich_ok
            assert res.flags == s.gamma


def test_gamma_unit_weight_band():
    # v = 1: only the stratum with a^k < 1 <= a^{k+1} can flag
    g = wl.build_grid(1, 5)
    v = wl.realize(wl.Constant(1.0), g)
    half = g.ncells // 2
    gf = wl.GridFunction(g, np.concatenate([np.ones(half), np.zeros(half)]))
    rec = wl.build_record(gf, v, a=4.0)
    for s in rec.strata:
        for flag in s.gamma:
            assert flag == (4.0 ** (s.k + 1) >= 1.0)


def test_principal_constant_u_is_g0_only(rng):
    g = wl.build_grid(1, 6)
    v = wl.random_a1_weight(g, rng, cap=6.0)
    u = wl.realize(wl.Constant(1.0), g)
    gf = random_function(g, rng)
    rec = wl.build_record(gf, v)
    gens = wl.principal_cubes(rec, u)
    assert len(gens) == 1  # the growth condition never fires for constant u
    # G0 = maximal cubes of Delta_N
    pairs = rec.gamma_pairs()
    cubes = {p: pair_cube(rec, p) for p in pairs}
    for p in pairs:
        is_max = not any(
            wl.contains(cubes[q], cubes[p]) and cubes[q].level < cubes[p].level
            for q in pairs
        )
        assert (p in gens[0]) == is_max


def pair_cube(rec, pair):
    """The cube of the stratum pair (k, j) of a record."""
    s = rec.stratum(pair[0])
    return Cube(rec.grid.L - int(s.d[pair[1]]), int(s.idx[pair[1]]))


def power_inputs(rng):
    """Power weights u = x^(du-1), v = x^(dv-1) and g = x^-s at the cell
    midpoints (about half of the g thinned at random), whose principal
    cubes run to several generations: (grid, u, v, g, a, delta_frac)."""
    for J in (0, 1, 2):
        for L in (6, 8, 10):
            for du, dv, s, a, frac in ((0.05, 0.6, 0.95, 3.0, 0.9), (0.05, 0.8, 0.99, 2.5, 0.95),
                                       (0.02, 0.9, 0.99, 3.5, 0.7), (0.1, 0.5, 0.9, 3.0, 0.9)):
                g = wl.build_grid(J, L)
                x = (np.arange(g.ncells) + 0.5) * g.cell_width
                vals = x**-s
                if rng.random() < 0.5:
                    vals = vals * (rng.random(g.ncells) < 0.7)
                yield (g, wl.realize(wl.Power(du), g), wl.realize(wl.Power(dv), g),
                       wl.GridFunction(g, vals), a, frac)


def random_strata_record(g, rng):
    """A record of six nested random strata with random Gamma flags, where
    many Gamma pairs share a cube and the growth condition fires often."""
    mask = np.ones(g.ncells, dtype=bool)
    strata = []
    for k in range(6):
        mask = mask & (rng.random(g.ncells) < 0.85)
        d, idx = sw.region_maximal_cubes(g, mask)
        strata.append(sw.Stratum(k, d, idx, list(rng.random(len(d)) < 0.7)))
    ones = np.ones(g.ncells)
    return sw.PrincipalCubeRecord(g, 3.0, 0.1, 0.2, 1.0, 0, 5, strata, ones, ones)


def test_principal_matches_brute(rng):
    g = wl.build_grid(1, 6)
    for _ in range(6):
        v = wl.random_a1_weight(g, rng, cap=8.0)
        u = wl.random_a1_weight(g, rng, cap=8.0)
        gf = random_function(g, rng)
        rec = wl.build_record(gf, v)
        fast = wl.principal_cubes(rec, u)
        brute = sw.principal_cubes_brute(rec, u)
        assert fast == brute
    # power weights: three or more generations at every J
    deep = set()
    for g, u, v, gf, a, frac in power_inputs(rng):
        rec = wl.build_record(gf, v, a=a, delta_frac=frac)
        fast = wl.principal_cubes(rec, u)
        assert fast == sw.principal_cubes_brute(rec, u)
        if len(fast) >= 3:
            deep.add(g.J)
    assert deep == {0, 1, 2}
    for J, L in ((0, 5), (1, 5), (2, 4)):
        g = wl.build_grid(J, L)
        for _ in range(20):
            rec = random_strata_record(g, rng)
            u = wl.random_a1_weight(g, rng, cap=16.0)
            assert wl.principal_cubes(rec, u) == sw.principal_cubes_brute(rec, u)


def test_generations_disjoint_and_delta_covered(rng):
    g = wl.build_grid(2, 6)
    v = wl.random_a1_weight(g, rng, cap=8.0)
    u = wl.random_a1_weight(g, rng, cap=8.0)
    gf = random_function(g, rng)
    rec = wl.build_record(gf, v)
    gens = wl.principal_cubes(rec, u)
    seen = set()
    for gen in gens:
        assert not (set(gen) & seen)
        seen |= set(gen)
    # every Delta_N cube is contained in a principal cube
    for p in rec.gamma_pairs():
        assert any(wl.contains(pair_cube(rec, q), pair_cube(rec, p)) for q in rec.principal)


def test_chain_report_trivial_weights():
    g = wl.build_grid(1, 5)
    one = wl.realize(wl.Constant(1.0), g)
    vals = np.zeros(g.ncells)
    vals[:8] = 1.0
    gf = wl.GridFunction(g, vals)
    rec = wl.build_record(gf, one)
    wl.principal_cubes(rec, one)
    rep = wl.verify_chain(rec, one, one, gf)
    assert rep.all_ok
    assert rep.c_eps > 1.0 and rep.c9 > 1.0
    assert rep.envelope == rep.assembled_constant  # [v]=[u]=1


def test_chain_report_random_pairs(rng):
    g = wl.build_grid(1, 7)
    for i in range(5):
        u = wl.random_a1_weight(g, rng, cap=8.0)
        v = wl.random_a1_weight(g, rng, cap=8.0)
        gf = random_function(g, rng)
        rec = wl.build_record(gf, v)
        wl.principal_cubes(rec, u)
        rep = wl.verify_chain(rec, u, v, gf, seed=i)
        assert rep.all_ok, rep.to_json_dict()


def b3_oracle_ratios(rec, v, n_subsets=16, seed=0):
    """The b3 ratios v(E)/v(I) / (2 (|E|/|I|)^eps), one mask at a time, the
    random unions drawn one row per union in pair order."""
    grid, a, eps = rec.grid, rec.a, rec.eps
    rng = np.random.default_rng(seed)
    ratios = []
    for p in rec.gamma_pairs():
        q = pair_cube(rec, p)
        r = wl.cells_of(grid, q)
        sl = slice(r.start, r.stop)
        m = r.stop - r.start
        subsets = [rec.mdv[sl] > a**k for k in range(p[0], rec.top_k + 1)]
        if m <= 64:
            subsets.extend(np.eye(m, dtype=bool))
        for _ in range(n_subsets if m > 1 else 0):
            subsets.append(rng.random(m) < 0.5)
        for mask in subsets:
            sz = int(np.count_nonzero(mask))
            if sz:
                ratios.append((float(v.cell_masses[sl][mask].sum()) / v.mass_of(q)) / (2.0 * (sz / m) ** eps))
    return ratios


def chain_blocks_oracle(rec, u, v, n_subsets=16, seed=0, rtol=1e-9):
    """Blocks b3, b9, b10, h_bound and the chain index as (count, violations,
    worst), from a per-mask loop for b3 and a per-cell chain walk."""
    grid, a, delta, u_a1 = rec.grid, rec.a, rec.delta, rec.u_a1
    c9 = 2.0 ** (1.0 + rec.nu) * u_a1 ** (2 * rec.nu) * a ** (delta * rec.nu) / (a ** (delta * rec.nu) - 1.0)
    tol = 1.0 + rtol
    out = {}

    ratios = b3_oracle_ratios(rec, v, n_subsets, seed)
    out["b3"] = (len(ratios), sum(x > tol for x in ratios), max([0.0] + ratios))

    ks = range(rec.floor_k, rec.top_k + 1)
    jmap, jcubes = {}, {}
    for k in ks:
        jcubes[k] = as_cubes(grid, *sw.region_maximal_cubes(grid, rec.mdg > a**k))
        jmap[k] = np.full(grid.ncells, -1)
        for i, q in enumerate(jcubes[k]):
            r = wl.cells_of(grid, q)
            jmap[k][r.start : r.stop] = i
    groups = {}
    for p in rec.principal:
        q = pair_cube(rec, p)
        jid = int(jmap[p[0]][wl.cells_of(grid, q).start])
        umass = u.mass_of(q)
        groups.setdefault((p[0], jid), []).append((umass, umass / q.length))
    jumass = {key: u.mass_of(jcubes[key[0]][key[1]]) for key in groups}
    b9, b10, h = [0, 0, 0.0], [0, 0, 0.0], [0, 0, 0.0]
    max_chain = 0
    for x in range(grid.ncells):
        gx = [(k, int(jmap[k][x])) for k in ks if (k, int(jmap[k][x])) in groups]
        if not gx:
            continue
        juavg = [jumass[key] / jcubes[key[0]][key[1]].length for key in gx]
        chain = [0]
        for i in range(1, len(gx)):
            if juavg[i] > 2.0 * juavg[chain[-1]]:
                chain.append(i)
        max_chain = max(max_chain, len(chain) - 1)
        bounds = chain + [len(gx)]
        hx = 0.0
        for mi in range(len(chain)):
            k_m = gx[chain[mi]][0]
            block = 0.0
            for pos in range(bounds[mi], bounds[mi + 1]):
                key = gx[pos]
                for umass, uav in groups[key]:
                    block += umass / jumass[key]
                    rhs = a ** ((key[0] - k_m) * delta) / (2.0 * u_a1) * juavg[pos]
                    b10[0] += 1
                    b10[1] += not uav > rhs * (1 - rtol)
                    b10[2] = max(b10[2], rhs / uav if uav > 0 else math.inf)
                hx += sum(um for um, _ in groups[key]) / jcubes[key[0]][key[1]].length
            b9[0] += 1
            b9[1] += block > c9 * tol
            b9[2] = max(b9[2], block / c9)
        hbound = 2.0 * c9 * (2.0 - 0.5 ** (len(chain) - 1)) * u_a1 * u.cell_values[x]
        hr = hx / hbound if hbound > 0 else math.inf
        h = [h[0] + 1, h[1] + (hr > tol), max(h[2], hr)]
    out.update(b9=tuple(b9), b10=tuple(b10), h_bound=tuple(h), max_chain_index=max_chain)
    return out


def gamma_filter_oracle(cubes, v, a, k, v_a1, rtol=1e-12):
    """Oracle for gamma_filter: one cell slice, one essinf and one mass
    lookup per cube, Python min/max for the worsts."""
    vrep = v.cell_values
    flags = []
    worst_lower, worst_upper, ok = math.inf, 0.0, True
    for q in cubes:
        r = wl.cells_of(v.grid, q)
        flag = bool(np.any(vrep[r.start : r.stop] <= a ** (k + 1)))
        flags.append(flag)
        if not flag:
            continue
        lo = a**k / v_a1
        hi = v_a1 * a ** (k + 1)
        inf_q = v.essinf_of(q)
        avg_q = v.mass_of(q) / q.length
        worst_lower = min(worst_lower, inf_q / lo)
        worst_upper = max(worst_upper, avg_q / hi)
        if inf_q < lo * (1 - rtol) or avg_q > hi * (1 + rtol):
            ok = False
    return sw.GammaResult(flags, ok, worst_lower, worst_upper)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_gamma_filter_skips_nan_like_oracle():
    # NaN sandwich ratios, from a NaN [v]_{A1} or from cube masses that
    # overflow against an infinite bound (a weight realize refuses), are
    # skipped by both worsts
    g = wl.build_grid(2, 1)
    v = overflowing_weight(wl.Piecewise((1e308, 1.0, 1e308, 1e308, 2.0, 1e308, 0.5, 1e308)), g)
    for k in g.levels():
        cubes = [Cube(k, m) for m in range(g.ncubes(k))]
        d, idx = np.full(len(cubes), g.L - k), np.arange(len(cubes))
        for v_a1 in (math.nan, 1e300, 1.0):
            for band in (-1, 0, 500):
                fast = wl.gamma_filter(d, idx, v, 4.0, band, v_a1=v_a1)
                assert repr(fast) == repr(gamma_filter_oracle(cubes, v, 4.0, band, v_a1))


def alternating_record(g, v):
    """A record whose Gamma pairs alternate between cubes of 64 and 32
    cells, on four strata with the same cubes, so that the b3 buckets of the
    two sizes fill and flush in turn.  Each 128-cell block holds a cube of
    64 cells and, after it, one of 32; M_d g is large on the cubes and 0
    off them, so the J cubes are the same cubes."""
    d = np.tile([6, 5], g.ncells >> 7)
    idx = np.arange(len(d)) // 2 * 128 + np.tile([0, 64], g.ncells >> 7) >> d
    mdg = np.zeros(g.ncells)
    for s, pos, i in level_rows(g, d, idx):
        rows(mdg, s)[i] = 100.0
    strata = [sw.Stratum(k, d, idx, [True] * len(d)) for k in range(4)]
    mdv = wl.dyadic_maximal(wl.GridFunction(g, v.cell_values)).values
    return sw.PrincipalCubeRecord(g, 3.0, 0.01, 0.02, wl.a1_constant(v), 0, 3, strata, mdv, mdg)


def test_chain_blocks_match_per_cell_oracle(rng):
    # power weights for long chains, random A1 pairs for many short runs, a
    # random A1 pair at N = 8192 with Gamma cubes of more than 2048 cells
    # (their 16 unions are drawn in more than one RH_CHUNK chunk) and a
    # record whose pairs alternate between two cube sizes
    power = list(power_inputs(rng))
    g = wl.build_grid(1, 7)
    scattered = [
        (g, wl.random_a1_weight(g, rng, cap=8.0), wl.random_a1_weight(g, rng, cap=8.0),
         random_function(g, rng), 4.0, 0.5)
        for _ in range(4)
    ]
    big = wl.build_grid(1, 12)
    scattered.append((big, wl.random_a1_weight(big, rng, cap=8.0), wl.random_a1_weight(big, rng, cap=8.0),
                      random_function(big, rng), 4.0, 0.5))
    records = [(wl.build_record(gf, v, a=a, delta_frac=frac), u, v, gf) for g, u, v, gf, a, frac in power + scattered]
    g = wl.build_grid(0, 13)
    u, v = wl.random_a1_weight(g, rng, cap=8.0), wl.random_a1_weight(g, rng, cap=8.0)
    records.append((alternating_record(g, v), u, v, random_function(g, rng)))
    _, d, _ = records[-2][0].gamma_cubes()
    assert (1 << int(d.max())) * 16 > wl.constants.RH_CHUNK  # its 16 unions take two chunks or more
    _, d, _ = records[-1][0].gamma_cubes()
    assert np.all(np.diff(d) != 0)
    chained = violated = 0
    for i, (rec, u, v, gf) in enumerate(records):
        # the Gamma flags and the b2 sandwich of every stratum; rtol = -0.5
        # turns some sandwiches into violations
        for s in rec.strata:
            for rtol in (1e-12, -0.5):
                res = wl.gamma_filter(s.d, s.idx, v, rec.a, s.k, v_a1=rec.v_a1, rtol=rtol)
                assert res == gamma_filter_oracle(as_cubes(rec.grid, s.d, s.idx), v, rec.a, s.k, rec.v_a1, rtol)
                violated += not res.sandwich_ok
        wl.principal_cubes(rec, u)
        # a negative rtol turns some checks into violations (b9 and h at
        # -0.999, b10 at -30), so that the violation counts are compared too
        for rtol in (1e-9, -0.999, -30.0):
            rep = wl.verify_chain(rec, u, v, gf, seed=i, rtol=rtol)
            oracle = chain_blocks_oracle(rec, u, v, seed=i, rtol=rtol)
            assert rep.max_chain_index == oracle["max_chain_index"]
            for name in ("b3", "b9", "b10", "h_bound"):
                block = getattr(rep, name)
                assert (block.count, block.violations, block.worst) == oracle[name], name
        # b3 violations at thresholds inside the ratio distribution, so that
        # a union summed against the wrong cube or drawn out of order shows
        ratios = b3_oracle_ratios(rec, v, seed=i)
        for q in np.quantile(ratios, (0.1, 0.5, 0.9)).tolist() if ratios else ():
            b3 = wl.verify_chain(rec, u, v, gf, seed=i, rtol=q - 1.0).b3
            assert b3.violations == sum(x > 1.0 + (q - 1.0) for x in ratios)
        chained += i < len(power) and rep.max_chain_index >= 1
    assert chained >= 12 and violated > 0


def test_empty_record():
    g = wl.build_grid(0, 4)
    one = wl.realize(wl.Constant(1.0), g)
    gf = wl.GridFunction(g, np.zeros(g.ncells))
    rec = wl.build_record(gf, one)
    assert rec.strata == []
    wl.principal_cubes(rec, one)
    rep = wl.verify_chain(rec, one, one, gf)
    assert rep.all_ok
    assert rep.gamma_sum == 0.0


def test_record_json():
    g = wl.build_grid(1, 4)
    one = wl.realize(wl.Constant(1.0), g)
    vals = np.zeros(g.ncells)
    vals[:4] = 2.0
    rec = wl.build_record(wl.GridFunction(g, vals), one)
    wl.principal_cubes(rec, one)
    d = rec.to_json_dict()
    assert d["a"] == 4.0
    assert 0 < d["delta"] < d["eps"]
    assert isinstance(d["strata"], list)
