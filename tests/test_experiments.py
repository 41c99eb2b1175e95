import math

import numpy as np
import pytest

import weightlab as wl
import weightlab.experiments as exp
from weightlab import maximal
from weightlab.errors import ConfigError
from weightlab.maximal import ENVELOPE_W, NAIVE_CEILING, uncentered_envelope, uncentered_restricted


def test_scaling_fit_trivial():
    fit = wl.scaling_fit([(1.0, 1.0), (2.0, 2.0), (4.0, 4.0)])
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    fit2 = wl.scaling_fit([(1.0, 1.0), (2.0, 4.0), (3.0, 9.0)])
    assert fit2.slope == pytest.approx(2.0, abs=1e-12)


def test_scaling_fit_errors():
    with pytest.raises(ConfigError):
        wl.scaling_fit([(1.0, 1.0), (2.0, 2.0)])
    with pytest.raises(ConfigError):
        wl.scaling_fit([(1.0, 1.0), (1.0, 2.0), (1.0, 3.0)])
    with pytest.raises(ConfigError):
        wl.scaling_fit([(1.0, 1.0), (-2.0, 2.0), (3.0, 3.0)])


def test_sharpness_a1_analytic_values():
    res = wl.sharpness_a1_sweep([0.5, 1 / 3, 0.25, 0.2])
    rows = {r["delta"]: r for r in res.rows}
    assert rows[0.5]["numerator"] == 8.0
    assert rows[0.5]["denominator"] == 4.0
    assert rows[0.5]["ratio"] == 2.0
    assert rows[0.25]["ratio"] == 4.0
    for d, r in rows.items():
        assert r["numerator"] == d**-3
        assert r["denominator"] == d**-2
        assert r["numerator"] * d**3 == pytest.approx(1.0, rel=1e-14)
        assert r["slack"] == pytest.approx(1.0, rel=1e-12)
    fit = res.fits["ratio_vs_inv_delta"]
    assert fit.slope == pytest.approx(1.0, abs=1e-9)


def test_sharpness_a1_grid_cross_check():
    row = exp.sharpness_a1_grid(0.5, L=8)
    assert row["J"] == 4
    assert abs(row["rel_gap"]) <= 0.15
    with pytest.raises(ConfigError):
        exp.sharpness_a1_grid(0.25, L=8)


def test_sharpness_product_values():
    res = wl.sharpness_product_sweep([0.5, 0.25], [0.5, 0.25])
    rows = {(r["alpha"], r["delta"]): r for r in res.rows}
    r = rows[(0.5, 0.5)]
    assert r["numerator"] == 6.0
    assert r["denominator"] == 2.0
    assert r["ratio"] == 3.0
    assert r["ratio"] >= 0.5 / (0.5 * 0.5)
    # alpha halved at fixed delta doubles the ratio exactly
    assert rows[(0.25, 0.5)]["ratio"] == 2 * rows[(0.5, 0.5)]["ratio"]
    # closed-form oracle at (1/4, 1/4)
    num = (0.25**-2 - 1) / 0.25
    den = 0.25 / 0.25**2
    assert rows[(0.25, 0.25)]["ratio"] == pytest.approx(num / den, rel=1e-14)
    assert all(r["lower_ok"] for r in res.rows)


def test_sharpness_product_marginal_slopes():
    res = wl.sharpness_product_sweep([0.5, 0.25, 0.125, 0.0625], [0.5, 1 / 3, 0.25, 0.2])
    assert res.fits["ratio_vs_inv_alpha"].slope == pytest.approx(1.0, abs=1e-9)
    assert res.fits["ratio_vs_inv_delta"].slope >= 0.9


def test_r_parameter_algebra_spot_value():
    # [v] = e^2 - e, p = 1: log(e + [v]) = 2, r = 3, r' = 3/2, r^{r'} = 3 sqrt(3)
    row = exp.r_parameters(math.e**2 - math.e, 1.0)
    assert row["r"] == pytest.approx(3.0, rel=1e-14)
    assert row["r_conj"] == pytest.approx(1.5, rel=1e-14)
    assert row["r_pow"] == pytest.approx(3.0 * math.sqrt(3.0), rel=1e-12)
    assert row["r_pow"] <= 8.0
    assert row["r_pow_ok"] and row["ap_pow_ok"]


def test_r_algebra_grid():
    vs = list(np.geomspace(1.0, 1e6, 41))
    rows = [exp.r_parameters(v, p) for v in vs for p in [1.0, 2.0, 4.0, 8.0]]
    assert all(r["r_pow_ok"] for r in rows)
    assert all(r["ap_pow_ok"] for r in rows)
    # the sharper calculus bound: [v]^{2r'-2} <= e^2 when r' = 1 + 1/log(e+[v])
    for v in vs:
        rc = 1.0 + 1.0 / math.log(math.e + v)
        assert v ** (2 * rc - 2) <= math.e**2 * (1 + 1e-12)


def test_bound_audit_identity_weight():
    g = wl.build_grid(2, 5)
    one = wl.realize(wl.Constant(1.0), g)
    rep = exp.bound_audit_ap([("one", one)], 1.0)
    assert rep.all_ok
    row = rep.rows[0]
    assert row["ap"] == pytest.approx(1.0, rel=1e-12)
    # unweighted dyadic weak-(1,1) ratios never exceed 1 on the corpus
    assert row["max_ratio"] <= 1.0 + 1e-12
    assert rep.envelope_ainf <= 1.0 + 1e-12


def test_bound_audit_step_family():
    g = wl.build_grid(1, 6)
    fam = exp.step_family(g, alphas=(0.5, 0.25), n_random=1)
    for p in (1.0, 2.0):
        rep = exp.bound_audit_ap(fam, p)
        assert rep.all_ok
        assert rep.envelope_ainf < 10.0  # a loose family-wide envelope


def test_mixed_lemma_check(rng):
    g = wl.build_grid(1, 5)
    weights = [("one", wl.realize(wl.Constant(1.0), g))]
    for i in range(3):
        vals = tuple(float(v) for v in rng.lognormal(size=g.ncells))
        weights.append((f"w{i}", wl.realize(wl.Piecewise(vals), g)))
    rep = wl.mixed_lemma_check(weights, [1.5, 2.0, 3.0])
    assert rep.all_ok
    one_rows = [r for r in rep.rows if r["weight"] == "one"]
    for r in one_rows:
        assert r["ap"] == pytest.approx(1.0, rel=1e-12)
        assert r["mixed"] == pytest.approx(1.0, rel=1e-12)


def test_dual_exponent_identity():
    g = wl.build_grid(1, 6)
    rng = np.random.default_rng(2)
    vals = tuple(float(v) for v in rng.lognormal(size=g.ncells))
    v = wl.realize(wl.Piecewise(vals), g)
    assert exp.dual_exponent_identity_max_rel(v, 2.0) <= 1e-10
    assert exp.dual_exponent_identity_max_rel(v, 1.5) <= 1e-10


def test_buckley_empirical():
    g = wl.build_grid(1, 6)
    one = wl.realize(wl.Constant(1.0), g)
    rep = wl.buckley_empirical(one, 2.0)
    # bound term reduces to p' = 2 for the unit weight
    assert rep.bound_term == pytest.approx(2.0, rel=1e-10)
    assert rep.implied_c <= 1.0 + 1e-12  # ||Mf||_2 <= 2 ||f||_2 holds comfortably
    assert rep.dual_identity_ok
    rng = np.random.default_rng(4)
    w = exp.random_a1_weight(g, rng, cap=6.0)
    rep2 = wl.buckley_empirical(w, 2.0)
    assert rep2.dual_identity_ok
    assert rep2.max_ratio <= rep2.bound_term * 10  # envelope stays bounded


def buckley_max_ratio_per_function(v, p, corpus):
    """Oracle: the corpus loop with one uncentered_maximal call per function."""
    best = 0.0
    for _, f in corpus:
        denom = wl.lp_norm(f, v, p)
        if denom == 0.0:
            continue
        best = max(best, wl.lp_norm(wl.uncentered_maximal(f), v, p) / denom)
    return best


@pytest.mark.parametrize("J, L, sweep_cells", [
    (1, 4, None),  # one block of rows
    (1, 4, 160),   # blocks of five rows of 32 cells, the last one short
    (0, 13, None),  # 8192 cells: the hull pass, one row at a time
])
def test_buckley_batch_equals_per_function_loop(monkeypatch, J, L, sweep_cells):
    if sweep_cells:
        monkeypatch.setattr(maximal, "SWEEP_CELLS", sweep_cells)
    g = wl.build_grid(J, L)
    assert (g.ncells > NAIVE_CEILING) == (L == 13)
    v = exp.random_a1_weight(g, np.random.default_rng(L), cap=16.0)
    zero = ("zero", wl.GridFunction(g, np.zeros(g.ncells)))
    corpus = exp.test_function_corpus(g, seed=3, n_random=2)
    corpus = [zero] + corpus[:4] + [zero] + corpus[4:]
    rep = wl.buckley_empirical(v, 2.0, corpus=corpus)
    assert rep.max_ratio == buckley_max_ratio_per_function(v, 2.0, corpus) > 1.0
    assert wl.buckley_empirical(v, 2.0, corpus=[zero, zero]).max_ratio == 0.0


def test_buckley_sweeps_each_distinct_function_once(monkeypatch):
    # 64 cells, at most 2W: the envelope sweeps every row and is exact there,
    # so each distinct function is swept once, by the envelope, and none again
    g = wl.build_grid(1, 5)
    assert g.ncells <= 2 * ENVELOPE_W
    v = exp.random_a1_weight(g, np.random.default_rng(5), cap=16.0)
    corpus = exp.test_function_corpus(g, seed=3, n_random=2)
    names = dict(corpus)
    # the indicators of single cells are the spikes at the same cells
    for cell in (0, g.ncells // 2):
        assert np.array_equal(names[f"indicator_k5_m{cell}"].values, names[f"spike_{cell}"].values)
    f = corpus[-1][1]
    thrice = [("a", f), ("b", wl.GridFunction(g, f.values.copy())), ("c", f)]
    rows = {"envelope": [], "restricted": []}

    def counting(op, key):
        def call(values):
            rows[key].append(len(values))
            return op(values)
        return call

    monkeypatch.setattr(exp, "uncentered_envelope", counting(uncentered_envelope, "envelope"))
    monkeypatch.setattr(exp, "uncentered_restricted", counting(uncentered_restricted, "restricted"))
    for fns, distinct in ((corpus, len(corpus) - 2), (thrice, 1)):
        rows["envelope"].clear()
        rep = wl.buckley_empirical(v, 2.0, corpus=fns)
        assert rows["envelope"] == [distinct] and not rows["restricted"]
        assert rep.max_ratio == buckley_max_ratio_per_function(v, 2.0, fns) > 1.0


def _buckley_weight(kind, g):
    if kind == "step":  # a dense one-sided plateau row wins
        return wl.realize(wl.Step(0.25), g)
    return exp.random_a1_weight(g, np.random.default_rng(g.L), cap=16.0)


@pytest.mark.parametrize("kind", ["step", "walk"])
@pytest.mark.parametrize("L", [8, 9, 10, 11])
def test_buckley_pruning_equals_per_function_loop(monkeypatch, L, kind):
    # J = 1, L = 8..11: 512..4096 cells, above 2W and up to NAIVE_CEILING,
    # where the dense rows are bounded and only the survivors swept
    g = wl.build_grid(1, L)
    assert 2 * ENVELOPE_W < g.ncells <= NAIVE_CEILING
    v = _buckley_weight(kind, g)
    corpus = exp.test_function_corpus(g, seed=L)
    swept, bounds = [], {}

    def recording(values):
        swept.extend(row.tobytes() for row in values)
        return uncentered_restricted(values)

    def bounding(values):
        lower, cap = uncentered_envelope(values)
        for row, lo, c in zip(values, lower, cap):
            bounds[row.tobytes()] = (lo, np.maximum(lo, c))
        return lower, cap

    monkeypatch.setattr(exp, "uncentered_restricted", recording)
    monkeypatch.setattr(exp, "uncentered_envelope", bounding)
    rep = wl.buckley_empirical(v, 2.0, corpus=corpus)
    assert rep.max_ratio == buckley_max_ratio_per_function(v, 2.0, corpus) > 1.0
    # each distinct row is swept at most once, and a row whose upper ratio
    # is below the best lower ratio never
    assert len(swept) == len(set(swept))
    fns = {f.values.tobytes(): f for _, f in corpus}

    def ratio(key, row):
        return wl.lp_norm(wl.GridFunction(g, row), v, 2.0) / wl.lp_norm(fns[key], v, 2.0)

    # every distinct row is bounded once; the rows whose bounds are equal are
    # exact and never swept, and of the others a row whose upper ratio is
    # below the best lower ratio never
    assert len(bounds) == len({f.values.tobytes() for _, f in corpus})
    exact = {k for k, (lo, hi) in bounds.items() if np.array_equal(lo, hi)}
    floor = max(ratio(k, lo) for k, (lo, _) in bounds.items())
    pruned = {k for k, (_, hi) in bounds.items() if k not in exact and ratio(k, hi) < floor * (1 - 2.0**-40)}
    assert pruned and not (pruned | exact) & set(swept)
    assert all(k in swept or k in pruned or k in exact for k in bounds)
    assert max(ratio(k, uncentered_restricted(fns[k].values)) for k in pruned) < rep.max_ratio


def test_buckley_refuses_a_non_finite_corpus_function():
    # an inf or NaN cell made the function's ratio NaN, which max() dropped
    g = wl.build_grid(1, 6)
    v = exp.random_a1_weight(g, np.random.default_rng(1), cap=16.0)
    corpus = exp.test_function_corpus(g, seed=1, n_random=2)
    for bad in (np.inf, np.nan):
        vals = np.ones(g.ncells)
        vals[5] = bad
        with pytest.raises(ConfigError, match="bad_one"):
            wl.buckley_empirical(v, 2.0, corpus=corpus + [("bad_one", wl.GridFunction(g, vals))])


def test_buckley_envelope_refinement_stability():
    alphas = (0.5, 0.25)
    vals = {}
    for L in (6, 7):
        g = wl.build_grid(1, L)
        cs = []
        for a in alphas:
            rep = wl.buckley_empirical(wl.realize(wl.Step(a), g), 2.0, seed=1)
            cs.append(rep.implied_c)
        vals[L] = max(cs)
    assert abs(vals[7] / vals[6] - 1.0) < 0.10


def test_random_a1_weight_respects_cap(rng):
    g = wl.build_grid(1, 6)
    for _ in range(5):
        w = exp.random_a1_weight(g, rng, cap=10.0)
        assert wl.a1_constant(w) <= 10.0


def test_corpus_shapes(rng):
    g = wl.build_grid(1, 6)
    corpus = wl.test_function_corpus(g, seed=3, n_random=8)
    names = [n for n, _ in corpus]
    assert any(n.startswith("indicator") for n in names)
    assert any(n.startswith("spike") for n in names)
    assert any(n.startswith("one_sided_f") for n in names)
    assert sum(n.startswith("random") for n in names) == 8
    for _, f in corpus:
        assert np.all(f.values >= 0)
