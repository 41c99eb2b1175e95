import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import weightlab as wl
from weightlab import maximal
from weightlab.errors import ConfigError
from weightlab.maximal import uncentered_restricted
from conftest import random_function


def test_constant_function_fixed_point():
    g = wl.build_grid(1, 4)
    f = wl.GridFunction(g, np.full(g.ncells, 3.0))
    assert np.all(wl.dyadic_maximal(f).values == 3.0)
    assert np.all(wl.uncentered_maximal(f).values == 3.0)
    v = wl.realize(wl.Constant(2.0), g)
    assert np.all(wl.weighted_dyadic_maximal(f, v).values == 3.0)


def test_dyadic_of_small_indicator():
    # f = chi_[0, 2^-L) on J=0: on [2^-(j+1), 2^-j) the smallest common
    # ancestor is [0, 2^-j), so M_d f = 2^(j-L) there
    L = 6
    g = wl.build_grid(0, L)
    vals = np.zeros(g.ncells)
    vals[0] = 1.0
    md = wl.dyadic_maximal(wl.GridFunction(g, vals)).values
    for j in range(L):
        lo = 1 << (L - j - 1)
        hi = 1 << (L - j)
        for i in range(lo, hi):
            assert md[i] == 2.0 ** (j - L)
    assert md[0] == 1.0


def test_zero_function():
    g = wl.build_grid(0, 5)
    f = wl.GridFunction(g, np.zeros(g.ncells))
    assert np.all(wl.dyadic_maximal(f).values == 0.0)
    assert np.all(wl.uncentered_maximal(f).values == 0.0)


def test_tilde_annihilates_mean_zero_indicator():
    # signed variant of a +/-1 block with zero average vanishes above the block
    g = wl.build_grid(0, 3)
    vals = np.array([1.0, -1.0, 0, 0, 0, 0, 0, 0])
    md = wl.dyadic_maximal(wl.GridFunction(g, vals), signed=True).values
    # cells 2..7 only see ancestors with zero or cancelling averages
    assert np.all(md[2:] == 0.0)
    assert md[0] == 1.0 and md[1] == 1.0


def test_weighted_reduces_to_dyadic_for_unit_weight(rng):
    g = wl.build_grid(1, 6)
    f = random_function(g, rng)
    v = wl.realize(wl.Constant(1.0), g)
    a = wl.weighted_dyadic_maximal(f, v).values
    b = wl.dyadic_maximal(f).values
    assert a == pytest.approx(b, rel=1e-15)


def test_oracle_agreement_random(rng):
    for J, L in [(0, 6), (1, 5), (2, 6)]:
        g = wl.build_grid(J, L)
        for signed in (False, True):
            f = random_function(g, rng, signed=signed)
            assert np.array_equal(
                wl.dyadic_maximal(f, signed=signed).values,
                wl.dyadic_maximal_brute(f, signed=signed).values,
            )
        f = random_function(g, rng)
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


def uncentered_maximal_cubic(f):
    """Oracle of the oracle: per cell, the full table of intervals [a, b)
    with a <= c < b, in O(N^3)."""
    vals = np.abs(f.values)
    P = maximal._prefix(vals)
    n = len(vals)
    idx = np.arange(n + 1, dtype=np.int64)
    out = np.empty(n)
    for c in range(n):
        num = P[c + 1 :][None, :] - P[: c + 1][:, None]
        den = idx[c + 1 :][None, :] - idx[: c + 1][:, None]
        out[c] = (num / den).max()
    return out


def test_uncentered_brute_matches_cubic_oracle(rng):
    for L in range(9):
        g = wl.build_grid(0, L)
        n = g.ncells
        cases = [
            rng.lognormal(size=n),
            rng.lognormal(size=n) * (rng.random(n) < 0.5),
            np.repeat(rng.lognormal(size=3), [n // 3, n // 3, n - 2 * (n // 3)]),
            np.full(n, 1.7),
            np.zeros(n),
            np.where(np.arange(n) % 7 < 3, 0.0, rng.lognormal(size=n)),
        ]
        for vals in cases:
            f = wl.GridFunction(g, vals)
            assert np.array_equal(wl.uncentered_maximal_brute(f).values, uncentered_maximal_cubic(f))
        # cells whose sums overflow: both oracles refuse, as the operator does
        f = wl.GridFunction(g, np.full(n, 1e308))
        if n == 1:  # one cell sums to itself
            assert wl.uncentered_maximal_brute(f).values[0] == uncentered_maximal_cubic(f)[0] == 1e308
            continue
        for op in (wl.uncentered_maximal_brute, uncentered_maximal_cubic, wl.uncentered_maximal):
            with pytest.raises(ConfigError, match="finite sums"):
                op(f)


def test_oracle_agreement_special_shapes():
    g = wl.build_grid(0, 6)
    shapes = {
        "alternating": np.tile([1.0, -1.0], g.ncells // 2),
        "spike": np.eye(g.ncells)[g.ncells // 2],
        "indicator": (np.arange(g.ncells) < 5).astype(float),
    }
    for vals in shapes.values():
        f = wl.GridFunction(g, vals)
        assert np.array_equal(
            wl.dyadic_maximal(f, signed=True).values,
            wl.dyadic_maximal_brute(f, signed=True).values,
        )
        assert np.array_equal(
            wl.uncentered_maximal(f).values, wl.uncentered_maximal_brute(f).values
        )


def test_fast_path_equals_naive(rng):
    # the divide-and-conquer hull pass is gated on equality with the sweep
    for L in (10, 13):
        g = wl.build_grid(0, L)
        for kind in ("lognormal", "indicator", "sorted"):
            if kind == "lognormal":
                vals = rng.lognormal(size=g.ncells)
            elif kind == "indicator":
                vals = (rng.random(g.ncells) < 0.3).astype(float)
            else:
                vals = np.sort(rng.lognormal(size=g.ncells))
            f = wl.GridFunction(g, vals)
            a = maximal._uncentered_naive(maximal._prefix(vals))
            b = maximal._uncentered_levels(maximal._prefix(vals))
            assert np.array_equal(a, b), kind


def test_pointwise_domination_and_sublinearity(rng):
    g = wl.build_grid(1, 6)
    f = random_function(g, rng, signed=True)
    h = random_function(g, rng, signed=True)
    mdf = wl.dyadic_maximal(f).values
    muf = wl.uncentered_maximal(f).values
    assert np.all(mdf <= muf * (1 + 1e-12))
    assert np.all(mdf >= np.abs(f.values) * (1 - 1e-15))
    sum_m = wl.uncentered_maximal(wl.GridFunction(g, f.values + h.values)).values
    bound = muf + wl.uncentered_maximal(h).values
    assert np.all(sum_m <= bound * (1 + 1e-12))
    scaled = wl.uncentered_maximal(wl.GridFunction(g, -2.5 * f.values)).values
    assert scaled == pytest.approx(2.5 * muf, rel=1e-13)


def test_a1_pointwise_contract(rng):
    # M_d v <= [v]_{A1} v cell-wise with the grid constant
    g = wl.build_grid(1, 6)
    v = wl.random_a1_weight(g, rng, cap=12.0)
    a1 = wl.a1_constant(v)
    md = wl.dyadic_maximal(wl.GridFunction(g, v.cell_values)).values
    assert np.all(md <= a1 * v.cell_values * (1 + 1e-12))


def test_section3_lower_bound_display():
    # f = (1/delta) chi_(0,1), v = x^(delta-1), delta = 1/2: M(fv)(4) >= 1
    delta = 0.5
    g = wl.build_grid(3, 9)
    v = wl.realize(wl.Power(delta), g)
    f = np.zeros(g.ncells)
    f[: 1 << g.L] = 1.0 / delta
    fv = wl.GridFunction(g, f * v.cell_values)
    m = wl.uncentered_maximal(fv).values
    cell4 = int(4.0 / g.cell_width)  # cell starting at x = 4
    expected = 1.0 / (delta**2 * 4.0)
    assert m[cell4] >= 0.9 * expected


def test_uncentered_restricted_matches_full_on_isolated_block(rng):
    vals = rng.lognormal(size=32)
    g = wl.build_grid(0, 5)
    f = wl.GridFunction(g, vals)
    assert np.array_equal(uncentered_restricted(vals), wl.uncentered_maximal(f).values)


# The level-batched hull pass decides hull membership with rounded
# averages, so on plateaus it can pick a vertex whose rounded average is a
# few units in the last place (ulps) below the best one.  Against the naive
# sweep the worst gap measured was 2 ulps, over 3150 few-piece step
# functions (with zero runs, end spikes, decreasing runs) of 1..8192 cells
# and 60 step, constant and sparse lognormal functions of 12345..32768
# cells.  The bound is twice that.
FAST_PATH_ULPS = 4


def assert_fast_path_contract(fast, oracle):
    assert np.all(fast <= oracle), "fast path above its oracle"
    gap = (oracle - fast) / np.spacing(oracle)
    assert np.all(gap <= FAST_PATH_ULPS), f"fast path {gap.max()} ulps below its oracle"


@st.composite
def step_functions(draw, sizes):
    """Few-piece step functions (zero runs allowed) with optional end
    spikes, or decreasing data followed by a spike."""
    n = draw(sizes)
    cuts = draw(st.lists(st.integers(1, max(n - 1, 1)), max_size=5, unique=True))
    cuts = sorted(c for c in cuts if c < n)
    heights = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(0.1, 3.0)),
            min_size=len(cuts) + 1,
            max_size=len(cuts) + 1,
        )
    )
    vals = np.repeat(heights, np.diff([0, *cuts, n]))
    shape = draw(st.sampled_from(["steps", "left spike", "right spike", "decreasing"]))
    spike = draw(st.floats(5.0, 100.0))
    if shape == "left spike":
        vals[0] = spike
    elif shape == "right spike":
        vals[-1] = spike
    elif shape == "decreasing":
        vals = np.linspace(draw(st.floats(1.0, 5.0)), draw(st.floats(0.0, 1.0)), n)
        vals[-1] = spike
    return vals


def brute_block(vals):
    # the brute oracle needs a dyadic grid: zero cells pad the block, and
    # every interval reaching into them averages below one ending at the pad
    g = wl.build_grid(0, max(len(vals) - 1, 0).bit_length())
    padded = np.zeros(g.ncells)
    padded[: len(vals)] = vals
    return wl.uncentered_maximal_brute(wl.GridFunction(g, padded)).values[: len(vals)]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(step_functions(st.integers(1, 256)))
def test_fast_path_against_brute_on_step_functions(vals):
    # a zero ceiling sends every length, powers of two or not, to the fast path
    # (a row with a zero flank then leaves the hull pass for the flank
    # split, so the hull pass is also called directly)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(maximal, "NAIVE_CEILING", 0)
        fast = uncentered_restricted(vals)
    brute = brute_block(vals)
    assert_fast_path_contract(fast, brute)
    assert_fast_path_contract(maximal._uncentered_levels(maximal._prefix(vals)), brute)


@settings(derandomize=True, max_examples=10, deadline=None)
@given(step_functions(st.just(8192)))
def test_fast_path_against_naive_beyond_ceiling(vals):
    f = wl.GridFunction(wl.build_grid(0, 13), vals)
    assert_fast_path_contract(
        wl.uncentered_maximal(f).values, maximal._uncentered_naive(maximal._prefix(f.values))
    )


def test_fast_path_on_three_piece_step_function():
    # raised IndexError in the recursive hull search this pass replaced
    vals = np.repeat([1.0, 3.0, 2.0], [3979, 5888 - 3979, 8192 - 5888])
    f = wl.GridFunction(wl.build_grid(0, 13), vals)
    assert_fast_path_contract(
        wl.uncentered_maximal(f).values, maximal._uncentered_naive(maximal._prefix(f.values))
    )


def test_naive_rows_equal_one_block_calls(rng):
    # each row of a 2-D block array gives bitwise what it gives alone
    for m in (1, 2, 3, 16, 100):
        rows = np.vstack(
            [rng.lognormal(size=(3, m)), np.repeat([[0.5, 2.0, 0.0]], m, axis=0).T]
        )
        P = maximal._prefix(rows)
        batched = maximal._uncentered_naive(P)
        for row, out in zip(rows, batched):
            assert np.array_equal(out, maximal._uncentered_naive(maximal._prefix(row)))
        assert np.array_equal(batched, uncentered_restricted(rows))


def test_naive_rows_equal_one_block_calls_at_sweep_size(rng):
    # a full block of SWEEP_CELLS cells, in rows of NAIVE_CEILING cells:
    # lognormal, a 1/0.75 plateau, a spike and a zero run, in turn
    n = maximal.NAIVE_CEILING
    rows = np.zeros((maximal.SWEEP_CELLS // n, n))
    for i, row in enumerate(rows):
        kind = i % 4
        if kind == 0:
            row[:] = rng.lognormal(size=n)
        elif kind == 1:
            row[: n >> (i // 4)] = 1.0 / 0.75
        elif kind == 2:
            row[(0, n - 1, n // 2, 1)[i // 4 % 4]] = 1.0
        else:
            row[:] = rng.lognormal(size=n)
            row[n // 4 : n // 2 + i] = 0.0
    assert len(rows) >= 8
    batched = uncentered_restricted(rows)
    for row, out in zip(rows, batched):
        assert np.array_equal(out, uncentered_restricted(row))


def test_fast_path_rows_equal_one_block_calls(rng):
    rows = rng.lognormal(size=(3, 40))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(maximal, "NAIVE_CEILING", 0)
        batched = uncentered_restricted(rows)
        for row, out in zip(rows, batched):
            assert np.array_equal(out, uncentered_restricted(row))


# ---------------------------------------------------------------------------
# the sparse path: only the cells that move the prefix sum serve as ends

@st.composite
def sparse_rows(draw):
    """Rows of 1..NAIVE_CEILING cells, zero but for a few runs of equal
    cells (1/0.75 plateaus, tiny and huge cells among them) and optional
    spikes at either end; all-zero rows too."""
    n = draw(st.integers(1, maximal.NAIVE_CEILING))
    vals = np.zeros(n)
    height = st.sampled_from([1.0 / 0.75, 1.0, 0.1, 3.7, 5e-324, 1e-300, 1e300])
    for _ in range(draw(st.integers(0, 6))):
        lo = draw(st.integers(0, n - 1))
        vals[lo : lo + draw(st.integers(1, 64))] = draw(height)
    for end in draw(st.sets(st.sampled_from([0, n - 1]))):
        vals[end] = draw(st.floats(5.0, 1e6))
    return vals


@settings(derandomize=True, max_examples=120, deadline=None)
@given(sparse_rows())
def test_sparse_path_equals_naive(vals):
    P = maximal._prefix(vals)
    naive = maximal._uncentered_naive(P)
    assert np.array_equal(maximal._uncentered_sparse(P), naive)
    assert np.array_equal(uncentered_restricted(vals), naive)


def test_sparse_and_dense_rows_in_one_block_equal_their_own_calls(rng, monkeypatch):
    n = 512
    rows = np.zeros((7, n))
    rows[0] = rng.lognormal(size=n)  # dense
    rows[1, n // 2] = 1.0  # a spike
    rows[3, 100:108] = 1.0 / 0.75  # an 8-cell plateau
    rows[4, [0, n - 1]] = [1e300, 5e-324]  # end spikes, one too small to move the sum
    rows[5] = rng.lognormal(size=n) * (rng.random(n) < 0.5)  # half zero: dense
    rows[6, 7] = np.nan  # not finite: the sweep
    sparse_calls = []
    real = maximal._uncentered_sparse

    def counted(P):
        sparse_calls.append(P[-1])
        return real(P)

    monkeypatch.setattr(maximal, "_uncentered_sparse", counted)
    batched = uncentered_restricted(rows)
    assert len(sparse_calls) == 4  # rows 1-4, the zero row 2 among them
    for row, out in zip(rows, batched):
        assert np.array_equal(out, uncentered_restricted(row), equal_nan=True)
        assert np.array_equal(out, maximal._uncentered_naive(maximal._prefix(row)), equal_nan=True)


def test_spike_at_the_ceiling_never_sweeps():
    def no_sweep(*args):
        raise AssertionError("a spike row entered the O(N^2) sweep")

    n = maximal.NAIVE_CEILING
    g = wl.build_grid(0, n.bit_length() - 1)
    for cell in (0, n // 2, n - 1):
        vals = np.zeros(n)
        vals[cell] = 1.0
        want = maximal._uncentered_naive(maximal._prefix(vals))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(maximal, "_uncentered_naive", no_sweep)
            assert np.array_equal(uncentered_restricted(vals), want)
            assert np.array_equal(wl.uncentered_maximal(wl.GridFunction(g, vals)).values, want)


def test_sparse_rows_of_1e308_refused_as_the_sweep_refuses():
    n = 256
    sparse = np.zeros(n)
    sparse[[3, 200]] = 1e308  # their sum overflows
    refusals = []
    for vals in (sparse, np.full(n, 1e308), np.vstack([np.zeros(n), sparse])):
        with pytest.raises(ConfigError) as err:
            uncentered_restricted(vals)
        refusals.append(str(err.value))
    assert refusals[0] == refusals[1] == refusals[2] and "finite sums" in refusals[0]
    one = np.zeros(n)
    one[200] = 1e308  # sums to itself: a defined value
    assert np.array_equal(uncentered_restricted(one), maximal._uncentered_naive(maximal._prefix(one)))


@pytest.mark.parametrize("cutoff", [maximal.SPARSE_CUTOFF, 1])
@pytest.mark.parametrize("L", range(1, 6))
def test_buckley_equals_per_function_brute_loop(monkeypatch, L, cutoff):
    # at these sizes the default cutoff sends only zero rows to the sparse
    # path; a cutoff of 1 sends every row
    monkeypatch.setattr(maximal, "SPARSE_CUTOFF", cutoff)
    g = wl.build_grid(1, L)
    v = wl.random_a1_weight(g, np.random.default_rng(L), cap=16.0)
    corpus = wl.test_function_corpus(g, seed=L)
    best = 0.0
    for _, f in corpus:
        denom = wl.lp_norm(f, v, 2.0)
        if denom != 0.0:
            best = max(best, wl.lp_norm(wl.uncentered_maximal_brute(f), v, 2.0) / denom)
    assert wl.buckley_empirical(v, 2.0, corpus=corpus).max_ratio == best > 1.0


# ---------------------------------------------------------------------------
# rows above NAIVE_CEILING with zero flanks: the support on its own path,
# each flank by the monotone divide-and-conquer of _trailing_flank

def naive(vals):
    return maximal._uncentered_naive(maximal._prefix(vals))


@st.composite
def flanked_rows(draw):
    """Rows of NAIVE_CEILING + 1..9000 cells, zero outside a support of at
    most NAIVE_CEILING cells: a step function (zero runs and end spikes
    allowed), seeded lognormal cells, sparse lognormal cells or a 1/0.75
    plateau."""
    n = draw(st.integers(maximal.NAIVE_CEILING + 1, 9000))
    size = draw(st.integers(1, maximal.NAIVE_CEILING))
    lo = draw(st.integers(0, n - size))
    kind = draw(st.sampled_from(["steps", "lognormal", "sparse", "plateau"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "steps":
        support = draw(step_functions(st.just(size)))
    elif kind == "lognormal":
        support = rng.lognormal(size=size)
    elif kind == "sparse":
        support = rng.lognormal(size=size) * (rng.random(size) < 0.05)
    else:
        support = np.full(size, 1.0 / 0.75)
    vals = np.zeros(n)
    vals[lo : lo + size] = support
    return vals


@settings(derandomize=True, max_examples=60, deadline=None)
@given(flanked_rows())
def test_flanked_rows_equal_naive(vals):
    assert np.array_equal(uncentered_restricted(vals), naive(vals))


def test_flanked_rows_with_adversarial_supports(rng):
    n, ceiling = 8192, maximal.NAIVE_CEILING
    rows = {}
    for cell in (0, n // 2, n - 1):
        rows[f"one cell at {cell}"] = np.eye(n)[cell]
    rows["1/0.75 plateau"] = np.zeros(n)
    rows["1/0.75 plateau"][1000:3000] = 1.0 / 0.75
    rows["leading flank only"] = np.zeros(n)
    rows["leading flank only"][n - 3000 :] = rng.lognormal(size=3000)
    rows["trailing flank only"] = np.zeros(n)
    rows["trailing flank only"][:3000] = rng.lognormal(size=3000)
    rows["spikes at both support ends"] = np.zeros(n)
    rows["spikes at both support ends"][[17, 4000]] = [1e6, 5e-324]
    for name, vals in rows.items():
        assert np.array_equal(uncentered_restricted(vals), naive(vals)), name
    # a support above the ceiling takes the hull pass: bitwise on the flanks,
    # within FAST_PATH_ULPS on the support
    lo, hi = 500, 500 + ceiling + 1000
    vals = np.zeros(n)
    vals[lo:hi] = np.repeat([1.0, 3.0, 2.0], [1000, 2500, ceiling - 2500])
    fast, want = uncentered_restricted(vals), naive(vals)
    assert np.array_equal(fast[:lo], want[:lo]) and np.array_equal(fast[hi:], want[hi:])
    assert_fast_path_contract(fast[lo:hi], want[lo:hi])


def test_flanked_rows_never_run_the_hull_pass():
    def no_hull(*args):
        raise AssertionError("a flanked row entered the hull pass")

    delta, L = 0.5, 10
    g = wl.build_grid(4, L)
    sharp = np.zeros(g.ncells)  # f v of the sharpness row: zero right of 2^L cells
    sharp[: 1 << L] = wl.realize(wl.Power(delta), g).cell_values[: 1 << L] / delta
    spikes = np.zeros((3, 8192))
    spikes[[0, 1, 2], [0, 4096, 8191]] = 1.0
    cases = [sharp, *spikes, np.zeros(5000)]
    wants = [naive(vals) for vals in cases]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(maximal, "_uncentered_levels", no_hull)
        for vals, want in zip(cases, wants):
            assert np.array_equal(uncentered_restricted(vals), want)
        assert np.array_equal(uncentered_restricted(spikes), np.array(wants[1:4]))
        f = wl.GridFunction(g, sharp)
        assert np.array_equal(wl.uncentered_maximal(f).values, wants[0])


def test_flanked_rows_of_1e308_refused_as_the_sweep_refuses(monkeypatch):
    n = 8192
    refusals = []
    for size in (256, n):
        vals = np.zeros(size)
        vals[[3, 200]] = 1e308  # their sum overflows
        with pytest.raises(ConfigError) as err:
            uncentered_restricted(vals)
        refusals.append(str(err.value))
    assert refusals[0] == refusals[1] and "finite sums" in refusals[0]
    one = np.zeros(n)
    one[200] = 1e308  # sums to itself: a defined value
    assert np.array_equal(uncentered_restricted(one), naive(one))
    # a row with an inf cell is not finite: it keeps the hull pass
    calls = []
    real = maximal._uncentered_levels
    monkeypatch.setattr(maximal, "_uncentered_levels", lambda P: calls.append(P) or real(P))
    inf = np.zeros(n)
    inf[[100, 300]] = [np.inf, 1.0]
    with np.errstate(invalid="ignore"):  # inf - inf in the hull pass, as before
        out = uncentered_restricted(inf)
        assert len(calls) == 1
        assert np.array_equal(out, real(maximal._prefix(inf)), equal_nan=True)
