import timeit

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import weightlab as wl
from weightlab import maximal
from weightlab.errors import ConfigError
from weightlab.maximal import uncentered_restricted
from conftest import hull_mask_reference, random_function, uncentered_loop


def naive(vals):
    """The kernel's reference, the loop over right ends, on a cell block."""
    return uncentered_loop(maximal._prefix(vals))


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
    # the level-batched hull pass is gated on equality with the sweep
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
            a = naive(vals)
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


@settings(derandomize=True, max_examples=15, deadline=None)
@given(step_functions(st.sampled_from([4097, 6000, 8192])))
def test_fast_path_against_naive_beyond_ceiling(vals):
    # 4097 and 6000 cells take the hull pass padded to 8192 cells
    assert_fast_path_contract(uncentered_restricted(vals), naive(vals))


def test_uncentered_maximal_scales_near_n_log_n():
    # the exponent gate: on lognormal rows of 2^13..2^16 cells (the hull
    # pass) the log-log slope of the best of 3 wall times stays near 1, where
    # a sweep would give 2; a slope is steadier than a wall time on a
    # shared host
    rng = np.random.default_rng(13)
    points = []
    for L in range(13, 17):
        f = wl.GridFunction(wl.build_grid(0, L), rng.lognormal(size=1 << L))
        points.append((1 << L, min(timeit.repeat(lambda: wl.uncentered_maximal(f), number=1, repeat=3))))
    assert wl.scaling_fit(points).slope <= 1.2


def test_fast_path_on_three_piece_step_function():
    # raised IndexError in the recursive hull search this pass replaced
    vals = np.repeat([1.0, 3.0, 2.0], [3979, 5888 - 3979, 8192 - 5888])
    f = wl.GridFunction(wl.build_grid(0, 13), vals)
    assert_fast_path_contract(
        wl.uncentered_maximal(f).values, naive(f.values)
    )


@st.composite
def hull_rows(draw):
    """Rows of 1..9000 cells with nonzero end cells: lognormal, 2-6-piece
    steps of heights in (0.1, 3), constant 0.1 and 0.3 plateaus, and
    lognormal rows with interior zero runs or with 5e-324 and 1e300 cells;
    optionally with end spikes."""
    n = draw(st.one_of(st.sampled_from([4097, 5000, 8191, 8193]), st.integers(1, 9000)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["lognormal", "steps", "plateau", "zero runs", "tiny and huge"]))
    if kind == "steps":
        cuts = np.unique(rng.integers(1, max(n, 2), size=draw(st.integers(1, 5))))
        heights = rng.uniform(0.1, 3.0, size=len(cuts) + 1)
        vals = np.repeat(heights, np.diff(np.r_[0, np.minimum(cuts, n), n]))
    elif kind == "plateau":
        vals = np.full(n, draw(st.sampled_from([0.1, 0.3])))
    else:
        vals = rng.lognormal(size=n)
        runs = rng.integers(1, max(n - 1, 2), size=(draw(st.integers(1, 4)) if n > 2 else 0, 2))
        for a, b in np.sort(runs, axis=1):  # inside [1, n - 1)
            if kind == "zero runs":
                vals[a:b] = 0.0
            elif kind == "tiny and huge":
                vals[a : a + 3] = 5e-324
                vals[b] = 1e300
    spike = draw(st.sampled_from(["none", "left", "right", "both"]))
    if spike in ("left", "both"):
        vals[0] = draw(st.floats(5.0, 100.0))
    if spike in ("right", "both"):
        vals[-1] = draw(st.floats(5.0, 100.0))
    return vals


@settings(derandomize=True, max_examples=150, deadline=None)
@given(hull_rows())
@example(np.repeat([1.0, 3.0, 2.0], [3979, 5888 - 3979, 8192 - 5888]))
@example(np.random.default_rng(14).lognormal(size=1 << 14))
@example(np.random.default_rng(15).lognormal(size=1 << 15))
@example(np.random.default_rng(16).lognormal(size=1 << 16))
def test_hull_pass_equals_mask_reference(vals):
    # carrying each hull's vertex array gives the mask-based pass's bits
    assert vals[0] != 0 and vals[-1] != 0
    P = maximal._prefix(vals)
    assert np.array_equal(maximal._uncentered_levels(P), hull_mask_reference(P))


def test_naive_rows_equal_one_block_calls(rng):
    # each row of a 2-D block array gives bitwise what it gives alone
    for m in (1, 2, 3, 16, 100):
        rows = np.vstack(
            [rng.lognormal(size=(3, m)), np.repeat([[0.5, 2.0, 0.0]], m, axis=0).T]
        )
        P = maximal._prefix(rows)
        batched = maximal._uncentered_naive(P)
        for row, out in zip(rows, batched):
            assert np.array_equal(out, naive(row))
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
# the node kernel: bitwise its reference loop and the brute oracle

@st.composite
def kernel_stacks(draw):
    """1-D, 2-D and 3-D stacks of rows of 1..4096 cells, powers of two and
    not: each row lognormal or zero, with plateaus (1/0.75, 0.75), zero runs,
    spikes, end spikes and 5e-324 and 1e300 cells."""
    n = draw(st.integers(1, 4096) | st.sampled_from([1 << k for k in range(13)])
             | st.sampled_from([3, 5, 33, 63, 65, 127, 129, 1023, 1025, 4095]))
    lead = draw(st.sampled_from([(), (1,), (2,), (3,), (2, 2), (1, 3)] if n <= 512 else [(), (1,), (2,)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vals = np.zeros(lead + (n,))
    height = st.sampled_from([0.0, 1.0 / 0.75, 0.75, 5e-324, 1e300])
    for row in vals.reshape(-1, n):
        if draw(st.booleans()):
            row[:] = rng.lognormal(size=n)
        for _ in range(draw(st.integers(0, 4))):
            lo = draw(st.integers(0, n - 1))
            row[lo : lo + draw(st.integers(1, 96))] = draw(height)
        row[draw(st.lists(st.integers(0, n - 1), max_size=4))] = draw(st.floats(5.0, 1e6))
        for end in draw(st.sets(st.sampled_from([0, n - 1]))):
            row[end] = draw(st.floats(5.0, 1e6) | height)
    return vals


@settings(derandomize=True, max_examples=150, deadline=None)
@given(kernel_stacks())
def test_kernel_equals_loop_and_brute(vals):
    n = vals.shape[-1]
    P = maximal._prefix(vals)
    got = maximal._uncentered_naive(P)
    assert got.shape == vals.shape and np.array_equal(got, uncentered_loop(P))
    for row, out in list(zip(vals.reshape(-1, n), got.reshape(-1, n)))[:2]:
        assert np.array_equal(out, brute_block(row))
    if n & (n - 1) == 0:  # the carried levels of one row: each from the one below
        row = vals.reshape(-1, n)[0]
        below = maximal._uncentered_naive(maximal._prefix(row.reshape(-1, 1)))
        for d in range(1, n.bit_length()):
            Pd = maximal._prefix(row.reshape(-1, 1 << d))
            below = maximal._uncentered_naive(Pd, below[::2])
            assert np.array_equal(below, uncentered_loop(Pd)), d
            assert np.array_equal(below, uncentered_loop(Pd, uncentered_loop(Pd[:, : (1 << (d - 1)) + 1]))), d


def test_kernel_on_rows_one_cell_past_a_power_of_two(rng):
    # a row of 2^k + 1 cells has a clipped last node of every size s < 2^k,
    # and the top one, clipped to a single right end, holds every interval
    # of two or more cells that reaches the last cell
    for k in range(12):
        P = maximal._prefix(rng.lognormal(size=(2, (1 << k) + 1)))
        assert np.array_equal(maximal._uncentered_naive(P), uncentered_loop(P)), k


# ---------------------------------------------------------------------------
# sparse rows: zero but for a few cells, split at their support when it is
# at most n / SPLIT_CUTOFF cells, swept otherwise

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
def test_sparse_rows_equal_naive(vals):
    assert np.array_equal(uncentered_restricted(vals), naive(vals))


def counting_splits(monkeypatch):
    """The rows, by their total, that ``_uncentered_split`` is called on."""
    calls = []
    real = maximal._uncentered_split

    def counted(values, P, lo, hi):
        calls.append(P[-1])
        return real(values, P, lo, hi)

    monkeypatch.setattr(maximal, "_uncentered_split", counted)
    return calls


def test_sparse_and_dense_rows_in_one_block_equal_their_own_calls(rng, monkeypatch):
    n = 512
    rows = np.zeros((7, n))
    rows[0] = rng.lognormal(size=n)  # dense
    rows[1, n // 2] = 1.0  # a spike
    rows[3, 100:108] = 1.0 / 0.75  # an 8-cell plateau
    rows[4, [0, n - 1]] = [1e300, 5e-324]  # end spikes, one too small to move the sum
    rows[5] = rng.lognormal(size=n) * (rng.random(n) < 0.5)  # half zero: dense
    rows[6, 7] = np.nan  # NaN on every cell, on no path
    splits = counting_splits(monkeypatch)
    batched = uncentered_restricted(rows)
    # rows 1 and 3 are split; the zero row 2 is its total, and the nonzero
    # end cells of row 4 leave it no flank
    assert splits == [1.0, 8 / 0.75]
    for row, out in zip(rows, batched):
        assert np.array_equal(out, uncentered_restricted(row), equal_nan=True)
        assert np.array_equal(out, naive(row), equal_nan=True)


def test_spike_at_the_ceiling_never_sweeps():
    real = maximal._uncentered_naive

    def no_sweep(P, left=None):  # no sweep longer than the spike's support
        assert P.shape[-1] - 1 <= 1, "a spike row entered the O(N^2) sweep"
        return real(P, left)

    n = maximal.NAIVE_CEILING
    g = wl.build_grid(0, n.bit_length() - 1)
    for cell in (0, n // 2, n - 1):
        vals = np.zeros(n)
        vals[cell] = 1.0
        want = naive(vals)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(maximal, "_uncentered_naive", no_sweep)
            assert np.array_equal(uncentered_restricted(vals), want)
            assert np.array_equal(wl.uncentered_maximal(wl.GridFunction(g, vals)).values, want)


@pytest.mark.parametrize("n", [64, 100, 512, maximal.NAIVE_CEILING])
def test_the_split_cutoff_holds_to_the_cell(monkeypatch, n):
    # a support of n / SPLIT_CUTOFF cells, rounded down, is split and one
    # cell longer is swept, as is a row whose end cells are nonzero
    cut = n // maximal.SPLIT_CUTOFF
    rows = np.zeros((3, n))
    rows[0, 5 : 5 + cut] = 1.0
    rows[1, 5 : 6 + cut] = 1.0
    rows[2, [0, n - 1]] = 1.0
    splits = counting_splits(monkeypatch)
    out = uncentered_restricted(rows)
    assert splits == [cut]
    for row, got in zip(rows, out):
        assert np.array_equal(got, naive(row))


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
    assert np.array_equal(uncentered_restricted(one), naive(one))


@pytest.mark.parametrize("cutoff", [maximal.SPLIT_CUTOFF, 1])
@pytest.mark.parametrize("L", range(1, 6))
def test_buckley_equals_per_function_brute_loop(monkeypatch, L, cutoff):
    # the default cutoff splits the rows whose support is at most n/8 of
    # their cells, the spikes and short indicators; a cutoff of 1 splits
    # every row with a zero flank
    monkeypatch.setattr(maximal, "SPLIT_CUTOFF", cutoff)
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
# rows with zero flanks: the support on its own path, each flank by the
# monotone divide-and-conquer of _trailing_flank

@st.composite
def flanked_rows(draw):
    """Rows of 1..9000 cells, zero outside a support of at most
    NAIVE_CEILING cells, on either side of n / SPLIT_CUTOFF or at it: a
    step function (zero runs and end spikes allowed), seeded lognormal
    cells, sparse lognormal cells or a 1/0.75 plateau."""
    n = draw(st.integers(1, 9000))
    top, cut = min(n, maximal.NAIVE_CEILING), n // maximal.SPLIT_CUTOFF
    size = draw(st.integers(1, max(cut, 1)) | st.integers(min(cut + 1, top), top)
                | st.sampled_from([max(cut, 1), min(cut + 1, top)]))
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
    # a row with an inf cell is inf on every cell, with no hull call
    def no_hull(P):
        raise AssertionError("a row with an inf cell entered the hull pass")

    monkeypatch.setattr(maximal, "_uncentered_levels", no_hull)
    inf = np.zeros(n)
    inf[[100, 300]] = [np.inf, 1.0]
    with np.errstate(all="raise"):  # and no inf - inf
        assert np.array_equal(uncentered_restricted(inf), np.full(n, np.inf))


@pytest.mark.parametrize("n, cells", [
    (1, [0]), (2, [1]), (256, [100]), (256, [0, 255]),
    (8, [1]),  # the huge row is [0, inf, 0, 1e308, 0, 1e308, 0, 0]
    (4096, [100]),  # the spike row has zero flanks: the split
    (8192, [100]),  # the spike row has zero flanks on both sides
    (8192, [0, 8191]),  # no zero flank: the hull pass
])
def test_an_inf_cell_is_inf_on_every_cell(rng, n, cells):
    # every cell shares an interval with the inf cell, and every interval
    # holding it averages inf; a NaN cell makes every cell NaN instead
    g = wl.build_grid(0, n.bit_length() - 1)
    spike, dense, huge = np.zeros(n), rng.lognormal(size=n), np.zeros(n)
    spike[n // 3] = 1.0
    huge[[c for c in (3, 5) if c < n]] = 1e308  # finite cells whose sum overflows
    for vals in (spike, dense, huge):
        vals[cells] = np.inf
        f = wl.GridFunction(g, vals)
        with np.errstate(all="raise"):  # no inf - inf on any path
            assert np.isposinf(uncentered_restricted(vals)).all()
            assert np.isposinf(wl.uncentered_maximal(f).values).all()
            assert np.isposinf(list(maximal.uncentered_dyadic(vals))[-1]).all()
            if n <= 256:
                assert np.isposinf(wl.uncentered_maximal_brute(f).values).all()
        vals[n // 2] = np.nan
        assert np.isnan(uncentered_restricted(vals)).all()
        assert np.isnan(list(maximal.uncentered_dyadic(vals))[-1]).all()
        if n <= 256:
            assert np.isnan(wl.uncentered_maximal_brute(f).values).all()


# ---------------------------------------------------------------------------
# the envelope: O(n W) bounds on the sweep, for pruning whole rows

@st.composite
def envelope_rows(draw):
    """Rows of 1..NAIVE_CEILING cells, or of the corpus's powers of two:
    lognormal or zero, with zero runs, 1/0.75 and 0.75 plateaus, pairs of
    spikes W - 1..2W cells apart (an interval of 2W - 1 cells splits into no
    pieces of W..2W - 1 cells but itself), end spikes, 5e-324, 1e-300 and
    1e300 cells, and now and then an inf or NaN cell.  A few rows have
    NAIVE_CEILING + 1..9000 cells: a step function, zero outside a
    lognormal or stepped support or not."""
    w, top = maximal.ENVELOPE_W, maximal.NAIVE_CEILING
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if rng.random() < 0.1:
        n = draw(st.integers(top + 1, 9000))
        cuts = np.sort(rng.integers(0, n, size=draw(st.integers(1, 6))))
        vals = np.repeat(rng.lognormal(size=len(cuts) + 1), np.diff(cuts, prepend=0, append=n))
        if draw(st.booleans()):
            lo = draw(st.integers(0, n - 1))
            hi = draw(st.integers(lo + 1, min(n, lo + top + 500)))
            if draw(st.booleans()):
                vals[lo:hi] = rng.lognormal(size=hi - lo)
            vals[:lo], vals[hi:] = 0.0, 0.0
        return vals
    powers = [1 << k for k in range(7, 13) if 2 * w < 1 << k <= top]
    n = draw(st.integers(1, top) | st.sampled_from(powers))
    vals = rng.lognormal(size=n) if draw(st.booleans()) else np.zeros(n)
    for _ in range(draw(st.integers(0, 4))):
        lo = draw(st.integers(0, n - 1))
        vals[lo : lo + draw(st.integers(1, 3 * w))] = draw(st.sampled_from([0.0, 1.0 / 0.75, 0.75]))
    for _ in range(draw(st.integers(0, 2)) if n > 2 * w else 0):
        lo = draw(st.integers(0, n - 2 * w - 1))
        vals[[lo, lo + draw(st.sampled_from([w - 1, w, 2 * w - 2, 2 * w - 1, 2 * w]))]] = 1e6
    vals[draw(st.lists(st.integers(0, n - 1), max_size=8))] = draw(st.sampled_from([5e-324, 1e-300, 1e300]))
    for end in draw(st.sets(st.sampled_from([0, n - 1]))):
        vals[end] = draw(st.floats(5.0, 1e6))
    if rng.random() < 0.1:
        vals[draw(st.integers(0, n - 1))] = draw(st.sampled_from([np.inf, np.nan]))
    return vals


def bounded(vals):
    """Whether the envelope bounds the row: finite, not zero and of
    2W + 1..NAIVE_CEILING cells, with a support (first to last nonzero
    cell) of all of them or of more than n / SPLIT_CUTOFF, a row the
    restricted maximal sweeps."""
    n, total = len(vals), maximal._prefix(np.abs(vals))[-1]
    nonzero = np.flatnonzero(vals)
    support = nonzero[-1] + 1 - nonzero[0] if len(nonzero) else 0
    return (0 < total < np.inf and 2 * maximal.ENVELOPE_W < n <= maximal.NAIVE_CEILING
            and (support == n or support * maximal.SPLIT_CUTOFF > n))


def envelope(vals):
    """lower and upper = max(lower, cap) of ``uncentered_envelope``."""
    lower, cap = maximal.uncentered_envelope(vals)
    return lower, np.maximum(lower, cap[..., None])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(envelope_rows())
def test_envelope_brackets_the_sweep(vals):
    lower, upper = envelope(vals)
    exact = uncentered_restricted(vals)
    if not np.isnan(exact).any():
        assert (lower <= exact).all() and (exact <= upper).all()
    if not bounded(vals):  # of at most 2W cells, sparse, non-finite or above the ceiling
        assert np.array_equal(lower, exact, equal_nan=True) and np.array_equal(upper, exact, equal_nan=True)


def test_envelope_bounds_are_the_sweep_where_they_are_exact(rng):
    # lower takes every interval of at most W + 1 cells, so it is the sweep on
    # spikes 2W + 1 cells apart (a cell's best interval holds one spike, or
    # ties with the pair), here from the first cell to the last of a row of
    # (2W - 1) W cells; a row of one value is that value up to the margin;
    # subnormal cells are covered by the margin's 2^-1074
    w = maximal.ENVELOPE_W
    spikes = np.zeros((2 * w - 1) * w)
    spikes[:: 2 * w + 1] = 1.0
    assert spikes[-1] == 1.0
    assert np.array_equal(maximal.uncentered_envelope(spikes)[0], uncentered_restricted(spikes))
    flat = np.full(1000, 0.75)
    lower, upper = envelope(flat)
    assert (lower == 0.75).all() and (upper == 0.75 * (1 + 2.0**-50) + 2.0**-1074).all()
    tiny = np.where(rng.random(1000) < 0.5, 5e-324, 0.0)
    lower, upper = envelope(tiny)
    exact = uncentered_restricted(tiny)
    assert (lower <= exact).all() and (exact <= upper).all() and (upper <= 2 * 5e-324).all()


def test_envelope_pieces_reach_2w_minus_1_cells():
    # two spikes 2W - 2 cells apart: the cell between them is best served by
    # the interval of 2W - 1 cells that holds both, which no window and no
    # shorter piece holds, so only the longest piece bounds it; end cells
    # too small to move a sum leave the row no zero flank to split at
    w = maximal.ENVELOPE_W
    pair = np.zeros(5 * w)
    pair[[w + 3, 3 * w + 1]] = 1.0
    pair[[0, -1]] = 5e-324
    lower, upper = envelope(pair)
    exact = uncentered_restricted(pair)
    mid = 2 * w + 2
    assert lower[mid] == 1.0 / w < exact[mid] == 2.0 / (2 * w - 1) <= upper[mid]


def test_envelope_margin_covers_a_long_interval_that_rounds_up(monkeypatch):
    # at W = 4, on a plateau with one cell a few ulps high, a long interval's
    # rounded average is above every window's and every piece's: only the
    # margin covers it
    monkeypatch.setattr(maximal, "ENVELOPE_W", 4)
    vals = np.full(13, 0.4448800669236115)
    vals[10] = 0.444880066923612
    P = maximal._prefix(vals)
    exact = uncentered_loop(P)
    lower, upper = envelope(vals)
    pieces = max(((P[k:] - P[:-k]) / k).max() for k in range(4, 8))
    assert (exact > np.maximum(lower, pieces)).any()
    assert (lower <= exact).all() and (exact <= upper).all()


def test_envelope_rows_equal_their_own_calls_and_non_finite_rows(rng):
    n = 700  # not a multiple of W: a tail window
    rows = rng.lognormal(size=(5, n))
    rows[1, 100] = np.inf
    rows[2, [3, 600]] = [np.inf, np.nan]
    rows[3] = 0.0
    lower, cap = maximal.uncentered_envelope(rows)
    for row, lo, c in zip(rows, lower, cap):
        own = maximal.uncentered_envelope(row)
        assert np.array_equal(lo, own[0], equal_nan=True) and c == own[1]
    for i in (1, 2, 3):  # inf, NaN and zero rows: lower is the restricted maximal
        assert np.array_equal(lower[i], uncentered_restricted(rows[i]), equal_nan=True)
    assert (cap[1:4] == -np.inf).all() and (cap[[0, 4]] > 0).all()
    exact, upper = uncentered_restricted(rows[[0, 4]]), envelope(rows[[0, 4]])[1]
    assert (lower[[0, 4]] <= exact).all() and (exact <= upper).all()


def test_envelope_sweeps_windows_in_blocks_and_refuses_huge_rows(rng, monkeypatch):
    # the windows are the nodes of the row's own prefix rows, and a kernel
    # call takes the nodes of at most NODE_BLOCK / 4 cells a half (of one
    # row where a row has more)
    node_cells = []
    real = maximal._node_maxima

    def counted(PL, PR, left_half, right_half):
        node_cells.append((PL.size, PL[0].size))
        return real(PL, PR, left_half, right_half)

    monkeypatch.setattr(maximal, "_node_maxima", counted)
    maximal.uncentered_envelope(rng.lognormal(size=(8, maximal.NAIVE_CEILING)))
    assert node_cells and all(size <= max(maximal.NODE_BLOCK // 4, row) for size, row in node_cells)
    assert max(size for size, _ in node_cells) > max(row for _, row in node_cells)  # rows are grouped
    with pytest.raises(ConfigError, match="finite sums"):
        maximal.uncentered_envelope(np.full(256, 1e308))


def test_stacks_are_swept_in_blocks_of_sweep_cells(rng, monkeypatch):
    # the blocking is the dispatcher's: a stack of dense, sparse, inf, NaN
    # and zero rows larger than SWEEP_CELLS gives every row what it gives
    # alone, and each sweep takes at most SWEEP_CELLS cells, here two rows,
    # on the carried levels too
    n = 256
    rows = rng.lognormal(size=(11, n))
    rows[[1, 8]] = 0.0
    rows[1, 7] = rows[8, [0, n - 1]] = 1.0  # sparse
    rows[3, 5] = np.inf
    rows[4, 9] = np.nan
    rows[10] = 0.0
    alone = [uncentered_restricted(row) for row in rows]
    monkeypatch.setattr(maximal, "SWEEP_CELLS", 3 * n - 100)
    blocks = []
    real = maximal._uncentered_naive

    def counted(P, left=None):
        blocks.append(P[..., 1:].shape)
        return real(P, left)

    monkeypatch.setattr(maximal, "_uncentered_naive", counted)
    batched = uncentered_restricted(rows)
    for got, want in zip(batched, alone):
        assert np.array_equal(got, want, equal_nan=True)
    # blocks of two stacked rows, each sweeping its rows with no zero
    # flank: 0 (then the one-cell support of the split row 1), 2, 5, 6 and 7
    # together, 8 (nonzero at both ends) and 9 together
    assert blocks == [(1, n), (1, 1), (1, n), (1, n), (2, n), (2, n)]
    blocks.clear()
    levels = list(maximal.uncentered_dyadic(rows.ravel()[: 1 << 11]))
    assert max(r * c for r, c in blocks) <= maximal.SWEEP_CELLS
    assert np.array_equal(levels[8], uncentered_restricted(rows.ravel()[: 1 << 11].reshape(-1, n)), equal_nan=True)
