import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import weightlab as wl
from weightlab import maximal
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


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
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
            np.full(n, 1e308),
        ]
        for vals in cases:
            f = wl.GridFunction(g, vals)
            assert np.array_equal(wl.uncentered_maximal_brute(f).values, uncentered_maximal_cubic(f),
                                  equal_nan=True)


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
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(maximal, "NAIVE_CEILING", 0)
        fast = uncentered_restricted(vals)
    assert_fast_path_contract(fast, brute_block(vals))


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


def test_fast_path_rows_equal_one_block_calls(rng):
    rows = rng.lognormal(size=(3, 40))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(maximal, "NAIVE_CEILING", 0)
        batched = uncentered_restricted(rows)
        for row, out in zip(rows, batched):
            assert np.array_equal(out, uncentered_restricted(row))
