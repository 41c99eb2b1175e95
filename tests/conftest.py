import numpy as np
import pytest

import weightlab as wl
from weightlab import weights
from weightlab.grid import pyramid


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_function(grid, rng, sparsity=0.6, signed=False):
    vals = rng.lognormal(size=grid.ncells) * (rng.random(grid.ncells) < sparsity)
    if signed:
        vals = vals * rng.choice([-1.0, 1.0], size=grid.ncells)
    return wl.GridFunction(grid, vals)


def overflowing_weight(spec, grid):
    """``wl.realize(spec, grid)`` with its cube masses summed by the plain
    ``pyramid``, so a sum that overflows is kept as +inf where realize
    refuses it: an input for the oracle tests of the readers' inf and NaN
    handling."""
    with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore"):
        mp.setattr(weights, "sum_pyramid", lambda values, what: pyramid(values))
        return wl.realize(spec, grid)


def uncentered_loop(P, left=None):
    """Reference of the uncentered kernel ``maximal._uncentered_naive``: max
    interval average per cell of every prefix row of P by an O(n^2) loop over
    right ends b, every row at once; acc[a] is the best (P[b'] - P[a]) /
    (b' - a) over b' >= b.  With ``left``, the maxima of every row's left
    half h = n // 2 on its own, the loop stops after b = h + 1 and a left-half
    cell c takes the max of acc[a] over a <= c and of left[c]."""
    n = P.shape[-1] - 1
    h = 0 if left is None else n // 2
    res = np.empty_like(P[..., 1:])
    acc = np.full_like(res, -np.inf)
    dist = np.arange(n, 0, -1.0)  # dist[n - b:] = b - a for a = 0..b-1
    for b in range(n, h, -1):
        t, a = res[..., :b], acc[..., :b]
        np.subtract(P[..., b, None], P[..., :b], out=t)
        np.divide(t, dist[n - b :], out=t)
        np.maximum(a, t, out=a)
        np.maximum.reduce(a, axis=-1, out=res[..., b - 1])
    if h:
        out = res[..., :h]
        np.maximum.accumulate(acc[..., :h], axis=-1, out=out)
        np.maximum(out, left, out=out)
    return res


def hull_mask_reference(P):
    """Reference of the hull pass ``maximal._uncentered_levels``: the same
    level-batched pass, with each pass's hulls kept as a bool mask over all
    m + 1 points of the padded prefix row P, rebuilt into a vertex array at
    every level and merged by bridges (Chung and Lu, SIAM J. Comput. 34,
    2004) through an int8 difference array; the tangents' lifting test asks
    j > k as well.  Zero cells pad N to a power of two."""
    n = len(P) - 1
    m = 1 << max(n - 1, 0).bit_length()
    if m > n:
        P = np.concatenate((P, np.full(m - n, P[-1])))
    out, R = np.diff(P), -P[::-1]
    upper, lower = np.ones(m + 1, dtype=bool), np.ones(m + 1, dtype=bool)
    for d in range(m.bit_length() - 1):
        _mask_left_ends(P, upper, out, 1 << d)
        _mask_left_ends(R, lower[::-1], out[::-1], 1 << d)
    return out[:n]


def _mask_left_ends(P, upper, out, s) -> None:
    """Raise ``out`` on the left half of every node by the prefix maxima of
    the left ends' tangents, then merge the node's two hulls in ``upper``."""
    m = len(P) - 1
    lo = np.arange(0, m, 2 * s, dtype=np.int32)[:, None]
    V = np.arange(m + 1, dtype=np.int32)[upper]
    st = np.searchsorted(V, lo + s).astype(np.int32)
    en = (np.searchsorted(V, lo + 2 * s, "right") - 1).astype(np.int32)
    G, K = _mask_tangents(P, lo + np.arange(s, dtype=np.int32), V, st, en)
    if 2 * s < m:
        # The bridge starts at the last left vertex whose tangent does not
        # rise above its incoming edge: a local test, so a rounding tie moves
        # the hull by the roundoff of one edge, not of the whole bridge.
        i = np.flatnonzero(V[:-1] % (2 * s) < s)  # V[-1] = m is no left end
        v, u = V[i], V[i - 1]
        j, c = v // (2 * s), v % (2 * s)
        keep = (c == 0) | (G[j, c] <= (P[v] - P[u]) / (v - u))
        j, v = j[keep], v[keep]
        p = v[np.append(j[1:] != j[:-1], True)]  # last kept vertex of each row
        d = np.zeros(m + 2, dtype=np.int8)  # drop the vertices strictly inside
        d[p + 1] += 1                       # each bridge (p, K at p)
        d[K[np.arange(len(p)), p % (2 * s)]] -= 1
        upper &= np.cumsum(d[:-1], dtype=np.int8) == 0
    np.maximum.accumulate(G, axis=1, out=G)
    O = out.reshape(-1, 2 * s)[:, :s]
    np.maximum(O, G, out=O)


def _mask_tangents(P, Q, V, st, en) -> tuple[np.ndarray, np.ndarray]:
    """Max of (P[v] - P[q]) / (v - q) for each query q in row r over the hull
    vertices v = V[st[r]..en[r]] right of q, and the v attaining it.

    The average rises from vertex i - 1 to i iff the edge slope E[i] exceeds
    the average to i - 1, and then never again: binary lifting on that test
    finds the tangent.  Comparing two rounded averages instead stalls on
    ties along nearly straight runs of the hull.
    """
    PV = P[V]
    E = np.concatenate(([-np.inf], (PV[1:] - PV[:-1]) / (V[1:] - V[:-1])))
    PQ, tmp, g = P[Q], np.empty_like(Q), np.empty(Q.shape)

    def avg(k):  # g = (P[V[k]] - P[Q]) / (V[k] - Q); "clip" skips take's copy
        np.subtract(np.take(PV, k, out=g, mode="clip"), PQ, out=g)
        np.subtract(np.take(V, k, out=tmp, mode="clip"), Q, out=tmp)
        np.divide(g, tmp, out=g)

    k, j = np.repeat(st, Q.shape[1], axis=1), np.empty_like(Q)
    w = (1 << int((en - st).max()).bit_length()) >> 1
    while w:
        np.minimum(k + w, en, out=j)
        avg(j - 1)
        np.copyto(k, j, where=(j > k) & (E[j] > g))
        w >>= 1
    avg(k)
    return g, V[k]
