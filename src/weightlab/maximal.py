"""Maximal operators on grid functions, each with a brute-force oracle.

Three operators:

* ``dyadic_maximal``      M_d f(x) = max over dyadic ancestors Q of avg_Q |f|;
  the signed ("tilde") variant takes |avg_Q f| instead, which annihilates
  mean-zero pieces.
* ``uncentered_maximal``  max over grid-endpoint intervals containing the
  cell of the interval average of |f| (the cell's own value is the
  singleton interval).  This is the grid-restricted uncentered maximal: for
  piecewise-constant f it agrees with sup over intervals whose endpoints
  sit on cell boundaries.
* ``weighted_dyadic_maximal``  M_v f(x) = max over dyadic ancestors of
  (int_Q |f| v) / v(Q).

All interval averages are formed from one shared prefix-sum (dyadic ops:
one ``grid.pyramid`` of sums) by the same formula as in the oracles.  Both
dyadic operators share one top-down ancestor-max pass and one per-cell
ancestor oracle over their per-level candidates.  The dyadic paths and the
naive uncentered sweep (used up to NAIVE_CEILING cells) agree
with their oracles bitwise.  The level-batched hull pass used above it is
never above its oracle and at most FAST_PATH_ULPS (tests/test_maximal.py)
below it on plateaus; on lognormal, indicator and sorted data it is bitwise.

The uncentered internals also take a 2-D array whose rows are independent
blocks (``uncentered_restricted`` on all cubes of one dyadic level, or on
a corpus of functions): each row gives bitwise what it gives alone.  The
sweep runs over every row at once, so a caller that stacks many rows
passes blocks of at most SWEEP_CELLS cells; the hull pass, above
NAIVE_CEILING cells per row, runs one row at a time.
``uncentered_dyadic`` gives the restricted maximal on every dyadic level
and builds each level up to NAIVE_CEILING cells from the one below: only
the intervals that leave a cube's left half are swept again, 3/4 of the
pairs in half the steps, with the same candidates and so the same bits.
"""

from __future__ import annotations

import numpy as np

from .grid import pyramid
from .weights import GridFunction, GridWeight, require_finite_masses

NAIVE_CEILING = 4096
SWEEP_CELLS = 1 << 14  # cells per block of stacked rows handed to one sweep


# ---------------------------------------------------------------------------
# shared average builders

def _prefix(values: np.ndarray) -> np.ndarray:
    """Prefix sums along the last axis, with a leading zero per row."""
    P = np.zeros(values.shape[:-1] + (values.shape[-1] + 1,))
    np.cumsum(values, axis=-1, out=P[..., 1:])
    return P


# ---------------------------------------------------------------------------
# dyadic maximal, plain and weighted: per-level candidates, one ancestor max

def _ancestor_max(cands: list[np.ndarray]) -> np.ndarray:
    """Per cell i, the max of cands[d][i >> d] over all levels d, in one
    top-down pass."""
    run = cands[-1]
    for cand in reversed(cands[:-1]):
        run = np.maximum(np.repeat(run, 2), cand)
    return run


def _ancestor_max_brute(cands: list[np.ndarray]) -> np.ndarray:
    """Oracle: explicit sweep over every dyadic ancestor of every cell."""
    out = np.empty(len(cands[0]))
    for i in range(len(out)):
        out[i] = max(cands[d][i >> d] for d in range(len(cands)))
    return out


def _dyadic_candidates(values: np.ndarray, signed: bool) -> list[np.ndarray]:
    """Per level d (cube size 2^d cells), the |average| candidates."""
    base = values if signed else np.abs(values)
    cands = []
    for d, sums in enumerate(pyramid(base)):
        avg = sums / (1 << d)
        cands.append(np.abs(avg) if signed else avg)
    return cands


def dyadic_maximal(f: GridFunction, signed: bool = False) -> GridFunction:
    """Dyadic maximal function; signed=True gives the tilde variant."""
    return GridFunction(f.grid, _ancestor_max(_dyadic_candidates(f.values, signed)))


def dyadic_maximal_brute(f: GridFunction, signed: bool = False) -> GridFunction:
    """Oracle for ``dyadic_maximal``: the same candidates, cell by cell."""
    return GridFunction(f.grid, _ancestor_max_brute(_dyadic_candidates(f.values, signed)))


def _weighted_candidates(f: GridFunction, v: GridWeight) -> list[np.ndarray]:
    num = pyramid(np.abs(f.values) * v.cell_masses)
    cands = []
    for ns, ds in zip(num, v.mass):
        with np.errstate(invalid="ignore", divide="ignore"):
            avg = np.where(ds > 0, ns / ds, -np.inf)  # zero-mass cubes skipped
        cands.append(avg)
    return cands


def weighted_dyadic_maximal(f: GridFunction, v: GridWeight) -> GridFunction:
    """M_v f: maximal v dx-averages over dyadic ancestors."""
    require_finite_masses(v, "the weighted dyadic maximal")
    return GridFunction(f.grid, _ancestor_max(_weighted_candidates(f, v)))


def weighted_dyadic_maximal_brute(f: GridFunction, v: GridWeight) -> GridFunction:
    """Oracle for ``weighted_dyadic_maximal``: the same candidates, cell by cell."""
    return GridFunction(f.grid, _ancestor_max_brute(_weighted_candidates(f, v)))


# ---------------------------------------------------------------------------
# uncentered maximal: naive sweep, level-batched hull pass, exhaustive oracle

def _uncentered_naive(P: np.ndarray, left: np.ndarray | None = None) -> np.ndarray:
    """Max interval average per cell by an O(N^2) sweep over right ends b,
    every row of P at once; acc[a] is the best (P[b'] - P[a]) / (b' - a)
    over b' >= b.  Each step takes res[:b], not yet written, as its scratch
    row, and all share one distance row.

    With ``left``, the maxima of every row's left half h = N/2 on its own,
    the sweep stops after b = h + 1: a left-half cell c then takes the max
    of acc[a] over a <= c (the intervals that leave the left half) and of
    left[c] (those inside it), which is the same set of candidates.
    """
    n = P.shape[-1] - 1
    h = 0 if left is None else n // 2
    res = np.empty(P.shape[:-1] + (n,))
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


def _uncentered_levels(P: np.ndarray) -> np.ndarray:
    """Max interval average per cell, all dyadic nodes of one size at a time.

    Node [lo, lo + 2s) owns the intervals [a, b) with a < lo + s < b; the
    singletons seed the result.  Averages are slopes between points (x, P[x]),
    so the best b for a left end a is the tangent from a to the upper hull
    on [lo + s, lo + 2s]; the point reflection (x, y) -> (-x, -y) turns right
    ends and lower hulls into the same problem.  Hulls are masks over P,
    merged by bridges after each level (Chung and Lu, SIAM J. Comput. 34,
    2004).  Zero cells pad N to a power of two: they add no new maximum.
    """
    n = len(P) - 1
    m = 1 << max(n - 1, 0).bit_length()
    if m > n:
        P = np.concatenate((P, np.full(m - n, P[-1])))
    out, R = np.diff(P), -P[::-1]
    upper, lower = np.ones(m + 1, dtype=bool), np.ones(m + 1, dtype=bool)
    for d in range(m.bit_length() - 1):
        _left_ends(P, upper, out, 1 << d)
        _left_ends(R, lower[::-1], out[::-1], 1 << d)
    return out[:n]


def _left_ends(P, upper, out, s) -> None:
    """Raise ``out`` on the left half of every node by the prefix maxima of
    the left ends' tangents, then merge the node's two hulls in ``upper``."""
    m = len(P) - 1
    lo = np.arange(0, m, 2 * s, dtype=np.int32)[:, None]
    V = np.arange(m + 1, dtype=np.int32)[upper]
    st = np.searchsorted(V, lo + s).astype(np.int32)
    en = (np.searchsorted(V, lo + 2 * s, "right") - 1).astype(np.int32)
    G, K = _tangents(P, lo + np.arange(s, dtype=np.int32), V, st, en)
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


def _tangents(P, Q, V, st, en) -> tuple[np.ndarray, np.ndarray]:
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


def uncentered_maximal(f: GridFunction) -> GridFunction:
    """Grid-restricted uncentered Hardy-Littlewood maximal function: the
    O(N^2) sweep up to NAIVE_CEILING cells, the level-batched hull pass above."""
    return GridFunction(f.grid, uncentered_restricted(f.values))


def uncentered_maximal_brute(f: GridFunction) -> GridFunction:
    """Oracle: exhaustive max over every grid-endpoint interval per cell.

    For each left end a, the averages (P[b] - P[a]) / (b - a) of all right
    ends b > a form one row; its suffix max from b = c + 1 on is the best
    interval [a, b) holding cell c, folded into every cell c >= a.  O(N^2)
    time and O(N) memory; a NaN candidate propagates, as in a max."""
    vals = np.abs(f.values)
    P = _prefix(vals)
    n = len(vals)
    idx = np.arange(n + 1, dtype=np.int64)
    out = np.full(n, -np.inf)
    for a in range(n):
        row = (P[a + 1 :] - P[a]) / (idx[a + 1 :] - a)
        np.maximum(out[a:], np.maximum.accumulate(row[::-1])[::-1], out=out[a:])
    return GridFunction(f.grid, out)


def uncentered_restricted(values: np.ndarray) -> np.ndarray:
    """Uncentered maximal of a raw cell-value block (intervals inside it);
    of every row of a 2-D array, each row its own block.

    Used for M(chi_Q w) restricted to a cube Q, or to all cubes of one level
    at once: truncation kills any gain from leaving Q, so intervals inside Q
    suffice.
    """
    values = np.asarray(values, dtype=float)
    P = _prefix(np.abs(values))
    if values.shape[-1] <= NAIVE_CEILING:
        return _uncentered_naive(P)
    rows = P.reshape(-1, P.shape[-1])
    return np.array([_uncentered_levels(row) for row in rows]).reshape(values.shape)


def uncentered_dyadic(values: np.ndarray):
    """For d = 0, 1, ..., m on an array of N = 2^m cells, the uncentered
    maximal restricted to every dyadic block of 2^d cells, as the rows of
    one (N / 2^d, 2^d) array: bitwise ``uncentered_restricted`` of
    ``values.reshape(-1, 2^d)``.

    The blocks of 2^d cells are built from those of 2^(d-1) while the
    sweep serves them (2^d <= NAIVE_CEILING): np.cumsum is sequential, so
    the prefix row of a block's left half is bitwise its left child's, and
    the child's maxima stand for every interval inside the left half.  Each
    such level sweeps only the right ends b > 2^(d-1).
    """
    below = None
    for d in range(len(values).bit_length()):
        rows = np.reshape(values, (-1, 1 << d))
        if below is None or rows.shape[1] > NAIVE_CEILING:
            below = uncentered_restricted(rows)
        else:
            below = _uncentered_naive(_prefix(np.abs(rows)), below[::2])
        yield below
