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
ancestor oracle over their per-level candidates, and agree with it bitwise.
The uncentered maximal takes one of four paths per row of n cells:

* the sparse path, for n <= NAIVE_CEILING finite cells of which at most
  n^2 / SPARSE_CUTOFF move the prefix sum (n/8 of them at 4096 cells, none
  but in a zero row below 182), in O(n) per such cell.  A cell that leaves
  the prefix sum unchanged is never the best end of an interval (the
  zero-end lemma at ``_uncentered_sparse``), so it gives bitwise the
  sweep's maxima; tests/test_maximal.py gates it with np.array_equal
  against ``_uncentered_naive``;
* the naive O(n^2) sweep for the other rows up to NAIVE_CEILING cells,
  bitwise its oracle ``uncentered_maximal_brute``;
* the flank split, for a finite row above NAIVE_CEILING cells that is zero
  left of its first or right of its last nonzero cell: by the same lemma
  the support between them takes its own path by its own length, and each
  zero flank cell the best average over the support's ends, found by a
  divide-and-conquer on the monotone best end (``_trailing_flank``).  The
  flanks, and the whole row when the support has at most NAIVE_CEILING
  cells, are bitwise the sweep; tests/test_maximal.py gates them with
  np.array_equal against ``_uncentered_naive``;
* the level-batched hull pass for the other rows above NAIVE_CEILING
  cells, never above its oracle and at most FAST_PATH_ULPS
  (tests/test_maximal.py) below it on plateaus; on lognormal, indicator
  and sorted data it is bitwise.

The uncentered internals also take a 2-D array whose rows are independent
blocks (``uncentered_restricted`` on all cubes of one dyadic level, or on
a corpus of functions): each row gives bitwise what it gives alone.  The
sweep runs over every row at once, so a caller that stacks many rows
passes blocks of at most SWEEP_CELLS = 2^15 cells: 8 rows at NAIVE_CEILING,
enough that numpy's per-row dispatch is small against each step, with
about 1 MB of sweep arrays per block; rows above NAIVE_CEILING cells run
one at a time.
``uncentered_dyadic`` gives the restricted maximal on every dyadic level
and builds each level up to NAIVE_CEILING cells from the one below: only
the intervals that leave a cube's left half are swept again, 3/4 of the
pairs in half the steps, with the same candidates and so the same bits.

Every operator refuses, with a ConfigError, finite cells whose cube or
interval sums overflow, where it would give inf or NaN; the sums are
formed with overflow warnings off and checked at the root or last sum.
The weighted one refuses as well finite cells whose products f v overflow
(``grid.finite_product``).
"""

from __future__ import annotations

import numpy as np

from .grid import finite_product, require_finite_sums, sum_pyramid
from .weights import GridFunction, GridWeight, require_finite_masses

NAIVE_CEILING = 4096
SWEEP_CELLS = 1 << 15  # cells per block of stacked rows handed to one sweep
# A finite row of n cells whose prefix sum moves at most n^2 / SPARSE_CUTOFF
# times is swept by the sparse path.  Measured against a sweep block of
# SWEEP_CELLS cells, the two break even near n^2 / 2^13 (n = 128..1024) and
# n^2 / 2^14 (n = 4096); at this cutoff the sparse path is 1.5x (n = 4096)
# to 3-5x (n = 256..2048) faster.
SPARSE_CUTOFF = 1 << 15
FLANK_CHUNK = 4096  # zero flank cells per divide-and-conquer pass of _trailing_flank


# ---------------------------------------------------------------------------
# shared average builders

def _prefix(values: np.ndarray) -> np.ndarray:
    """Prefix sums along the last axis, with a leading zero per row, of
    values >= 0 (so the last is the largest); refused where they overflow."""
    P = np.zeros(values.shape[:-1] + (values.shape[-1] + 1,))
    with np.errstate(over="ignore"):
        np.cumsum(values, axis=-1, out=P[..., 1:])
    require_finite_sums(P[..., -1], values, "the uncentered maximal")
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
    for d, sums in enumerate(sum_pyramid(base, "the dyadic maximal")):
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
    """Per level, the v dx-averages of |f|; a GridWeight has no cube of zero mass."""
    what = "the weighted dyadic maximal"
    sums = sum_pyramid(finite_product(np.abs(f.values), v.cell_masses, what), what)
    return [ns / ds for ns, ds in zip(sums, v.mass)]


def weighted_dyadic_maximal(f: GridFunction, v: GridWeight) -> GridFunction:
    """M_v f: maximal v dx-averages over dyadic ancestors."""
    require_finite_masses(v, "the weighted dyadic maximal")
    return GridFunction(f.grid, _ancestor_max(_weighted_candidates(f, v)))


def weighted_dyadic_maximal_brute(f: GridFunction, v: GridWeight) -> GridFunction:
    """Oracle for ``weighted_dyadic_maximal``: the same candidates, cell by cell."""
    return GridFunction(f.grid, _ancestor_max_brute(_weighted_candidates(f, v)))


# ---------------------------------------------------------------------------
# uncentered maximal: naive sweep, sparse path, level-batched hull pass, oracle

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


def _step_ends(P: np.ndarray, out: np.ndarray) -> None:
    """Raise ``out`` (one row) by every interval [a, b) whose left end a is a
    step of the prefix row P, a cell with P[a + 1] != P[a], in O(N) per step.

    The steps a_1 < a_2 < ... cut the row into runs [a_j, a_(j+1)); a cell c
    of run j lies in [a_i, b) for i <= j and every b > c.  ``run[b]`` keeps
    the best average to b from the steps so far, so c takes the suffix max
    of run from b = c + 1 on: within the run, then beyond its end.
    """
    n = len(P) - 1
    a = np.flatnonzero(P[1:] != P[:-1])
    if not len(a):
        return
    dist = np.arange(1.0, n - a[0] + 1)  # dist[:n - a] = b - a for b = a+1..n
    run, t = np.full(n + 1, -np.inf), np.empty(n)
    for lo, hi in zip(a.tolist(), [*a[1:].tolist(), n]):
        row = t[: n - lo]
        np.subtract(P[lo + 1 :], P[lo], out=row)
        np.divide(row, dist[: n - lo], out=row)
        r = run[lo + 1 :]
        np.maximum(r, row, out=r)
        best = np.maximum.accumulate(r[hi - lo - 1 :: -1], out=t[: hi - lo])
        if hi < n:
            np.maximum(best, r[hi - lo :].max(), out=best)
        np.maximum(out[lo:hi], best[::-1], out=out[lo:hi])


def _uncentered_sparse(P: np.ndarray) -> np.ndarray:
    """Max interval average per cell of one finite prefix row P, in
    O(N * steps); bitwise ``_uncentered_naive``.

    A cell a < c that does not move the prefix (P[a + 1] = P[a], a zero
    cell) is never the best left end for c: [a + 1, b) has the same rounded
    numerator over a smaller divisor and still holds c, and likewise a
    right end b with P[b - 1] = P[b] and b - 1 > c.  So the steps and c
    itself are the only ends needed.  Two passes of ``_step_ends`` cover
    them: the steps as left ends, and on the point reflection
    P -> -P[::-1] (the same rounded differences) the steps as right ends.
    What is left, a zero cell c as both ends, is the singleton [c, c + 1)
    of average 0, the value ``out`` starts from.
    """
    out = np.zeros(len(P) - 1)
    _step_ends(P, out)
    _step_ends(-P[::-1], out[::-1])
    return out


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


def _uncentered_long(values: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Max interval average per cell of one row of more than NAIVE_CEILING
    cells, ``values`` with prefix row P.  A finite row that is zero left of
    its first nonzero cell lo or right of its last one hi - 1 is split: the
    support [lo, hi) is its own block, on its own path, and each zero flank
    is filled by ``_trailing_flank``.  Other rows take the hull pass.

    The support's maxima are the row's there: np.cumsum is sequential and
    the leading zeros sum to 0, so its prefix row is bitwise P[lo..hi], and
    an interval reaching into a flank has the numerator of its trimmed copy
    over a larger divisor (the zero-end lemma at ``_uncentered_sparse``).
    """
    n = len(values)
    nonzero = np.flatnonzero(values)
    if not np.isfinite(P[-1]) or (len(nonzero) and nonzero[0] == 0 and nonzero[-1] == n - 1):
        return _uncentered_levels(P)
    out = np.zeros(n)
    if len(nonzero):
        lo, hi = int(nonzero[0]), int(nonzero[-1]) + 1
        out[lo:hi] = uncentered_restricted(values[lo:hi])
        _trailing_flank(P, lo, hi, out)
        _trailing_flank(-P[::-1], n - hi, n - lo, out[::-1])
    return out


def _trailing_flank(P: np.ndarray, lo: int, hi: int, out: np.ndarray) -> None:
    """Fill out[hi:] with the sweep's maxima of a finite prefix row P whose
    cells are zero left of lo and from hi on.

    A flank cell c takes max over lo <= k < hi of fl(fl(P[n] - P[k]) /
    (c + 1 - k)): every right end b > c has P[b] = P[n], so b = c + 1 is
    best, and a left end in the flank or left of lo adds nothing.  Each
    numerator is one fixed float, and for the exact quotients the best k
    does not increase as c grows (the quotient of two of them is monotone in
    c).  Rounding is monotone, so the exact best k attains the rounded max,
    and a divide-and-conquer over the queries gives the sweep's bits: each
    middle query is evaluated over its candidate range, and the queries
    before it search from the least k that attains its rounded max, those
    after it up to the largest.  Queries run in chunks of FLANK_CHUNK, each
    searching up to the largest best k of the chunk before.  The leading
    flank is the same pass on the point reflection -P[::-1].
    """
    n = len(P) - 1
    num = P[n] - P[lo:hi]  # candidate j is the left end k = lo + j
    top = hi - lo - 1
    for c0 in range(hi, n, FLANK_CHUNK):
        x = np.arange(c0 + 1 - lo, min(c0 + FLANK_CHUNK, n) + 1 - lo, dtype=float)  # c + 1 - lo
        res = out[c0 : c0 + len(x)]
        # open query segments [qa, qb), candidates j in [ja, jb]
        qa, qb = np.array([0]), np.array([len(x)])
        ja, jb = np.array([0]), np.array([top])
        while len(qa):
            mid = (qa + qb) >> 1
            cnt = jb - ja + 1
            start = np.cumsum(cnt) - cnt
            j = np.arange(int(cnt.sum())) + np.repeat(ja - start, cnt)
            t = num[j] / (np.repeat(x[mid], cnt) - j)
            best = np.maximum.reduceat(t, start)
            res[mid] = best
            hit = t == np.repeat(best, cnt)
            first = np.minimum.reduceat(np.where(hit, j, top), start)
            last = np.maximum.reduceat(np.where(hit, j, 0), start)
            if mid[-1] == len(x) - 1:
                bound = last[-1]
            qa, qb = np.concatenate((qa, mid + 1)), np.concatenate((mid, qb))
            ja, jb = np.concatenate((first, ja)), np.concatenate((jb, last))
            keep = qa < qb
            qa, qb, ja, jb = qa[keep], qb[keep], ja[keep], jb[keep]
        top = int(bound)


def uncentered_maximal(f: GridFunction) -> GridFunction:
    """Grid-restricted uncentered Hardy-Littlewood maximal function: up to
    NAIVE_CEILING cells the sparse path if few cells move the prefix sum,
    else the O(N^2) sweep.  Above, a finite f with zero flanks has its
    support computed on its own and the flanks filled by the monotone
    divide-and-conquer, bitwise ``_uncentered_naive`` there (and on the
    support up to NAIVE_CEILING cells); other f take the level-batched hull
    pass."""
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
    suffice.  Each row of at most NAIVE_CEILING cells picks its own path: a
    finite row of n cells whose prefix sum moves at no more than
    n^2 / SPARSE_CUTOFF cells takes the sparse path (bitwise the sweep by
    the zero-end lemma, gated against ``_uncentered_naive``), the rest are
    swept together.  Longer rows run one at a time: a finite row with a
    zero flank hands its support back to this function and fills the
    flanks by ``_trailing_flank`` (bitwise the sweep there, gated against
    ``_uncentered_naive``), the others take the hull pass.
    """
    values = np.asarray(values, dtype=float)
    P = _prefix(np.abs(values))
    rows = P.reshape(-1, P.shape[-1])
    n = rows.shape[1] - 1
    if n > NAIVE_CEILING:
        cells = values.reshape(len(rows), n)
        return np.array([_uncentered_long(v, row) for v, row in zip(cells, rows)]).reshape(values.shape)
    steps = np.count_nonzero(rows[:, 1:] != rows[:, :-1], axis=1)
    sparse = (steps * SPARSE_CUTOFF <= n * n) & np.isfinite(rows[:, -1])
    if not sparse.any():
        return _uncentered_naive(P)
    # the sweep's arrays are freed before ``out`` is made: a lower peak
    dense = None if sparse.all() else _uncentered_naive(rows[~sparse])
    out = np.empty((len(rows), n))
    if dense is not None:
        out[~sparse] = dense
    for i in np.flatnonzero(sparse):
        out[i] = _uncentered_sparse(rows[i])
    return out.reshape(values.shape)


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
