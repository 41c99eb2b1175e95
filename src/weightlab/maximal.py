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

The uncentered maximal is one dispatcher, one exhaustive kernel and three
handlers, and callers pass whole stacks: a 2-D array whose rows are
independent blocks (all cubes of one dyadic level, or a corpus of
functions), each row giving bitwise what it gives alone.
``_uncentered_rows`` decides every row's path once, by its cells and its
length n, taking the rows in blocks of at most SWEEP_CELLS = 2^15 cells:

* a row with an inf (NaN) cell is inf (NaN) on every cell, and a zero row
  is zero: each is its total on every cell;
* a finite row that is zero left of its first or right of its last
  nonzero cell is split when it has more than NAIVE_CEILING cells, or
  when it has at least SPLIT_MIN cells and its support (first to last
  nonzero cell) is at most n / SPLIT_CUTOFF of them: the support takes
  its own path and each flank cell ``_trailing_flank``, bitwise the sweep
  by the zero-end lemma at ``_uncentered_split``;
* any other finite row above NAIVE_CEILING cells takes the level-batched
  hull pass, O(hull vertices) bookkeeping a level, never above its oracle
  and at most FAST_PATH_ULPS (tests/test_maximal.py) below it on plateaus,
  bitwise on lognormal, indicator and sorted data;
* every other row goes, with the others of its block, to the handler of
  the entry point:
  - ``uncentered_restricted``: the kernel, bitwise its oracle
    ``uncentered_maximal_brute``;
  - ``uncentered_dyadic``: every dyadic level, each carried from the one
    below: the kernel skips the nodes inside a cube's left half, whose
    maxima the level below found, and evaluates 3/4 of the candidates,
    the same ones and so the same bits;
  - ``uncentered_envelope``: a cellwise lower bound and a per-row cap
    around the sweep's maxima in O(n ENVELOPE_W) (the proof is at the
    function), for a caller that only needs to know which rows can matter
    (the Buckley check of ``experiments``); the kernel itself on rows of
    at most 2 ENVELOPE_W cells.  So lower is the exact maxima on every row
    that the envelope does not bound.

The kernel ``_uncentered_naive`` evaluates every candidate of the O(n^2)
sweep once, by dyadic node: the nodes of one size s, of a group of rows
whose nodes hold at most NODE_BLOCK / 4 cells a half, are one stack of
s x s rectangles of candidates, formed at most NODE_BLOCK = 2^15
candidates (256 KB) per numpy call.  So besides its block's prefix rows
and maxima it holds one such rectangle and at most NODE_BLOCK floats of
node rows and their maxima.

A row of at most NAIVE_CEILING cells whose end cells are nonzero is swept
however few of its cells are nonzero, so it costs what a dense row of its
length costs and no more: a 4096-cell row of four spikes, two of them its
end cells, takes about 25 ms (2-core host), where four spikes over 391
cells inside zero flanks take 2 ms; no caller builds such a row.

Gates, in tests/test_maximal.py unless named: the kernel equals an
exhaustive loop over right ends and ``uncentered_maximal_brute``, with and
without carried left halves; the flank split equals the kernel on both
sides of its thresholds; lower <= ``uncentered_restricted`` <= max(lower,
cap) on every row, and lower equals it on the rows not bounded; the hull
pass equals its mask-based form ``hull_mask_reference`` (tests/conftest.py);
the carried levels equal one ``uncentered_restricted`` call per level
(tests/test_constants.py).  Only this module reads the path thresholds or
its private names (tests/test_architecture.py).

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
# A flanked row of SPLIT_MIN <= n <= NAIVE_CEILING cells is split when its
# support is at most n / SPLIT_CUTOFF cells.  At n / 2 the corpus's
# one-sided rows (2048 of 4096 cells) would take exact 2048-cell sweeps
# (12 ms) where the envelope bounds them in 2 ms.
SPLIT_CUTOFF = 8
# Rows of fewer cells are never split: a split costs 0.3-0.6 ms a call, the
# kernel 1-30 us per row of 8-32 cells in a block (2-core host).
SPLIT_MIN = 64
# Width W of the windows and the shortest long interval of uncentered_envelope
ENVELOPE_W = 32
FLANK_CHUNK = 4096  # zero flank cells per divide-and-conquer pass of _trailing_flank
NODE_BLOCK = 1 << 15  # candidates per numpy call of the node kernel _node_maxima
NODE_INNER = 32  # node halves of up to this many cells put the node index innermost


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
# uncentered maximal: node kernel, level-batched hull pass, flank split, oracle

def _uncentered_naive(P: np.ndarray, left: np.ndarray | None = None) -> np.ndarray:
    """Max interval average per cell of every prefix row of P (any leading
    shape), over every candidate fl(fl(P[b] - P[a]) / (b - a)): O(n^2),
    batched by dyadic node.

    The singletons are np.diff(P).  An interval [a, b) of two or more
    cells is owned by the one node [lo, lo + 2s) with a < lo + s < b, so
    all of them are the candidates of the nodes of every size s, the last
    one of each clipped at n (``_nodes``).  Each cell takes the max of the
    same rounded candidates as an exhaustive loop, so the same bits.

    With ``left``, the maxima of every row's left half h = n // 2 on its
    own, the nodes inside the left half are skipped: a left-half cell
    takes the max of ``left`` (the intervals inside it) and of the nodes
    that leave it.
    """
    n = P.shape[-1] - 1
    rows = np.ascontiguousarray(P.reshape(-1, n + 1))
    out = np.diff(rows)
    h = 0 if left is None else n // 2
    s = 1
    while s < n:
        _nodes(rows, out, s, h // (2 * s) * 2 * s, 2 * s)
        s *= 2
    out = out.reshape(P.shape[:-1] + (n,))
    if h:
        np.maximum(out[..., :h], left, out=out[..., :h])
    return out


def _nodes(rows: np.ndarray, out: np.ndarray, s: int, first: int, step: int) -> None:
    """Raise ``out``, the (R, n) maxima of the (R, n + 1) prefix rows, by
    the candidates of the nodes [lo, lo + 2s) at lo = first, first + step,
    ... while lo + s < n, the last one clipped at n.  A left end of a node
    is a = lo + i and a right end b = lo + s + 1 + j, i, j < s: a cell of
    its left half takes the best of the left ends up to it, a cell of its
    right half the best of the right ends past it.  The rows go to
    ``_node_maxima`` in groups of at most NODE_BLOCK / 4 cells of node rows
    (one row where a row has more), every whole node of a group in one
    call."""
    n = out.shape[1]
    k = max(0, (n - 2 * s - first) // step + 1)  # the whole nodes, lo + 2s <= n
    lo = first + k * step  # the clipped one, if lo + s < n
    g = max(1, NODE_BLOCK // (4 * s * (k + 1)))  # rows per group
    for r in range(0, len(rows), g):
        P, o = rows[r : r + g], out[r : r + g]
        if k:
            _node_maxima(_every(P, first, step, k, s), _every(P, first + s + 1, step, k, s),
                         _every(o, first, step, k, s), _every(o, first + s, step, k, s))
        if lo + s < n:
            _node_maxima(P[:, None, lo : lo + s], P[:, None, lo + s + 1 :],
                         o[:, None, lo : lo + s], o[:, None, lo + s :])


def _every(a: np.ndarray, first: int, step: int, k: int, s: int) -> np.ndarray:
    """The (rows, k, s) view of the s cells of every row of a C-contiguous
    a at first, first + step, ..., first + (k - 1) step."""
    r, c = a.strides
    return np.ndarray((len(a), k, s), a.dtype, a, first * c, (r, step * c, c))


def _node_maxima(PL, PR, left_half, right_half) -> None:
    """For the (rows, nodes) of one size s, T[r, k, i, j] = fl(fl(PR[r, k, j]
    - PL[r, k, i]) / (s + 1 + j - i)): raise ``left_half`` by the prefix max
    of T's row maxima over i and ``right_half`` by the suffix max of its
    column maxima over j, NODE_BLOCK candidates per numpy call.  The
    divisors are a Toeplitz view of one arange.  With at most NODE_INNER
    left ends and enough nodes (64, and 512 / s below 8 left ends; the
    crossover measured on a 2-core host), the node index is innermost, so
    that every numpy call runs over the nodes rather than over a short row
    of one node."""
    s, w = PL.shape[-1], PR.shape[-1]
    base = np.arange(1.0, 2 * s + 1)
    D = np.ndarray((s, w), float, base, s * base.itemsize, (-base.itemsize, base.itemsize))
    M = PL.size // s
    if s <= NODE_INNER and M >= max(64, 512 // s):  # rows (s, M) and (w, M) of the M nodes
        L, R = PL.transpose(2, 0, 1).reshape(s, M), PR.transpose(2, 0, 1).reshape(w, M)
        rmax, cmax = np.empty((s, M)), np.empty((w, M))
        g = min(M, max(128, NODE_BLOCK // (s * w)))  # nodes per block
        c = min(s, max(1, NODE_BLOCK // (w * g)))  # left ends per block
        buf = np.empty(c * w * g)
        for m in range(0, M, g):
            k = slice(m, m + g)
            for i in range(0, s, c):
                T = buf[: min(c, s - i) * w * min(g, M - m)].reshape(-1, w, min(g, M - m))
                np.subtract(R[None, :, k], L[i : i + c, None, k], out=T)
                np.divide(T, D[i : i + c, :, None], out=T)
                np.maximum.reduce(T, axis=1, out=rmax[i : i + c, k])
                if i:
                    np.maximum(cmax[:, k], np.maximum.reduce(T, axis=0), out=cmax[:, k])
                else:
                    np.maximum.reduce(T, axis=0, out=cmax[:, k])
        _scan_max(rmax)
        _scan_max(cmax[::-1])
        for a, half in ((rmax, left_half), (cmax, right_half)):
            o = half.transpose(2, 0, 1)
            np.maximum(o, a.reshape(o.shape), out=o)
        return
    L, R = PL.reshape(M, s), PR.reshape(M, w)  # rows (M, s) and (M, w)
    rmax, cmax = np.empty((M, s)), np.empty((M, w))
    c = min(s, max(1, NODE_BLOCK // w))  # left ends per block
    g = min(M, max(1, NODE_BLOCK // (c * w)))  # nodes per block
    buf = np.empty(g * c * w)
    for m in range(0, M, g):
        k = slice(m, m + g)
        for i in range(0, s, c):
            T = buf[: min(g, M - m) * min(c, s - i) * w].reshape(-1, min(c, s - i), w)
            np.subtract(R[k, None, :], L[k, i : i + c, None], out=T)
            np.divide(T, D[i : i + c], out=T)
            np.maximum.reduce(T, axis=2, out=rmax[k, i : i + c])
            if i:
                np.maximum(cmax[k], np.maximum.reduce(T, axis=1), out=cmax[k])
            else:
                np.maximum.reduce(T, axis=1, out=cmax[k])
    np.maximum.accumulate(rmax, axis=1, out=rmax)
    np.maximum(left_half, rmax.reshape(left_half.shape), out=left_half)
    np.maximum.accumulate(cmax[:, ::-1], axis=1, out=cmax[:, ::-1])
    np.maximum(right_half, cmax.reshape(right_half.shape), out=right_half)


def _scan_max(a: np.ndarray) -> None:
    """Prefix max of a along its first axis, in place, by doubling: after
    the step of shift k each row holds the max of the 2k rows up to it
    (numpy reads an overlapping input before it writes)."""
    k = 1
    while k < len(a):
        np.maximum(a[k:], a[:-k], out=a[k:])
        k *= 2


def _uncentered_levels(P: np.ndarray) -> np.ndarray:
    """Max interval average per cell, all dyadic nodes of one size at a time.

    Node [lo, lo + 2s) owns the intervals [a, b) with a < lo + s < b; the
    singletons seed the result.  Averages are slopes between points (x, P[x]),
    so the best b for a left end a is the tangent from a to the upper hull
    on [lo + s, lo + 2s]; the point reflection (x, y) -> (-x, -y) turns right
    ends and lower hulls into the same problem.  Each pass carries its hulls
    as one sorted vertex array, merged by bridges after each level (Chung
    and Lu, SIAM J. Comput. 34, 2004) in O(vertices).  Zero cells pad N to a
    power of two: they add no new maximum.
    """
    n = len(P) - 1
    m = 1 << max(n - 1, 0).bit_length()
    P = np.concatenate((P, np.full(m - n, P[-1])))
    out, R = np.diff(P), -P[::-1]
    upper = lower = np.arange(m + 1, dtype=np.int32)
    for d in range(m.bit_length() - 1):
        upper = _left_ends(P, upper, out, 1 << d)
        lower = _left_ends(R, lower, out[::-1], 1 << d)
    return out[:n]


def _left_ends(P, V, out, s) -> np.ndarray:
    """Raise ``out`` on the left half of every node by the prefix maxima of
    the left ends' tangents, and return V, the vertices of the hulls, merged.
    Every node end is a vertex: no bridge has one strictly inside it."""
    m = len(P) - 1
    lo = np.arange(0, m, 2 * s, dtype=np.int32)[:, None]
    b = np.flatnonzero((V & (s - 1)) == 0)  # where V is lo, lo + s, lo + 2s, ...
    G, K, E = _tangents(P, lo + np.arange(s, dtype=np.int32), V, b[1::2, None], b[2::2, None])
    if 2 * s < m:
        # The bridge starts at the last left vertex whose tangent does not
        # rise above its incoming edge: a local test, so a rounding tie moves
        # the hull by the roundoff of one edge, not of the whole bridge.
        i = np.flatnonzero((V[:-1] & s) == 0)  # the left vertices; V[-1] = m is none
        v = V[i]
        j, c = v // (2 * s), v & (2 * s - 1)  # c = v % 2s
        keep = (c == 0) | (G[j, c] <= E[i])
        j, v = j[keep], v[keep]
        p = v[np.append(j[1:] != j[:-1], True)]  # last kept vertex of each row
        k = K[np.arange(len(p)), p % (2 * s)]  # the bridge (p, k) of each row
        x = np.minimum(V // (2 * s), len(p) - 1)  # the row of each vertex
        V = V[(V <= p.take(x)) | (V >= k.take(x))]
    # prefix maxima along each row: none at s = 1, one maximum at s = 2,
    # where accumulate over so short an axis costs 20x more
    if s == 2:
        np.maximum(G[:, 0], G[:, 1], out=G[:, 1])
    elif s > 2:
        np.maximum.accumulate(G, axis=1, out=G)
    O = out.reshape(-1, 2 * s)[:, :s]
    np.maximum(O, G, out=O)
    return V


def _tangents(P, Q, V, st, en) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Max of (P[v] - P[q]) / (v - q) for each query q in row r over the hull
    vertices v = V[st[r]..en[r]] right of q, the v attaining it, and E.

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
        np.copyto(k, j, where=E[j] > g)
        w >>= 1
    avg(k)
    return g, V[k], E


def _uncentered_split(values: np.ndarray, P: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Max interval average per cell of one finite row ``values`` with
    prefix row P that is zero outside its support [lo, hi): the support
    takes its own path of ``uncentered_restricted``, and each zero flank
    ``_trailing_flank``; bitwise ``_uncentered_naive``.

    The zero-end lemma: an interval [a, b) with a < lo has the numerator of
    [lo, b), since np.cumsum is sequential and the leading zeros sum to 0,
    over a larger divisor, and likewise one with b > hi; so a cell of the
    support takes its best from intervals inside it, and the support's
    prefix row is bitwise P[lo..hi].
    """
    n = len(values)
    out = np.zeros(n)
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
    """Grid-restricted uncentered Hardy-Littlewood maximal function:
    ``uncentered_restricted`` of f's cells, on the paths of the module
    docstring."""
    return GridFunction(f.grid, uncentered_restricted(f.values))


def uncentered_maximal_brute(f: GridFunction) -> GridFunction:
    """Oracle: exhaustive max over every grid-endpoint interval per cell.

    For each left end a, the averages (P[b] - P[a]) / (b - a) of all right
    ends b > a form one row; its suffix max from b = c + 1 on is the best
    interval [a, b) holding cell c, folded into every cell c >= a.  O(N^2)
    time and O(N) memory; a NaN candidate propagates, as in a max.  A row
    with an inf cell is inf on every cell (NaN with a NaN cell as well),
    before any sum is formed: every cell shares an interval with that cell,
    and every interval holding it averages inf."""
    vals = np.abs(f.values)
    n = len(vals)
    if np.isposinf(vals).any():
        return GridFunction(f.grid, np.full(n, np.nan if np.isnan(vals).any() else np.inf))
    P = _prefix(vals)
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
    suffice.  Every row takes its path of ``_uncentered_rows``, whose
    handler here is the kernel ``_uncentered_naive``.
    """
    return _uncentered_rows(values, lambda P, r: _uncentered_naive(P))


def _uncentered_rows(values: np.ndarray, sweep) -> np.ndarray:
    """The one place that decides each row's path, for a block ``values``
    whose rows are independent blocks; returns an array of its shape.

    The rows are taken in blocks of at most SWEEP_CELLS cells (one row
    where a row is longer), each with its own prefix rows P.  A row with an
    inf or NaN cell is its total on every cell, inf or NaN: every cell
    shares an interval with that cell, and every interval holding it
    averages that value; a zero row is its total 0 as well.  A finite row
    that is zero outside its support [lo, hi) (first to last nonzero cell)
    takes ``_uncentered_split`` when it has more than NAIVE_CEILING cells,
    or at least SPLIT_MIN cells and a support of at most n / SPLIT_CUTOFF
    of them; any other row of more than NAIVE_CEILING cells, the hull
    pass.  The other rows r of the block go to the handler together, as
    sweep(P[r], r) with r indexing the whole stack: a slice where the rows
    are adjacent, so that P[r] is a view.
    """
    values = np.asarray(values, dtype=float)
    if not values.size:
        return np.zeros(values.shape)
    cells = values.reshape(-1, values.shape[-1])
    n = cells.shape[1]
    step = max(1, SWEEP_CELLS // n)
    out = None
    for j in range(0, len(cells), step):
        block = cells[j : j + step]
        P = _prefix(np.abs(block))
        total = P[:, -1]
        nonzero = block != 0
        lo, hi = nonzero.argmax(axis=1), n - nonzero[:, ::-1].argmax(axis=1)
        own = (0 < total) & (total < np.inf)  # the other rows are their total
        short = (n >= SPLIT_MIN) & ((hi - lo) * SPLIT_CUTOFF <= n)  # a short support
        split = own & (hi - lo < n) & ((n > NAIVE_CEILING) | short)
        swept = own & ~split & (n <= NAIVE_CEILING)
        if out is None:
            if swept.all() and len(P) == len(cells):  # the handler's array is the result
                return sweep(P, slice(None)).reshape(values.shape)
            out = np.empty(cells.shape)
        r = np.flatnonzero(swept)
        if len(r):
            a, b = r[0], r[-1] + 1
            r, at = (slice(a, b), slice(j + a, j + b)) if b - a == len(r) else (r, j + r)
            out[at] = sweep(P[r], at)
        i = np.flatnonzero(~own)
        out[j + i] = total[i, None]
        for i in np.flatnonzero(split):
            out[j + i] = _uncentered_split(block[i], P[i], int(lo[i]), int(hi[i]))
        for i in np.flatnonzero(own & ~split & ~swept):
            out[j + i] = _uncentered_levels(P[i])
    return out.reshape(values.shape)


def uncentered_envelope(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A cellwise lower bound and a per-row cap, (lower, cap), with lower <=
    ``uncentered_restricted`` <= upper = max(lower, cap) on every row of a
    block, in O(n ENVELOPE_W) per row that it bounds: the rows of more than
    2 ENVELOPE_W cells that the restricted maximal sweeps.  Every other row
    takes its own path of ``_uncentered_rows``, the sweep among them; lower
    is its exact maxima and its cap -inf.  A row is exact wherever its cap
    is at most its least lower value.

    With W = ENVELOPE_W, lower is the sweep over the windows [kW, kW + 2W)
    of each row's own prefix row (and [n - 2W, n) for the tail), so each of
    its values is one of the sweep's rounded candidates; every interval of
    at most W cells lies in a window.  An interval of L >= W cells splits
    into pieces of W..2W - 1 cells, and its exact average is a mediant of
    theirs, so the cap is A_W (1 + 2^-50) + 2^-1074, A_W the
    largest rounded average over W..2W - 1 cells.  Both roundings of each
    side cost a factor 1 + u (u = 2^-53) where the quotient is normal, so
    the long candidate is at most (1 + u)^2 / (1 - u)^2 < 1 + 5u times A_W;
    where it is subnormal, it and its best piece's quotient differ by a
    factor below 1 + 3u, less than the spacing 2^-1074, so it rounds at
    most 2^-1074 above that piece's.
    """
    values = np.asarray(values, dtype=float)
    w = ENVELOPE_W
    cap = np.full(values.shape[:-1], -np.inf)
    caps = cap.reshape(-1)

    def bound(rows, r):
        if rows.shape[1] - 1 <= 2 * w:
            return _uncentered_naive(rows)
        caps[r] = _piece_maxima(rows, w) * (1 + 2.0**-50) + 2.0**-1074
        return _window_maxima(rows, w)

    return _uncentered_rows(values, bound), cap


def _piece_maxima(rows: np.ndarray, w: int) -> np.ndarray:
    """A_W of each finite prefix row: its largest rounded average over
    intervals of W..2W - 1 cells."""
    n = rows.shape[1] - 1
    top, t = np.zeros(len(rows)), np.empty((len(rows), n + 1 - w))
    for length in range(w, 2 * w):
        s = t[:, : n + 1 - length]
        np.subtract(rows[:, length:], rows[:, :-length], out=s)
        np.divide(s, length, out=s)
        np.maximum(top, s.max(axis=1), out=top)
    return top


def _window_maxima(rows: np.ndarray, w: int) -> np.ndarray:
    """Per cell of each finite prefix row, the sweep's maximum over the
    windows [kW, kW + 2W) and [n - 2W, n) that hold it.

    An interval of the window [kW, kW + 2W) lies in one of its two W-cell
    pieces or leaves the first for the second.  W is a power of two, so the
    intervals inside the pieces are those of the row's own nodes of up to
    W cells, and those that leave a piece are the nodes [kW, kW + 2W) at
    every k; the last of these, clipped at n, and the nodes past the last
    whole piece hold intervals of the tail window."""
    n = rows.shape[1] - 1
    rows = np.ascontiguousarray(rows)
    out = np.diff(rows)
    s = 1
    while s < w:
        _nodes(rows, out, s, 0, 2 * s)
        s *= 2
    _nodes(rows, out, w, 0, w)
    if n % w:  # the tail window [n - 2W, n)
        tail = out[:, n - 2 * w :]
        np.maximum(tail, _uncentered_naive(rows[:, n - 2 * w :]), out=tail)
    return out


def uncentered_dyadic(values: np.ndarray):
    """For d = 0, 1, ..., m on an array of N = 2^m cells, the uncentered
    maximal restricted to every dyadic block of 2^d cells, as the rows of
    one (N / 2^d, 2^d) array: bitwise ``uncentered_restricted`` of
    ``values.reshape(-1, 2^d)``, on the same paths of ``_uncentered_rows``.

    The levels are carried: np.cumsum is sequential, so the prefix row of a
    block's left half is bitwise its left child's, and the child's maxima,
    on whatever path they were found, stand for every interval inside the
    left half.  So the kernel skips the nodes inside each swept block's
    left half and evaluates only those that leave it or lie in its right
    half.
    """
    below = None
    for d in range(len(values).bit_length()):
        left = None if below is None else below[::2]
        below = _uncentered_rows(np.reshape(values, (-1, 1 << d)),
                                 lambda P, r: _uncentered_naive(P, None if left is None else left[r]))
        yield below
