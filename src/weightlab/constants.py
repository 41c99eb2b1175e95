"""Muckenhoupt-type weight constants: local values, global suprema over the
dyadic cubes of a grid, the reverse-Holder checker, and doubling checks.

Conventions: n = 1 throughout (the dimensional factors 2^{n+1}, 2^{nr},
2^{np} are evaluated with n = 1); global suprema run over the dyadic cubes
of levels -J..L only, and every constant report carries that truncation note.
Divergent cached integrals surface as +inf constants, never exceptions.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import accumulate

import numpy as np

from .errors import ConfigError
from .grid import Cube, Grid, cells_of, rows
from .maximal import uncentered_dyadic, uncentered_restricted
from .weights import GridWeight, require_finite_masses, with_cached

DIM = 1  # n in the dimensional factors


@dataclass(frozen=True)
class ConstantKind:
    """Which constant: A1, Ap{p}, AinfExp, AinfFW, or Mixed{p, alpha, beta}."""

    tag: str
    p: float | None = None
    alpha: float | None = None
    beta: float | None = None

    def __post_init__(self):
        if self.tag not in ("A1", "Ap", "AinfExp", "AinfFW", "Mixed"):
            raise ConfigError(f"unknown constant kind {self.tag!r}")
        # comparisons that NaN fails, so a NaN parameter is refused too
        if self.tag in ("Ap", "Mixed") and not (self.p is not None and 1 < self.p < math.inf):
            raise ConfigError(f"{self.tag} kind needs a finite p > 1, got {self.p}")
        if self.tag == "Mixed":
            if not all(x is not None and 0 <= x < math.inf for x in (self.alpha, self.beta)):
                raise ConfigError(f"Mixed kind needs finite alpha, beta >= 0, got {self.alpha}, {self.beta}")


@dataclass
class ConstantReport:
    kind: ConstantKind
    value: float
    argmax: Cube
    per_level: list[tuple[int, float, int]]  # (level, max value, argmax index)
    truncation: tuple[int, int]  # (J, L)

    def to_json_dict(self) -> dict:
        d: dict = {"kind": self.kind.tag}
        if self.kind.p is not None:
            d["p"] = self.kind.p
        if self.kind.alpha is not None:
            d["alpha"] = self.kind.alpha
        if self.kind.beta is not None:
            d["beta"] = self.kind.beta
        d["value"] = self.value
        d["argmax"] = {"level": self.argmax.level, "index": self.argmax.index}
        d["per_level"] = [
            {"level": k, "value": v, "argmax_index": m} for k, v, m in self.per_level
        ]
        d["truncation"] = {"J": self.truncation[0], "L": self.truncation[1]}
        return encode_nonfinite(d)


def encode_nonfinite(obj):
    """obj with every non-finite float, at any depth of its dicts and lists,
    written as the string "inf", "-inf" or "nan"."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else str(obj)
    if isinstance(obj, dict):
        return {k: encode_nonfinite(x) for k, x in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [encode_nonfinite(x) for x in obj]
    return obj


def pow_or_inf(x: float, y: float) -> float:
    """x ** y, or +inf where the float power overflows (Python raises there)."""
    try:
        return x**y
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# local constants

def ap_local(w: GridWeight, Q: Cube, p: float) -> float:
    """(avg_Q w) (avg_Q w^{1-p'})^{p-1}; +inf when the dual mass diverges.
    A weight without the dual table of p gets it, as in ``global_constant``."""
    w = with_cached(w, dual=(p,))
    d, length = w.grid.L - Q.level, Q.length
    m = float(w.mass[d][Q.index]) / length
    dual = float(w.duals[p][d][Q.index]) / length
    if math.isinf(dual):
        return math.inf
    return m * dual ** (p - 1.0)


def a1_local(w: GridWeight, Q: Cube) -> float:
    """(avg_Q w) / (ess inf_Q w); +inf at zero infimum."""
    d = w.grid.L - Q.level
    inf_q = float(w.essinf[d][Q.index])
    avg = float(w.mass[d][Q.index]) / Q.length
    if inf_q <= 0:
        return math.inf
    return avg / inf_q


def ainf_exp_local(w: GridWeight, Q: Cube) -> float:
    """(avg_Q w) exp(avg_Q log w^{-1}) (the exponential A_inf functional)."""
    d, length = w.grid.L - Q.level, Q.length
    avg = float(w.mass[d][Q.index]) / length
    logavg = float(w.logmass[d][Q.index]) / length
    return avg * math.exp(-logavg)


def ainf_fw_local(w: GridWeight, Q: Cube) -> float:
    """(1/w(Q)) int_Q M(chi_Q w): the Fujii-Wilson functional.

    Exact for piecewise-constant weights; the uncentered maximal of the
    truncated weight is attained by intervals inside Q, so the restricted
    sweep suffices.  A weight with a nonzero local exponent on some cell,
    such as power:, is refused.
    """
    _require_piecewise(w)
    cells = cells_of(w.grid, Q)
    vals = w.cell_values[cells.start : cells.stop]
    mvals = uncentered_restricted(vals)
    integral = float(mvals.sum()) * w.grid.cell_width
    return integral / float(w.mass[w.grid.L - Q.level][Q.index])


def _require_piecewise(w: GridWeight) -> None:
    if not w.is_piecewise:
        cell = int(np.flatnonzero(w.expo != 0.0)[0])
        raise ConfigError(
            "the Fujii-Wilson constant needs local exponent 0 on every cell, as const:, step:, "
            f"csv: and their products have; this weight has exponent {float(w.expo[cell])!r} "
            f"on cell {cell}"
        )


def mixed_local(w: GridWeight, Q: Cube, p: float, alpha: float, beta: float) -> float:
    """A_p(w;Q)^alpha * A_inf^exp(w;Q)^beta."""
    out = 1.0
    if alpha > 0:
        ap = ap_local(w, Q, p)
        if math.isinf(ap):
            return math.inf
        out *= ap**alpha
    if beta > 0:
        out *= ainf_exp_local(w, Q) ** beta
    return out


# ---------------------------------------------------------------------------
# global suprema

@np.errstate(divide="ignore", over="ignore")  # a constant that overflows is +inf
def _a1_level(grid: Grid, mass: list[np.ndarray], essinf: list[np.ndarray], k: int) -> np.ndarray:
    """A1 of every cube of level k from bare mass and essinf pyramids; +inf at a zero infimum."""
    d = grid.L - k  # the cubes of level k have 2^d cells
    return np.where(essinf[d] > 0, mass[d] * 2.0 ** float(k) / essinf[d], np.inf)  # 1/|Q| = 2^k


@np.errstate(divide="ignore", over="ignore")  # a constant that overflows is +inf
def _level_values(w: GridWeight, kind: ConstantKind, k: int) -> np.ndarray:
    if kind.tag == "A1":
        return _a1_level(w.grid, w.mass, w.essinf, k)
    d = w.grid.L - k  # the cubes of level k have 2^d cells
    scale = 2.0 ** float(k)  # 1/|Q| at level k
    m = w.mass[d] * scale
    if kind.tag == "Ap":
        return m * (w.duals[kind.p][d] * scale) ** (kind.p - 1.0)
    if kind.tag == "AinfExp":
        return m * np.exp(-(w.logmass[d] * scale))
    if kind.tag == "Mixed":
        out = np.ones_like(m)
        if kind.alpha > 0:
            out = out * _level_values(w, ConstantKind("Ap", p=kind.p), k) ** kind.alpha
        if kind.beta > 0:
            out = out * _level_values(w, ConstantKind("AinfExp"), k) ** kind.beta
        return out
    raise ConfigError(f"no vectorized path for {kind.tag}")


def _fw_levels(w: GridWeight) -> list[np.ndarray]:
    """The Fujii-Wilson functional of every cube, one array per level from
    the top, by the same formula as ainf_fw_local: each cube of a level is
    one row of ``uncentered_dyadic``, which builds the levels bottom-up."""
    _require_piecewise(w)
    integrals = (m.sum(axis=1) * w.grid.cell_width for m in uncentered_dyadic(w.cell_values))
    return [s / mass for s, mass in zip(integrals, w.mass)][::-1]


def global_constant(w: GridWeight, kind: ConstantKind) -> ConstantReport:
    """Supremum of the local constant over every dyadic cube of the grid.

    Ties break to the smallest level, then smallest index.
    """
    if kind.tag in ("Ap", "Mixed"):
        w = with_cached(w, dual=(kind.p,))
    grid = w.grid
    if kind.tag == "AinfFW":
        levels = _fw_levels(w)
    else:
        levels = (_level_values(w, kind, k) for k in grid.levels())
    best = -math.inf
    best_cube = grid.root
    per_level: list[tuple[int, float, int]] = []
    for k, vals in zip(grid.levels(), levels):
        arg = int(np.argmax(vals))
        vmax = float(vals[arg])
        per_level.append((k, vmax, arg))
        if vmax > best:
            best = vmax
            best_cube = Cube(k, arg)
    return ConstantReport(kind, best, best_cube, per_level, (grid.J, grid.L))


def a1_constant(w: GridWeight) -> float:
    return global_constant(w, ConstantKind("A1")).value


def ap_constant(w: GridWeight, p: float) -> float:
    if p == 1:
        return a1_constant(w)
    return global_constant(w, ConstantKind("Ap", p=p)).value


def ainf_exp_constant(w: GridWeight) -> float:
    return global_constant(w, ConstantKind("AinfExp")).value


def ainf_fw_constant(w: GridWeight) -> float:
    return global_constant(w, ConstantKind("AinfFW")).value


# ---------------------------------------------------------------------------
# reverse Holder

@dataclass
class ReverseHolderReport:
    a1: float
    r_w: float
    eps_w: float
    max_lhs_over_rhs: float
    worst_cube: Cube
    rh_ok: bool
    levelset_samples: int
    levelset_violations: int
    max_levelset_ratio: float  # max of [w(E)/w(Q)] / [2 (|E|/|Q|)^eps]

    @property
    def ok(self) -> bool:
        return self.rh_ok and self.levelset_violations == 0

    def to_json_dict(self) -> dict:
        return asdict(self) | {"pass": self.ok}


def reverse_holder_exponent(a1: float) -> float:
    """r_w = 1 + 1/(2^{n+1} [w]_{A1}), n = 1."""
    return 1.0 + 1.0 / (2.0 ** (DIM + 1) * a1)


RH_CHUNK = 1 << 15  # mask cells per _union_counts call (one union if a cube has more cells)


def _levelset_counts(w: GridWeight, eps: float, n_subsets: int, rng) -> tuple[int, int, float]:
    """(samples, violations, max) of [w(E)/w(Q)] / [2 (|E|/|Q|)^eps] over the
    single cells of every cube, which usually hold the maximum and so go
    first, then over n_subsets random unions of every cube of more than one
    cell, coarse levels first; violations are ratios above 1."""
    samples, violations, top = 0, 0, -math.inf
    ds = np.arange(w.grid.J + w.grid.L, -1, -1)  # cubes of 2^d cells, coarse levels first
    for d in ds.tolist():
        s, v, top = cell_counts(rows(w.cell_masses, d), w.mass[d], eps, 1.0, top)
        samples, violations = samples + s, violations + v
    idx = np.concatenate([np.arange(w.grid.ncells >> d) for d in ds.tolist()])
    s, v, top = union_counts(w, np.repeat(ds, w.grid.ncells >> ds), idx, n_subsets, rng, eps, 1.0, top)
    return samples + s, violations + v, top


def cell_counts(blocks, wq, eps, theta, top) -> tuple[int, int, float]:
    """(samples, violations above theta, max(top, ratios)) over the single
    cells of the cubes with cells blocks (one row a cube) and masses wq, by
    one vectorised ratio, bitwise the one-cell union's."""
    ratio = (blocks / wq[:, None]) / (2.0 * (1.0 / blocks.shape[1]) ** eps)
    return ratio.size, int(np.count_nonzero(ratio > theta)), max(top, float(ratio.max()))


def union_counts(w: GridWeight, d, idx, n_subsets, rng, eps, theta, top) -> tuple[int, int, float]:
    """(samples, violations above theta, max(top, ratios)) of
    [w(E)/w(Q)] / [2 (|E|/|Q|)^eps] over n_subsets seeded random unions E of
    the cells of each cube Q of the set (d, idx) with more than one cell,
    drawn as a loop over the cubes and then the subsets would draw them (one
    ``rng.random(m)`` row a union, E where it is below 1/2; empty unions
    skipped).  The counts do not depend on the order of the unions."""

    def draw(s, r0, r1, mask):
        rng.random(out=mask)
        np.less(mask, 0.5, out=mask)

    many = d > 0
    return _count(w, d[many], idx[many], n_subsets, draw, eps, theta, top)


def superlevel_counts(w: GridWeight, d, idx, f, heights, eps, theta, top) -> tuple[int, int, float]:
    """As ``union_counts``, over the non-empty unions E = {f > heights[i]} of
    the cells of the cubes (d[i], idx[i]), f a cell array."""

    def compare(s, r0, r1, mask):
        np.greater(rows(f, s)[idx[r0:r1]], heights[r0:r1, None], out=mask)

    return _count(w, d, idx, 1, compare, eps, theta, top)


def _count(w: GridWeight, d, idx, n, fill, eps, theta, top) -> tuple[int, int, float]:
    """The counts of ``_union_counts`` over n unions a cube of the set
    (d, idx), whose masks fill(s, r0, r1, mask) writes in stream order, rows
    r0 <= r < r1 of cubes of 2^s cells at a time (row r is a union in cube
    r // n), as 1.0 and 0.0.  The rows go in chunks of at most RH_CHUNK
    doubles (a longer row alone), each chunk's rows of one cube size side by
    side in one buffer, so that each size of a chunk takes one
    ``_union_counts`` call on a view."""
    size = min(n * int(np.sum(1 << d)), max(RH_CHUNK, 1 << int(d.max(initial=0))))
    draws, cells = np.empty((2, size))
    samples, violations, full, fac = 0, 0, {}, {}  # per size: every cube's pairwise sum, factors
    for chunk in _chunks(d, n):
        sizes = sorted({s for s, _, _ in chunk})
        at = list(accumulate((sum(r1 - r0 for t, r0, r1 in chunk if t == s) << s for s in sizes), initial=0))
        pos = dict(zip(sizes, at))
        for s, r0, r1 in chunk:
            fill(s, r0, r1, draws[pos[s] : pos[s] + ((r1 - r0) << s)].reshape(-1, 1 << s))
            pos[s] += (r1 - r0) << s
        for s, lo, hi in zip(sizes, at, at[1:]):
            if s not in full:
                full[s], fac[s] = rows(w.cell_masses, s).sum(axis=1), np.full((1 << s) + 1, np.nan)
            cube = np.concatenate([_row_cubes(idx, n, r0, r1) for t, r0, r1 in chunk if t == s])
            mask, sel = (x[lo:hi].reshape(-1, 1 << s) for x in (draws, cells))
            got = _union_counts(rows(w.cell_masses, s), w.mass[s], full[s], fac[s], cube, mask, sel, eps, theta, top)
            samples, violations, top = samples + got[0], violations + got[1], got[2]
    return samples, violations, top


def _chunks(d, n):
    """The rows of n unions a cube, for cubes of 2^d[i] cells, in stream
    order: per run of cubes of one size, pieces of at most RH_CHUNK doubles
    (or one row), packed into chunks of at most RH_CHUNK doubles while they
    fit; per chunk, its pieces (d, first row, end row)."""
    chunk, room = [], RH_CHUNK
    starts = np.flatnonzero(np.diff(d, prepend=-1)).tolist()
    for a, b in zip(starts, [*starts[1:], len(d)]):
        s, step = int(d[a]), max(1, RH_CHUNK >> int(d[a]))
        for r in range(a * n, b * n, step):
            end = min(r + step, b * n)
            if (end - r) << s > room and chunk:
                yield chunk
                chunk, room = [], RH_CHUNK
            chunk.append((s, r, end))
            room -= (end - r) << s
    if chunk:
        yield chunk


def _row_cubes(idx, n, r0, r1):
    """idx[r // n] for the rows r0 <= r < r1, by one repeat."""
    k = np.arange(r0 // n, (r1 - 1) // n + 2)
    ends = k * n
    ends[0], ends[-1] = r0, r1
    return np.repeat(idx[k[:-1]], np.diff(ends))


def _union_counts(blocks, wq, full, fac, cube, mask, sel, eps, theta, top) -> tuple[int, int, float]:
    """(samples, violations above theta, max(top, ratios)) over the non-empty
    unions E = {mask[i] == 1} of the cells of cube[i] (mask holds 1.0 and
    0.0, sel is scratch of its shape, full the row sums of blocks, fac the
    factors 2 (|E|/m)^eps by size |E|, NaN where not formed yet), each
    ratio bitwise what ``_union_ratios`` gives, with exact sums only where
    the result can turn.

    Every w(E) is first formed by one fused sum, an einsum of the mask with
    its cubes' cells (not a matmul: BLAS would run a second thread).  A full
    cube (E = Q) takes full[cube], bitwise ``block[mask].sum()``, as its
    ratio ties at 1/2 with the maximum (exactly on a Step weight).  Both sums
    add the |E| <= m nonnegative cells of E (the fused one with exact zeros
    for the others) in other orders, so each is the real w(E) times (1 + d1),
    |d1| <= gamma_{m-1} = (m-1)u / (1 - (m-1)u), u = 2^-53 (a subnormal sum
    is exact).  Both ratios then divide by the same wq and the same factor
    f = 2 (|E|/m)^eps >= 2/m (eps in [0, 1], one Python pow a size, as on
    the exact path, kept in fac for the later calls); a division errs by a relative u, or by an absolute
    2^-1075 where its quotient is subnormal.  So each ratio is X (1 + d2) + e
    with X the real ratio, |d2| <= gamma_{m+1} and |e| <= (1 + 1/f) 2^-1075
    <= (1 + m) 2^-1075, and one is within a relative tau = 2 gamma_{m+1} /
    (1 - gamma_{m+1}) < 3 (m+1) u (m < 2^40) plus an absolute
    2 (1 + m) 2^-1075 of the other.  With t = 4 (m+1) u, s = m 2^-1072, R
    the fused ratios and H = max(top, max R):
      - a ratio the exact path puts above H comes from an R >= H (1 - 2t) - s;
      - R > theta + (2t |theta| + s) gives an exact ratio above theta, and
        R < theta - (2t |theta| + s) one at or below it, for any theta (no
        ratio is negative, so at theta < 0 no union lies below).
    2t is more than twice tau and s twice the absolute terms, which covers
    the roundings of the band edges.  Only the unions in those two bands are
    summed again by ``_union_ratios``, and the new maximum is the largest of
    top, the full cubes' ratios in the band and those exact ratios.  A fused
    sum that overflows makes H infinite, and then every union is summed
    again.  An empty union is no sample; its ratio is 0."""
    m = blocks.shape[1]
    t2 = 8 * (m + 1) * 2.0**-53  # 2t
    slack = m * 2.0**-1072
    sizes = np.einsum("ij->i", mask).astype(np.intp)  # exact: a count of at most m ones
    factor = fac.take(sizes)
    new = np.isnan(factor)
    if new.any():  # form the sizes the unions hit (every size if they outnumber them)
        hit = sorted(set(sizes[new].tolist())) if len(sizes) <= m else range(m + 1)
        fac[hit] = [2.0 * (max(sz, 1) / m) ** eps for sz in hit]
        factor = fac.take(sizes)
    blocks.take(cube, axis=0, out=sel)
    we = np.einsum("ij,ij->i", sel, mask)
    whole = sizes == m
    we[whole] = full[cube[whole]]
    ratio = we  # in place: two divides, as the exact path does them
    ratio /= wq.take(cube)
    ratio /= factor
    hi = max(top, float(ratio.max()))
    lo = hi * (1.0 - t2) - slack if hi < math.inf else -math.inf
    band = t2 * abs(theta) + slack
    # [lo, inf) and [theta - band, theta + band] in one or two comparisons
    near = ratio >= min(lo, theta - band)
    if lo > theta + band:
        near &= (ratio >= lo) | (ratio <= theta + band)
    cand = np.flatnonzero(near)
    size = sizes[cand]
    top = max(top, float(ratio[cand[size == m]].max(initial=-math.inf)))
    again = cand[(size > 0) & (size < m)]
    samples = int(np.count_nonzero(sizes))
    violations = int(np.count_nonzero(ratio > theta)) - int(np.count_nonzero(ratio[again] > theta))
    violations -= len(sizes) - samples if theta < 0 else 0  # the empty unions' ratio 0
    if len(again):
        exact = _union_ratios(blocks, wq, cube[again], mask[again] > 0.0, eps)
        violations += int(np.count_nonzero(exact > theta))
        top = max(top, float(exact.max()))
    return samples, violations, top


def _union_ratios(blocks, wq, cube, mask, eps) -> np.ndarray:
    """[w(E)/w(Q)] / [2 (|E|/|Q|)^eps] for the non-empty unions E = mask[i]
    of the cells of cube[i].  The rows of one size |E| are gathered and
    summed as one 2-D array, so each w(E) is numpy's pairwise sum of the
    cells in E, bitwise what ``block[mask].sum()`` gives row by row; the
    output runs by size, then by row."""
    m = blocks.shape[1]
    sizes = mask.sum(axis=1)
    out = []
    for sz in np.flatnonzero(np.bincount(sizes)).tolist():
        if sz:
            sel = np.flatnonzero(sizes == sz)
            we = blocks[cube[sel]][mask[sel]].reshape(len(sel), sz).sum(axis=1)
            out.append((we / wq[cube[sel]]) / (2.0 * (sz / m) ** eps))
    return np.concatenate(out) if out else np.empty(0)


def reverse_holder_check(
    w: GridWeight,
    n_subsets: int = 64,
    seed: int = 0,
) -> ReverseHolderReport:
    """Check (avg_Q w^{r_w})^{1/r_w} <= 2 avg_Q w on every dyadic cube, plus
    the measure-comparison consequence w(E)/w(Q) <= 2 (|E|/|Q|)^{eps_w} on
    sampled E (every single cell of Q plus seeded random cell unions).

    Each level is checked in one pass over all its cubes.  A level whose
    averages of w^{r_w} or of w are not finite (their sums overflow) is
    refused with a ConfigError naming its first such cube: the ratio there
    would be NaN, which passes every comparison.  Those sums and averages
    are formed with overflow warnings off.  So is a level with an average of
    w^{r_w} below the smallest normal double: w^{r_w} has underflowed there
    (to 0 on a constant 1e-300), and the ratio would read 0 and pass.

    The level-set report reads three numbers, the count of unions, the count
    above 1 and the largest ratio, each bitwise what a per-cube loop of
    ``block[mask].sum()`` gives (``tests/test_constants.py``
    ``reference_levelset`` is that loop and gates it): ``cell_counts`` takes
    the single cells, then ``union_counts`` the random unions."""
    a1 = a1_constant(w)
    if not math.isfinite(a1):
        raise ConfigError("reverse Holder check needs a finite A1 constant")
    rw = reverse_holder_exponent(a1)
    eps = 1.0 / (1.0 + 2.0 ** (DIM + 1) * a1)
    with np.errstate(over="ignore"):
        w = with_cached(w, power=(rw,))
    grid = w.grid
    worst = -math.inf
    worst_cube = grid.root
    for k in grid.levels():
        scale = 2.0 ** float(k)
        with np.errstate(over="ignore"):
            avg = w.powers[rw][grid.L - k] * scale
            lhs = avg ** (1.0 / rw)
            rhs = 2.0 * w.mass[grid.L - k] * scale
        bad = np.flatnonzero(~(np.isfinite(lhs) & np.isfinite(rhs)))
        if len(bad):
            raise ConfigError(f"reverse Holder check: the averages of w^{rw!r} or of w are not "
                              f"finite on cube (level {k}, index {int(bad[0])})")
        bad = np.flatnonzero(avg < np.finfo(float).tiny)
        if len(bad):
            raise ConfigError(f"reverse Holder check: the average of w^{rw!r} underflows (below the "
                              f"smallest normal double) on cube (level {k}, index {int(bad[0])})")
        ratio = lhs / rhs
        arg = int(np.argmax(ratio))
        if float(ratio[arg]) > worst:
            worst = float(ratio[arg])
            worst_cube = Cube(k, arg)
    samples, violations, max_ratio = _levelset_counts(w, eps, n_subsets, np.random.default_rng(seed))
    return ReverseHolderReport(
        a1=a1,
        r_w=rw,
        eps_w=eps,
        max_lhs_over_rhs=worst,
        worst_cube=worst_cube,
        rh_ok=worst <= 1.0,
        levelset_samples=samples,
        levelset_violations=violations,
        max_levelset_ratio=max_ratio,
    )


# ---------------------------------------------------------------------------
# doubling

@dataclass
class DoublingReport:
    p: float
    ap: float
    max_parent_ratio: float
    parent_bound: float
    parent_ok: bool
    max_double_ratio: float
    double_bound: float
    double_ok: bool
    truncated_doubles: int

    def to_json_dict(self) -> dict:
        return asdict(self)


@np.errstate(over="ignore")  # a ratio that overflows is +inf
def doubling_check(v: GridWeight, p: float, rtol: float = 1e-12) -> DoublingReport:
    """v(2Q) / v(Q) against 2^{np} [v]_{A_p}, and the parent-cube variant
    v(Q') / v(Q) <= 2^{np} [v]_{A_p} used by the CZ verifier.

    2Q is evaluated for cube levels k <= L-1 (so its endpoints are
    cell-aligned) and truncated to the domain where necessary; truncations
    are counted in the report.  A divergent cell mass is refused: its
    ratios would be NaN, which no maximum keeps.  So is a bound that is not
    finite (an infinite [v]_{A_p}, or 2^{np} overflowing): every ratio
    would pass against +inf.
    """
    require_finite_masses(v, "the doubling check")
    grid = v.grid
    ap = ap_constant(v, p)
    bound = pow_or_inf(2.0, DIM * p) * ap
    if not math.isfinite(bound):
        raise ConfigError(f"doubling check needs a finite bound 2^(np) [v]_{{A_p}}, "
                          f"got [v]_{{A_p}} = {ap} at p = {p}")
    # parent-cube variant over all non-root cubes
    max_parent = -math.inf
    for k in grid.levels():
        if k == -grid.J:
            continue
        child = v.mass[grid.L - k]
        par = np.repeat(v.mass[grid.L - k + 1], 2)
        max_parent = max(max_parent, float((par / child).max()))
    # doubled cubes, cell-aligned at level k+1
    cells = v.cell_masses
    csum = np.concatenate([[0.0], np.cumsum(cells)])
    max_double = -math.inf
    truncated = 0
    n = grid.ncells
    for k in grid.levels():
        if k == grid.L:
            continue  # 2Q of a single cell is not cell-aligned
        m = 1 << (grid.L - k)  # cells per cube
        half = m // 2
        starts = np.arange(grid.ncubes(k)) * m
        lo = starts - half
        hi = starts + m + half
        clipped = (lo < 0) | (hi > n)
        truncated += int(np.count_nonzero(clipped))
        lo = np.clip(lo, 0, n)
        hi = np.clip(hi, 0, n)
        dq = csum[hi] - csum[lo]
        q = v.mass[grid.L - k]
        max_double = max(max_double, float((dq / q).max()))
    tol = 1.0 + rtol
    return DoublingReport(
        p=p,
        ap=ap,
        max_parent_ratio=max_parent,
        parent_bound=bound,
        parent_ok=max_parent <= bound * tol,
        max_double_ratio=max_double,
        double_bound=bound,
        double_ok=max_double <= bound * tol,
        truncated_doubles=truncated,
    )
