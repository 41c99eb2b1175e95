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

import numpy as np

from .errors import ConfigError
from .grid import Cube, Grid, cells_of
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
    """(avg_Q w) (avg_Q w^{1-p'})^{p-1}; +inf when the dual mass diverges."""
    length = Q.length
    m = w.mass_of(Q) / length
    d = w.dual_mass_of(Q, p) / length
    if math.isinf(d):
        return math.inf
    return m * d ** (p - 1.0)


def a1_local(w: GridWeight, Q: Cube) -> float:
    """(avg_Q w) / (ess inf_Q w); +inf at zero infimum."""
    inf_q = w.essinf_of(Q)
    avg = w.mass_of(Q) / Q.length
    if inf_q <= 0:
        return math.inf
    return avg / inf_q


def ainf_exp_local(w: GridWeight, Q: Cube) -> float:
    """(avg_Q w) exp(avg_Q log w^{-1}) (the exponential A_inf functional)."""
    length = Q.length
    avg = w.mass_of(Q) / length
    logavg = w.log_mass_of(Q) / length
    return avg * math.exp(-logavg)


def ainf_fw_local(w: GridWeight, Q: Cube) -> float:
    """(1/w(Q)) int_Q M(chi_Q w): the Fujii-Wilson functional.

    Exact for piecewise-constant weights; the uncentered maximal of the
    truncated weight is attained by intervals inside Q, so the restricted
    sweep suffices.  Analytic weights are refused: realize them on a grid.
    """
    _require_piecewise(w)
    cells = cells_of(w.grid, Q)
    vals = w.cell_values[cells.start : cells.stop]
    mvals = uncentered_restricted(vals)
    integral = float(mvals.sum()) * w.grid.cell_width
    return integral / w.mass_of(Q)


def _require_piecewise(w: GridWeight) -> None:
    if not w.is_piecewise:
        raise ConfigError(
            "Fujii-Wilson constant needs a piecewise-constant weight; "
            "realize the analytic weight on a grid first"
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
def _level_values(w: GridWeight, kind: ConstantKind, k: int) -> np.ndarray:
    d = w.grid.L - k  # the cubes of level k have 2^d cells
    scale = 2.0 ** float(k)  # 1/|Q| at level k
    m = w.mass[d] * scale
    if kind.tag == "A1":
        inf_k = w.essinf[d]
        return np.where(inf_k > 0, m / inf_k, np.inf)
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


RH_CHUNK = 1 << 15  # doubles per draw of random unions


def _levelset_ratios(w: GridWeight, eps: float, n_subsets: int, rng):
    """Yield [w(E)/w(Q)] / [2 (|E|/|Q|)^eps] level by level: first for the
    single cells of every cube, then chunk by chunk for the random unions."""
    grid = w.grid
    for k in grid.levels():
        m = 1 << (grid.L - k)
        blocks = w.cell_masses.reshape(-1, m)
        wq = w.mass[grid.L - k]
        # single cells: the extremal small-|E| cases
        yield (blocks / wq[:, None]) / (2.0 * (1.0 / m) ** eps)
        if m == 1:
            continue
        rows = len(wq) * n_subsets
        step = max(1, RH_CHUNK // m)
        for r in range(0, rows, step):
            cube = np.arange(r, min(r + step, rows)) // n_subsets
            mask = rng.random((len(cube), m)) < 0.5
            yield _union_ratios(blocks, wq, cube, mask, eps)


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

    Each level is checked in one pass over all its cubes.  The unions are
    drawn in the order of a loop over cubes and then subsets, one
    ``rng.random(m)`` row per union, in chunks of at most RH_CHUNK doubles
    (one row if a cube has more cells), so the stream and every sample are
    those of that loop; empty unions are skipped, as there.  A level whose
    averages of w^{r_w} or of w are not finite (their sums overflow) is
    refused with a ConfigError naming its first such cube: the ratio there
    would be NaN, which passes every comparison.  Those sums and averages
    are formed with overflow warnings off."""
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
            lhs = (w.powers[rw][grid.L - k] * scale) ** (1.0 / rw)
            rhs = 2.0 * w.mass[grid.L - k] * scale
        bad = np.flatnonzero(~(np.isfinite(lhs) & np.isfinite(rhs)))
        if len(bad):
            raise ConfigError(f"reverse Holder check: the averages of w^{rw!r} or of w are not "
                              f"finite on cube (level {k}, index {int(bad[0])})")
        ratio = lhs / rhs
        arg = int(np.argmax(ratio))
        if float(ratio[arg]) > worst:
            worst = float(ratio[arg])
            worst_cube = Cube(k, arg)
    samples = 0
    violations = 0
    max_ratio = -math.inf
    for ratio in _levelset_ratios(w, eps, n_subsets, np.random.default_rng(seed)):
        samples += ratio.size
        violations += int(np.count_nonzero(ratio > 1.0))
        if ratio.size:
            max_ratio = max(max_ratio, float(ratio.max()))
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
