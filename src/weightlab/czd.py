"""Calderon-Zygmund decomposition at height t with respect to v dx.

The stopping time walks the dyadic tree from the root and selects a cube
the first time its v-average of f exceeds t.  Selected cubes {Q_j} carry
the good/bad split g + sum_j b_j with exact cell-wise reconstruction and
mean-zero bad parts.  Signed f is supported by running the stopping time
on |f| while the averages a_j (and hence g, b_j) use f itself, which keeps
int b_j v = 0 exact.

The off-Omega vanishing of the signed dyadic maximal of b v is decided
exactly, from three facts checked on the decomposition itself:

* b = 0 on every off-Omega cell, in the stored floats;
* the selected cubes are pairwise disjoint (their sorted cell ranges do
  not overlap), so every dyadic ancestor of an off-Omega cell is a union
  of whole selected cubes and off-Omega cells;
* int_{Q_j} (f - a_j) v = 0 on every selected cube, summed in rational
  arithmetic (every float lifts exactly to a Fraction) with the rational
  a_j = sum f v / sum v.

So int_Q b v = 0 on every such ancestor Q, and "exactly zero" is a
computed fact, not a tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .constants import DIM, ap_constant
from .errors import ConfigError
from .grid import Cube, cells_of, children, pyramid
from .maximal import dyadic_maximal
from .weights import GridFunction, GridWeight


@dataclass
class CZDecomposition:
    height: float
    cubes: list[Cube]
    averages: list[float]  # signed v-averages a_j of f over Q_j
    selection_averages: list[float]  # v-averages of |f| (the stopping values)
    good: GridFunction
    bad_total: GridFunction
    source: GridFunction
    weight: GridWeight
    truncated: bool  # root v-average of |f| already exceeded t

    @property
    def omega_mask(self) -> np.ndarray:
        mask = np.zeros(self.good.grid.ncells, dtype=bool)
        for q in self.cubes:
            r = cells_of(self.good.grid, q)
            mask[r.start : r.stop] = True
        return mask

    def to_json_dict(self) -> dict:
        return {
            "t": self.height,
            "cubes": [
                {"level": q.level, "index": q.index, "avg": a}
                for q, a in zip(self.cubes, self.averages)
            ],
            "truncated": self.truncated,
        }


def cz_decompose(f: GridFunction, v: GridWeight, t: float) -> CZDecomposition:
    """Stopping-time decomposition of f at height t w.r.t. the measure v dx."""
    if not t > 0:
        raise ConfigError(f"CZ height must be positive, got {t}")
    if f.grid != v.grid:
        raise ConfigError("f and v on different grids")
    grid = f.grid
    if np.any(v.cell_masses <= 0) or not np.all(np.isfinite(v.cell_masses)):
        raise ConfigError("CZ decomposition needs strictly positive finite v-mass per cell")
    abs_pyr = pyramid(np.abs(f.values) * v.cell_masses)
    signed_pyr = pyramid(f.values * v.cell_masses)

    def avg(pyr, q: Cube) -> float:
        d = grid.L - q.level
        return float(pyr[d][q.index] / v.mass.levels[d][q.index])

    root = grid.root
    truncated = avg(abs_pyr, root) > t
    cubes: list[Cube] = []
    sel_avgs: list[float] = []
    stack = [root]
    while stack:
        q = stack.pop()
        val = avg(abs_pyr, q)
        if val > t:
            cubes.append(q)
            sel_avgs.append(val)
            continue
        if q.level < grid.L:
            left, right = children(grid, q)
            stack.append(right)
            stack.append(left)  # popped first: cubes come out left to right
    averages = [avg(signed_pyr, q) for q in cubes]

    good_vals = f.values.copy()
    bad_vals = np.zeros_like(f.values)
    for q, a in zip(cubes, averages):
        r = cells_of(grid, q)
        sl = slice(r.start, r.stop)
        bad_vals[sl] = f.values[sl] - a
        good_vals[sl] = a
    return CZDecomposition(
        height=t,
        cubes=cubes,
        averages=averages,
        selection_averages=sel_avgs,
        good=GridFunction(grid, good_vals),
        bad_total=GridFunction(grid, bad_vals),
        source=f,
        weight=v,
        truncated=truncated,
    )


# ---------------------------------------------------------------------------
# verification

@dataclass
class CheckResult:
    ok: bool
    worst: float  # worst margin (check-specific; see verify_cz)
    detail: str = ""

    def to_json_dict(self) -> dict:
        return {"ok": self.ok, "worst": self.worst, "detail": self.detail}


@dataclass
class CZVerifyReport:
    r: float
    ar: float
    bound: float  # 2^{nr} [v]_{A_r} * t
    above_height: CheckResult  # (i)  t < a_j
    average_bound: CheckResult  # (ii) a_j <= 2^{nr} [v]_{A_r} t
    good_bound: CheckResult  # (iii) |g| <= 2^{nr} [v]_{A_r} t a.e.
    cancellation: CheckResult  # (iv) int_{Q_j} b_j v = 0
    small_off_omega: CheckResult  # (v)  |f| <= t off Omega
    mass_accounting: CheckResult  # sum_j v(Q_j) <= (1/t) int |f| v

    @property
    def all_ok(self) -> bool:
        return all(
            c.ok
            for c in (
                self.above_height,
                self.average_bound,
                self.good_bound,
                self.cancellation,
                self.small_off_omega,
                self.mass_accounting,
            )
        )

    def to_json_dict(self) -> dict:
        return {
            "r": self.r,
            "a_r_constant": self.ar,
            "bound": self.bound,
            "checks": {
                "above_height": self.above_height.to_json_dict(),
                "average_bound": self.average_bound.to_json_dict(),
                "good_bound": self.good_bound.to_json_dict(),
                "cancellation": self.cancellation.to_json_dict(),
                "small_off_omega": self.small_off_omega.to_json_dict(),
                "mass_accounting": self.mass_accounting.to_json_dict(),
            },
            "pass": self.all_ok,
        }


def verify_cz(
    dec: CZDecomposition,
    v: GridWeight,
    r: float,
    rtol: float = 1e-12,
) -> CZVerifyReport:
    """Re-check the five defining properties of the decomposition.

    Verification never raises; every check reports pass/fail with its worst
    offender.  The average bound (ii) goes through the parent-cube route
    a_j <= (v(Q'_j)/v(Q_j)) avg_{Q'_j} <= 2^{nr} [v]_{A_r} t and is skipped
    for a truncated root selection (no parent to bound through).
    """
    if not r > 1:
        raise ConfigError(f"verify_cz needs r > 1, got {r}")
    grid = dec.good.grid
    t = dec.height
    ar = ap_constant(v, r)
    bound = 2.0 ** (DIM * r) * ar * t
    tol = 1.0 + rtol

    # (i) t < a_j on the stopping averages
    worst_i = min((a / t for a in dec.selection_averages), default=math.inf)
    check_i = CheckResult(all(a > t for a in dec.selection_averages), worst_i,
                          "min selection average over t")

    # (ii) selection averages against the doubling bound
    worst_ii = 0.0
    ok_ii = True
    for q, a in zip(dec.cubes, dec.selection_averages):
        if q.level == -grid.J:
            continue  # truncated root: flagged, no parent route
        worst_ii = max(worst_ii, a / bound)
        if a > bound * tol:
            ok_ii = False
    check_ii = CheckResult(ok_ii, worst_ii, "max selection average over 2^{nr}[v]_{A_r} t")

    # (iii) |g| <= bound cell-wise; a truncated root selection has no parent
    # route, so only off-Omega values and non-root averages are in scope
    gmax = 0.0
    mask_root = np.zeros(grid.ncells, dtype=bool)
    for q, a in zip(dec.cubes, dec.averages):
        if q.level == -grid.J:
            mask_root[:] = True
            continue
        gmax = max(gmax, abs(a))
    off_root = ~mask_root
    if off_root.any():
        gmax = max(gmax, float(np.abs(np.where(off_root, dec.good.values, 0.0)).max()))
    check_iii = CheckResult(gmax <= bound * tol, gmax / bound, "max |g| over bound")

    # (iv) cancellation, relative to int_{Q_j} |f| v
    worst_iv = 0.0
    for j, q in enumerate(dec.cubes):
        rng = cells_of(grid, q)
        sl = slice(rng.start, rng.stop)
        resid = abs(float(np.sum(dec.bad_total.values[sl] * v.cell_masses[sl])))
        scale = float(np.sum(np.abs(dec.source.values[sl]) * v.cell_masses[sl]))
        if scale > 0:
            worst_iv = max(worst_iv, resid / scale)
    check_iv = CheckResult(worst_iv <= 1e-12, worst_iv, "max |int b_j v| / int_{Q_j} |f| v")

    # (v) |f| <= t off Omega (exact: unselected cells never exceeded t)
    mask = dec.omega_mask
    off = np.abs(dec.source.values[~mask])
    worst_v = float(off.max() / t) if off.size else 0.0
    check_v = CheckResult(bool(np.all(off <= t)), worst_v, "max |f|/t off Omega")

    # mass accounting: sum_j v(Q_j) <= (1/t) int |f| v
    vsum = sum(v.mass_of(q) for q in dec.cubes)
    total = float(np.sum(np.abs(dec.source.values) * v.cell_masses))
    ok_m = vsum * t <= total * tol
    check_m = CheckResult(ok_m, (vsum * t / total) if total > 0 else 0.0,
                          "t sum_j v(Q_j) over int |f| v")

    return CZVerifyReport(
        r=r,
        ar=ar,
        bound=bound,
        above_height=check_i,
        average_bound=check_ii,
        good_bound=check_iii,
        cancellation=check_iv,
        small_off_omega=check_v,
        mass_accounting=check_m,
    )


# ---------------------------------------------------------------------------
# pointwise domination M_d(fv) <= M_d(gv) + Mtilde_d(bv)

@dataclass
class DominationReport:
    domination_ok: bool
    max_violation: float  # max of (lhs - rhs) / scale, cell-wise
    off_omega_exact_zero: bool  # exact rational evaluation of Mtilde_d(bv)
    off_omega_float_residual: float  # float-path max off Omega

    @property
    def all_ok(self) -> bool:
        return self.domination_ok and self.off_omega_exact_zero

    def to_json_dict(self) -> dict:
        return {
            "domination_ok": self.domination_ok,
            "max_violation": self.max_violation,
            "off_omega_exact_zero": self.off_omega_exact_zero,
            "off_omega_float_residual": self.off_omega_float_residual,
            "pass": self.all_ok,
        }


def _off_omega_exact_zero(dec: CZDecomposition, v: GridWeight) -> bool:
    """Whether Mtilde_d(bv) vanishes exactly on every off-Omega cell.

    Three facts decide it in O(N) plus one rational sum per selected cube:
    b = 0 off Omega in the stored floats; the selected cubes are pairwise
    disjoint, so every dyadic ancestor of an off-Omega cell is a union of
    whole selected cubes and off-Omega cells; and int_{Q_j} (f - a_j) v = 0
    in rationals, with a_j = sum f v / sum v over Q_j.
    """
    grid = dec.good.grid
    ranges = sorted((cells_of(grid, q) for q in dec.cubes), key=lambda r: (r.start, r.stop))
    if any(r.stop > s.start for r, s in zip(ranges, ranges[1:])):
        return False
    if np.any(dec.bad_total.values[~dec.omega_mask] != 0):
        return False
    for r in ranges:
        f = dec.source.values[r.start : r.stop].tolist()
        vm = v.cell_masses[r.start : r.stop].tolist()
        fv = sum(Fraction(x) * Fraction(y) for x, y in zip(f, vm))
        vs = sum(map(Fraction, vm))
        if fv - fv / vs * vs != 0:  # int_{Q_j} (f - a_j) v with a_j = fv / vs
            return False
    return True


def pointwise_domination_check(
    dec: CZDecomposition,
    v: GridWeight,
    rtol: float = 1e-12,
) -> DominationReport:
    """Cell-wise M_d(fv) <= M_d(gv) + Mtilde_d(bv), and the vanishing of
    Mtilde_d(bv) off Omega.

    The float inequality is checked at relative tolerance rtol; the
    off-Omega vanishing is decided in exact rational arithmetic over the
    decomposition's defining averages, alongside the float-path residual.
    """
    grid = dec.good.grid
    vrep = v.cell_values
    fv = GridFunction(grid, dec.source.values * vrep)
    gv = GridFunction(grid, dec.good.values * vrep)
    bv = GridFunction(grid, dec.bad_total.values * vrep)
    lhs = dyadic_maximal(fv).values
    tilde = dyadic_maximal(bv, signed=True).values
    rhs = dyadic_maximal(gv).values + tilde
    scale = np.maximum(np.abs(lhs), 1e-300)
    viol = float(((lhs - rhs) / scale).max())
    dominated = bool(np.all(lhs <= rhs * (1.0 + rtol) + 1e-300))

    off = ~dec.omega_mask
    float_resid = float(tilde[off].max()) if off.any() else 0.0
    return DominationReport(
        domination_ok=dominated,
        max_violation=viol,
        off_omega_exact_zero=_off_omega_exact_zero(dec, v),
        off_omega_float_residual=float_resid,
    )
