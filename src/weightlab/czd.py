"""Calderon-Zygmund decomposition at height t with respect to v dx.

The stopping time selects the first cubes, from the root down, whose
v-average of f exceeds t: grid.first_cubes on the per-level averages, one
top-down pass, kept as the cube set (d, idx) it returns.  Selected cubes
{Q_j} carry the good/bad split g + sum_j b_j with exact cell-wise
reconstruction and mean-zero bad parts.  Signed f is supported by running
the stopping time on |f| while the averages a_j (and hence g, b_j) use f
itself, which keeps int b_j v = 0 exact, and by dominating the signed
maximal Mtilde_d(fv).

Every per-cube quantity goes through grid.level_rows and grid.rows, one
numpy call per cube size: the good/bad fill, the Omega mask and checks
(i)-(v) and the mass accounting of verify_cz.  A per-cube sum is the
row-wise np.sum, bitwise numpy's pairwise sum of the cube's cell slice;
the worsts use np.fmin/np.fmax, which skip NaN as a running Python
min/max from a non-NaN start does.

The off-Omega vanishing of the signed dyadic maximal of b v is decided
exactly, from two facts checked on the decomposition itself:

* b = 0 on every off-Omega cell, in the stored floats;
* the selected cubes are pairwise disjoint (their sizes add up to the
  cells they cover), so every dyadic ancestor of an off-Omega cell is a
  union of whole selected cubes and off-Omega cells.

On each selected cube the rational bad part has mean zero by identity:
with a_j = sum f v / sum v in rationals, sum (f - a_j) v = 0 whenever
sum v > 0, and cz_decompose refuses a cell of zero v-mass.  So
int_Q b v = 0 on every such ancestor Q, and "exactly zero" is a computed
fact, not a tolerance.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .constants import DIM, ap_constant, pow_or_inf
from .errors import ConfigError
from .grid import (Cube, as_cubes, cube_entries, finite_product, first_cubes, level_rows, pyramid,
                   rows, sum_pyramid)
from .maximal import dyadic_maximal
from .weights import GridFunction, GridWeight, require_finite_masses


@dataclass
class CZDecomposition:
    height: float
    d: np.ndarray  # the selected cubes as a cube set: Q_j has 2^d[j] cells
    idx: np.ndarray  # and is row idx[j] of grid.rows(values, d[j])
    averages: list[float]  # signed v-averages a_j of f over Q_j
    selection_averages: list[float]  # v-averages of |f| (the stopping values)
    good: GridFunction
    bad_total: GridFunction
    source: GridFunction
    truncated: bool  # root v-average of |f| already exceeded t

    @property
    def cubes(self) -> list[Cube]:
        return as_cubes(self.good.grid, self.d, self.idx)

    @property
    def omega_mask(self) -> np.ndarray:
        mask = np.zeros(self.good.grid.ncells, dtype=bool)
        for d, _, idx in level_rows(self.good.grid, self.d, self.idx):
            rows(mask, d)[idx] = True
        return mask

    def to_json_dict(self) -> dict:
        levels = (self.good.grid.L - self.d).tolist()
        return {
            "t": self.height,
            "cubes": [
                {"level": k, "index": i, "avg": a}
                for k, i, a in zip(levels, self.idx.tolist(), self.averages)
            ],
            "truncated": self.truncated,
        }


def cz_decompose(f: GridFunction, v: GridWeight, t: float) -> CZDecomposition:
    """Stopping-time decomposition of f at height t w.r.t. the measure v dx."""
    if not 0 < t < math.inf:
        raise ConfigError(f"CZ height must be positive and finite, got {t}")
    if f.grid != v.grid:
        raise ConfigError("f and v on different grids")
    grid = f.grid
    require_finite_masses(v, "the CZ decomposition")
    vsums = v.mass
    fv = finite_product(f.values, v.cell_masses, "the CZ decomposition")
    abs_sums = sum_pyramid(np.abs(fv), "the CZ decomposition")
    sel = [s / m for s, m in zip(abs_sums, vsums)]
    signed = pyramid(fv)  # finite where the sums of |f| v are
    ds, idxs = first_cubes([a > t for a in sel])
    sel_avgs = np.empty(len(ds))
    averages = np.empty(len(ds))
    good_vals = f.values.copy()
    bad_vals = np.zeros(grid.ncells)
    for d, pos, idx in level_rows(grid, ds, idxs):
        sel_avgs[pos] = sel[d][idx]
        a = signed[d][idx] / vsums[d][idx]
        averages[pos] = a
        rows(bad_vals, d)[idx] = rows(f.values, d)[idx] - a[:, None]
        rows(good_vals, d)[idx] = a[:, None]
    return CZDecomposition(
        height=t,
        d=ds,
        idx=idxs,
        averages=averages.tolist(),
        selection_averages=sel_avgs.tolist(),
        good=GridFunction(grid, good_vals),
        bad_total=GridFunction(grid, bad_vals),
        source=f,
        truncated=bool(sel[-1][0] > t),
    )


# ---------------------------------------------------------------------------
# verification

@dataclass
class CheckResult:
    ok: bool
    worst: float  # worst margin (check-specific; see verify_cz)
    detail: str = ""

    def to_json_dict(self) -> dict:
        return asdict(self)


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

    CHECKS = ("above_height", "average_bound", "good_bound", "cancellation",
              "small_off_omega", "mass_accounting")

    @property
    def all_ok(self) -> bool:
        return all(getattr(self, name).ok for name in self.CHECKS)

    def to_json_dict(self) -> dict:
        d = asdict(self)
        d["checks"] = {name: d.pop(name) for name in self.CHECKS}
        d["a_r_constant"] = d.pop("ar")
        return d | {"pass": self.all_ok}


@np.errstate(over="ignore")  # a ratio that overflows is +inf
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
    if ar == 0.0:  # [v]_{A_r} >= 1: the dual weight's integrals underflow
        raise ConfigError(f"[v]_{{A_r}} at r = {r} underflows to 0; the bound of check (iii) would be 0")
    bound = pow_or_inf(2.0, DIM * r) * ar * t
    tol = 1.0 + rtol
    sel = np.asarray(dec.selection_averages, dtype=float)
    avg = np.asarray(dec.averages, dtype=float)
    # per cube: whether it is a proper cube (not the truncated root, which
    # has no parent route), int_{Q_j} b v, int_{Q_j} |f| v and v(Q_j)
    bv_sum, fv_sum = np.empty(len(dec.d)), np.empty(len(dec.d))
    bv = dec.bad_total.values * v.cell_masses
    fv = np.abs(dec.source.values) * v.cell_masses
    for d, pos, idx in level_rows(grid, dec.d, dec.idx):
        bv_sum[pos] = rows(bv, d)[idx].sum(axis=1)
        fv_sum[pos] = rows(fv, d)[idx].sum(axis=1)
    proper = dec.d < grid.J + grid.L
    vmass = cube_entries(grid, v.mass, dec.d, dec.idx)

    # (i) t < a_j on the stopping averages
    check_i = CheckResult(bool(np.all(sel > t)), float(np.fmin.reduce(sel / t, initial=math.inf)),
                          "min selection average over t")

    # (ii) selection averages against the doubling bound
    check_ii = CheckResult(not np.any(sel[proper] > bound * tol),
                           float(np.fmax.reduce(sel[proper] / bound, initial=0.0)),
                           "max selection average over 2^{nr}[v]_{A_r} t")

    # (iii) |g| <= bound cell-wise; a truncated root selection has no parent
    # route, so only off-Omega values and non-root averages are in scope
    gmax = float(np.fmax.reduce(np.abs(avg[proper]), initial=0.0))
    if proper.all():
        gmax = max(gmax, float(np.abs(dec.good.values).max()))
    check_iii = CheckResult(gmax <= bound * tol, gmax / bound, "max |g| over bound")

    # (iv) cancellation, relative to int_{Q_j} |f| v
    live = fv_sum > 0
    worst_iv = float(np.fmax.reduce(np.abs(bv_sum[live]) / fv_sum[live], initial=0.0))
    check_iv = CheckResult(worst_iv <= 1e-12, worst_iv, "max |int b_j v| / int_{Q_j} |f| v")

    # (v) |f| <= t off Omega (exact: unselected cells never exceeded t)
    off = np.abs(dec.source.values[~dec.omega_mask])
    worst_v = float(off.max() / t) if off.size else 0.0
    check_v = CheckResult(bool(np.all(off <= t)), worst_v, "max |f|/t off Omega")

    # mass accounting: sum_j v(Q_j) <= (1/t) int |f| v, summed in cube order
    vsum = sum(vmass.tolist())
    total = float(np.sum(fv))
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
# pointwise domination Mtilde_d(fv) <= M_d(gv) + Mtilde_d(bv)

@dataclass
class DominationReport:
    domination_ok: bool
    max_violation: float  # max of (lhs - rhs) / scale, cell-wise
    off_omega_exact_zero: bool  # exact vanishing of Mtilde_d(bv) off Omega
    off_omega_float_residual: float  # float-path max off Omega

    @property
    def all_ok(self) -> bool:
        return self.domination_ok and self.off_omega_exact_zero

    def to_json_dict(self) -> dict:
        return asdict(self) | {"pass": self.all_ok}


def _off_omega_exact_zero(dec: CZDecomposition, mask: np.ndarray) -> bool:
    """Whether Mtilde_d(bv) vanishes exactly on every off-Omega cell, given
    the Omega mask.

    Two facts decide it in O(N), and both are computed: b = 0 off Omega in
    the stored floats, and the selected cubes are pairwise disjoint (their
    sizes add up to the cells they cover), so every dyadic ancestor of an
    off-Omega cell is a union of whole selected cubes and off-Omega cells.
    The third fact, int_{Q_j} (f - a_j) v = 0 with the rational
    a_j = sum f v / sum v over Q_j, holds by identity whenever sum v > 0,
    which cz_decompose requires of every cell.
    """
    cells = int(np.sum(1 << dec.d))
    return cells == np.count_nonzero(mask) and not np.any(dec.bad_total.values[~mask] != 0)


def pointwise_domination_check(
    dec: CZDecomposition,
    v: GridWeight,
    rtol: float = 1e-12,
) -> DominationReport:
    """Cell-wise Mtilde_d(fv) <= M_d(gv) + Mtilde_d(bv), the triangle
    inequality on every cube (for f >= 0 the left side is M_d(fv), bit for
    bit), and the vanishing of Mtilde_d(bv) off Omega.

    The float inequality is checked at relative tolerance rtol; the
    off-Omega vanishing is decided exactly from the decomposition's
    structure (see the module docstring), alongside the float-path residual.
    """
    grid = dec.good.grid
    vrep = v.cell_values
    fv, gv, bv = (GridFunction(grid, finite_product(h.values, vrep, "the domination check"))
                  for h in (dec.source, dec.good, dec.bad_total))
    lhs = dyadic_maximal(fv, signed=True).values
    tilde = dyadic_maximal(bv, signed=True).values
    rhs = dyadic_maximal(gv).values + tilde
    scale = np.maximum(np.abs(lhs), 1e-300)
    with np.errstate(invalid="ignore"):  # inf - inf, where a cell of v is infinite
        viol = float(((lhs - rhs) / scale).max())
    # a NaN violation fails: inf <= inf would pass the cell-wise test
    dominated = bool(np.all(lhs <= rhs * (1.0 + rtol) + 1e-300)) and not math.isnan(viol)

    mask = dec.omega_mask
    off = ~mask
    float_resid = float(tilde[off].max()) if off.any() else 0.0
    return DominationReport(
        domination_ok=dominated,
        max_violation=viol,
        off_omega_exact_zero=_off_omega_exact_zero(dec, mask),
        off_omega_float_residual=float_resid,
    )
