"""Weak L^1 quasi-norms, L^p norms, and the mixed weak-type ratio.

For piecewise-constant h and a cell-mass measure mu, the supremum in
sup_t t mu({h > t}) is attained in the limit t up to a cell value, so
the exact value is max over distinct cell values s of s * mu({h >= s}).
Level sets are cell unions throughout; no sub-cell splitting happens here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from . import maximal
from .weights import GridFunction, GridWeight, product_cell_masses


def _cell_masses(mu) -> np.ndarray:
    if isinstance(mu, GridWeight):
        return mu.cell_masses
    return np.asarray(mu, dtype=float)


def weak_l1_norm(h: GridFunction, mu) -> tuple[float, float]:
    """||h||_{L^{1,inf}(mu)} and the attaining threshold t*.

    Returns (value, t_star) with value = t_star * mu({h >= t_star}); the
    sup over t of t mu({h > t}) approaches this as t increases to t_star.
    """
    vals = h.values
    if np.any(vals < 0):
        raise ConfigError("weak_l1_norm needs h >= 0")
    masses = _cell_masses(mu)
    order = np.argsort(-vals, kind="stable")
    sv = vals[order]
    cum = np.cumsum(masses[order])
    # candidate thresholds: last index of each run of equal values
    ends = np.nonzero(np.diff(sv) != 0)[0]
    ends = np.concatenate([ends, [len(sv) - 1]])
    cand = sv[ends] * cum[ends]
    pos = sv[ends] > 0
    if not pos.any():
        return 0.0, 0.0
    cand = cand[pos]
    ends = ends[pos]
    best = int(np.argmax(cand))
    return float(cand[best]), float(sv[ends[best]])


def weak_l1_threshold_scan(h: GridFunction, mu, n: int = 1000) -> float:
    """Brute-force lower bound: max over an n-point threshold grid of
    t * mu({h > t}).  Never exceeds the exact quasi-norm."""
    vals = h.values
    masses = _cell_masses(mu)
    top = float(vals.max(initial=0.0))
    if top <= 0:
        return 0.0
    best = 0.0
    for t in np.linspace(0.0, top, n, endpoint=False):
        if t <= 0:
            continue
        best = max(best, t * float(masses[vals > t].sum()))
    return best


def l1_norm(h: GridFunction, mu) -> float:
    return float(np.sum(np.abs(h.values) * _cell_masses(mu)))


def lp_norm(h: GridFunction, mu, p: float) -> float:
    if p < 1:
        raise ConfigError(f"lp_norm needs p >= 1, got {p}")
    return float(np.sum(np.abs(h.values) ** p * _cell_masses(mu)) ** (1.0 / p))


@dataclass
class WeakTypeReport:
    """Mixed weak-type ratio ||Op(fv)/v||_{L^{1,inf}(uv)} / ||f||_{L^1(uv)}."""

    variant: str
    numerator: float
    t_star: float
    levelset_mass: float
    denominator: float
    ratio: float

    def to_json_dict(self) -> dict:
        return {
            "variant": self.variant,
            "numerator": self.numerator,
            "t_star": self.t_star,
            "levelset_mass": self.levelset_mass,
            "denominator": self.denominator,
            "ratio": self.ratio,
        }


def mixed_ratio(
    f: GridFunction,
    u: GridWeight,
    v: GridWeight,
    variant: str = "Md",
) -> WeakTypeReport:
    """The weak-type functional at the heart of the mixed inequalities.

    h = Op(f*v)/v is formed cell-wise with the representative v = mass/width
    (exact for piecewise weights, the documented source of grid loss for
    power weights); the numerator measure is the exact cell integral of u*v.
    """
    if f.grid != u.grid or f.grid != v.grid:
        raise ConfigError("mixed_ratio needs f, u, v on one grid")
    if not np.any(f.values):
        raise ConfigError("f is zero: the mixed ratio is undefined")
    vrep = v.cell_values
    ok = (vrep > 0) & np.isfinite(vrep)
    if not ok.all():
        raise ConfigError(f"v cell representative is not positive and finite at cell {int(np.argmin(ok))}")
    uv = product_cell_masses(u, v)
    with np.errstate(invalid="ignore"):  # f = 0 on a cell of infinite uv mass
        denominator = l1_norm(f, uv)
    if denominator == 0:
        raise ConfigError("the L1(uv) norm of f underflows to 0: the mixed ratio is undefined")
    if not denominator < math.inf:  # inf, or NaN from 0 * inf
        raise ConfigError("the L1(uv) norm of f is not finite: the mixed ratio is undefined")
    fv = GridFunction(f.grid, f.values * vrep)
    if variant == "Md":
        op = maximal.dyadic_maximal(fv)
    elif variant == "M":
        op = maximal.uncentered_maximal(fv)
    else:
        raise ConfigError(f"unknown operator variant {variant!r} (use Md or M)")
    h = GridFunction(f.grid, op.values / vrep)
    numerator, t_star = weak_l1_norm(h, uv)
    level_mass = t_star and numerator / t_star
    return WeakTypeReport(
        variant=variant,
        numerator=numerator,
        t_star=t_star,
        levelset_mass=float(level_mass),
        denominator=denominator,
        ratio=numerator / denominator,
    )
