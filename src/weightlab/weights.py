"""Exact per-cell integral representation of weights and test functions.

Every supported weight is, restricted to a single grid cell, of the local
form w(x) = c x^q with c > 0 and q <= 0.  All cached tables (mass, dual
mass w^{1-p'}, power mass w^r, log mass) are closed-form integrals of that
local form, so piecewise-constant weights (q = 0 everywhere) are handled
exactly and power weights x^(delta-1) are exact per cell.  Divergent cell
integrals (possible for dual/power tables of power weights at the origin)
are stored as +inf sentinels and propagate through cube queries; they are
values, not failures.

Cube aggregates are served by ``CellTable``, which takes a ufunc (np.add
for integrals, np.minimum for the essential infimum) and reduces with
``grid.pyramid``, pairwise, so mass(parent) == mass(child) + mass(sibling)
holds exactly in floating point, not just in exact arithmetic.  Weight
values, from Python or from a CSV file, pass one check: positive and finite.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import ConfigError, CsvFormatError, UncachedExponentError
from .grid import Cube, Grid, pyramid


# ---------------------------------------------------------------------------
# weight specifications

@dataclass(frozen=True)
class Constant:
    c: float

    def __post_init__(self):
        if not (math.isfinite(self.c) and self.c > 0):
            raise ConfigError(f"Constant weight needs a finite c > 0, got {self.c}")


@dataclass(frozen=True)
class Power:
    """w(x) = x^(delta-1) on (0, oo), 0 < delta < 1."""

    delta: float

    def __post_init__(self):
        if not 0 < self.delta < 1:
            raise ConfigError(f"Power weight needs 0 < delta < 1, got {self.delta}")


@dataclass(frozen=True)
class Step:
    """w = alpha on (0,1), 1 elsewhere, 0 < alpha <= 1."""

    alpha: float

    def __post_init__(self):
        if not 0 < self.alpha <= 1:
            raise ConfigError(f"Step weight needs 0 < alpha <= 1, got {self.alpha}")


def _bad_weight_value(values) -> tuple[int, str] | None:
    """Index and complaint of the first value that is not positive and finite."""
    vals = np.asarray(values, dtype=float)
    bad = np.flatnonzero(~((vals > 0) & (vals < np.inf)))  # NaN fails both
    if not len(bad):
        return None
    v = values[bad[0]]
    return int(bad[0]), f"weight value must be {'finite' if v > 0 else 'positive'}, got {v}"


@dataclass(frozen=True)
class Piecewise:
    """Constant value per grid cell."""

    values: tuple[float, ...]

    def __post_init__(self):
        bad = _bad_weight_value(self.values)
        if bad:
            raise ConfigError(f"Piecewise weight cell {bad[0]}: {bad[1]}")


@dataclass(frozen=True)
class Product:
    left: "WeightSpec"
    right: "WeightSpec"


WeightSpec = Union[Constant, Power, Step, Piecewise, Product]


def local_form(spec: WeightSpec, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell (coef, exponent) arrays with w(x) = coef * x^exponent on the cell."""
    n = grid.ncells
    if isinstance(spec, Constant):
        return np.full(n, float(spec.c)), np.zeros(n)
    if isinstance(spec, Power):
        return np.ones(n), np.full(n, spec.delta - 1.0)
    if isinstance(spec, Step):
        coef = np.ones(n)
        unit_cells = min(n, 1 << grid.L)  # cells inside [0, 1)
        coef[:unit_cells] = spec.alpha
        return coef, np.zeros(n)
    if isinstance(spec, Piecewise):
        if len(spec.values) != n:
            raise ConfigError(
                f"Piecewise weight has {len(spec.values)} cells, grid needs {n}"
            )
        return np.asarray(spec.values, dtype=float), np.zeros(n)
    if isinstance(spec, Product):
        cl, ql = local_form(spec.left, grid)
        cr, qr = local_form(spec.right, grid)
        return cl * cr, ql + qr
    raise ConfigError(f"unknown weight spec {spec!r}")


# ---------------------------------------------------------------------------
# closed-form cell integrals

def _xlogx(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = x[pos] * np.log(x[pos])
    return out


def _power_integral(a: np.ndarray, b: np.ndarray, coef: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Elementwise integral of coef * x^t over [a, b), +inf where divergent."""
    coef = np.broadcast_to(np.asarray(coef, dtype=float), a.shape)
    t = np.broadcast_to(np.asarray(t, dtype=float), a.shape)
    out = np.empty_like(a)
    at_log = t == -1.0
    tp = t + 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        gen = ~at_log
        out[gen] = coef[gen] * (b[gen] ** tp[gen] - a[gen] ** tp[gen]) / tp[gen]
        # a == 0 with tp < 0 gives 0^negative; force the divergent sentinel
        div = gen & (tp < 0) & (a == 0.0)
        out[div] = np.inf
        if np.any(at_log):
            out[at_log] = coef[at_log] * (np.log(b[at_log]) - np.log(a[at_log]))
            out[at_log & (a == 0.0)] = np.inf
    return out


def _log_integral(a: np.ndarray, b: np.ndarray, coef: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Integral of log(coef * x^q) = log(coef) + q log(x) over [a, b)."""
    return (b - a) * np.log(coef) + q * ((_xlogx(b) - b) - (_xlogx(a) - a))


def _local_essinf(a: np.ndarray, b: np.ndarray, coef: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Essential infimum of coef * x^q over [a, b): at b for q < 0 (the
    native weight classes), at a for q > 0 (dual weights of power specs)."""
    out = coef.copy()
    dec = q < 0
    out[dec] = coef[dec] * b[dec] ** q[dec]
    inc = q > 0
    out[inc] = coef[inc] * a[inc] ** q[inc]
    return out


# ---------------------------------------------------------------------------
# reduction pyramids

class CellTable:
    """Per-cell values plus the full reduction pyramid over dyadic cubes.

    levels[d] holds the reduction by the ufunc ``op`` (np.add for integrals,
    np.minimum for essential infima) at cube level k = L - d, built by
    ``grid.pyramid``, which makes parent = op(child, sibling) exact in floats.
    """

    __slots__ = ("levels",)

    def __init__(self, values: np.ndarray, op=np.add):
        self.levels = pyramid(np.asarray(values, dtype=float), op)

    @property
    def cells(self) -> np.ndarray:
        return self.levels[0]

    def at_level(self, grid: Grid, k: int) -> np.ndarray:
        return self.levels[grid.L - k]

    def of(self, grid: Grid, Q: Cube) -> float:
        return float(self.levels[grid.L - Q.level][Q.index])


# ---------------------------------------------------------------------------
# grid weights and functions

def _conjugate(p: float) -> float:
    if not p > 1:
        raise ConfigError(f"dual exponent needs p > 1, got {p}")
    return p / (p - 1.0)


@dataclass
class GridWeight:
    """A weight realized on a grid: exact cell integrals plus pyramids.

    ``coef``/``expo`` keep the local form so further tables (other
    exponents, dual weights, products) can be derived exactly later.
    """

    grid: Grid
    coef: np.ndarray
    expo: np.ndarray
    mass: CellTable
    essinf: CellTable
    logmass: CellTable
    duals: dict[float, CellTable] = field(default_factory=dict)
    powers: dict[float, CellTable] = field(default_factory=dict)
    spec: WeightSpec | None = None

    # -- cell-level views ---------------------------------------------------
    @property
    def cell_masses(self) -> np.ndarray:
        return self.mass.cells

    @property
    def cell_values(self) -> np.ndarray:
        """Cell representatives mass/width (exact cell value for piecewise)."""
        return self.mass.cells / self.grid.cell_width

    @property
    def is_piecewise(self) -> bool:
        return bool(np.all(self.expo == 0.0))

    # -- cube queries --------------------------------------------------------
    def mass_of(self, Q: Cube) -> float:
        return self.mass.of(self.grid, Q)

    def essinf_of(self, Q: Cube) -> float:
        return self.essinf.of(self.grid, Q)

    def log_mass_of(self, Q: Cube) -> float:
        return self.logmass.of(self.grid, Q)

    def dual_mass_of(self, Q: Cube, p: float) -> float:
        if p not in self.duals:
            raise UncachedExponentError(
                f"dual mass for p={p} not cached; re-realize via with_cached(w, dual=({p},))"
            )
        return self.duals[p].of(self.grid, Q)

    def power_mass_of(self, Q: Cube, r: float) -> float:
        if r not in self.powers:
            raise UncachedExponentError(
                f"power mass for r={r} not cached; re-realize via with_cached(w, power=({r},))"
            )
        return self.powers[r].of(self.grid, Q)

    def avg(self, Q: Cube) -> float:
        return self.mass_of(Q) / Q.length


@dataclass
class GridFunction:
    """Piecewise-constant function: one value per cell."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.ncells,):
            raise ConfigError(
                f"function has {self.values.shape} values, grid needs {self.grid.ncells}"
            )


def _cell_edges(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    edges = np.arange(grid.ncells + 1, dtype=float) * grid.cell_width
    return edges[:-1], edges[1:]


def _from_local_form(
    grid: Grid,
    coef: np.ndarray,
    expo: np.ndarray,
    dual: tuple[float, ...] = (),
    power: tuple[float, ...] = (),
    spec: WeightSpec | None = None,
) -> GridWeight:
    a, b = _cell_edges(grid)
    w = GridWeight(
        grid=grid,
        coef=coef,
        expo=expo,
        mass=CellTable(_power_integral(a, b, coef, expo)),
        essinf=CellTable(_local_essinf(a, b, coef, expo), np.minimum),
        logmass=CellTable(_log_integral(a, b, coef, expo)),
        spec=spec,
    )
    return _cache_tables(w, dual, power)


def _cache_tables(w: GridWeight, dual: tuple[float, ...], power: tuple[float, ...]) -> GridWeight:
    """Add the dual tables w^(1-p') and the power tables w^r to w in place."""
    a, b = _cell_edges(w.grid)

    def table(s: float) -> CellTable:
        return CellTable(_power_integral(a, b, w.coef**s, w.expo * s))

    for p in dual:
        w.duals[p] = table(1.0 - _conjugate(p))
    for r in power:
        if not r > 0:
            raise ConfigError(f"power exponent needs r > 0, got {r}")
        w.powers[r] = table(r)
    return w


def realize(
    spec: WeightSpec,
    grid: Grid,
    dual_exponents: tuple[float, ...] = (),
    power_exponents: tuple[float, ...] = (),
) -> GridWeight:
    """Realize an analytic weight spec on a grid with the requested caches."""
    coef, expo = local_form(spec, grid)
    return _from_local_form(grid, coef, expo, dual_exponents, power_exponents, spec)


def with_cached(
    w: GridWeight,
    dual: tuple[float, ...] = (),
    power: tuple[float, ...] = (),
) -> GridWeight:
    """Return w itself if all exponents are cached, else an extended copy."""
    need_dual = tuple(p for p in dual if p not in w.duals)
    need_power = tuple(r for r in power if r not in w.powers)
    if not need_dual and not need_power:
        return w
    out = dataclasses.replace(w, duals=dict(w.duals), powers=dict(w.powers))
    return _cache_tables(out, need_dual, need_power)


def dual_weight(w: GridWeight, p: float) -> GridWeight:
    """The dual weight sigma = w^(-1/(p-1)) = w^(1-p'), realized cell-wise."""
    s = 1.0 - _conjugate(p)
    return _from_local_form(w.grid, w.coef**s, w.expo * s)


def product_cell_masses(u: GridWeight, v: GridWeight) -> np.ndarray:
    """Exact per-cell integrals of the pointwise product u*v."""
    if u.grid != v.grid:
        raise ConfigError("product of weights on different grids")
    a, b = _cell_edges(u.grid)
    return _power_integral(a, b, u.coef * v.coef, u.expo + v.expo)


# ---------------------------------------------------------------------------
# CSV interchange: one decimal per line, LF-terminated

def _read_rows(path) -> list[float]:
    rows: list[float] = []
    with open(path, "r", encoding="ascii") as fh:
        for i, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                raise CsvFormatError(i, "empty row")
            try:
                rows.append(float(text))
            except ValueError:
                raise CsvFormatError(i, f"not a number: {text!r}") from None
    return rows


def load_csv(path, grid: Grid) -> GridWeight:
    """Load a piecewise weight: N positive rows, one value per cell."""
    rows = _read_weight_rows(path)
    if len(rows) != grid.ncells:
        raise CsvFormatError(len(rows) + 1, f"expected {grid.ncells} rows, got {len(rows)}")
    return realize(Piecewise(tuple(rows)), grid)


def _read_weight_rows(path) -> list[float]:
    """Rows of a weight CSV; each must be positive and finite."""
    rows = _read_rows(path)
    bad = _bad_weight_value(rows)
    if bad:
        raise CsvFormatError(bad[0] + 1, bad[1])
    return rows


def save_csv(w: GridWeight, path) -> None:
    """Write cell representatives; exact round trip for piecewise weights."""
    _write_rows(path, w.cell_values)


def load_function_csv(path, grid: Grid) -> GridFunction:
    rows = _read_rows(path)
    if len(rows) != grid.ncells:
        raise CsvFormatError(len(rows) + 1, f"expected {grid.ncells} rows, got {len(rows)}")
    vals = np.asarray(rows)
    bad = np.flatnonzero(~np.isfinite(vals))
    if len(bad):
        raise CsvFormatError(int(bad[0]) + 1, f"function value must be finite, got {rows[bad[0]]}")
    return GridFunction(grid, vals)


def save_function_csv(f: GridFunction, path) -> None:
    _write_rows(path, f.values)


def _write_rows(path, values: np.ndarray) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for v in values:
            fh.write(repr(float(v)))
            fh.write("\n")


# ---------------------------------------------------------------------------
# weight-spec string grammar (CLI surface):
#   const:c=<v> | power:delta=<v> | step:alpha=<v> | csv:<path>
#   | prod:(<spec>,<spec>)

def parse_weight_spec(text: str) -> WeightSpec:
    text = text.strip()
    if text.startswith("const:"):
        return Constant(_parse_kv(text[6:], "c"))
    if text.startswith("power:"):
        return Power(_parse_kv(text[6:], "delta"))
    if text.startswith("step:"):
        return Step(_parse_kv(text[5:], "alpha"))
    if text.startswith("csv:"):
        return Piecewise(tuple(_read_weight_rows(text[4:])))
    if text.startswith("prod:"):
        body = text[5:]
        if not (body.startswith("(") and body.endswith(")")):
            raise ConfigError(f"prod spec needs parentheses, got {text!r}")
        left, right = _split_spec_pair(body[1:-1])
        return Product(parse_weight_spec(left), parse_weight_spec(right))
    raise ConfigError(f"unknown weight spec {text!r}")


def _parse_kv(body: str, key: str) -> float:
    if not body.startswith(key + "="):
        raise ConfigError(f"expected {key}=<value>, got {body!r}")
    try:
        return float(body[len(key) + 1 :])
    except ValueError:
        raise ConfigError(f"bad numeric value in {body!r}") from None


def _split_spec_pair(body: str) -> tuple[str, str]:
    depth = 0
    for i, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            return body[:i], body[i + 1 :]
    raise ConfigError(f"prod spec needs a top-level comma: {body!r}")
