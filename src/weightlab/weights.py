"""Exact per-cell integral representation of weights and test functions.

Every supported weight is, restricted to a single grid cell, of the local
form w(x) = c x^q with c > 0 and q <= 0.  All cached tables (mass, dual
mass w^{1-p'}, power mass w^r, log mass) are closed-form integrals of that
local form, so piecewise-constant weights (q = 0 everywhere) are handled
exactly and power weights x^(delta-1) are exact per cell.  Divergent cell
integrals (possible for dual/power tables of power weights at the origin)
are stored as +inf sentinels and propagate through cube queries; they are
values, not failures.  Finite cell masses whose cube sums overflow are
refused instead (``grid.sum_pyramid``): a constant over such a cube would
read inf where the weight's true average is finite.

Each table of a ``GridWeight`` is the ``grid.pyramid`` of its cell values,
a list whose entry [d] holds the cubes of 2^d cells (np.add for integrals,
np.minimum for the essential infimum), so w.mass[d][i] is the mass of the
i-th cube of that size and mass(parent) == mass(child) + mass(sibling)
holds exactly in floating point, not just in exact arithmetic.  Dual and
power tables are added by ``with_cached``.  Weight values, from Python or
from a CSV file, pass one check: positive and finite.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import ConfigError, CsvFormatError, UncachedExponentError
from .grid import Cube, Grid, build_grid, pyramid, sum_pyramid


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
# grid weights and functions

def _conjugate(p: float) -> float:
    if not p > 1:
        raise ConfigError(f"dual exponent needs p > 1, got {p}")
    return p / (p - 1.0)


@dataclass
class GridWeight:
    """A weight realized on a grid: exact cell integrals plus pyramids.

    Every table is a ``grid.pyramid`` list: entry [d] per cube of 2^d cells.
    ``duals[p]`` integrates w^(1-p') and ``powers[r]`` integrates w^r.
    ``coef``/``expo`` keep the local form so further tables (other
    exponents, dual weights, products) can be derived exactly later.
    """

    grid: Grid
    coef: np.ndarray
    expo: np.ndarray
    mass: list[np.ndarray]
    essinf: list[np.ndarray]
    logmass: list[np.ndarray]
    duals: dict[float, list[np.ndarray]] = field(default_factory=dict)
    powers: dict[float, list[np.ndarray]] = field(default_factory=dict)

    # -- cell-level views ---------------------------------------------------
    @property
    def cell_masses(self) -> np.ndarray:
        return self.mass[0]

    @property
    def cell_values(self) -> np.ndarray:
        """Cell representatives mass/width (exact cell value for piecewise)."""
        return self.mass[0] / self.grid.cell_width

    @property
    def is_piecewise(self) -> bool:
        return bool(np.all(self.expo == 0.0))

    # -- cube queries --------------------------------------------------------
    def _entry(self, levels: list[np.ndarray], Q: Cube) -> float:
        return float(levels[self.grid.L - Q.level][Q.index])

    def mass_of(self, Q: Cube) -> float:
        return self._entry(self.mass, Q)

    def essinf_of(self, Q: Cube) -> float:
        return self._entry(self.essinf, Q)

    def log_mass_of(self, Q: Cube) -> float:
        return self._entry(self.logmass, Q)

    def dual_mass_of(self, Q: Cube, p: float) -> float:
        if p not in self.duals:
            raise UncachedExponentError(
                f"dual mass for p={p} not cached; re-realize via with_cached(w, dual=({p},))"
            )
        return self._entry(self.duals[p], Q)

    def power_mass_of(self, Q: Cube, r: float) -> float:
        if r not in self.powers:
            raise UncachedExponentError(
                f"power mass for r={r} not cached; re-realize via with_cached(w, power=({r},))"
            )
        return self._entry(self.powers[r], Q)


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


def _from_local_form(grid: Grid, coef: np.ndarray, expo: np.ndarray) -> GridWeight:
    a, b = _cell_edges(grid)
    mass = _power_integral(a, b, coef, expo)
    if not np.all(mass > 0):
        raise ConfigError(f"weight has no positive mass on cell {int(np.argmin(mass > 0))}")
    return GridWeight(
        grid=grid,
        coef=coef,
        expo=expo,
        mass=sum_pyramid(mass, "the mass table of a weight"),
        essinf=pyramid(_local_essinf(a, b, coef, expo), np.minimum),
        logmass=pyramid(_log_integral(a, b, coef, expo)),
    )


def realize(spec: WeightSpec, grid: Grid) -> GridWeight:
    """Realize an analytic weight spec on a grid: mass, essinf and log mass."""
    return _from_local_form(grid, *local_form(spec, grid))


def with_cached(
    w: GridWeight,
    dual: tuple[float, ...] = (),
    power: tuple[float, ...] = (),
) -> GridWeight:
    """Return w itself if all exponents are cached, else a copy extended by
    the dual tables w^(1-p') and the power tables w^r it lacks."""
    need_dual = [p for p in dual if p not in w.duals]
    need_power = [r for r in power if r not in w.powers]
    if not need_dual and not need_power:
        return w
    out = dataclasses.replace(w, duals=dict(w.duals), powers=dict(w.powers))
    a, b = _cell_edges(w.grid)

    def table(s: float) -> list[np.ndarray]:
        return pyramid(_power_integral(a, b, w.coef**s, w.expo * s))

    for p in need_dual:
        out.duals[p] = table(1.0 - _conjugate(p))
    for r in need_power:
        if not r > 0:
            raise ConfigError(f"power exponent needs r > 0, got {r}")
        out.powers[r] = table(r)
    return out


def require_finite_masses(w: GridWeight, what: str) -> None:
    """Refuse a weight with a cell mass that is not positive and finite.  A
    cell integral diverges for x^-1 at the origin, say, and a ratio of two
    such cube masses is inf/inf = NaN, which passes every comparison."""
    bad = _bad_weight_value(w.cell_masses)
    if bad:
        raise ConfigError(f"{what} needs a positive finite mass on every cell, "
                          f"not {float(w.cell_masses[bad[0]])} on cell {bad[0]}")


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
    # a non-ASCII byte decodes to a lone surrogate, refused below with its row
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        content = fh.read()
    lines = content.split("\n")  # the lines of iterating fh, without their "\n"
    if not lines[-1]:
        lines.pop()  # after the final newline, or of an empty file
    if content.isascii():
        try:
            return list(map(float, lines))  # float strips as line.strip() does
        except ValueError:
            pass  # the loop below names the first bad row
    rows: list[float] = []
    for i, line in enumerate(lines, start=1):
        if not line.isascii():
            raise CsvFormatError(i, f"non-ASCII byte in {line.rstrip().encode('ascii', 'surrogateescape')!r}")
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


def load_function_csv(path, J: int) -> GridFunction:
    """Load a function, one finite value per row, on the grid over [0, 2^J)
    whose 2^(J+L) cells the rows fill."""
    rows = _read_rows(path)
    L = len(rows).bit_length() - 1 - J
    if L < 0 or len(rows) != 1 << (J + L):
        raise ConfigError(f"{len(rows)} rows do not form a grid with J={J}")
    grid = build_grid(J, L)
    vals = np.asarray(rows)
    bad = np.flatnonzero(~np.isfinite(vals))
    if len(bad):
        raise CsvFormatError(int(bad[0]) + 1, f"function value must be finite, got {rows[bad[0]]}")
    return GridFunction(grid, vals)


def save_function_csv(f: GridFunction, path) -> None:
    _write_rows(path, f.values)


ROW_CHUNK = 1 << 16  # CSV lines formatted per string, so memory stays flat in N


def format_rows(values: np.ndarray):
    """The CSV text of ``values``, one repr per line, as strings of at most
    ROW_CHUNK lines each."""
    for start in range(0, len(values), ROW_CHUNK):
        yield "\n".join(map(repr, values[start : start + ROW_CHUNK].tolist())) + "\n"


def _write_rows(path, values: np.ndarray) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.writelines(format_rows(values))


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
