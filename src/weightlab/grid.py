"""Dyadic grids on [0, 2^J) and integer cube addressing.

A grid covers the interval [0, 2^J) with N = 2^(J+L) equal cells of width
h = 2^-L.  Dyadic cubes live on levels k = -J .. L; the cube (k, m) is the
half-open interval [m 2^-k, (m+1) 2^-k), always a union of whole cells.
Addressing is pure integer arithmetic, so ancestry and cell-range queries
carry no floating-point drift.

A cube set is two int64 arrays (d, idx): cube j has 2^d[j] cells, starts
at cell idx[j] << d[j], is row idx[j] of ``rows(values, d[j])`` and entry
levels[d[j]][idx[j]] of a pyramid; its level is L - d[j], and its
ancestor s levels up is idx[j] >> s.  Every set the package computes is
kept in this form from the pass that finds it to every reader; ``Cube`` is
only the (level, index) record of a report field, of ``as_cubes`` or of an
oracle.

``pyramid`` is the one reduction over the tree: every cube aggregate of the
package (weight tables, maximal-function averages, the CZ stopping time,
region cubes) is one of its levels.  ``sum_pyramid`` is the form the
operators use on a function, and ``realize`` on a weight's mass table: it
refuses finite cells whose sums overflow, where a dual or power table
keeps its +inf.  ``first_cubes`` is the one top-down
selection: the CZ cubes (first cubes whose average exceeds the height) and
the maximal cubes of a cell set (first cubes it covers) are both its output
on a boolean pyramid.  ``level_rows`` and ``rows`` are the one rule for the
cells a cube set covers: the cubes of 2^d cells are rows of the cell array
viewed as rows of 2^d, so every per-cube sum, mask or fill is one numpy
call per cube size; ``cube_entries`` reads the cubes' entries of a pyramid
the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

MAX_J = 20
MAX_L = 20
MAX_DEPTH = 24  # cap on J + L


@dataclass(frozen=True)
class Grid:
    """Dyadic partition of [0, 2^J) into 2^(J+L) cells of width 2^-L."""

    J: int
    L: int

    @property
    def ncells(self) -> int:
        return 1 << (self.J + self.L)

    @property
    def cell_width(self) -> float:
        return 2.0 ** (-self.L)

    @property
    def domain_length(self) -> float:
        return float(1 << self.J)

    @property
    def root(self) -> "Cube":
        return Cube(-self.J, 0)

    def levels(self) -> range:
        """All cube levels, coarsest (-J) to finest (L)."""
        return range(-self.J, self.L + 1)

    def ncubes(self, k: int) -> int:
        return 1 << (self.J + k)


@dataclass(frozen=True)
class Cube:
    """Dyadic interval [m 2^-k, (m+1) 2^-k) addressed by (level, index)."""

    level: int
    index: int

    @property
    def length(self) -> float:
        return 2.0 ** (-self.level)


def pyramid(values: np.ndarray, op=np.add) -> list[np.ndarray]:
    """levels[d] reduces ``values`` by the ufunc ``op`` over the cubes of 2^d
    cells (levels[0] is ``values`` itself).  Each level is built pairwise from
    the one below, so parent = op(child, sibling) holds exactly in floats."""
    levels = [values]
    while len(levels[-1]) > 1:
        cur = levels[-1]
        levels.append(op(cur[0::2], cur[1::2]))
    return levels


def sum_pyramid(values: np.ndarray, what: str) -> list[np.ndarray]:
    """``pyramid`` of sums, refused as in ``require_finite_sums`` where a sum
    of finite cells overflows: an inf or NaN subtotal stays non-finite up to
    the root, so the root alone tells."""
    with np.errstate(over="ignore", invalid="ignore"):
        levels = pyramid(values)
    require_finite_sums(levels[-1], values, what)
    return levels


def require_finite_sums(totals: np.ndarray, values: np.ndarray, what: str) -> None:
    """Refuse ``what`` with a ConfigError where ``totals``, sums of cells of
    ``values``, are not finite although every cell is: a sum overflowed."""
    if not np.isfinite(totals).all() and np.isfinite(values).all():
        raise ConfigError(f"{what} needs finite sums of cells: a sum of finite cell values overflows")


def finite_product(values: np.ndarray, weights: np.ndarray, what: str) -> np.ndarray:
    """``values * weights`` cell-wise, with ``what`` refused by a ConfigError
    where two finite factors give a product that is not finite (it
    overflowed): an inf there turns later ratios into NaN."""
    with np.errstate(over="ignore"):
        out = values * weights
    if not np.isfinite(out).all():
        bad = np.flatnonzero(~np.isfinite(out) & np.isfinite(values) & np.isfinite(weights))
        if len(bad):
            raise ConfigError(f"{what} needs a finite product f v on every cell: "
                              f"the product overflows on cell {int(bad[0])}")
    return out


def first_cubes(hit: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The cube set (d, idx) of every cube with hit[d][idx] true and no
    strict ancestor hit, left to right.  hit[d] runs over the cubes of 2^d
    cells, laid out like the levels of ``pyramid``.  One top-down pass
    carries the mask of cubes with a hit ancestor down the tree."""
    covered = np.zeros(len(hit[-1]), dtype=bool)
    level = np.full(len(hit[0]), -1, dtype=np.int64)  # per cell: d of the cube starting there
    for d in range(len(hit) - 1, -1, -1):
        level[np.flatnonzero(hit[d] & ~covered) << d] = d
        covered = np.repeat(covered | hit[d], 2)
    starts = np.flatnonzero(level >= 0)
    ds = level[starts]
    return ds, starts >> ds


def as_cubes(grid: Grid, d: np.ndarray, idx: np.ndarray) -> list[Cube]:
    """The cube set (d, idx) as Cube objects, in its order."""
    return [Cube(grid.L - s, i) for s, i in zip(d.tolist(), idx.tolist())]


def level_rows(grid: Grid, d: np.ndarray, idx: np.ndarray) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """The cube set (d, idx) grouped by size: one (s, pos, idx[pos]) per size
    s with cubes of 2^s cells, finest first, pos the positions of those
    cubes in the set, so row idx[pos][j] of ``rows(values, s)`` holds the
    cells of cube pos[j].  Callers gather from the rows (a row sum is
    numpy's pairwise sum, bitwise np.sum of the cube's cell slice) or assign
    to them.  A cube off the grid is refused with the error of cells_of."""
    off = (d < 0) | (d > grid.J + grid.L) | (idx < 0) | (idx >= grid.ncells >> np.clip(d, 0, 63))
    if off.any():
        j = int(np.argmax(off))
        _check_cube(grid, Cube(grid.L - int(d[j]), int(idx[j])))
    out = []
    for s in np.flatnonzero(np.bincount(d)).tolist():
        pos = np.flatnonzero(d == s)
        out.append((s, pos, idx[pos]))
    return out


def cube_entries(grid: Grid, levels: list[np.ndarray], d: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Per cube of the set (d, idx), its entry levels[d][idx] of a pyramid."""
    out = np.empty(len(d), dtype=levels[0].dtype)
    for s, pos, i in level_rows(grid, d, idx):
        out[pos] = levels[s][i]
    return out


def rows(values: np.ndarray, d: int) -> np.ndarray:
    """A cell array as rows of 2^d cells, row i being the cells of the i-th
    cube of that size.  It is always a view (numpy raises ValueError where
    the reshape would need a copy), so an assignment to its rows writes
    ``values``."""
    return np.reshape(values, (-1, 1 << d), copy=False)


def build_grid(J: int, L: int) -> Grid:
    if not (0 <= J <= MAX_J and 0 <= L <= MAX_L and J + L <= MAX_DEPTH):
        raise ConfigError(
            f"grid parameters out of range: J={J}, L={L} "
            f"(need 0<=J<={MAX_J}, 0<=L<={MAX_L}, J+L<={MAX_DEPTH})"
        )
    return Grid(J, L)


def _check_cube(grid: Grid, Q: Cube) -> None:
    if not (-grid.J <= Q.level <= grid.L):
        raise ConfigError(f"cube level {Q.level} outside [-{grid.J}, {grid.L}]")
    if not (0 <= Q.index < grid.ncubes(Q.level)):
        raise ConfigError(f"cube index {Q.index} outside level {Q.level}")


def cells_of(grid: Grid, Q: Cube) -> range:
    """Half-open cell-index range covered by Q."""
    _check_cube(grid, Q)
    shift = grid.L - Q.level
    return range(Q.index << shift, (Q.index + 1) << shift)
