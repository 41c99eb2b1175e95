"""Dyadic grids on [0, 2^J) and integer cube addressing.

A grid covers the interval [0, 2^J) with N = 2^(J+L) equal cells of width
h = 2^-L.  Dyadic cubes live on levels k = -J .. L; the cube (k, m) is the
half-open interval [m 2^-k, (m+1) 2^-k), always a union of whole cells.
Addressing is pure integer arithmetic, so ancestry, sibling and cell-range
queries carry no floating-point drift; interval endpoints, when needed as
floats, are exact dyadic rationals well inside the double range.

``pyramid`` is the one reduction over the tree: every cube aggregate of the
package (weight tables, maximal-function averages, the CZ stopping time,
region cubes) is one of its levels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NoParentError

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

    def endpoints(self) -> tuple[float, float]:
        w = 2.0 ** (-self.level)
        return (self.index * w, (self.index + 1) * w)


def pyramid(values: np.ndarray, op=np.add) -> list[np.ndarray]:
    """levels[d] reduces ``values`` by the ufunc ``op`` over the cubes of 2^d
    cells (levels[0] is ``values`` itself).  Each level is built pairwise from
    the one below, so parent = op(child, sibling) holds exactly in floats."""
    levels = [values]
    while len(levels[-1]) > 1:
        cur = levels[-1]
        levels.append(op(cur[0::2], cur[1::2]))
    return levels


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


def parent(grid: Grid, Q: Cube) -> Cube:
    """The dyadic ancestor of twice the length; errors at the root."""
    _check_cube(grid, Q)
    if Q.level <= -grid.J:
        raise NoParentError(f"cube at level {Q.level} is the root of grid J={grid.J}")
    return Cube(Q.level - 1, Q.index >> 1)


def sibling(grid: Grid, Q: Cube) -> Cube:
    _check_cube(grid, Q)
    if Q.level <= -grid.J:
        raise NoParentError("root cube has no sibling")
    return Cube(Q.level, Q.index ^ 1)


def children(grid: Grid, Q: Cube) -> tuple[Cube, Cube]:
    _check_cube(grid, Q)
    if Q.level >= grid.L:
        raise ConfigError("cell-level cube has no children in this grid")
    return (Cube(Q.level + 1, 2 * Q.index), Cube(Q.level + 1, 2 * Q.index + 1))


def dyadic_cubes(grid: Grid, k: int) -> list[Cube]:
    """All level-k cubes, disjoint, covering [0, 2^J)."""
    if not (-grid.J <= k <= grid.L):
        raise ConfigError(f"level {k} outside [-{grid.J}, {grid.L}]")
    return [Cube(k, m) for m in range(grid.ncubes(k))]


def all_cubes(grid: Grid):
    """Every dyadic cube of the grid, coarsest level first."""
    for k in grid.levels():
        for m in range(grid.ncubes(k)):
            yield Cube(k, m)


def cells_of(grid: Grid, Q: Cube) -> range:
    """Half-open cell-index range covered by Q."""
    _check_cube(grid, Q)
    shift = grid.L - Q.level
    return range(Q.index << shift, (Q.index + 1) << shift)


def cube_containing_cell(grid: Grid, cell: int, k: int) -> Cube:
    """The level-k ancestor cube of a cell."""
    if not (0 <= cell < grid.ncells):
        raise ConfigError(f"cell {cell} outside grid")
    return Cube(k, cell >> (grid.L - k))


def contains(outer: Cube, inner: Cube) -> bool:
    """Dyadic containment test (same grid assumed)."""
    if outer.level > inner.level:
        return False
    return (inner.index >> (inner.level - outer.level)) == outer.index
