import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import weightlab as wl
from weightlab.errors import ConfigError, NoParentError
from weightlab.grid import Cube, cube_containing_cell, cube_spans, first_cubes, level_rows, rows


def test_build_grid_basic():
    g = wl.build_grid(0, 3)
    assert g.ncells == 8
    assert g.cell_width == 0.125
    assert g.domain_length == 1.0

    g2 = wl.build_grid(2, 2)
    assert g2.ncells == 16
    assert g2.cell_width == 0.25
    assert g2.domain_length == 4.0


def test_build_grid_rejects_out_of_range():
    with pytest.raises(ConfigError):
        wl.build_grid(0, 25)
    with pytest.raises(ConfigError):
        wl.build_grid(-1, 3)
    with pytest.raises(ConfigError):
        wl.build_grid(15, 15)


def test_parent_examples():
    g = wl.build_grid(0, 3)
    # [1/4, 1/2) at level 2 -> [0, 1/2)
    q = Cube(2, 1)
    assert q.endpoints() == (0.25, 0.5)
    p = wl.parent(g, q)
    assert p == Cube(1, 0)
    assert p.endpoints() == (0.0, 0.5)

    g2 = wl.build_grid(2, 2)
    # [0,1) at level 0 -> [0,2)
    assert wl.parent(g2, Cube(0, 0)) == Cube(-1, 0)
    with pytest.raises(NoParentError):
        wl.parent(g2, Cube(-2, 0))  # root [0,4)


def test_dyadic_cubes_partition():
    g = wl.build_grid(0, 2)
    level1 = wl.dyadic_cubes(g, 1)
    assert [q.endpoints() for q in level1] == [(0.0, 0.5), (0.5, 1.0)]
    g2 = wl.build_grid(1, 1)
    level0 = wl.dyadic_cubes(g2, 0)
    assert [q.endpoints() for q in level0] == [(0.0, 1.0), (1.0, 2.0)]
    with pytest.raises(ConfigError):
        wl.dyadic_cubes(g, 5)


def test_total_cube_count_geometric_series():
    # enumeration oracle: levels -J..L hold 2^(J+k) cubes each
    for J, L in [(0, 3), (2, 2), (3, 4)]:
        g = wl.build_grid(J, L)
        total = sum(1 for _ in wl.all_cubes(g))
        by_levels = sum(g.ncubes(k) for k in g.levels())
        assert total == by_levels == 2 ** (J + L + 1) - 1


def test_cells_of_examples():
    g = wl.build_grid(0, 3)
    assert wl.cells_of(g, Cube(1, 0)) == range(0, 4)  # [0, 1/2)
    assert wl.cells_of(g, Cube(3, 5)) == range(5, 6)  # single cell
    assert wl.cells_of(g, g.root) == range(0, 8)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_ancestry_invariants(data):
    J = data.draw(st.integers(0, 4))
    L = data.draw(st.integers(0, 6))
    g = wl.build_grid(J, L)
    k = data.draw(st.integers(-J + 1, L)) if J + L > 0 else 0
    if k == 0 and J == 0 and L == 0:
        return
    m = data.draw(st.integers(0, g.ncubes(k) - 1))
    q = Cube(k, m)
    p = wl.parent(g, q)
    s = wl.sibling(g, q)
    assert wl.contains(p, q)
    assert p.length == 2 * q.length
    # cells_of(parent) is the disjoint union of the children's cell ranges
    pc = wl.cells_of(g, p)
    qc = wl.cells_of(g, q)
    sc = wl.cells_of(g, s)
    assert set(pc) == set(qc) | set(sc)
    assert not (set(qc) & set(sc))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3), st.integers(0, 5))
def test_level_partition(J, L):
    g = wl.build_grid(J, L)
    for k in g.levels():
        seen = []
        for q in wl.dyadic_cubes(g, k):
            r = wl.cells_of(g, q)
            seen.extend(r)
        assert seen == list(range(g.ncells))


def test_cube_containing_cell():
    g = wl.build_grid(1, 3)
    q = cube_containing_cell(g, 11, 0)
    assert q == Cube(0, 1)
    assert 11 in wl.cells_of(g, q)


def first_cubes_brute(hit):
    """Oracle: every hit cube none of whose strict ancestors is hit, ordered
    by its first cell."""
    out = []
    for d in range(len(hit)):
        for i in np.flatnonzero(hit[d]):
            if not any(hit[e][i >> (e - d)] for e in range(d + 1, len(hit))):
                out.append((d, int(i)))
    return sorted(out, key=lambda c: c[1] << c[0])


def test_first_cubes_matches_brute(rng):
    for depth in range(9):
        sizes = [1 << (depth - d) for d in range(depth + 1)]
        patterns = [[rng.random(n) < frac for n in sizes] for frac in (0.05, 0.3, 0.7, 0.95)]
        patterns += [
            [np.ones(n, dtype=bool) for n in sizes],
            [np.zeros(n, dtype=bool) for n in sizes],
            [np.full(n, n == 1) for n in sizes],  # root only
            [np.full(n, n == sizes[0]) for n in sizes],  # cells only
        ]
        for hit in patterns:
            assert first_cubes(hit) == first_cubes_brute(hit)
        assert first_cubes(patterns[4]) == [(depth, 0)]
        assert first_cubes(patterns[5]) == []
        assert first_cubes(patterns[7]) == [(0, i) for i in range(sizes[0])]


def test_level_rows_and_spans_match_cells_of(rng):
    g = wl.build_grid(1, 4)
    cubes = [Cube(k, int(rng.integers(g.ncubes(k)))) for k in rng.integers(-1, 5, size=40)]
    starts, stops = cube_spans(g, cubes)
    assert [range(a, b) for a, b in zip(starts.tolist(), stops.tolist())] == [wl.cells_of(g, q) for q in cubes]
    values = np.arange(g.ncells, dtype=float)
    seen = 0
    for d, pos, idx in level_rows(g, cubes):
        got = rows(values, d)[idx]
        for j, p in enumerate(pos.tolist()):
            assert got[j].tolist() == values[wl.cells_of(g, cubes[p]).start : wl.cells_of(g, cubes[p]).stop].tolist()
        seen += len(pos)
    assert seen == len(cubes)


@pytest.mark.parametrize("q", [Cube(2, -1), Cube(2, 4), Cube(3, 0), Cube(-1, 0)])
def test_level_rows_refuses_cubes_off_the_grid(q):
    g = wl.build_grid(0, 2)
    with pytest.raises(ConfigError):
        level_rows(g, [Cube(0, 0), q])
    with pytest.raises(ConfigError):
        cube_spans(g, [q])


def test_rows_writes_through_and_refuses_a_copy():
    values = np.zeros(8)
    rows(values, 2)[[1]] = 1.0
    assert values.tolist() == [0, 0, 0, 0, 1, 1, 1, 1]
    strided = np.zeros(16)
    rows(strided[::2], 2)[[1]] = 1.0  # a 1-D array of any stride reshapes to a view
    assert np.flatnonzero(strided).tolist() == [8, 10, 12, 14]
    with pytest.raises(ValueError):
        rows(np.zeros((4, 4))[:, :2], 2)
