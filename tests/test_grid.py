import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import weightlab as wl
from weightlab.errors import ConfigError
from weightlab.grid import Cube, as_cubes, cube_entries, first_cubes, level_rows, pyramid, rows


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


def test_total_cube_count_geometric_series():
    # levels -J..L hold 2^(J+k) cubes each
    for J, L in [(0, 3), (2, 2), (3, 4)]:
        g = wl.build_grid(J, L)
        assert sum(g.ncubes(k) for k in g.levels()) == 2 ** (J + L + 1) - 1


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
    p = Cube(k - 1, m >> 1)
    s = Cube(k, m ^ 1)
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
        for q in (Cube(k, m) for m in range(g.ncubes(k))):
            r = wl.cells_of(g, q)
            seen.extend(r)
        assert seen == list(range(g.ncells))


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
            d, idx = first_cubes(hit)
            assert d.dtype == idx.dtype == np.int64
            assert list(zip(d.tolist(), idx.tolist())) == first_cubes_brute(hit)
        assert [a.tolist() for a in first_cubes(patterns[4])] == [[depth], [0]]
        assert [a.tolist() for a in first_cubes(patterns[5])] == [[], []]
        assert [a.tolist() for a in first_cubes(patterns[7])] == [[0] * sizes[0], list(range(sizes[0]))]


def test_level_rows_and_entries_match_cells_of(rng):
    g = wl.build_grid(1, 4)
    d = rng.integers(0, g.J + g.L + 1, size=40)  # random cubes, overlapping, in no order
    idx = rng.integers(0, g.ncells >> d)
    cubes = as_cubes(g, d, idx)
    assert [(q.level, q.index) for q in cubes] == list(zip((g.L - d).tolist(), idx.tolist()))
    assert [range(a, b) for a, b in zip((idx << d).tolist(), ((idx + 1) << d).tolist())] == [
        wl.cells_of(g, q) for q in cubes]
    values = np.arange(g.ncells, dtype=float)
    seen = 0
    for s, pos, i in level_rows(g, d, idx):
        got = rows(values, s)[i]
        for j, p in enumerate(pos.tolist()):
            r = wl.cells_of(g, cubes[p])
            assert got[j].tolist() == values[r.start : r.stop].tolist()
        seen += len(pos)
    assert seen == len(cubes)
    levels = pyramid(values)
    assert cube_entries(g, levels, d, idx).tolist() == [float(values[wl.cells_of(g, q).start : wl.cells_of(g, q).stop].sum()) for q in cubes]
    assert cube_entries(g, levels, d[:0], idx[:0]).tolist() == []


@pytest.mark.parametrize("q", [Cube(2, -1), Cube(2, 4), Cube(3, 0), Cube(-1, 0)])
def test_level_rows_refuses_cubes_off_the_grid(q):
    g = wl.build_grid(0, 2)
    d, idx = np.array([2, g.L - q.level]), np.array([0, q.index])
    with pytest.raises(ConfigError):
        level_rows(g, d, idx)
    with pytest.raises(ConfigError):
        cube_entries(g, pyramid(np.ones(g.ncells)), d, idx)


def test_rows_writes_through_and_refuses_a_copy():
    values = np.zeros(8)
    rows(values, 2)[[1]] = 1.0
    assert values.tolist() == [0, 0, 0, 0, 1, 1, 1, 1]
    strided = np.zeros(16)
    rows(strided[::2], 2)[[1]] = 1.0  # a 1-D array of any stride reshapes to a view
    assert np.flatnonzero(strided).tolist() == [8, 10, 12, 14]
    with pytest.raises(ValueError):
        rows(np.zeros((4, 4))[:, :2], 2)
