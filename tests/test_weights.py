import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st
from scipy.integrate import quad

import weightlab as wl
from weightlab import weights
from weightlab.errors import ConfigError, CsvFormatError
from weightlab.grid import Cube
from weightlab.weights import _read_rows, product_cell_masses


def test_constant_weight_tables():
    g = wl.build_grid(0, 3)
    w = wl.with_cached(wl.realize(wl.Constant(1.0), g), dual=(2.0,))
    h = g.cell_width
    assert np.all(w.cell_masses == h)
    assert np.all(w.essinf[0] == 1.0)
    assert np.all(w.duals[2.0][0] == h)
    assert np.all(w.logmass[0] == 0.0)


def test_power_cell_mass_closed_form_vs_quadrature():
    # quadrature oracle for the closed-form antiderivative
    g = wl.build_grid(0, 1)
    w = wl.realize(wl.Power(0.5), g)
    assert w.cell_masses[0] == pytest.approx(math.sqrt(2), rel=1e-15)
    for i in range(g.ncells):
        a, b = i * g.cell_width, (i + 1) * g.cell_width
        oracle, _ = quad(lambda x: x ** (-0.5), a, b)
        assert w.cell_masses[i] == pytest.approx(oracle, rel=1e-9)


def test_power_left_anchored_mass_paper_value():
    # int_0^b x^(delta-1) dx = b^delta / delta; at b = delta^(-2/delta) it is delta^-3
    delta = 0.5
    g = wl.build_grid(4, 8)  # domain [0,16), T = 16
    w = wl.realize(wl.Power(delta), g)
    assert w.mass[-1][0] == pytest.approx(delta**-3, rel=1e-12)
    # generic left-anchored cube: [0, 1/4) of level 2
    assert w.mass[g.L - 2][0] == pytest.approx(0.25**delta / delta, rel=1e-12)


def test_power_essinf_dense_sampling_oracle():
    delta = 0.3
    g = wl.build_grid(1, 4)
    w = wl.realize(wl.Power(delta), g)
    for q in [Cube(0, 1), Cube(2, 3), g.root]:
        x0, x1 = q.index * q.length, (q.index + 1) * q.length
        xs = np.linspace(max(x0, 1e-9), x1, 2001)
        oracle = float(np.min(xs ** (delta - 1.0)))
        essinf = w.essinf[g.L - q.level][q.index]
        assert essinf == pytest.approx(oracle, rel=1e-3)
        assert essinf == pytest.approx(x1 ** (delta - 1.0), rel=1e-14)


def test_step_weight():
    g = wl.build_grid(1, 3)
    w = wl.realize(wl.Step(0.25), g)
    h = g.cell_width
    assert np.all(w.cell_masses[:8] == 0.25 * h)
    assert np.all(w.cell_masses[8:] == h)
    # [0, 1), the cube of level 0 and index 0
    assert w.mass[g.L][0] == 0.25
    assert w.essinf[g.L][0] == 0.25


def test_divergent_dual_mass_sentinel():
    # Power delta: dual exponent (delta-1)(1-p') <= -1 diverges at the origin cell
    delta = 0.25
    p = 1.5  # (delta-1)(1-p') = 0.75 * ... -> (-0.75)(-2) = 1.5 fine; pick worse p
    g = wl.build_grid(0, 4)
    pbad = 4.0 / 3.0  # p' = 4, (delta-1)(1-p') = (-0.75)(-3) = 2.25 fine
    # want (delta-1)(1-p') <= -1: impossible since both factors negative -> product > 0.
    # divergence instead comes from power masses: (delta-1) r <= -1 at r >= 1/(1-delta)
    w = wl.with_cached(wl.realize(wl.Power(delta), g), power=(2.0,))
    assert math.isinf(w.powers[2.0][0][0])
    assert np.all(np.isfinite(w.powers[2.0][0][1:]))
    assert math.isinf(w.powers[2.0][-1][0])
    # products of powers can make the weight itself non-integrable
    wp = wl.realize(wl.Product(wl.Power(0.25), wl.Power(0.25)), g)
    assert math.isinf(wp.cell_masses[0])
    assert math.isinf(wp.mass[-1][0])
    _ = p, pbad


def test_additivity_exact_in_floats(rng):
    g = wl.build_grid(2, 6)
    vals = tuple(float(v) for v in rng.lognormal(size=g.ncells))
    w = wl.with_cached(wl.realize(wl.Piecewise(vals), g), dual=(2.0,), power=(1.5,))
    # level d + 1 holds the parents of the pairs of level d: every cube at once
    for levels in (w.mass, w.logmass, w.duals[2.0], w.powers[1.5]):
        assert len(levels) == g.J + g.L + 1
        for d in range(len(levels) - 1):
            assert np.array_equal(levels[d + 1], levels[d][0::2] + levels[d][1::2]), d
    for d in range(len(w.essinf) - 1):
        assert np.array_equal(w.essinf[d + 1], np.minimum(w.essinf[d][0::2], w.essinf[d][1::2])), d


def test_mass_dominates_essinf(rng):
    g = wl.build_grid(1, 5)
    w = wl.realize(wl.Power(0.4), g)
    assert np.all(w.cell_masses >= w.essinf[0] * g.cell_width)


def test_jensen_chain_per_cube(rng):
    # exp(avg log w) <= avg w and exp(avg log w^-1) <= (avg w^-alpha)^(1/alpha)
    g = wl.build_grid(1, 5)
    vals = tuple(float(v) for v in np.exp(rng.standard_normal(g.ncells)))
    p = 2.5
    alpha = p / (p - 1.0) - 1.0
    w = wl.with_cached(wl.realize(wl.Piecewise(vals), g), dual=(p,))
    for d in range(g.J + g.L + 1):  # every cube of 2^d cells at once
        length = 2.0 ** (d - g.L)
        avg = w.mass[d] / length
        logavg = w.logmass[d] / length
        assert np.all(np.exp(logavg) <= avg * (1 + 1e-12)), d
        davg = w.duals[p][d] / length
        assert np.all(np.exp(-logavg) <= davg ** (1.0 / alpha) * (1 + 1e-12)), d


def test_with_cached_adds_each_table_once():
    g = wl.build_grid(0, 2)
    w = wl.realize(wl.Constant(1.0), g)
    assert w.duals == {} and w.powers == {}
    w2 = wl.with_cached(w, dual=(2.0,))
    assert list(w2.duals) == [2.0] and w2.duals[2.0][-1][0] == 1.0
    assert wl.with_cached(w2, dual=(2.0,)) is w2
    for r in (0.0, -1.0):
        with pytest.raises(ConfigError, match="r > 0"):
            wl.with_cached(w, power=(r,))


def test_piecewise_needs_positive_finite_cells():
    # inf > 0, so a positivity test alone lets it through
    for vals, need in [
        ((1.0, math.inf, 1.0, 1.0), "finite"),
        ((1.0, 1.0, 0.0, 1.0), "positive"),
        ((1.0, 1.0, 1.0, -2.0), "positive"),
        ((math.nan, 1.0, 1.0, 1.0), "positive"),
    ]:
        with pytest.raises(ConfigError) as exc:
            wl.Piecewise(vals)
        cell = next(i for i, v in enumerate(vals) if not 0 < v < math.inf)
        assert f"cell {cell}" in str(exc.value) and need in str(exc.value)


@pytest.mark.filterwarnings("error")
def test_cube_masses_that_overflow_are_refused():
    # four cells of mass 5e307 sum to 2e308: refused, with no warning first;
    # at half the cell width the root sums to 1e308 and stays
    with pytest.raises(ConfigError, match="finite sums"):
        wl.realize(wl.Piecewise((1e308,) * 4), wl.build_grid(1, 1))
    w = wl.realize(wl.Piecewise((1e308,) * 4), wl.build_grid(0, 2))
    assert w.mass[-1][0] == 1e308


def test_csv_round_trip(tmp_path, rng):
    g = wl.build_grid(1, 4)
    vals = tuple(float(v) for v in rng.lognormal(size=g.ncells))
    w = wl.realize(wl.Piecewise(vals), g)
    path = tmp_path / "w.csv"
    wl.save_csv(w, path)
    w2 = wl.load_csv(path, g)
    assert np.array_equal(w.cell_masses, w2.cell_masses)
    assert np.array_equal(w.essinf[0], w2.essinf[0])
    assert np.array_equal(w.logmass[0], w2.logmass[0])


def test_csv_errors(tmp_path):
    g = wl.build_grid(0, 3)
    p = tmp_path / "bad.csv"
    p.write_text("1.0\n-2.0\n1.0\n1.0\n1.0\n1.0\n1.0\n1.0\n")
    with pytest.raises(CsvFormatError) as exc:
        wl.load_csv(p, g)
    assert exc.value.row == 2
    p2 = tmp_path / "short.csv"
    p2.write_text("1.0\n2.0\n")
    with pytest.raises(CsvFormatError):
        wl.load_csv(p2, g)


def read_rows_per_line(path):
    """Oracle for weights._read_rows: one float() per line of the file."""
    rows = []
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for i, line in enumerate(fh, start=1):
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


# file bytes -> the rows, or the (row, message) of the CsvFormatError
CSV_CASES = {
    "plain": (b"1.0\n-2.5\n3e-300\ninf\n", [1.0, -2.5, 3e-300, math.inf]),
    "padded": (b" 1.0\t\n\t2\n", [1.0, 2.0]),
    "non-ASCII byte": (b"1.0\n2.\xc3\xa9\n3.0\n", (2, "row 2: non-ASCII byte in b'2.\\xc3\\xa9'")),
    "empty row": (b"1.0\n\n3.0\n", (2, "row 2: empty row")),
    "whitespace-only row": (b"1.0\n2.0\n \t \n", (3, "row 3: empty row")),
    "bad number": (b"1.0\n1.0x\n", (2, "row 2: not a number: '1.0x'")),
    "bad number after CRLF": (b"1.0\r\nx\r\n", (2, "row 2: not a number: 'x'")),
    "CRLF endings": (b"1.0\r\n2.0\r\n", [1.0, 2.0]),
    "missing final newline": (b"1.0\n2.0", [1.0, 2.0]),
    "trailing blank line": (b"1.0\n2.0\n\n", (3, "row 3: empty row")),
    "empty file": (b"", []),
}


@pytest.mark.parametrize("case", sorted(CSV_CASES))
def test_read_rows_matches_per_line_reader(tmp_path, case):
    data, want = CSV_CASES[case]
    path = tmp_path / "rows.csv"
    path.write_bytes(data)

    def outcome(read):
        try:
            return read(path)
        except CsvFormatError as e:
            return (e.row, str(e))

    assert outcome(_read_rows) == outcome(read_rows_per_line) == want


@pytest.mark.parametrize("n", [0, 1, 4, 5, 9])
def test_format_rows_matches_per_row_repr(monkeypatch, n):
    # chunks of 4 rows, so n crosses none, one and two chunk boundaries
    monkeypatch.setattr(weights, "ROW_CHUNK", 4)
    values = np.array([1.0, -0.0, 5e-324, 1e308, -2.5, 0.1, math.inf, 3.0, 1 / 3])[:n]
    chunks = list(weights.format_rows(values))
    assert len(chunks) == -(-n // 4)
    assert "".join(chunks) == "".join(repr(x) + "\n" for x in values.tolist())


def test_csv_identity_example(tmp_path):
    g = wl.build_grid(0, 3)
    p = tmp_path / "ones.csv"
    p.write_text("1.0\n" * 8)
    w = wl.load_csv(p, g)
    ref = wl.realize(wl.Constant(1.0), g)
    assert np.array_equal(w.cell_masses, ref.cell_masses)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(0.01, 100.0), min_size=8, max_size=8))
def test_round_trip_property(tmp_path_factory, xs):
    g = wl.build_grid(0, 3)
    w = wl.realize(wl.Piecewise(tuple(xs)), g)
    path = tmp_path_factory.mktemp("csv") / "w.csv"
    wl.save_csv(w, path)
    w2 = wl.load_csv(path, g)
    assert np.array_equal(w.cell_masses, w2.cell_masses)


def test_product_spec_and_measure():
    g = wl.build_grid(1, 4)
    u = wl.realize(wl.Step(0.5), g)
    v = wl.realize(wl.Power(0.5), g)
    uv = product_cell_masses(u, v)
    w = wl.realize(wl.Product(wl.Step(0.5), wl.Power(0.5)), g)
    assert np.array_equal(uv, w.cell_masses)
    # mass over [0,1) is alpha * int_0^1 x^-1/2 = 0.5 * 2 = 1
    assert float(uv[: 1 << g.L].sum()) == pytest.approx(1.0, rel=1e-12)


def test_spec_grammar_round_trip():
    for text, cls in [
        ("const:c=2.5", wl.Constant),
        ("power:delta=0.5", wl.Power),
        ("step:alpha=0.25", wl.Step),
        ("prod:(const:c=2.0,power:delta=0.75)", wl.Product),
    ]:
        spec = wl.parse_weight_spec(text)
        assert isinstance(spec, cls)
    nested = wl.parse_weight_spec("prod:(prod:(const:c=1.0,step:alpha=0.5),power:delta=0.5)")
    assert isinstance(nested.left, wl.Product)
    with pytest.raises(ConfigError):
        wl.parse_weight_spec("gauss:sigma=1")
    with pytest.raises(ConfigError):
        wl.parse_weight_spec("power:delta=1.5")
    with pytest.raises(ConfigError):
        wl.parse_weight_spec("step:alpha=0")
