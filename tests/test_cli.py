import contextlib
import hashlib
import io
import json
import os

import numpy as np
import pytest

import weightlab as wl
from weightlab.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "cli_digests.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_constants_identity(capsys):
    code, out, _ = run_cli(
        capsys, "constants", "--weight", "const:c=1", "--kind", "Ap",
        "--p", "2", "--J", "0", "--L", "8",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["value"] == pytest.approx(1.0, rel=1e-12)
    assert payload["kind"] == "Ap"
    assert payload["truncation"] == {"J": 0, "L": 8}


def test_constants_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "constants", "--weight", "step:alpha=0.5", "--kind", "A1",
        "--J", "1", "--L", "4", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "level,value,argmax_index"
    assert len(lines) == 1 + 1 + 4 + 1  # header + levels -1..4


def test_sharpness_a1(capsys):
    code, out, _ = run_cli(capsys, "sharpness-a1", "--deltas", "0.5,0.25")
    assert code == 0
    payload = json.loads(out)
    ratios = [r["ratio"] for r in payload["rows"]]
    assert ratios == [2.0, 4.0]


def test_sharpness_product(capsys):
    code, out, _ = run_cli(
        capsys, "sharpness-product", "--alphas", "0.5", "--deltas", "0.5"
    )
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert (row["numerator"], row["denominator"]) == (6.0, 2.0)


def test_czd_example(capsys, tmp_path):
    g = wl.build_grid(1, 3)
    f = wl.GridFunction(g, np.array([1.0] * 8 + [0.0] * 8))
    path = tmp_path / "f.csv"
    wl.save_function_csv(f, path)
    code, out, _ = run_cli(
        capsys, "czd", "--f", str(path), "--v", "const:c=1",
        "--height", "0.75", "--J", "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["cubes"] == [{"level": 0, "index": 0, "avg": 1.0}]
    assert payload["verify"]["pass"] is True
    assert payload["domination"]["pass"] is True


def test_maximal_roundtrip(capsys, tmp_path):
    g = wl.build_grid(0, 4)
    rngv = np.random.default_rng(0).lognormal(size=g.ncells)
    path = tmp_path / "f.csv"
    wl.save_function_csv(wl.GridFunction(g, rngv), path)
    code, out, _ = run_cli(capsys, "maximal", "--f", str(path), "--variant", "dyadic")
    assert code == 0
    vals = np.array([float(line) for line in out.strip().splitlines()])
    expect = wl.dyadic_maximal(wl.GridFunction(g, rngv)).values
    assert np.array_equal(vals, expect)


def test_weaknorm(capsys, tmp_path):
    g = wl.build_grid(2, 6)
    vals = np.zeros(g.ncells)
    vals[: 1 << g.L] = 1.0
    path = tmp_path / "f.csv"
    wl.save_function_csv(wl.GridFunction(g, vals), path)
    code, out, _ = run_cli(
        capsys, "weaknorm", "--f", str(path), "--u", "const:c=1",
        "--v", "const:c=1", "--variant", "Md", "--J", "2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ratio"] > 0
    assert payload["numerator"] == pytest.approx(
        payload["t_star"] * payload["levelset_mass"], rel=1e-12
    )


def test_sawyer_verify(capsys, tmp_path):
    g = wl.build_grid(1, 6)
    rng = np.random.default_rng(1)
    vals = rng.lognormal(size=g.ncells) * (rng.random(g.ncells) < 0.5)
    path = tmp_path / "g.csv"
    wl.save_function_csv(wl.GridFunction(g, vals), path)
    code, out, _ = run_cli(
        capsys, "sawyer-verify", "--u", "step:alpha=0.5", "--v", "step:alpha=0.25",
        "--g", str(path), "--J", "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["chain"]["pass"] is True


def test_lemma_check(capsys):
    code, out, _ = run_cli(
        capsys, "lemma-check", "--v", "step:alpha=0.25", "--p-grid", "1.5,2,3",
        "--J", "1", "--L", "6",
    )
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_bound_audit(capsys):
    code, out, _ = run_cli(
        capsys, "bound-audit", "--v", "step:alpha=0.5", "--p", "2", "--J", "1", "--L", "5",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["rows"][0]["max_ratio"] > 0


def test_rh_and_doubling(capsys):
    code, out, _ = run_cli(capsys, "rh-check", "--weight", "step:alpha=0.25", "--J", "1", "--L", "6")
    assert code == 0
    assert json.loads(out)["pass"] is True
    code, out, _ = run_cli(capsys, "doubling", "--weight", "const:c=1", "--p", "2", "--J", "1", "--L", "6")
    assert code == 0


def test_usage_errors(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "constants", "--weight", "gauss:s=1", "--kind", "A1", "--J", "0", "--L", "4"
    )
    assert code == 2
    assert "gauss" in err
    code, _, _ = run_cli(capsys, "no-such-command")
    assert code == 2
    # bad row in a weight csv
    p = tmp_path / "bad.csv"
    p.write_text("1.0\n-1.0\n")
    code, _, err = run_cli(
        capsys, "constants", "--weight", f"csv:{p}", "--kind", "A1", "--J", "0", "--L", "1"
    )
    assert code == 2
    assert "row 2" in err
    # an infinite cell in a weight csv
    p.write_text("1.0\ninf\n1.0\n1.0\n")
    code, _, err = run_cli(
        capsys, "constants", "--weight", f"csv:{p}", "--kind", "A1", "--J", "0", "--L", "2"
    )
    assert code == 2
    assert "row 2" in err and "finite" in err
    # an infinite constant weight
    code, out, err = run_cli(
        capsys, "constants", "--weight", "const:c=inf", "--kind", "A1", "--J", "0", "--L", "2"
    )
    assert code == 2
    assert out == "" and "finite" in err and "Traceback" not in err
    # an all-zero f leaves the mixed ratio undefined
    f = tmp_path / "zero.csv"
    f.write_text("0.0\n" * 16)
    code, out, err = run_cli(
        capsys, "weaknorm", "--f", str(f), "--u", "const:c=1", "--v", "const:c=1"
    )
    assert code == 2
    assert out == "" and "f is zero" in err and "Traceback" not in err
    # a blank row in a function csv is an empty row, not a bad row count
    f.write_text("1.0\n2.0\n\n3.0\n")
    code, out, err = run_cli(capsys, "maximal", "--f", str(f), "--variant", "dyadic")
    assert code == 2
    assert out == "" and "row 3: empty row" in err and "Traceback" not in err


def test_byte_identical_reruns(capsys):
    args = ["sharpness-a1", "--deltas", "0.5,0.3333,0.25"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def cli_digests(tmp_path, seed: int) -> dict:
    """Exit codes and SHA-256 digests of czd (stdout, --out-g, --out-b) and
    sawyer-verify (stdout) on one seeded input of N = 256 cells."""
    g = wl.build_grid(1, 7)
    rng = np.random.default_rng(seed)
    u = rng.lognormal(0.0, 0.3, g.ncells)
    v = rng.lognormal(0.0, 0.3, g.ncells)
    f = rng.lognormal(size=g.ncells) * (rng.random(g.ncells) < 0.6)
    t = 1.5 * float(np.sum(f * v) / np.sum(v))
    path = {k: str(tmp_path / f"{k}.csv") for k in ("u", "v", "f", "g", "b")}
    for k, x in (("u", u), ("v", v), ("f", f)):
        wl.save_function_csv(wl.GridFunction(g, x), path[k])

    def run(name, *argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            out[name + "_code"] = main(list(argv))
        out[name + "_stdout"] = hashlib.sha256(buf.getvalue().encode()).hexdigest()

    out = {}
    run("czd", "czd", "--f", path["f"], "--v", f"csv:{path['v']}", "--height", repr(t),
        "--J", "1", "--out-g", path["g"], "--out-b", path["b"])
    for k in ("g", "b"):
        with open(path[k], "rb") as fh:
            out[f"czd_out_{k}"] = hashlib.sha256(fh.read()).hexdigest()
    run("sawyer", "sawyer-verify", "--u", f"csv:{path['u']}", "--v", f"csv:{path['v']}",
        "--g", path["f"], "--J", "1")
    return out


def test_outputs_match_recorded_digests(tmp_path):
    # The digests were recorded before the dyadic-tree code was merged into
    # grid.pyramid; a refactor must leave these bytes unchanged.
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    assert cli_digests(tmp_path, golden["seed"]) == golden["digests"]
