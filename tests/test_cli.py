import contextlib
import hashlib
import io
import json
import math
import os
import re
import warnings

import numpy as np
import pytest

import weightlab as wl
from weightlab import cli
from weightlab.cli import main
from weightlab.constants import encode_nonfinite

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
    # an empty delta list, as sharpness-product refuses an empty alpha list
    code, out, err = run_cli(capsys, "sharpness-a1", "--deltas", ",")
    assert code == 2
    assert out == "" and "at least one delta" in err
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
    # a nonzero f whose L1(uv) norm underflows to 0
    f.write_text("5e-324\n" * 4)
    code, out, err = run_cli(
        capsys, "weaknorm", "--f", str(f), "--u", "const:c=1", "--v", "const:c=1"
    )
    assert code == 2
    assert out == "" and "underflows to 0" in err
    # a weight whose cell masses underflow to 0, and cells whose cube sums overflow
    for rows, message in (("5e-324", "no positive mass on cell 0"),
                          ("1e308", "the dyadic maximal needs finite sums of cells")):
        f.write_text(f"{rows}\n" * 4)
        code, out, err = run_cli(
            capsys, "sawyer-verify", "--u", f"csv:{f}", "--v", f"csv:{f}", "--g", str(f)
        )
        assert code == 2
        assert out == "" and message in err
    f.write_text("5e-324\n" * 4)
    code, out, err = run_cli(
        capsys, "constants", "--weight", f"csv:{f}", "--kind", "A1", "--J", "0", "--L", "2"
    )
    assert code == 2
    assert out == "" and "no positive mass on cell 0" in err
    # a blank row in a function csv is an empty row, not a bad row count
    f.write_text("1.0\n2.0\n\n3.0\n")
    code, out, err = run_cli(capsys, "maximal", "--f", str(f), "--variant", "dyadic")
    assert code == 2
    assert out == "" and "row 3: empty row" in err and "Traceback" not in err
    # an empty function csv forms no grid
    f.write_text("")
    code, out, err = run_cli(capsys, "maximal", "--f", str(f), "--variant", "dyadic")
    assert code == 2
    assert out == "" and "0 rows do not form a grid" in err
    # a non-ASCII byte in a function csv and in a weight csv
    f.write_bytes(b"1.0\n2.\xc3\xa9\n3.0\n4.0\n")
    for argv in (("maximal", "--f", str(f), "--variant", "dyadic"),
                 ("constants", "--weight", f"csv:{f}", "--kind", "A1", "--J", "0", "--L", "2")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == "" and "row 2: non-ASCII byte" in err
    # a weight whose w^{r_w} averages overflow: every ratio would be NaN
    f.write_text("1e308\n" * 8)
    with np.errstate(over="ignore"):
        code, out, err = run_cli(capsys, "rh-check", "--weight", f"csv:{f}", "--J", "0", "--L", "3")
    assert code == 2
    assert out == "" and "not finite on cube (level 0, index 0)" in err
    # a weight whose w^{r_w} averages underflow: the ratio would read 0 and pass
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "--seed", "3", "rh-check", "--weight", "const:c=1e-300",
                                 "--J", "0", "--L", "3")
    assert code == 2
    assert out == "" and "underflows" in err and "on cube (level 0, index 0)" in err
    # a negative seed, which numpy's generators refuse
    code, out, err = run_cli(capsys, "--seed", "-1", "rh-check", "--weight", "step:alpha=0.25",
                             "--J", "1", "--L", "4")
    assert code == 2
    assert out == "" and "--seed must be a non-negative integer, got -1" in err and "Traceback" not in err
    # a weight the CLI has realized, but with local exponent -1/2: no Fujii-Wilson constant
    for argv in (("constants", "--weight", "power:delta=0.5", "--kind", "AinfFW", "--J", "0", "--L", "3"),
                 ("bound-audit", "--p", "2", "--v", "prod:(step:alpha=0.5,power:delta=0.5)",
                  "--J", "1", "--L", "3")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == "" and "local exponent 0 on every cell" in err and "exponent -0.5 on cell 0" in err
        assert "realize" not in err


def test_byte_identical_reruns(capsys):
    args = ["sharpness-a1", "--deltas", "0.5,0.3333,0.25"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def cli_digests(tmp_path, seed: int) -> dict:
    """Exit codes and SHA-256 digests of czd (stdout, --out-g, --out-b) and
    sawyer-verify (stdout) on one seeded input of N = 256 cells.  czd runs at
    three heights: one that selects cubes of several sizes, one below the
    root average (a truncated root) and one that selects single cells only;
    and once more on f with seeded signs, at the first height."""
    g = wl.build_grid(1, 7)
    rng = np.random.default_rng(seed)
    u = rng.lognormal(0.0, 0.3, g.ncells)
    v = rng.lognormal(0.0, 0.3, g.ncells)
    f = rng.lognormal(size=g.ncells) * (rng.random(g.ncells) < 0.6)
    signed = f * rng.choice([-1.0, 1.0], size=g.ncells)
    root = float(np.sum(f * v) / np.sum(v))
    path = {k: str(tmp_path / f"{k}.csv") for k in ("u", "v", "f", "s", "g", "b")}
    for k, x in (("u", u), ("v", v), ("f", f), ("s", signed)):
        wl.save_function_csv(wl.GridFunction(g, x), path[k])

    def run(name, *argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            out[name + "_code"] = main(list(argv))
        out[name + "_stdout"] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
        return json.loads(buf.getvalue())

    out = {}
    for name, src, t in (("czd", "f", 1.5 * root), ("czd_root", "f", 0.5 * root),
                         ("czd_cells", "f", 0.75 * float(f.max())), ("czd_signed", "s", 1.5 * root)):
        payload = run(name, "czd", "--f", path[src], "--v", f"csv:{path['v']}",
                      "--height", repr(t), "--J", "1", "--out-g", path["g"], "--out-b", path["b"])
        for k in ("g", "b"):
            with open(path[k], "rb") as fh:
                out[f"{name}_out_{k}"] = hashlib.sha256(fh.read()).hexdigest()
        levels = {q["level"] for q in payload["cubes"]}
        assert payload["truncated"] == (name == "czd_root")
        assert (levels == {g.L}) == (name == "czd_cells")
    run("sawyer", "sawyer-verify", "--u", f"csv:{path['u']}", "--v", f"csv:{path['v']}",
        "--g", path["f"], "--J", "1")
    return out


def deep_chain_digest(tmp_path, seed: int) -> dict:
    """Exit code and SHA-256 digest of sawyer-verify on power weights at
    N = 2048 (J = 1, L = 10), whose principal cubes run to three generations
    and whose chains reach index 1."""
    g = wl.build_grid(1, 10)
    path = {k: str(tmp_path / f"deep_{k}.csv") for k in ("u", "v", "g")}
    for k, delta in (("u", 0.05), ("v", 0.6)):
        wl.save_function_csv(wl.GridFunction(g, wl.realize(wl.Power(delta), g).cell_values), path[k])
    x = (np.arange(g.ncells) + 0.5) * g.cell_width
    wl.save_function_csv(wl.GridFunction(g, x**-0.95), path["g"])
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["--seed", str(seed), "sawyer-verify", "--u", f"csv:{path['u']}",
                     "--v", f"csv:{path['v']}", "--g", path["g"], "--J", "1",
                     "--a", "3", "--delta-frac", "0.9"])
    payload = json.loads(buf.getvalue())
    assert len(payload["generations"]) >= 3 and payload["chain"]["max_chain_index"] >= 1
    return {"sawyer_code": code, "sawyer_stdout": hashlib.sha256(buf.getvalue().encode()).hexdigest()}


def weight_digests(tmp_path, seed: int) -> dict:
    """Exit codes and SHA-256 stdout digests of every subcommand that reads
    a weight table on a grid of its own (constants of every kind in json and
    csv, rh-check, doubling, lemma-check, bound-audit), for a power weight and
    a seeded csv: weight of N = 128 cells (J = 1, L = 6).  The commands run
    in tmp_path, so the spec, which reports echo, names no temporary path."""
    rows = np.random.default_rng(seed).lognormal(0.0, 0.5, 128).tolist()
    (tmp_path / "w.csv").write_text("".join(f"{x!r}\n" for x in rows))
    kinds = ["A1", "Ap --p 2", "Ap --p 1.5", "AinfExp", "AinfFW",
             "Mixed --p 2 --alpha 0.5 --beta 0.5", "Mixed --p 3 --alpha 0 --beta 1"]
    commands = {}
    for wname, spec in (("power", "power:delta=0.5"), ("csv", "csv:w.csv")):
        for kind in kinds:
            for fmt in ("json", "csv"):
                name = f"{wname}_constants_{kind.split()[0]}{''.join(kind.split()[2:3])}_{fmt}"
                commands[name] = f"constants --weight {spec} --kind {kind} --J 1 --L 6 --format {fmt}"
        commands[f"{wname}_rh_check"] = f"--seed {seed} rh-check --weight {spec} --J 1 --L 6"
        commands[f"{wname}_doubling"] = f"doubling --weight {spec} --p 2 --J 1 --L 6"
        commands[f"{wname}_lemma_check"] = f"lemma-check --v {spec} --p-grid 1.5,2,3 --J 1 --L 6"
        commands[f"{wname}_bound_audit"] = f"--seed {seed} bound-audit --v {spec} --p 2 --J 1 --L 6"
    out = {}
    for name, command in commands.items():
        buf = io.StringIO()
        with contextlib.chdir(tmp_path), contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            out[name + "_code"] = main(command.split())
        out[name + "_stdout"] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    return out


def report_digests(tmp_path, seed: int) -> dict:
    """Exit codes and SHA-256 stdout digests of the subcommands no other
    digest covers: weaknorm (Md and M) and maximal (dyadic, signed,
    uncentered, weighted) on a seeded input of N = 256 cells (J = 1, L = 7),
    the two sharpness tables in json and csv, and bound-audit on the
    step/walk family at p = 1 and 2.  The commands run in tmp_path, so no
    temporary path reaches their output."""
    g = wl.build_grid(1, 7)
    rng = np.random.default_rng(seed)
    u = rng.lognormal(0.0, 0.3, g.ncells)
    v = rng.lognormal(0.0, 0.3, g.ncells)
    f = rng.lognormal(size=g.ncells) * (rng.random(g.ncells) < 0.6)
    signed = f * rng.choice([-1.0, 1.0], size=g.ncells)
    for k, x in (("u", u), ("v", v), ("f", f), ("s", signed)):
        wl.save_function_csv(wl.GridFunction(g, x), str(tmp_path / f"{k}.csv"))
    commands = {
        "weaknorm_Md": "weaknorm --f f.csv --u csv:u.csv --v csv:v.csv --J 1 --variant Md",
        "weaknorm_M": "weaknorm --f f.csv --u csv:u.csv --v csv:v.csv --J 1 --variant M",
        "maximal_dyadic": "maximal --f f.csv --variant dyadic --J 1",
        "maximal_signed": "maximal --f s.csv --variant dyadic --signed --J 1",
        "maximal_uncentered": "maximal --f f.csv --variant uncentered --J 1",
        "maximal_weighted": "maximal --f f.csv --variant weighted --v csv:v.csv --J 1",
    }
    for fmt in ("json", "csv"):
        commands[f"sharpness_a1_{fmt}"] = f"sharpness-a1 --deltas 0.75,0.5,0.25 --grid --L 8 --format {fmt}"
        commands[f"sharpness_product_{fmt}"] = ("sharpness-product --alphas 0.5,0.25,0.125 "
                                                f"--deltas 0.5,0.25,0.125 --format {fmt}")
    for p in ("1", "2"):
        commands[f"bound_audit_family_p{p}"] = f"--seed {seed} bound-audit --p {p} --J 1 --L 6"
    out = {}
    for name, command in commands.items():
        buf = io.StringIO()
        with contextlib.chdir(tmp_path), contextlib.redirect_stdout(buf):
            out[name + "_code"] = main(command.split())
        out[name + "_stdout"] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    return out


def ceiling_digests(tmp_path, seed: int) -> dict:
    """Exit codes and SHA-256 stdout digests of the uncentered maximal above
    NAIVE_CEILING cells: the sharpness grid row at delta = 1/2 and L = 10
    (N = 2^14, f v zero right of its first 2^10 cells), and maximal
    --variant uncentered and weaknorm --variant M on one seeded row of
    N = 8192 cells (J = 1, L = 12) that is zero on a leading and a trailing
    run.  The commands run in tmp_path, so no temporary path reaches their
    output."""
    g = wl.build_grid(1, 12)
    rng = np.random.default_rng(seed)
    u = rng.lognormal(0.0, 0.3, g.ncells)
    v = rng.lognormal(0.0, 0.3, g.ncells)
    f = rng.lognormal(size=g.ncells) * (rng.random(g.ncells) < 0.6)
    f[:700] = 0.0
    f[3900:] = 0.0
    for k, x in (("u", u), ("v", v), ("f", f)):
        wl.save_function_csv(wl.GridFunction(g, x), str(tmp_path / f"ceiling_{k}.csv"))
    commands = {
        "sharpness_a1_L10": "sharpness-a1 --deltas 0.5 --grid --L 10",
        "maximal_uncentered": "maximal --f ceiling_f.csv --variant uncentered --J 1",
        "weaknorm_M": "weaknorm --f ceiling_f.csv --u csv:ceiling_u.csv --v csv:ceiling_v.csv --J 1 --variant M",
    }
    out = {}
    for name, command in commands.items():
        buf = io.StringIO()
        with contextlib.chdir(tmp_path), contextlib.redirect_stdout(buf):
            out[name + "_code"] = main(command.split())
        out[name + "_stdout"] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    return out


def rh_check_digests(tmp_path) -> dict:
    """Exit codes and SHA-256 stdout digests of rh-check at seed 3 on
    N = 4096 cells (J = 1, L = 11): the Step(1/4) weight, whose full-cube
    unions tie at ratio 1/2, and a seeded random A1 weight read from a csv.
    The commands run in tmp_path, so no temporary path reaches their output."""
    g = wl.build_grid(1, 11)
    w = wl.random_a1_weight(g, np.random.default_rng(3), cap=16.0)
    (tmp_path / "rh_a1.csv").write_text("".join(f"{x!r}\n" for x in w.cell_values.tolist()))
    commands = {
        "step": "--seed 3 rh-check --weight step:alpha=0.25 --J 1 --L 11",
        "csv_a1": "--seed 3 rh-check --weight csv:rh_a1.csv --J 1 --L 11",
    }
    out = {}
    for name, command in commands.items():
        buf = io.StringIO()
        with contextlib.chdir(tmp_path), contextlib.redirect_stdout(buf):
            out[name + "_code"] = main(command.split())
        out[name + "_stdout"] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    return out


def test_outputs_match_recorded_digests(tmp_path):
    # The digests were recorded before the dyadic-tree code was merged into
    # grid.pyramid, the deep-chain one before the principal-cubes ancestor
    # walk and the per-run chain walk, the truncated-root and cell-level
    # czd ones before the stopping time moved to grid.first_cubes, and the
    # signed-f czd one before the CZ fill and checks moved to
    # grid.level_rows; a refactor must leave these bytes unchanged.  The
    # signed-f czd exit code and stdout were recorded again when the
    # domination check took the signed maximal of f v (exit 1 -> 0).  The
    # weight-layer ones were recorded before the weight tables became plain
    # pyramid lists, the report ones before the report layouts were read
    # from the dataclass fields, the ceiling ones before rows above
    # NAIVE_CEILING cells with zero flanks left the hull pass, the rh-check
    # ones before the level-set unions were summed in one fused pass with an
    # exact recheck near the running maximum and near 1.
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    assert cli_digests(tmp_path, golden["seed"]) == golden["digests"]
    assert deep_chain_digest(tmp_path, golden["seed"]) == golden["deep_chain"]
    assert weight_digests(tmp_path, golden["seed"]) == golden["weights"]
    assert report_digests(tmp_path, golden["seed"]) == golden["reports"]
    assert ceiling_digests(tmp_path, golden["seed"]) == golden["ceiling"]
    assert rh_check_digests(tmp_path) == golden["rh_check"]


def test_reused_parser_gives_the_same_outputs(tmp_path):
    # main() builds its parser once per process; a usage error and a --help
    # between two rounds of every golden subcommand must leave the second
    # round's exit codes and stdout digests equal to the first's
    with open(GOLDEN) as fh:
        seed = json.load(fh)["seed"]

    def every_digest():
        return {"digests": cli_digests(tmp_path, seed), "deep_chain": deep_chain_digest(tmp_path, seed),
                "weights": weight_digests(tmp_path, seed), "reports": report_digests(tmp_path, seed)}

    first = every_digest()
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
        assert main(["czd", "--height", "1"]) == 2
        assert main(["czd", "--help"]) == 0
    assert "required" in err.getvalue() and "--out-g" in out.getvalue()
    assert every_digest() == first
    assert cli._build_parser() is cli._build_parser()


@pytest.mark.parametrize("payload", [
    {"a": 1.5, "b": [1, 2.0, (3.0, "x")], "c": {"d": True, "e": None}},
    {"a": math.nan, "b": [1.0, -math.inf], "c": {"d": (math.inf, 2.0)}},
    {"rows": [{"x": (0.5, [math.nan])}], "worst": {"at": [-math.inf, {"y": math.inf}]}},
    {"value": np.float64("inf"), "per_level": [np.float64(1.25), np.float64("nan")]},
], ids=["finite", "non-finite", "nested", "numpy"])
def test_emit_json_matches_the_encoded_dump(capsys, payload):
    # the fast path dumps the payload as it is and falls back to
    # encode_nonfinite only on a non-finite float; the bytes are the same
    cli._emit_json(payload)
    expected = json.dumps(encode_nonfinite({"schema": 1} | payload), sort_keys=True, allow_nan=False)
    assert capsys.readouterr().out == expected + "\n"


@pytest.mark.filterwarnings("error")
def test_non_finite_json_is_quoted(capsys, tmp_path):
    # cells of 1e308 whose pyramid sums overflow are refused, with no
    # warning on the way; a constant that overflows is the defined value
    # +inf, and its report still parses as strict JSON, with it as a string
    f = tmp_path / "big.csv"
    f.write_text("1e308\n" * 4)
    code, out, err = run_cli(capsys, "czd", "--f", str(f), "--v", "const:c=1", "--height", "0.5")
    assert code == 2
    assert out == "" and "finite" in err
    code, out, _ = run_cli(capsys, "maximal", "--f", str(f), "--variant", "weighted", "--v", "const:c=1")
    assert code == 0 and out == "1e+308\n" * 4  # the sums of f v stay finite

    def refuse(token):
        raise ValueError(f"bare {token} in JSON output")

    f.write_text("1e-300\n1e300\n1\n1\n")
    code, out, _ = run_cli(capsys, "constants", "--weight", f"csv:{f}", "--kind", "Ap", "--p", "2",
                           "--J", "0", "--L", "2")
    payload = json.loads(out, parse_constant=refuse)
    assert code == 0
    assert payload["value"] == "inf" and "inf" in [row["value"] for row in payload["per_level"]]


def three_piece_step() -> list[float]:
    x = np.ones(8192)
    x[3979:5888] = 3.0
    x[5888:] = 2.0
    return x.tolist()


DEGENERATE_ROWS = {
    "zero": [0.0] * 4,
    "subnormal": [5e-324] * 4,
    "huge": [1e308] * 4,
    "single": [1.0],
    "step": three_piece_step(),
}

# every subcommand that reads --f, --g or --weight, and bound-audit's
# --corpus; {p} is the CSV, {s} the csv: spec of it, {c} its directory, {e}
# an empty directory, {L} the level of its cells at J = 0 and {K} at J = 1
DEGENERATE_COMMANDS = [
    "maximal --f {p} --variant dyadic",
    "maximal --f {p} --variant dyadic --signed",
    "maximal --f {p} --variant uncentered",
    "maximal --f {p} --variant weighted --v {s}",
    "czd --f {p} --v const:c=1 --height 1.5",
    "czd --f {p} --v {s} --height 1.5",
    "czd --f {p} --v const:c=1e308 --height 1.5 --r 1.5",
    "weaknorm --f {p} --u const:c=1 --v const:c=1",
    "weaknorm --f {p} --u const:c=1 --v const:c=1 --variant M",
    "weaknorm --f {p} --u {s} --v {s} --variant M",
    "sawyer-verify --u {s} --v {s} --g {p}",
    "constants --weight {s} --kind A1 --J 0 --L {L}",
    "constants --weight {s} --kind A1 --J 1 --L {K}",
    "constants --weight {s} --kind Ap --p 2 --J 0 --L {L}",
    "constants --weight {s} --kind AinfExp --J 0 --L {L}",
    "constants --weight {s} --kind AinfFW --J 0 --L {L}",
    "constants --weight {s} --kind Mixed --p 2 --alpha 0.5 --beta 0.5 --J 0 --L {L}",
    "rh-check --weight {s} --J 0 --L {L}",
    "doubling --weight {s} --p 2 --J 0 --L {L}",
    "bound-audit --p 2 --J 0 --L {L} --corpus {c}",
    "bound-audit --p 2 --J 0 --L {L} --corpus {e}",
]

# the commands whose operator sums the "huge" cells, or their products f v
# with a weight: a sum or a product overflows although every cell is
# finite, which is refused
HUGE_REFUSED = [
    "maximal --f {p} --variant dyadic",
    "maximal --f {p} --variant dyadic --signed",
    "maximal --f {p} --variant uncentered",
    "czd --f {p} --v const:c=1 --height 1.5",
    "weaknorm --f {p} --u const:c=1 --v const:c=1",
    "weaknorm --f {p} --u const:c=1 --v const:c=1 --variant M",
    "sawyer-verify --u {s} --v {s} --g {p}",
    "constants --weight {s} --kind AinfFW --J 0 --L {L}",
    "maximal --f {p} --variant weighted --v {s}",
    "czd --f {p} --v {s} --height 1.5",
    "czd --f {p} --v const:c=1e308 --height 1.5 --r 1.5",
    "weaknorm --f {p} --u {s} --v {s} --variant M",
    "rh-check --weight {s} --J 0 --L {L}",
    "constants --weight {s} --kind A1 --J 1 --L {K}",
]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("rows", sorted(DEGENERATE_ROWS))
@pytest.mark.parametrize("command", DEGENERATE_COMMANDS,
                         ids=lambda c: "-".join(t.strip("-") for t in c.split() if "{" not in t))
def test_degenerate_inputs_exit_cleanly(capsys, tmp_path, command, rows):
    values = DEGENERATE_ROWS[rows]
    path = tmp_path / f"{rows}.csv"
    path.write_text("".join(f"{x!r}\n" for x in values))
    L = len(values).bit_length() - 1
    (tmp_path / "empty").mkdir()
    argv = command.format(p=path, s=f"csv:{path}", c=tmp_path, e=tmp_path / "empty", L=L, K=L - 1).split()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, *argv)
    assert code in (0, 1, 2)
    assert (code == 2) == err.startswith("error:")
    if rows == "huge" and command.startswith("rh-check"):
        assert code == 2  # the w^{r_w} averages overflow
    if rows == "huge" and command in HUGE_REFUSED:
        assert code == 2 and out == "" and "finite" in err
        assert not [str(w.message) for w in caught]
    elif "c=1e308" in command:
        assert code == 2 and "underflows" in err  # [v]_{A_r} = 0: no bound for (iii)
    if "{e}" in command or (rows == "zero" and "--corpus" in command):
        assert code == 2 and "corpus with a nonzero function" in err  # else it passes on nothing


# four rows of 1e308 as f and as every csv: weight; warnings are errors, so
# an overflow met before the refusal fails the test
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, message", [
    ("czd --f {p} --v {s} --height 1.5", "the CZ decomposition needs a finite product f v"),
    ("maximal --f {p} --variant weighted --v {s}", "the weighted dyadic maximal needs a finite product f v"),
    ("rh-check --weight {s} --J 0 --L 2", "the averages of w^1.25 or of w are not finite"),
    ("constants --weight {s} --kind A1 --J 1 --L 1", "the mass table of a weight needs finite sums"),
    ("weaknorm --f {p} --u {s} --v {s}", "the L1(uv) norm of f is not finite"),
    ("weaknorm --f {p} --u const:c=1 --v {s}", "the L1(uv) norm of f is not finite"),
    ("weaknorm --f {p} --u {s} --v const:c=1", "the L1(uv) norm of f is not finite"),
])
def test_huge_rows_refused_without_warnings(capsys, tmp_path, command, message):
    path = tmp_path / "big.csv"
    path.write_text("1e308\n" * 4)
    code, out, err = run_cli(capsys, *command.format(p=path, s=f"csv:{path}").split())
    assert (code, out) == (2, "") and message in err


# f = 1e300 on 8 cells, v = 1e10: the L1(uv) norm is finite at u = 1e-20,
# but f v overflows, where the report gave a ratio "inf" and a level-set
# mass "nan"; warnings are errors
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("variant", ["Md", "M"])
def test_mixed_ratio_refuses_an_overflowing_product(capsys, tmp_path, variant):
    path = tmp_path / "f.csv"
    path.write_text("1e300\n" * 8)
    code, out, err = run_cli(capsys, "weaknorm", "--f", str(path), "--u", "const:c=1e-20",
                             "--v", "const:c=1e10", "--J", "1", "--variant", variant)
    assert (code, out) == (2, "") and "the mixed ratio needs a finite product f v on every cell" in err


# every subcommand without a CSV input, and the parameters of czd and
# sawyer-verify on a 4-row CSV {p}, one parameter {x} at a time, L <= 4
PARAMETER_COMMANDS = [
    "czd --f {p} --v const:c=1 --height {x}",
    "czd --f {p} --v const:c=1 --height 1.5 --r {x}",
    "sawyer-verify --u const:c=1 --v const:c=1 --g {p} --a {x}",
    "sawyer-verify --u const:c=1 --v const:c=1 --g {p} --delta-frac {x}",
    "sharpness-a1 --deltas {x}",
    "sharpness-a1 --deltas 0.5,{x} --grid --L 4",
    "sharpness-a1 --deltas 0.75 --grid --L {x}",
    "sharpness-product --alphas {x} --deltas 0.25",
    "sharpness-product --alphas 0.5 --deltas {x}",
    "bound-audit --p {x} --J 0 --L 2",
    "bound-audit --v const:c={x} --p 2 --J 0 --L 2",
    "bound-audit --v step:alpha={x} --p 1 --J 1 --L 2",
    "bound-audit --p 2 --J 0 --L {x}",
    "lemma-check --v step:alpha=0.5 --p-grid {x} --J 1 --L 3",
    "lemma-check --v power:delta={x} --p-grid 2 --J 0 --L 3",
    "constants --weight const:c={x} --kind A1 --J 0 --L 3",
    "constants --weight step:alpha=0.5 --kind Ap --p {x} --J 1 --L 3",
    "constants --weight step:alpha=0.5 --kind Mixed --p {x} --alpha 0.5 --beta 0.5 --J 1 --L 3",
    "constants --weight step:alpha=0.5 --kind Mixed --p 2 --alpha {x} --beta 1 --J 1 --L 3",
    "constants --weight step:alpha=0.5 --kind Mixed --p 2 --alpha 0.5 --beta {x} --J 1 --L 3",
    "constants --weight power:delta={x} --kind AinfExp --J 0 --L 4",
    "constants --weight step:alpha={x} --kind AinfFW --J 1 --L 3",
    "constants --weight const:c=2 --kind AinfFW --J 0 --L {x}",
    "rh-check --weight power:delta={x} --J 0 --L 4",
    "rh-check --weight const:c={x} --J {x} --L 2",
    "doubling --weight step:alpha=0.5 --p {x} --J 1 --L 3",
    "doubling --weight prod:(power:delta=0.5,const:c={x}) --p 2 --J 0 --L 2",
]
PARAMETER_VALUES = ["nan", "inf", "0", "-1", "1e308", ","]  # "," is an empty list


def four_rows(tmp_path) -> str:
    path = tmp_path / "f4.csv"
    path.write_text("1.0\n3.0\n2.0\n0.5\n")
    return str(path)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("x", PARAMETER_VALUES)
@pytest.mark.parametrize("command", PARAMETER_COMMANDS,
                         ids=lambda c: "-".join(t.strip("-") for t in c.replace("{x}", "X").split() if "{p}" not in t))
def test_extreme_parameters_exit_cleanly(capsys, tmp_path, command, x):
    def refuse(token):
        raise ValueError(f"bare {token} in JSON output")

    code, out, err = run_cli(capsys, *command.format(x=x, p=four_rows(tmp_path)).split())
    assert code in (0, 1, 2)
    assert (code == 2) == ("error:" in err)
    if code == 2:
        assert out == ""
    else:
        json.loads(out, parse_constant=refuse)


@pytest.mark.parametrize("command", [
    "bound-audit --p inf --J 0 --L 2",
    "bound-audit --p nan --J 0 --L 2",
    "lemma-check --v step:alpha=0.5 --p-grid inf",
    "constants --weight step:alpha=0.5 --kind Mixed --p 2 --alpha nan --beta 1 --J 1 --L 3",
    "constants --weight step:alpha=0.5 --kind Ap --p inf --J 1 --L 3",
    "czd --f {p} --v const:c=1 --height inf",
    "sawyer-verify --u const:c=1 --v const:c=1 --g {p} --a inf",
])
def test_non_finite_parameters_are_usage_errors(capsys, tmp_path, command):
    code, out, err = run_cli(capsys, *command.format(p=four_rows(tmp_path)).split())
    assert code == 2
    assert out == "" and err.startswith("error:") and "finite" in err



# x^-1, whose cell at the origin has infinite mass, in each weight slot of
# every subcommand that reads a weight spec; {w} is the spec, {p} a 4-row CSV
DIVERGENT = "prod:(power:delta=0.5,power:delta=0.5)"
DIVERGENT_COMMANDS = [
    "constants --weight {w} --kind A1 --J 0 --L 2",
    "constants --weight {w} --kind A1 --J 0 --L 2 --format csv",
    "constants --weight {w} --kind Ap --p 2 --J 0 --L 2",
    "constants --weight {w} --kind AinfExp --J 0 --L 2",
    "constants --weight {w} --kind AinfFW --J 0 --L 2",
    "constants --weight {w} --kind Mixed --p 2 --alpha 0.5 --beta 0.5 --J 0 --L 2",
    "rh-check --weight {w} --J 0 --L 2",
    "doubling --weight {w} --J 0 --L 2",
    "doubling --weight {w} --p 2 --J 0 --L 2",
    "lemma-check --v {w} --p-grid 2 --J 0 --L 2",
    "bound-audit --v {w} --p 2 --J 0 --L 2",
    "maximal --f {p} --variant weighted --v {w}",
    "czd --f {p} --v {w} --height 1.5",
    "weaknorm --f {p} --u {w} --v const:c=1",
    "weaknorm --f {p} --u {w} --v const:c=1 --variant M",
    "weaknorm --f {p} --u const:c=1 --v {w}",
    "sawyer-verify --u {w} --v const:c=1 --g {p}",
    "sawyer-verify --u const:c=1 --v {w} --g {p}",
]
# the ones that printed NaN or -inf, raised, named another fault, or
# passed comparing +inf with +inf
DIVERGENT_REFUSED = {
    "doubling --weight {w} --J 0 --L 2",
    "doubling --weight {w} --p 2 --J 0 --L 2",
    "lemma-check --v {w} --p-grid 2 --J 0 --L 2",
    "maximal --f {p} --variant weighted --v {w}",
    "weaknorm --f {p} --u {w} --v const:c=1",
    "weaknorm --f {p} --u {w} --v const:c=1 --variant M",
    "weaknorm --f {p} --u const:c=1 --v {w}",
    "sawyer-verify --u {w} --v const:c=1 --g {p}",
    "sawyer-verify --u const:c=1 --v {w} --g {p}",
}


@pytest.mark.parametrize("command", DIVERGENT_COMMANDS,
                         ids=lambda c: "-".join(t.strip("-") for t in c.replace("{w}", "V").split() if "{" not in t))
def test_divergent_weight_exits_cleanly(capsys, tmp_path, command):
    code, out, err = run_cli(capsys, *command.format(w=DIVERGENT, p=four_rows(tmp_path)).split())
    assert code in (0, 1, 2)
    assert (code == 2) == any(line.startswith("error:") for line in err.splitlines())
    assert not {"nan", "-inf"} & set(re.findall(r"[-\w.]+", out))
    if command in DIVERGENT_REFUSED:
        assert code == 2 and "finite" in err


# a weight of finite cell masses whose constants overflow to +inf
OVERFLOW_COMMANDS = [
    "constants --weight {w} --kind A1 --J 0 --L 2",
    "constants --weight {w} --kind Ap --p 2 --J 0 --L 2",
    "constants --weight {w} --kind Mixed --p 2 --alpha 0.5 --beta 0.5 --J 0 --L 2",
    "rh-check --weight {w} --J 0 --L 2",
    "doubling --weight {w} --J 0 --L 2",
    "lemma-check --v {w} --p-grid 2 --J 0 --L 2",
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", OVERFLOW_COMMANDS,
                         ids=lambda c: "-".join(t.strip("-") for t in c.split() if "{" not in t))
def test_overflowing_constants_warn_nothing(capsys, tmp_path, command):
    path = tmp_path / "w.csv"
    path.write_text("1e-300\n1e300\n1\n1\n")
    code, out, err = run_cli(capsys, *command.format(w=f"csv:{path}").split())
    assert (code == 2) == err.startswith("error:")
    if command.startswith("constants"):
        assert code == 0 and json.loads(out)["value"] == "inf"
    if command.startswith("doubling"):
        assert code == 2 and "finite" in err
