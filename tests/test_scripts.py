"""Smoke test of the three campaigns in scripts/: main() at small sizes
exits 0, and a usage error is one line on stderr and exit 2, as in the CLI.
Every flag, fed malformed and extreme values, exits 0, 1 or 2 without an
exception."""

import importlib.util
import os

import pytest

from weightlab.maximal import ENVELOPE_W

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def load(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, argv", [
    ("run_bound_audit", ["--L", "4"]),
    # its Buckley check on 2^(L + 1) > 2W cells: the envelope prunes there
    ("run_bound_audit", ["--L", str((2 * ENVELOPE_W).bit_length())]),
    ("run_sharpness", ["--grid", "--levels", "6,7,8"]),
    ("run_chain_campaign", ["--pairs", "3"]),
    ("run_sharpness", ["--grid", "--levels", "8,9,10"]),  # N = 2^12..2^14: across NAIVE_CEILING
    ("run_sharpness", ["--deltas", "0.5"]),  # sweeps too short to fit a slope
    ("run_sharpness", ["--alphas", "0.5,0.25"]),
])
def test_campaign_exits_0(capsys, name, argv):
    assert load(name).main(argv) == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("name, argv", [
    ("run_chain_campaign", ["--pairs", "0"]),
    ("run_chain_campaign", ["--pairs", "-2"]),
    ("run_chain_campaign", ["--pairs", "1", "--cap", "0.5"]),
    ("run_chain_campaign", ["--pairs", "1", "--cap", "nan"]),
    ("run_chain_campaign", ["--pairs", "1", "--seed", "-1"]),
    ("run_bound_audit", ["--L", "4", "--ps", "0.5"]),
    ("run_bound_audit", ["--L", "4", "--seed", "-1"]),
    ("run_sharpness", ["--deltas", "1.5"]),
    ("run_sharpness", ["--grid", "--levels", "30"]),
    ("run_sharpness", ["--deltas", "abc"]),
    ("run_sharpness", ["--grid", "--levels", "x"]),
    ("run_sharpness", ["--grid", "--levels", "1.5"]),
    ("run_bound_audit", ["--L", "4", "--ps", "x"]),
    ("run_bound_audit", ["--L", "2", "--ps", ""]),  # no p would be audited
    ("run_bound_audit", ["--L", "2", "--ps", ","]),
])
def test_campaign_usage_error_exits_2(capsys, name, argv):
    assert load(name).main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def exits_cleanly(capsys, name, argv) -> int:
    """main(argv)'s exit code, after checking the contract of weightlab.cli:
    0, 1 or 2, no exception, and one ``error:`` line on stderr exactly when
    the code is 2."""
    code = load(name).main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert sum("error:" in line for line in err.splitlines()) == (code == 2), err
    return code


@pytest.mark.parametrize("name, argv, codes", [
    ("run_sharpness", ["--deltas", ""], {0, 2}),
    ("run_sharpness", ["--grid", "--levels", ""], {0, 2}),
    ("run_bound_audit", ["--L", "2", "--ps", "1,,2"], {0, 2}),
    # an argparse error is exit 2, not SystemExit
    ("run_chain_campaign", ["--pairs", "x"], {2}),
    ("run_bound_audit", ["--pairs", "x"], {2}),
    ("run_sharpness", ["--pairs", "x"], {2}),
])
def test_list_and_typed_flags_exit_as_the_cli_does(capsys, name, argv, codes):
    assert exits_cleanly(capsys, name, argv) in codes


# each script at a tiny size, and every flag it takes
FUZZ = {
    "run_bound_audit": (["--L", "2"], ["--J", "--L", "--ps", "--seed"]),
    "run_chain_campaign": (["--pairs", "1"], ["--pairs", "--seed", "--cap", "--a", "--delta-frac"]),
    "run_sharpness": (["--grid", "--levels", "4"], ["--deltas", "--alphas", "--levels"]),
}
FUZZ_VALUES = ["", "abc", "1,,2", "nan", "inf", "0", "-1", "1.5"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("value", FUZZ_VALUES)
@pytest.mark.parametrize("name, flag", [(n, f) for n, (_, flags) in FUZZ.items() for f in flags])
def test_extreme_parameters_exit_cleanly(capsys, name, flag, value):
    exits_cleanly(capsys, name, FUZZ[name][0] + [flag, value])
