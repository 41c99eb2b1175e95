"""Smoke test of the three campaigns in scripts/: main() at small sizes
exits 0, and a usage error is one line on stderr and exit 2, as in the CLI."""

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
])
def test_campaign_usage_error_exits_2(capsys, name, argv):
    assert load(name).main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
