"""Smoke test of the three campaigns in scripts/: main() at its smallest
size exits 0."""

import importlib.util
import os

import pytest

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def load(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, argv", [
    ("run_bound_audit", ["--L", "4"]),
    ("run_sharpness", ["--grid", "--levels", "6,7,8"]),
    ("run_chain_campaign", ["--pairs", "3"]),
    ("run_sharpness", ["--grid", "--levels", "8,9,10"]),  # N = 2^12..2^14: across NAIVE_CEILING
])
def test_campaign_exits_0(capsys, name, argv):
    assert load(name).main(argv) == 0
    assert capsys.readouterr().out
