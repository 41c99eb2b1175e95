"""Module boundaries of weightlab, read from its sources without importing
them.  ``maximal`` decides the path of every row of the uncentered maximal
in one place, so only it may read the thresholds that choose a path or size
a block, and no other module may import one of its private names: a caller
that did would decide a path, or block its rows, a second time.  Likewise
``constants`` holds the one certified pass that counts the ratios of cell
unions, so only it may read the pass's chunk size or call its exact and
fused sums: a caller that did would run a second copy of the pass.
"""

import ast
from pathlib import Path

import pytest

import weightlab

SRC = Path(weightlab.__file__).parent
MODULES = sorted(SRC.glob("*.py"))
THRESHOLDS = {"NAIVE_CEILING", "SWEEP_CELLS", "ENVELOPE_W", "SPLIT_CUTOFF", "SPLIT_MIN", "FLANK_CHUNK",
              "NODE_BLOCK", "NODE_INNER"}
UNION_PASS = {"RH_CHUNK", "_union_counts", "_union_ratios"}


def reads(path: Path, names: set[str]) -> list[tuple[int, str]]:
    """(line, name) for every one of names the module imports or reads,
    under any spelling."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.ImportFrom, ast.Import)):
            found += [(node.lineno, a.name) for a in node.names if a.name in names]
        elif isinstance(node, ast.Name) and node.id in names:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in names:
            found.append((node.lineno, node.attr))
    return found


def maximal_reads(path: Path) -> list[tuple[int, str]]:
    """(line, name) for every threshold the module reads, under any
    spelling, and every private name it imports or reads from ``maximal``."""
    found = reads(path, THRESHOLDS)
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "maximal":
            found += [(node.lineno, a.name) for a in node.names if a.name.startswith("_")]
        elif isinstance(node, ast.Attribute) and node.attr.startswith("_") and ast.unparse(node.value).endswith("maximal"):
            found.append((node.lineno, node.attr))
    return found


def test_the_scan_sees_the_thresholds_where_they_are_read():
    assert {name for _, name in maximal_reads(SRC / "maximal.py")} == THRESHOLDS


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "maximal.py"], ids=lambda p: p.name)
def test_only_maximal_reads_its_thresholds_and_private_names(path):
    assert maximal_reads(path) == []


def test_the_scan_sees_the_union_pass_where_it_runs():
    assert {name for _, name in reads(SRC / "constants.py", UNION_PASS)} == UNION_PASS


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "constants.py"], ids=lambda p: p.name)
def test_only_constants_runs_the_union_pass(path):
    assert reads(path, UNION_PASS) == []
