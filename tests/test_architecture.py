"""Module boundaries of weightlab, read from its sources without importing
them.  ``maximal`` decides the path of every row of the uncentered maximal
in one place, so only it may read the thresholds that choose a path or size
a block, and no other module may import one of its private names: a caller
that did would decide a path, or block its rows, a second time.
"""

import ast
from pathlib import Path

import pytest

import weightlab

SRC = Path(weightlab.__file__).parent
MODULES = sorted(SRC.glob("*.py"))
THRESHOLDS = {"NAIVE_CEILING", "SWEEP_CELLS", "ENVELOPE_W", "SPLIT_CUTOFF", "FLANK_CHUNK"}


def maximal_reads(path: Path) -> list[tuple[int, str]]:
    """(line, name) for every threshold the module reads, under any
    spelling, and every private name it imports or reads from ``maximal``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "maximal":
            found += [(node.lineno, a.name) for a in node.names if a.name.startswith("_")]
        if isinstance(node, (ast.ImportFrom, ast.Import)):
            found += [(node.lineno, a.name) for a in node.names if a.name in THRESHOLDS]
        elif isinstance(node, ast.Name) and node.id in THRESHOLDS:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and (
            node.attr in THRESHOLDS or (node.attr.startswith("_") and ast.unparse(node.value).endswith("maximal"))
        ):
            found.append((node.lineno, node.attr))
    return found


def test_the_scan_sees_the_thresholds_where_they_are_read():
    assert {name for _, name in maximal_reads(SRC / "maximal.py")} == THRESHOLDS


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "maximal.py"], ids=lambda p: p.name)
def test_only_maximal_reads_its_thresholds_and_private_names(path):
    assert maximal_reads(path) == []
