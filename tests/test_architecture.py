"""Module boundaries of weightlab, read from its sources without importing
them.  ``maximal`` decides the path of every row of the uncentered maximal
in one place, so only it may read the thresholds that choose a path or size
a block, and no other module may import one of its private names: a caller
that did would decide a path, or block its rows, a second time.  Likewise
``constants`` holds the one certified pass that counts the ratios of cell
unions, so only it may read the pass's chunk size or call its exact and
fused sums: a caller that did would run a second copy of the pass.  It
also fills and reads ``GridWeight.fw_levels``, the Fujii-Wilson levels
kept on a weight, so no other module reads or writes that slot (``weights``
only declares it): a module that did could keep levels ``_fw_levels`` did
not build, or build them a second way.  And
``cli.dispatch`` holds the one exit contract of the CLI and the scripts/
campaigns, so each script's main() calls it, and no script catches a usage
error, checks --seed or prints an ``error:`` line itself.
"""

import ast
from pathlib import Path

import pytest

import weightlab

SRC = Path(weightlab.__file__).parent
MODULES = sorted(SRC.glob("*.py"))
SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))
THRESHOLDS = {"NAIVE_CEILING", "SWEEP_CELLS", "ENVELOPE_W", "SPLIT_CUTOFF", "SPLIT_MIN", "FLANK_CHUNK",
              "NODE_BLOCK", "NODE_INNER"}
UNION_PASS = {"RH_CHUNK", "_union_counts", "_union_ratios"}
FW_SLOT = "fw_levels"


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


def fw_slot_uses(path: Path) -> list[tuple[int, str]]:
    """(line, name) for every read or write of the Fujii-Wilson slot, less
    its declaration as a field of ``GridWeight``."""
    declared = {(node.lineno, FW_SLOT) for cls in ast.parse(path.read_text()).body
                if isinstance(cls, ast.ClassDef) and cls.name == "GridWeight"
                for node in cls.body if isinstance(node, ast.AnnAssign) and ast.unparse(node.target) == FW_SLOT}
    return [hit for hit in reads(path, {FW_SLOT}) if hit not in declared]


def test_the_scan_sees_the_fw_slot_where_it_is_filled():
    assert len(fw_slot_uses(SRC / "constants.py")) >= 2  # one write, one read
    assert len(reads(SRC / "weights.py", {FW_SLOT})) == 1 and fw_slot_uses(SRC / "weights.py") == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "constants.py"], ids=lambda p: p.name)
def test_only_constants_fills_or_reads_the_fw_slot(path):
    assert fw_slot_uses(path) == []


def own_exit_rules(path: Path) -> list[tuple[int, str]]:
    """(line, what) for every piece of the exit contract the file writes
    itself: an except clause naming ConfigError, a comparison that reads a
    seed, or an ``error:`` string outside a docstring."""
    tree = ast.parse(path.read_text())
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and ast.get_docstring(node)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type and "ConfigError" in ast.unparse(node.type):
            found.append((node.lineno, "catches ConfigError"))
        elif isinstance(node, ast.Compare) and "seed" in ast.unparse(node):
            found.append((node.lineno, "compares the seed"))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str) and "error:" in node.value
              and id(node) not in docstrings):
            found.append((node.lineno, "writes error:"))
    return found


def main_calls_dispatch(path: Path) -> bool:
    """Whether the module's main() calls a function named dispatch."""
    mains = [node for node in ast.parse(path.read_text()).body
             if isinstance(node, ast.FunctionDef) and node.name == "main"]
    return any(isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "dispatch"
               for main in mains for node in ast.walk(main))


def test_the_scan_sees_the_exit_contract_where_it_is_written():
    assert {what for _, what in own_exit_rules(SRC / "cli.py")} == {
        "catches ConfigError", "compares the seed", "writes error:"}
    assert main_calls_dispatch(SRC / "cli.py")


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_scripts_exit_through_the_shared_contract(path):
    assert len(SCRIPTS) == 3
    assert own_exit_rules(path) == []
    assert main_calls_dispatch(path)
