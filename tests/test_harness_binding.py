"""The benchmark harness under benchmarks/ binds to weightlab by name: the
tracer wraps the functions listed in spans.TARGETS, and the campaigns and
the harness's own tests import and call public names.  A refactor that drops
or renames one of them breaks the harness only when it runs, so these tests
read its sources (without importing or editing them) and look every name up.
"""

import ast
import importlib
from pathlib import Path

import pytest

import weightlab

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"
SOURCES = sorted(BENCH.glob("*.py")) + sorted(BENCH.glob("tests/*.py"))
SUBMODULES = {p.stem for p in Path(weightlab.__file__).parent.glob("*.py")}


def traced_targets() -> list[tuple[str, str]]:
    tree = ast.parse((BENCH / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return [ast.literal_eval(key) for key in node.value.keys]
    raise AssertionError("spans.py defines no TARGETS dict")


def weightlab_names(path: Path) -> list[tuple[str, str]]:
    """(module, name) for every name the file imports from weightlab and
    every attribute it reads from a weightlab module it imported."""
    tree = ast.parse(path.read_text())
    modules: dict[str, str] = {}  # local alias -> weightlab module
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "weightlab":
                    modules[a.asname or a.name.split(".")[0]] = a.name if a.asname else "weightlab"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "weightlab":
            for a in node.names:
                if node.module == "weightlab" and a.name in SUBMODULES:
                    modules[a.asname or a.name] = f"weightlab.{a.name}"
                else:
                    names.append((node.module, a.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            names.append((modules[node.value.id], node.attr))
    return names


def test_traced_targets_exist():
    targets = traced_targets()
    assert targets
    for module, name in targets:
        assert callable(getattr(importlib.import_module(f"weightlab.{module}"), name, None)), (module, name)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(BENCH)))
def test_harness_names_exist(path):
    for module, name in weightlab_names(path):
        assert hasattr(importlib.import_module(module), name), f"{path.name}: {module}.{name}"


def test_harness_reads_the_benchmark_tests():
    names = weightlab_names(BENCH / "tests" / "test_benchmark.py")
    assert ("weightlab.sawyer", "level_cubes") in names
    assert ("weightlab.maximal", "uncentered_maximal_brute") in names
