"""The benchmark harness under benchmarks/ binds to weightlab by name: the
tracer wraps the functions listed in spans.TARGETS, and the campaigns and
the harness's own tests import and call public names.  A refactor that drops
or renames one of them breaks the harness only when it runs, so these tests
read its sources (without importing or editing them) and look every name up.
The counters of the tracer read attributes off a traced call's result and
first argument; those are checked on a real call of each such function.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

import weightlab

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"
SOURCES = sorted(BENCH.glob("*.py")) + sorted(BENCH.glob("tests/*.py"))
SUBMODULES = {p.stem for p in Path(weightlab.__file__).parent.glob("*.py")}
SPANS = ast.parse((BENCH / "spans.py").read_text())


def targets() -> ast.Dict:
    for node in SPANS.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return node.value
    raise AssertionError("spans.py defines no TARGETS dict")


def traced_targets() -> list[tuple[str, str]]:
    return [ast.literal_eval(key) for key in targets().keys]


def counter_reads() -> dict[tuple[str, str], set[tuple[int, str]]]:
    """Per traced (module, function) with a counter, the attributes its
    counter (args, out) reads: (0, name) off args[0], (-1, name) off out."""
    counters = {node.name: node for node in SPANS.body if isinstance(node, ast.FunctionDef)}
    reads = {}
    for key, value in zip(targets().keys, targets().values):
        if isinstance(value.elts[1], ast.Name):
            fn = counters[value.elts[1].id]
            args, out = (a.arg for a in fn.args.args)
            reads[ast.literal_eval(key)] = {
                (-1 if ast.unparse(n.value) == out else 0, n.attr)
                for n in ast.walk(fn) if isinstance(n, ast.Attribute) and ast.unparse(n.value) in (out, f"{args}[0]")}
    return reads


def test_counter_attributes_exist_on_real_calls():
    g = weightlab.build_grid(1, 4)
    rng = np.random.default_rng(0)
    f = weightlab.GridFunction(g, rng.lognormal(size=g.ncells))
    v = weightlab.random_a1_weight(g, rng, cap=4.0)
    calls = {  # a small real call of every traced function with a counter
        ("maximal", "uncentered_maximal"): (f,),
        ("constants", "reverse_holder_check"): (v,),
        ("czd", "cz_decompose"): (f, v, 1.5 * float(f.values.mean())),
        ("sawyer", "principal_cubes"): (weightlab.build_record(f, v), v),
    }
    reads = counter_reads()
    assert reads and all(reads.values())  # the parse found what each counter reads
    for (module, name), attrs in reads.items():
        assert (module, name) in calls, f"no real call of {module}.{name} to check its counter on"
        args = calls[(module, name)]
        out = getattr(importlib.import_module(f"weightlab.{module}"), name)(*args)
        for pos, attr in attrs:
            assert hasattr(out if pos == -1 else args[pos], attr), (module, name, pos, attr)


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
