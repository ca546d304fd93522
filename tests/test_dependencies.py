"""The package and scripts/ import nothing outside the standard library
but numpy, and numpy is the one runtime dependency pyproject.toml declares.

Its model layer loads neither numpy nor the executed layer at import.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "semperf"
ALLOWED = {"numpy", "semperf"}


def imported_roots(path):
    """Top-level names of every absolute import in a module, nested too."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_stdlib_and_numpy():
    modules = sorted(PACKAGE.rglob("*.py")) + sorted(
        (ROOT / "scripts").glob("*.py")
    )
    assert {path.parent.name for path in modules} == {"semperf", "scripts"}
    third_party = sorted(
        (path.name, name)
        for path in modules
        for name in imported_roots(path)
        if name not in ALLOWED and name not in sys.stdlib_module_names
    )
    assert third_party == []


def test_numpy_is_the_one_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(
        (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    )["project"]
    assert project["dependencies"] == ["numpy>=1.24"]
    assert "scipy>=1.10" in project["optional-dependencies"]["bench"]


# The executed layer; every other module is the numpy-free model layer.
EXECUTED = {"basis", "kernel", "solver", "transport"}


def module_level_imports(node):
    """Modules imported when a module loads, relative ones as semperf.x.

    Imports nested in a function run only when it is called and are
    skipped; those in a class body or an if block run at import.
    """
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(child, ast.Import):
            yield from (alias.name for alias in child.names)
        elif isinstance(child, ast.ImportFrom):
            base = ("semperf." if child.level else "") + (child.module or "")
            if child.module is None:
                yield from (base + alias.name for alias in child.names)
            else:
                yield base
        else:
            yield from module_level_imports(child)


def test_model_layer_does_not_import_numpy_or_the_executed_layer():
    modules = sorted(
        p for p in PACKAGE.glob("*.py") if p.stem not in EXECUTED
    )
    assert {p.stem for p in modules} >= {"cli", "counts", "gamma", "harness"}
    forbidden = sorted(
        (path.name, name)
        for path in modules
        for name in module_level_imports(
            ast.parse(path.read_text(encoding="utf-8"))
        )
        if name.split(".")[0] == "numpy"
        or name.removeprefix("semperf.").split(".")[0] in EXECUTED
    )
    assert forbidden == []
