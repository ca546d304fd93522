"""The package imports nothing outside the standard library but numpy."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "semperf"
ALLOWED = {"numpy", "semperf"}


def imported_roots(path):
    """Top-level names of every absolute import in a module, nested too."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_stdlib_and_numpy():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    third_party = sorted(
        (path.name, name)
        for path in modules
        for name in imported_roots(path)
        if name not in ALLOWED and name not in sys.stdlib_module_names
    )
    assert third_party == []
