"""Every modeled time comes from one place, harness.model_point.

Campaigns, predict and the profile fit in scripts/ all turn counts into
time through model_point, so a change to the time model is one edit there.
The AST test fails when any other function calls gamma.predict_time.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _predict_time_callers(tree):
    """(function name, line) of each call of a name or attribute named
    predict_time, by its innermost enclosing function (None at top level)."""
    hits = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call):
            f = node.func
            name = getattr(f, "attr", getattr(f, "id", None))
            if name == "predict_time":
                hits.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return hits


def test_only_model_point_calls_predict_time():
    modules = sorted(
        [*(ROOT / "src" / "semperf").rglob("*.py"), *ROOT.glob("scripts/*.py")]
    )
    assert {p.stem for p in modules} >= {"harness", "cli", "tune_profiles"}
    callers = sorted(
        (path.name, func)
        for path in modules
        for func, _ in _predict_time_callers(
            ast.parse(path.read_text(encoding="utf-8"))
        )
    )
    assert callers == [("harness.py", "model_point")]


def test_guard_sees_a_call_but_not_an_import():
    source = (
        "from semperf.gamma import predict_time\n"
        "from .gamma import (\n"
        "    predict_time,\n"
        ")\n"
        "def fit(case):\n"
        "    td = predict_time(unit, 8, p, flops, words, messages)\n"
        "    return gamma.predict_time(unit, 8, p, 1, 0, 0)\n"
        "f = predict_time\n"
        "predict_time(m, 8, 1, 1, 0, 0)\n"
    )
    hits = _predict_time_callers(ast.parse(source))
    assert sorted(hits, key=lambda h: h[1]) == [
        ("fit", 6), ("fit", 7), (None, 9)
    ]
