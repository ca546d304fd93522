"""One rule for every number the model layer accepts: counts.require.

The AST test keeps the rule in one place: no module but counts.py spells
its own bool or numbers.Real check.
"""

import ast
import math
from fractions import Fraction
from pathlib import Path

import pytest

from semperf.counts import require

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "semperf"


class TestRequire:
    @pytest.mark.parametrize(
        "x,kwargs",
        [
            (0, {}),
            (-3.5, {}),
            (0.0, {"low": 0}),
            (1, {"low": 1, "integer": True}),
            (1e-300, {"low": 0, "above": True}),
            (Fraction(1, 3), {"low": 0, "above": True}),
            (2.0**1023, {"low": 0}),
        ],
    )
    def test_accepts_finite_numbers_in_range(self, x, kwargs):
        assert require("field", x, **kwargs) is None

    @pytest.mark.parametrize(
        "x,kwargs,message",
        [
            (True, {}, "must be a number"),
            (False, {"integer": True}, "must be an integer"),
            ("7", {}, "must be a number"),
            (None, {}, "must be a number"),
            ([1], {}, "must be a number"),
            (2.0, {"integer": True}, "must be an integer"),
            (math.nan, {}, "must be finite"),
            (math.inf, {}, "must be finite"),
            (-math.inf, {"low": 0}, "must be finite"),
            (10**400, {"integer": True}, "must be finite"),
            (-(10**400), {}, "must be finite"),
            (-1, {"low": 0, "integer": True}, "must be an integer >= 0"),
            (0.5, {"low": 1}, "must be a number >= 1"),
            (0, {"low": 0, "above": True}, "must be a number > 0"),
            (-0.0, {"low": 0, "above": True}, "must be a number > 0"),
        ],
    )
    def test_refuses_with_the_field_named(self, x, kwargs, message):
        with pytest.raises(ValueError, match=f"^field {message}"):
            require("field", x, **kwargs)

    def test_huge_int_is_not_printed(self):
        with pytest.raises(ValueError) as info:
            require("latency", 10**400)
        assert str(info.value) == (
            "latency must be finite (got a value too large for a float)"
        )


def _spells_bool_check(node):
    """True for isinstance(x, bool) and isinstance(x, (..., bool, ...))."""
    if not (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and len(node.args) == 2
    ):
        return False
    kinds = node.args[1]
    names = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
    return any(isinstance(n, ast.Name) and n.id == "bool" for n in names)


def _imports_numbers(node):
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] == "numbers" for a in node.names)
    return (
        isinstance(node, ast.ImportFrom)
        and node.level == 0
        and node.module.split(".")[0] == "numbers"
    )


def test_only_counts_spells_the_number_rule():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert {p.stem for p in modules} >= {"counts", "gamma", "harness"}
    spelled = sorted(
        (path.name, node.lineno)
        for path in modules
        if path.name != "counts.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if _spells_bool_check(node) or _imports_numbers(node)
    )
    assert spelled == []


def test_guard_sees_both_spellings():
    source = (
        "import numbers\n"
        "from numbers import Real\n"
        "isinstance(x, bool)\n"
        "isinstance(x, (int, bool))\n"
        "isinstance(x, int)\n"
    )
    hits = [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if _spells_bool_check(node) or _imports_numbers(node)
    ]
    assert sorted(hits) == [1, 2, 3, 4]
