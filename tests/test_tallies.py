"""Every counted-flop tally is stated once, in counts.py.

The executed counters read their per-point tallies from counts, so a change
to what a kernel counts is one edit there.  The AST test fails when a
FlopCounter.count call outside counts.py spells a number of its own.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "semperf"


def _counts_a_literal(node):
    """True for a call of a method named count with a numeric literal
    anywhere in its arguments, as in counter.count(add=2 * size)."""
    if not (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "count"
    ):
        return False
    args = [*node.args, *(k.value for k in node.keywords)]
    return any(
        isinstance(n, ast.Constant)
        and isinstance(n.value, (int, float, complex))
        and not isinstance(n.value, bool)
        for arg in args
        for n in ast.walk(arg)
    )


def test_only_counts_spells_a_tally():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert {p.stem for p in modules} >= {"counts", "kernel", "solver"}
    spelled = sorted(
        (path.name, node.lineno)
        for path in modules
        if path.name != "counts.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if _counts_a_literal(node)
    )
    assert spelled == []


def test_guard_sees_a_literal_in_any_argument():
    source = (
        "counter.count(add=2 * size, mul=5 * size)\n"
        "self.counter.count(adds, muls, div=2)\n"
        "counter.count(*(size * n for n in (6, 10)))\n"
        "counter.count(*(size * n for n in VECTOR_FLOPS_PER_ITER))\n"
        "counter.count(adds, muls, counts.DIVS_PER_ITER_PER_RANK)\n"
        "pair.count(None)\n"
    )
    hits = [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if _counts_a_literal(node)
    ]
    assert sorted(hits) == [1, 2, 3]
