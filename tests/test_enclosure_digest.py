"""Pinned digests of the evaluator's enclosures.

Each digest hashes exact values: every endpoint of eval_interval's bounds
(lo, hi, den), as the reduced numerator and denominator of lo/den and
hi/den, and every eval_expr result, as
the mantissa and scale of its value and of its error bound.  An input
that has no certified result is hashed by its error's type and message.
A change to the evaluator that moves any endpoint by any amount, or
turns a result into an error, changes a digest.

The inputs are every registry side at seven precisions, and a seeded
set of trees over the full grammar: negative powers, odd and even roots
of exact and of straddling arguments, exp of exact and of interval
arguments, and exact-zero products.
"""

from __future__ import annotations

import hashlib
import random

from epilab.expr import (
    Add,
    ConstE,
    ConstPi,
    Div,
    Exp,
    IntLit,
    Mul,
    PowInt,
    Root,
    Sub,
    eval_expr,
    eval_interval,
    parse,
)
from epilab.oracle import NoCertifiedResult
from epilab.registry import REGISTRY

from conftest import as_fractions

#: trees written out, so each case named in the module docstring is
#: certainly among the inputs
FIXED_TREES = [
    "pi^-3", "(pi - e)^-2", "(e - 3)^-3", "(e - 3)^2", "(e - 3)^3", "(pi - pi)^2",
    "(pi - pi)^3", "pi^0", "(pi - pi)^0", "0^-1",
    "root(3, 0 - 8)", "root(4, 16/81)", "root(3, 2)", "root(3, 0 - 2)", "sqrt(2)",
    "root(1, pi)", "root(3, pi - pi)", "root(5, e - e)", "sqrt(pi - pi)", "root(4, e - 3)",
    "root(3, 314159265358980/10^14 - pi)", "sqrt(0 - 1)", "root(2, e - 3)",
    "exp(0)", "exp(1/3)", "exp(0 - 1/3)", "exp(pi - 3)", "exp(3 - pi)", "exp(pi)",
    "exp(100)", "exp(101)", "exp(pi^5)", "exp(0*pi)", "exp(pi*sqrt(163))",
    "0*pi", "pi*0", "(1 - 1)*e + pi", "0*pi/e", "(pi - pi)*0 - 1", "0/pi", "0/(e - 3)",
    "1/0", "1/(1 - 1)", "1/(pi - pi)", "pi/(e - 3)", "(pi - 4)/(e - 3)", "(3 - pi)*(e - 3)",
    "(pi - 3)*(3 - e)/(e - pi)", "1/3 + pi", "pi - 22/7", "7/3*e", "e/(0 - 7/3)",
]


def _leaf(rng: random.Random):
    pick = rng.randrange(6)
    if pick == 0:
        return ConstPi()
    if pick == 1:
        return ConstE()
    if pick == 2:
        return IntLit(rng.randrange(0, 10))
    if pick == 3:
        return IntLit(rng.choice((0, 1, 2, 3)))
    num = rng.randrange(-30, 31)
    return Div(IntLit(num), IntLit(rng.randrange(1, 12)))


def _tree(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.25:
        return _leaf(rng)
    pick = rng.randrange(8)
    if pick < 4:
        op = (Add, Sub, Mul, Div)[pick]
        return op(_tree(rng, depth - 1), _tree(rng, depth - 1))
    if pick == 4:
        return PowInt(_tree(rng, depth - 1), rng.randrange(-4, 5))
    if pick == 5:
        return Root(_tree(rng, depth - 1), rng.randrange(1, 6))
    if pick == 6:
        # x - x straddles zero unless x is exact; a zero factor is exact
        x = _tree(rng, depth - 1)
        return rng.choice((Sub(x, x), Mul(IntLit(0), x), Mul(x, Sub(IntLit(1), IntLit(1)))))
    return Exp(_tree(rng, min(depth - 1, 2)))


def _trees() -> list:
    rng = random.Random(15001)
    return [parse(t) for t in FIXED_TREES] + [_tree(rng, 4) for _ in range(250)]


def _results(node, digits: int) -> list[str]:
    try:
        lo, hi = as_fractions(eval_interval(node, digits))
        value, err = eval_expr(node, digits)
    except NoCertifiedResult as exc:
        return [f"{type(exc).__name__}: {exc}"]
    return [f"{lo.numerator}/{lo.denominator} {hi.numerator}/{hi.denominator}",
            f"{value} {digits + 2} {err} {digits + 6}"]


def _digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_registry_side_enclosures_are_pinned():
    lines = [line for digits in (6, 7, 30, 45, 100, 150, 300) for r in REGISTRY
             for side in (r.lhs, r.rhs) for line in _results(side, digits)]
    assert len(lines) == 7 * 20 * 2 * 2
    assert _digest(lines) == "1512ea1b310804f6c085fc0d100ee56ca547de16f26685698895b5a11b0b68db"


def test_random_tree_enclosures_are_pinned():
    trees = _trees()
    lines = [line for i, node in enumerate(trees) for line in _results(node, (6, 12, 30)[i % 3])]
    kinds = {line.split(":")[0] for line in lines if ":" in line}
    # every way an evaluation can end is among the inputs
    assert kinds == {"EvalDomainError", "PrecisionCapError", "ExpRangeError"}
    assert _digest(lines) == "81866ea823e93bbb0319e798fdda23aba6ef66d27433f548c5029b991b058c94"
