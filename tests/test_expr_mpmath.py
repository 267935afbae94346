"""The evaluator against mpmath's interval arithmetic, a reference that
shares no code with it.

A reference evaluator walks the same tree: exact subtrees (literals,
rational arithmetic on them, perfect-power roots, a zero factor, x^0
and exp(0)) stay Fractions, as the evaluator promises, and every other
node is a rigorous ``mpmath.iv`` interval at about twice the requested
digits.  Every certified enclosure must meet the reference's, which
holds the true value too.  EvalDomainError must come only from an exact
zero divisor or a negative even radicand, ExpRangeError only from an
exp argument past the limit, and PrecisionCapError only where the
reference cannot settle a sign either.  mpmath is a test-only
dependency; without it these tests are skipped.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epilab.expr import (
    Add,
    ConstE,
    ConstPi,
    Div,
    EvalDomainError,
    Exp,
    IntLit,
    Mul,
    PowInt,
    PrecisionCapError,
    Root,
    Sub,
    eval_interval,
    parse,
)
from epilab.oracle import EXP_ARG_LIMIT, ExpRangeError

from conftest import as_fractions

mpmath = pytest.importorskip("mpmath")
iv = mpmath.iv


class _Domain(Exception):
    """The value is undefined: an exact zero divisor or a negative even radicand."""


class _Range(Exception):
    """An exp argument lies past the limit."""


class _Unsettled(Exception):
    """A divisor or radicand straddles zero, or an exp argument the limit."""


def _iv(x):
    return iv.mpf(x.numerator) / x.denominator if isinstance(x, Fraction) else x


def _exact(raw) -> Fraction | None:
    """An interval endpoint, mpmath's raw (sign, man, exp, bc), as a
    Fraction; None for an infinite one."""
    sign, man, exp, bc = raw
    if man == 0:
        return None if bc else Fraction(0)
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


def _is_zero(x) -> bool:
    return isinstance(x, Fraction) and x == 0


def _nearest_root(n: int, k: int) -> int:
    with mpmath.workdps(len(str(n)) // k + 20):
        return int(mpmath.nint(mpmath.root(n, k)))


def _recip(x):
    if isinstance(x, Fraction):
        if x == 0:
            raise _Domain
        return 1 / x
    if x.a <= 0 <= x.b:
        raise _Unsettled
    return 1 / x


def _root(x, k: int):
    # the k-th root increases, so each endpoint's root bounds it
    def at(t):
        if t == 0:
            return iv.mpf(0)
        r = iv.exp(iv.log(abs(t)) / k)
        return r if t > 0 else -r

    return iv.mpf([at(x.a).a, at(x.b).b])


def _ref(node):
    if isinstance(node, ConstPi):
        return iv.pi
    if isinstance(node, ConstE):
        return iv.e
    if isinstance(node, IntLit):
        return Fraction(node.value)
    if isinstance(node, (Add, Sub, Mul, Div)):
        a, b = _ref(node.left), _ref(node.right)
        if isinstance(node, Div):
            b = _recip(b)
        if isinstance(node, (Mul, Div)) and any(_is_zero(x) for x in (a, b)):
            return Fraction(0)
        if not (isinstance(a, Fraction) and isinstance(b, Fraction)):
            a, b = _iv(a), _iv(b)
        if isinstance(node, Add):
            return a + b
        return a - b if isinstance(node, Sub) else a * b
    if isinstance(node, PowInt):
        a, k = _ref(node.base), node.exponent
        if k == 0:
            return Fraction(1)
        if k < 0:
            a, k = _recip(a), -k
        return a**k
    if isinstance(node, Root):
        a, k = _ref(node.arg), node.k
        if isinstance(a, Fraction):
            if k % 2 == 0 and a < 0:
                raise _Domain
            p, q = abs(a.numerator), a.denominator
            rp, rq = _nearest_root(p, k), _nearest_root(q, k)
            if rp**k == p and rq**k == q:
                return Fraction(rp if a >= 0 else -rp, rq)
            a = _iv(a)
        if k % 2 == 0:
            if a.b < 0:
                raise _Domain
            if a.a < 0:
                raise _Unsettled
        return _root(a, k)
    if isinstance(node, Exp):
        a = _ref(node.arg)
        if _is_zero(a):
            return Fraction(1)
        a = _iv(a)
        if a.a > EXP_ARG_LIMIT or a.b < -EXP_ARG_LIMIT:
            raise _Range
        if a.b > EXP_ARG_LIMIT or a.a < -EXP_ARG_LIMIT:
            raise _Unsettled
        return iv.exp(a)
    raise TypeError(node)


def _reference(node, digits: int):
    """The reference's value, or the exception class it ends in; at twice
    the digits first, and at 1,000 digits when that cannot settle."""
    old = iv.dps
    try:
        for iv.dps in (2 * digits + 10, 1000):
            try:
                return _ref(node)
            except _Unsettled:
                continue
            except (_Domain, _Range) as exc:
                return type(exc)
        return _Unsettled
    finally:
        iv.dps = old


leaves = st.one_of(
    st.integers(min_value=0, max_value=12).map(IntLit),
    st.builds(lambda n, d: Div(IntLit(n), IntLit(d)), st.integers(-20, 20), st.integers(1, 9)),
    st.just(ConstPi()),
    st.just(ConstE()),
)


def _combine(children):
    binary = st.tuples(children, children)
    return st.one_of(
        binary.map(lambda p: Add(*p)),
        binary.map(lambda p: Sub(*p)),
        binary.map(lambda p: Mul(*p)),
        binary.map(lambda p: Div(*p)),
        st.tuples(children, st.integers(-4, 4)).map(lambda p: PowInt(*p)),
        st.tuples(children, st.integers(1, 5)).map(lambda p: Root(*p)),
        children.map(Exp),
        # x - x straddles zero unless x is exact
        children.map(lambda x: Sub(x, x)),
    )


trees = st.recursive(leaves, _combine, max_leaves=8)


@given(trees, st.integers(min_value=1, max_value=40))
@settings(max_examples=300, deadline=None)
@example(parse("1/(1 - 1)"), 10)
@example(parse("sqrt(e - 3)"), 10)
@example(parse("(pi - pi)*0"), 10)
@example(parse("1/(pi - pi)"), 5)
@example(parse("root(3, pi - pi)"), 20)
@example(parse("exp(pi^5)"), 10)
@example(parse("exp(pi - 3)/(e - 3)^-3"), 30)
def test_enclosures_meet_mpmath(tree, digits):
    ref = _reference(tree, digits)
    try:
        lo, hi = as_fractions(eval_interval(tree, digits))
    except EvalDomainError:
        assert ref is _Domain
        return
    except ExpRangeError:
        assert ref is _Range
        return
    except PrecisionCapError:
        assert ref is _Unsettled
        return
    assert hi - lo <= Fraction(1, 10**digits)
    assert ref not in (_Domain, _Range)
    if ref is _Unsettled:
        return
    if isinstance(ref, Fraction):
        assert lo == ref == hi
        return
    ref_lo, ref_hi = _exact(ref._mpi_[0]), _exact(ref._mpi_[1])
    assert ref_lo is None or ref_lo <= hi
    assert ref_hi is None or lo <= ref_hi
