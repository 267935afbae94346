"""The oracles against mpmath, a reference that shares no code with them.

Each enclosure must contain mpmath's value computed to 2d + 60 digits
after the point, and meet its width contract.  The scaled-integer sums
under them are also checked at a few digits, where one unit of rounding
left out of a bound would show.  mpmath is a test-only dependency;
without it these tests are skipped.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epilab import oracle
from epilab.expr import eval_interval, parse
from epilab.oracle import EXP_ARG_LIMIT, e_interval, exp_interval, pi_interval

mpmath = pytest.importorskip("mpmath")


def _exact(x) -> Fraction:
    """The exact binary value of an mpmath number."""
    # man_exp drops the sign, so read it from the raw (sign, man, exp, bc)
    sign, man, exp, _ = mpmath.mpf(x)._mpf_
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


def test_exact_keeps_the_sign():
    assert _exact(-3) == -3
    assert _exact(mpmath.mpf(3) / 4) == Fraction(3, 4)
    lo, hi = eval_interval(parse("root(3, 0-pi)"), 30)
    with mpmath.workdps(120):
        ref = _exact(-mpmath.cbrt(mpmath.pi))
    assert ref < 0
    assert lo <= ref <= hi


@pytest.mark.parametrize("digits", [1, 50, 1000, 5000])
@pytest.mark.parametrize("name, interval, reference", [
    ("pi", pi_interval, lambda: +mpmath.pi),
    ("e", e_interval, lambda: mpmath.e()),
])
def test_constant_enclosure_contains_mpmath(name, interval, reference, digits):
    lo, hi = interval(digits)
    with mpmath.workdps(2 * digits + 60):
        ref = _exact(reference())
    assert lo <= ref <= hi, name
    assert hi - lo < 2 * Fraction(1, 10**digits)


@pytest.mark.parametrize("name, interval, reference", [
    ("pi", pi_interval, lambda: +mpmath.pi),
    ("e", e_interval, lambda: mpmath.e()),
])
def test_deep_constant_enclosure_contains_mpmath(name, interval, reference):
    # the deep end of the kernels: 20,000 digits, past every benchmark size
    digits = 20000
    lo, hi = interval(digits)
    with mpmath.workdps(2 * digits + 60):
        ref = _exact(reference())
    assert lo <= ref <= hi, name
    assert hi - lo < 2 * Fraction(1, 10**digits)


@pytest.mark.parametrize("digits", [1, 30, 4999])
@pytest.mark.parametrize("name, interval, reference", [
    ("pi", pi_interval, lambda: +mpmath.pi),
    ("e", e_interval, lambda: mpmath.e()),
])
def test_warm_enclosure_equals_cold(name, interval, reference, digits):
    cold = interval(digits)
    interval(5000)
    # a finer enclosure in the cache does not change the one asked for
    lo, hi = interval(digits)
    assert (lo, hi) == cold, name
    unit = 10 ** (digits + oracle._guard(digits))
    assert unit % lo.denominator == 0 and unit % hi.denominator == 0, name
    assert hi - lo < 2 * Fraction(1, 10**digits)
    with mpmath.workdps(2 * digits + 60):
        ref = _exact(reference())
    assert lo <= ref <= hi, name


@st.composite
def exp_arguments(draw) -> Fraction:
    den = draw(st.integers(min_value=1, max_value=10**300))
    num = draw(st.integers(min_value=-EXP_ARG_LIMIT * den, max_value=EXP_ARG_LIMIT * den))
    return Fraction(num, den)


@settings(max_examples=60, deadline=None)
@given(exp_arguments(), st.integers(min_value=1, max_value=80))
@example(Fraction(0), 30)
@example(Fraction(EXP_ARG_LIMIT), 40)
@example(Fraction(-EXP_ARG_LIMIT), 40)
@example(Fraction(5), 1)
@example(Fraction(-3), 60)
@example(Fraction(-7, 2), 25)
@example(Fraction(1, 10**300), 80)
@example(Fraction(-1, 10**300), 80)
def test_exp_enclosure_contains_mpmath(x, digits):
    lo, hi = exp_interval(x, digits)
    # exp(100) has 44 integer digits; a relative precision of 2d + 110
    # digits leaves 2d + 60 after the point with room for the rounding
    # of x itself
    with mpmath.workdps(2 * digits + 110):
        ref = _exact(mpmath.exp(mpmath.mpf(x.numerator) / x.denominator))
    assert lo <= ref <= hi
    assert hi - lo <= Fraction(1, 10**digits)
    # rounded onto the 10**-(digits + 4) grid, so its denominators stay small
    grid = 10 ** (digits + 4)
    assert grid % lo.denominator == 0 and grid % hi.denominator == 0


@pytest.mark.parametrize("digits", [1000, 5000])
@pytest.mark.parametrize("x", [Fraction(1, 3), Fraction(-7, 3), Fraction(EXP_ARG_LIMIT - 1, 7)],
                         ids=str)
def test_deep_exp_enclosure_contains_mpmath(x, digits):
    lo, hi = exp_interval(x, digits)
    with mpmath.workdps(2 * digits + 110):
        ref = _exact(mpmath.exp(mpmath.mpf(x.numerator) / x.denominator))
    assert lo <= ref <= hi
    assert hi - lo <= Fraction(1, 10**digits)


# -- the scaled sums, at sizes where each unit of rounding counts


# pi/4 as a sum of c * arctan(1/u), one identity holding each q: Euler,
# Hutton, Machin, Hermann and Stormer.  The references come from mpmath's
# arctangent, not from its pi.
MACHIN_LIKE = {
    2: ((1, 2), (1, 3)),
    3: ((2, 3), (1, 7)),
    5: ((4, 5), (-1, 239)),
    7: ((2, 2), (-1, 7)),
    239: ((6, 8), (2, 57), (1, 239)),
}


@pytest.mark.parametrize("q", sorted(MACHIN_LIKE))
def test_arctan_sum_bounds(q):
    for work in range(0, 60):
        lo, hi = oracle._pi_unit(work)
        with mpmath.workdps(work + 40):
            quarter = sum(c * mpmath.atan(mpmath.mpf(1) / u) for c, u in MACHIN_LIKE[q])
            ref = _exact(4 * quarter * 10**work)
        assert lo <= ref <= hi, work
        assert hi - lo <= 3


def test_e_sum_bounds():
    for work in range(0, 80):
        lo, hi = oracle._e_unit(work)
        with mpmath.workdps(work + 40):
            ref = _exact(mpmath.e() * 10**work)
        assert lo <= ref <= hi, work
        assert hi - lo <= 2 * work + 4


def _check_exp_unit(x: Fraction, work: int) -> None:
    lo, hi = oracle._exp_unit(x.numerator, x.denominator, work)
    # exp(100) has 44 digits before the point, so 100 more leave 56 after it
    with mpmath.workdps(work + 100):
        ref = _exact(mpmath.exp(mpmath.mpf(x.numerator) / x.denominator) * 10**work)
    assert lo <= ref <= hi, work
    # the width exp_interval's proof rests on: exp(x)/2 + 2 units
    assert hi - lo <= ref / (2 * 10**work) + 2, work


#: where the squaring count's bit_length(floor(x)) steps up, and just below
POWERS_OF_TWO = {f"{2**j}{tag}": Fraction(2**j) - d
                 for j in range(7) for tag, d in (("-1e-40", Fraction(1, 10**40)), ("", 0))}


def _exp_examples(test):
    for x in [*POWERS_OF_TWO.values(), Fraction(EXP_ARG_LIMIT)]:
        test = example(x, 7)(test)
    return test


@settings(max_examples=200, deadline=None)
@given(st.fractions(min_value=0, max_value=EXP_ARG_LIMIT, max_denominator=10**40),
       st.integers(min_value=0, max_value=40))
@example(Fraction(0), 5)
@example(Fraction(1, 10**40), 3)
@example(Fraction(10**40 - 1, 10**40), 0)
@_exp_examples
def test_exp_taylor_sum_bounds(x, work):
    _check_exp_unit(x, work)


def _reduction_thresholds(top: int) -> list[int]:
    # each work where the squaring count isqrt(3 work) steps up, and the
    # work just below it
    return sorted({w + d for w in range(1, top) if math.isqrt(3 * w) > math.isqrt(3 * w - 3)
                   for d in (-1, 0)})


@pytest.mark.parametrize("x", [Fraction(1, 7), Fraction(1, 10**300), *POWERS_OF_TWO.values(),
                               Fraction(EXP_ARG_LIMIT)],
                         ids=["1/7", "1e-300", *POWERS_OF_TWO, str(EXP_ARG_LIMIT)])
def test_exp_reduction_thresholds(x):
    for work in _reduction_thresholds(1200):
        _check_exp_unit(x, work)
