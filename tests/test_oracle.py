"""Reference constants: certified digit prefixes and cross-checks.

The pi cross-check below recomputes pi from a different arctan identity
(pi/4 = arctan(1/2) + arctan(1/3)) than the production code path, so the
two computations share no formula-specific constants.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from epilab import oracle
from epilab.bignum import BigFixed
from epilab.oracle import (
    CONSTANTS,
    EXP_ARG_LIMIT,
    ExpRangeError,
    constant_reference,
    e_interval,
    exp_interval,
    pi_interval,
)

from conftest import reference

PI_50 = "3.14159265358979323846264338327950288419716939937510"
E_50 = "2.71828182845904523536028747135266249775724709369995"


def arctan_unit_fraction(u: int, eps: Fraction) -> Fraction:
    """arctan(1/u) for integer u >= 2, error below eps.

    Alternating Taylor series: the first omitted term bounds the tail.
    """
    total = Fraction(0)
    k = 0
    while True:
        term = Fraction(1, (2 * k + 1) * u ** (2 * k + 1))
        if term < eps:
            return total
        total += term if k % 2 == 0 else -term
        k += 1


def independent_pi(eps_digits: int) -> Fraction:
    eps = Fraction(1, 16 * 10**eps_digits)
    return 4 * (arctan_unit_fraction(2, eps) + arctan_unit_fraction(3, eps))


def _rendered(constant: str, digits: int) -> str:
    """The midpoint of the reference's enclosure, at its digits + 3 places."""
    lo, hi, den = constant_reference(constant, digits)
    return BigFixed((lo + hi) // 2, digits + 3).to_decimal_string()


def test_pi_frozen_prefix():
    assert _rendered("pi", 50).startswith(PI_50)
    assert _rendered("pi", 10).startswith("3.1415926535")


def test_e_frozen_prefix():
    assert _rendered("e", 50).startswith(E_50)
    assert _rendered("e", 10).startswith("2.7182818284")


def test_pi_agrees_with_independent_identity():
    # reference computed from a different arctan decomposition
    ref = independent_pi(40)
    for digits in (10, 25, 35):
        lo, hi, den = constant_reference("pi", digits)
        assert (hi - lo, den) == (20, 10 ** (digits + 3))
        assert abs(Fraction(lo + hi, 2 * den) - ref) <= 2 * Fraction(1, 10**digits)


def test_e_agrees_with_inline_factorial_sum():
    # 40-digit reference summed right here: sum 1/n! with tail 2/(N+1)!
    total = Fraction(0)
    fact = 1
    n = 0
    while Fraction(2, fact) >= Fraction(1, 10**42):
        total += Fraction(1, fact)
        n += 1
        fact *= n
    assert abs(reference("e", 35) - total) <= 2 * Fraction(1, 10**35)


def _fraction_midpoint_reference(constant: str, digits: int) -> BigFixed:
    """constant_reference's midpoint built on Fractions: the midpoint of the
    public pi or e enclosure, of pi's endpoints doubled, or of their k-th
    powers, rounded to nearest at digits + 3 places."""
    if constant in ("pi", "e"):
        lo, hi = (pi_interval if constant == "pi" else e_interval)(digits + 5)
        return BigFixed.from_fraction((lo + hi) / 2, digits + 3)
    if constant == "two_pi":
        lo, hi = pi_interval(digits + 6)
        return BigFixed.from_fraction(lo + hi, digits + 3)
    k = 6 if constant == "pi6" else 8
    lo, hi = pi_interval(digits + 10)
    return BigFixed.from_fraction((lo**k + hi**k) / 2, digits + 3)


@pytest.mark.parametrize("digits", [1, 2, 7, 30, 61, 1000])
@pytest.mark.parametrize("constant", CONSTANTS)
def test_constant_reference_equals_fraction_midpoint(constant, digits):
    lo, hi, den = constant_reference(constant, digits)
    want = _fraction_midpoint_reference(constant, digits)
    assert (lo + hi) // 2 == want.mantissa
    assert (hi - lo, den) == (20, 10**want.scale)


def test_interval_width_and_containment():
    # the reference itself carries ~1e-39 error, hence the slack term
    ref_pi = independent_pi(40)
    slack = Fraction(1, 10**38)
    for d in (5, 15, 30):
        lo, hi = pi_interval(d)
        assert lo <= ref_pi + slack
        assert ref_pi - slack <= hi
        assert hi - lo < 2 * Fraction(1, 10**d)
    lo, hi = e_interval(30)
    # the truncated 30-digit prefix brackets e from below within one ulp
    trunc = Fraction(int(E_50[:32].replace(".", "")), 10**30)
    assert lo <= trunc + Fraction(1, 10**30)
    assert hi >= trunc
    assert hi - lo < 2 * Fraction(1, 10**30)


def test_oracle_results_are_cached_consistently():
    a = constant_reference("pi", 20)
    b = constant_reference("pi", 20)
    assert a == b
    # the 60-digit value refines, never contradicts, the 20-digit one
    wide = reference("pi", 60)
    assert abs(reference("pi", 20) - wide) <= Fraction(1, 10**19)
    # and a warm 20-digit call is the cold one, whatever came between
    assert constant_reference("pi", 20) == a


def test_exp_zero_and_one():
    assert exp_interval(Fraction(0), 20) == (1, 1)
    lo, hi = exp_interval(Fraction(1), 20)
    # the 50-digit prefix brackets e from below within one ulp
    trunc = Fraction(int(E_50.replace(".", "")), 10**50)
    assert lo <= trunc + Fraction(1, 10**50)
    assert trunc <= hi
    assert hi - lo <= Fraction(1, 10**20)


def test_exp_half_against_inline_taylor():
    # exp(1/2) summed here directly: tail of sum x^k/k! at x=1/2 is
    # below twice the first omitted term
    x = Fraction(1, 2)
    total = Fraction(0)
    term = Fraction(1)
    k = 0
    while 2 * term >= Fraction(1, 10**40):
        total += term
        k += 1
        term = term * x / k
    lo, hi = exp_interval(Fraction(1, 2), 30)
    assert abs((lo + hi) / 2 - total) <= 2 * Fraction(1, 10**30)


def test_exp_addition_identity():
    # exp(3) must sit inside the product of the exp(1) and exp(2) enclosures
    lo1, hi1 = exp_interval(Fraction(1), 30)
    lo2, hi2 = exp_interval(Fraction(2), 30)
    lo3, hi3 = exp_interval(Fraction(3), 30)
    assert lo1 * lo2 <= hi3
    assert lo3 <= hi1 * hi2


@pytest.mark.parametrize("num, den", [(0, 1), (1, 7), (7, 3), (64, 1), (99, 7), (100, 1)])
@pytest.mark.parametrize("work", [0, 5, 60])
def test_exp_unit_depends_on_the_ratio_alone(num, den, work):
    # the kernel reads num/den only through floors of num * 2**j / den
    want = oracle._exp_unit(num, den, work)
    for g in (3, 10**40, 2**61 - 1):
        assert oracle._exp_unit(g * num, g * den, work) == want


def test_exp_negative_is_reciprocal():
    lo_p, hi_p = exp_interval(Fraction(7, 3), 30)
    lo_n, hi_n = exp_interval(Fraction(-7, 3), 30)
    assert lo_n * lo_p <= 1 <= hi_n * hi_p


def test_pi_term_count_reaches_every_work(monkeypatch):
    # _pi_unit's closed-form count work // 14 + 2 meets its docstring's
    # inequality for every work up to 10**5 digits; the check that guards
    # it raises, and stays under python -O
    from epilab import oracle

    for work in range(10**5 + 1):
        n = work // 14 + 2
        assert 47 * n >= (333 * work + 99) // 100 + (2 * (oracle._A + oracle._B * n)).bit_length()
    monkeypatch.setattr(oracle, "_B", 2**100)
    with pytest.raises(RuntimeError, match="Chudnovsky terms"):
        oracle._pi_unit(0)


def test_exp_range_limit():
    assert EXP_ARG_LIMIT == 100
    exp_interval(Fraction(EXP_ARG_LIMIT), 5)
    with pytest.raises(ExpRangeError):
        exp_interval(Fraction(EXP_ARG_LIMIT + 1), 5)
    with pytest.raises(ExpRangeError):
        exp_interval(Fraction(-EXP_ARG_LIMIT - 1), 5)


def test_exp_range_check_takes_an_argument_too_large_for_a_float():
    with pytest.raises(ExpRangeError):
        exp_interval(Fraction(10**400), 5)


@pytest.mark.parametrize("digits", [0, -10])
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_non_positive_precision_is_rejected(warm, digits):
    if warm:
        pi_interval(30)
        e_interval(30)
    for oracle in (pi_interval, e_interval, lambda d: exp_interval(Fraction(1, 3), d),
                   *(lambda d, c=c: constant_reference(c, d) for c in CONSTANTS)):
        with pytest.raises(ValueError, match="digits must be >= 1"):
            oracle(digits)


def test_constant_reference_all_names():
    assert set(CONSTANTS) == {"e", "pi", "two_pi", "pi6", "pi8"}
    pi_f = reference("pi", 40)
    expected = {
        "e": reference("e", 30),
        "pi": pi_f,
        "two_pi": 2 * pi_f,
        "pi6": pi_f**6,
        "pi8": pi_f**8,
    }
    # pi8 ~ 9488.5, so a 30-digit pi leaves ~25 digits after powering
    for name in CONSTANTS:
        lo, hi, den = constant_reference(name, 25)
        assert (hi - lo, den) == (20, 10**28)
        assert abs(Fraction(lo + hi, 2 * den) - expected[name]) <= Fraction(1, 10**22)
    with pytest.raises(ValueError):
        constant_reference("tau", 10)
