"""Fixed-point decimal arithmetic, integer roots, and quadratic surds."""

from __future__ import annotations

from decimal import MAX_PREC, Context, Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from epilab.bignum import (
    BigFixed,
    Surd,
    ceil_div,
    floor_div,
    floor_neg_log10,
    ilog10_floor,
    iroot,
    root_interval,
    surd_eval,
)

mantissas = st.integers(min_value=-(10**40), max_value=10**40)
scales = st.integers(min_value=0, max_value=50)
fractions = st.fractions(
    min_value=Fraction(-10**6), max_value=Fraction(10**6), max_denominator=10**9
)


def test_decimal_string_basic():
    assert BigFixed(5000, 3).to_decimal_string() == "5.000"
    assert BigFixed(0, 2).to_decimal_string() == "0.00"
    assert BigFixed(-7, 0).to_decimal_string() == "-7"
    assert BigFixed(-5, 3).to_decimal_string() == "-0.005"
    assert BigFixed(314, 2).as_fraction() == Fraction(314, 100)


def _decimal_text(mantissa: int, scale: int) -> str:
    """mantissa * 10**-scale in plain notation, by decimal, which converts
    an int with no cap on its digits."""
    return format(Decimal(mantissa).scaleb(-scale, Context(prec=MAX_PREC)), "f")


@given(mantissas, scales)
def test_decimal_string_round_trip(m, s):
    text = BigFixed(m, s).to_decimal_string()
    assert text == _decimal_text(m, s)
    assert Fraction(Decimal(text)) == Fraction(m, 10**s)


@pytest.mark.parametrize("length, scale", [(4301, 0), (5000, 3), (9000, 4300), (12345, 12345)])
@pytest.mark.parametrize("sign", ["", "-"])
def test_decimal_string_round_trip_beyond_int_str_limit(default_int_str_limit, length, scale, sign):
    digits = "".join(str((7 * i * i + 3 * i + 1) % 10) for i in range(length))
    digits = "9" + digits[1:]
    text = sign + (f"{digits[:-scale] or '0'}.{digits[-scale:]}" if scale else digits)
    mantissa = 0
    for i in range(0, length, 9):  # nine digits at a time, far below the cap
        chunk = digits[i:i + 9]
        mantissa = mantissa * 10 ** len(chunk) + int(chunk)
    mantissa = -mantissa if sign else mantissa
    assert BigFixed(mantissa, scale).to_decimal_string() == text
    assert _decimal_text(mantissa, scale) == text


@given(fractions, scales)
def test_from_fraction_within_half_ulp(q, s):
    x = BigFixed.from_fraction(q, s)
    ulp = Fraction(1, 10**s)
    assert abs(x.as_fraction() - q) <= ulp / 2


def test_rounding_ties_away_from_zero():
    assert BigFixed.from_fraction(Fraction(1, 2), 0).mantissa == 1
    assert BigFixed.from_fraction(Fraction(-1, 2), 0).mantissa == -1
    assert BigFixed.from_fraction(Fraction(25, 1000), 2).to_decimal_string() == "0.03"
    assert BigFixed.from_fraction(Fraction(-25, 1000), 2).to_decimal_string() == "-0.03"


@given(st.fractions(max_denominator=10**40), st.integers(min_value=0, max_value=60))
@example(Fraction(-1, 3), 0)
@example(Fraction(-5, 2), 1)
@example(Fraction(7, 10**61), 60)
def test_grid_rounding_is_directed(x, s):
    units = x * 10**s
    lo = floor_div(x.numerator * 10**s, x.denominator)
    hi = ceil_div(x.numerator * 10**s, x.denominator)
    assert lo <= units < lo + 1
    assert hi - 1 < units <= hi
    assert (lo == hi) == (units.denominator == 1)


def test_from_fraction_accepts_every_rational_form():
    # Fractions and ints are read directly; anything Fraction() takes still works
    assert BigFixed.from_fraction(7, 2).to_decimal_string() == "7.00"
    assert BigFixed.from_fraction(True, 0).to_decimal_string() == "1"
    assert BigFixed.from_fraction(-0.375, 2).to_decimal_string() == "-0.38"
    assert BigFixed.from_fraction(Decimal("2.345"), 2).to_decimal_string() == "2.35"
    assert BigFixed.from_fraction("-1/3", 4).to_decimal_string() == "-0.3333"


def test_equality_is_numeric_across_scales():
    a = BigFixed(150, 2)
    b = BigFixed(15, 1)
    assert a == b
    assert hash(a) == hash(b)
    assert a.scale != b.scale


@given(st.integers(min_value=0, max_value=10**30), st.integers(min_value=1, max_value=9))
def test_iroot_is_floor_root(n, k):
    r = iroot(n, k)
    assert r**k <= n
    assert (r + 1) ** k > n


def test_iroot_exact_powers():
    assert iroot(10**60, 3) == 10**20
    assert iroot(961, 2) == 31
    assert iroot(960, 2) == 30
    with pytest.raises(ValueError):
        iroot(-1, 2)


@given(
    st.fractions(min_value=Fraction(1, 10**6), max_value=Fraction(10**6), max_denominator=10**9),
    st.fractions(min_value=Fraction(0), max_value=Fraction(10**3), max_denominator=10**9),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=30),
)
def test_root_interval_encloses(lo, width, k, scale):
    hi = lo + width
    rlo, rhi = root_interval(lo, hi, k, scale)
    assert 0 <= rlo <= rhi
    assert rlo**k <= lo
    assert hi <= rhi**k


def test_root_interval_tight_on_point():
    rlo, rhi = root_interval(Fraction(2), Fraction(2), 2, 30)
    assert rhi - rlo <= Fraction(2, 10**30)


def test_log10_helpers():
    assert ilog10_floor(Fraction(1)) == 0
    assert ilog10_floor(Fraction(99, 10)) == 0
    assert ilog10_floor(Fraction(10)) == 1
    assert ilog10_floor(Fraction(1, 10)) == -1
    assert floor_neg_log10(Fraction(1, 1000)) == 3
    assert floor_neg_log10(Fraction(999, 1000)) == 0
    assert floor_neg_log10(Fraction(15, 10000)) == 2
    assert floor_neg_log10(Fraction(10)) == -1
    with pytest.raises(ValueError):
        floor_neg_log10(Fraction(0))


@given(st.fractions(min_value=Fraction(1, 10**6), max_value=Fraction(10**6),
                    max_denominator=10**6),
       st.integers(min_value=-6000, max_value=6000))
def test_ilog10_floor_defining_property_far_from_one(x, k):
    x *= Fraction(10) ** k
    e = ilog10_floor(x)
    assert Fraction(10) ** e <= x < Fraction(10) ** (e + 1)


@pytest.mark.parametrize("k", [-5000, -301, -1, 0, 1, 302, 5000])
def test_ilog10_floor_at_powers_of_ten(k):
    p = Fraction(10) ** k
    assert ilog10_floor(p) == k
    assert ilog10_floor(p * Fraction(10**40 - 1, 10**40)) == k - 1


@given(st.fractions(min_value=Fraction(1, 10**12), max_value=Fraction(10**12), max_denominator=10**12))
def test_floor_neg_log10_defining_property(x):
    d = floor_neg_log10(x)
    assert Fraction(10) ** (-d - 1) < x <= Fraction(10) ** (-d)


def test_surd_canonical_forms():
    assert str(Surd.make(Fraction(0), Fraction(2), 8)) == "sqrt(2)*4"
    assert str(Surd.make(Fraction(1), Fraction(3), 1)) == "4"
    assert str(Surd.make(Fraction(-4), Fraction(1), 51)) == "sqrt(51) - 4"
    assert str(Surd.make(Fraction(0), Fraction(7, 6), 2)) == "sqrt(2)*7/6"
    assert Surd.make(Fraction(2), Fraction(0), 7).is_rational()


def test_surd_squared_exact():
    s = Surd.make(Fraction(0), Fraction(7, 6), 2)
    assert s.squared().is_rational()
    assert s.squared().as_fraction() == Fraction(49, 18)
    t = Surd.make(Fraction(-4), Fraction(1), 51)
    assert t.squared().as_fraction is not None
    # (sqrt(51) - 4)^2 = 67 - 8*sqrt(51)
    sq = t.squared()
    assert sq.a == 67
    assert sq.b == -8
    assert sq.r == 51


@given(
    st.fractions(min_value=Fraction(-100), max_value=Fraction(100), max_denominator=1000),
    st.fractions(min_value=Fraction(-100), max_value=Fraction(100), max_denominator=1000),
    st.integers(min_value=2, max_value=50),
)
def test_surd_interval_contains_value(a, b, r):
    s = Surd.make(a, b, r)
    lo, hi = s.interval(25)
    assert lo <= hi
    assert hi - lo <= (2 * abs(s.b) + 2) * Fraction(1, 10**25)
    # a + b*sqrt(r) lies inside: check by squaring the residual sign
    mid = surd_eval(s, 30).as_fraction()
    assert lo - Fraction(1, 10**28) <= mid <= hi + Fraction(1, 10**28)


def test_surd_eval_known_value():
    got = surd_eval(Surd.make(Fraction(-4), Fraction(1), 51), 10)
    assert got.to_decimal_string() == "3.1414284285"


def test_surd_eval_beyond_int_str_limit(default_int_str_limit):
    # e^3000.5 ~ sqrt(2) * 6001^3001 / 6001!! with two Stirling terms: the
    # surd's coefficient has more than 4,300 digits, its value 1,304
    mpmath = pytest.importorskip("mpmath")
    from epilab.stirling import e_half_integer

    s = e_half_integer(3000, 2)
    got = surd_eval(s, 10)
    with mpmath.workdps(1400):
        exact = (mpmath.mpf(s.a.numerator) / s.a.denominator
                 + mpmath.mpf(s.b.numerator) / s.b.denominator * mpmath.sqrt(s.r))
        assert abs(mpmath.mpf(got.mantissa) / 10**10 - exact) <= mpmath.mpf(10) ** -10
