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
    ilog10_floor,
    iroot,
    root_interval,
)

from conftest import as_bounds, as_fractions

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
    rlo, rhi = as_fractions(root_interval(*as_bounds(lo, hi), k, scale))
    assert 0 <= rlo <= rhi
    assert rlo**k <= lo
    assert hi <= rhi**k


def test_root_interval_tight_on_point():
    rlo, rhi = as_fractions(root_interval(2, 2, 1, 2, 30))
    assert rhi - rlo <= Fraction(2, 10**30)


@pytest.mark.parametrize("lo, hi, cause", [(-1, 4, "root of negative value"),
                                           (5, 4, "empty interval")])
def test_root_interval_checks_its_input(lo, hi, cause):
    with pytest.raises(ValueError, match=cause):
        root_interval(lo, hi, 1, 2, 10)


def test_log10_helpers():
    # floor(-log10(p/q)) is ilog10_floor of the pair turned over, (q, p)
    assert ilog10_floor(1) == 0
    assert ilog10_floor(99, 10) == 0
    assert ilog10_floor(10) == 1
    assert ilog10_floor(1, 10) == -1
    assert ilog10_floor(1000, 1) == 3
    assert ilog10_floor(1000, 999) == 0
    assert ilog10_floor(10000, 15) == 2
    assert ilog10_floor(1, 10) == -1
    with pytest.raises(ValueError):
        ilog10_floor(1, 0)


@given(st.fractions(min_value=Fraction(1, 10**6), max_value=Fraction(10**6),
                    max_denominator=10**6),
       st.integers(min_value=-6000, max_value=6000))
def test_ilog10_floor_defining_property_far_from_one(x, k):
    x *= Fraction(10) ** k
    e = ilog10_floor(x.numerator, x.denominator)
    assert Fraction(10) ** e <= x < Fraction(10) ** (e + 1)


@pytest.mark.parametrize("k", [-5000, -301, -1, 0, 1, 302, 5000])
def test_ilog10_floor_at_powers_of_ten(k):
    p = Fraction(10) ** k
    assert ilog10_floor(p.numerator, p.denominator) == k
    p *= Fraction(10**40 - 1, 10**40)
    assert ilog10_floor(p.numerator, p.denominator) == k - 1


@given(st.fractions(min_value=Fraction(1, 10**12), max_value=Fraction(10**12), max_denominator=10**12))
def test_floor_neg_log10_defining_property(x):
    d = ilog10_floor(x.denominator, x.numerator)
    assert Fraction(10) ** (-d - 1) < x <= Fraction(10) ** (-d)


@pytest.mark.parametrize("k", [-400, -31, -1, 0, 1, 31, 400])
@pytest.mark.parametrize("delta", [-1, 0, 1])
def test_integer_log10_helper_matches_the_fraction_versions(k, delta):
    # at 10**k and one unit of 10**(k - 40) either side, on the integer pair
    # as it is, negated, and scaled by a common factor, reduced or not;
    # floor(-log10(x)) is the helper on the pair turned over
    num, den = (10**k * 10**40 + delta * 10**k, 10**40) if k >= 0 else \
               (10**40 + delta, 10**40 * 10**-k)
    x = Fraction(num, den)
    want = k - (delta < 0), -k - (delta > 0)
    for p, q in [(num, den), (-num, -den), (7 * num, 7 * den), (x.numerator, x.denominator)]:
        assert (ilog10_floor(p, q), ilog10_floor(q, p)) == want


@pytest.mark.parametrize("num, den", [(0, 1), (0, -5), (-3, 7), (3, -7), (1, 0)])
def test_integer_log10_helper_rejects_values_that_are_not_positive(num, den):
    with pytest.raises(ValueError, match="positive"):
        ilog10_floor(num, den)
    with pytest.raises(ValueError, match="positive"):
        ilog10_floor(den, num)


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
    # a + b*sqrt(r) lies inside: sqrt(r) lies between (lo - a)/b and
    # (hi - a)/b, which squaring checks exactly
    if s.b == 0:
        assert lo == hi == s.a
        return
    below, above = sorted(((lo - s.a) / s.b, (hi - s.a) / s.b))
    assert below <= 0 or below * below <= s.r
    assert above >= 0 and above * above >= s.r


def test_surd_interval_known_value():
    # sqrt(51) - 4 = 3.14142842854285..., which rounds to 3.1414284285
    lo, hi = Surd.make(Fraction(-4), Fraction(1), 51).interval(12)
    assert Fraction(314142842854, 10**11) <= lo <= hi <= Fraction(314142842855, 10**11)


def test_surd_interval_beyond_int_str_limit(default_int_str_limit):
    # e^3000.5 ~ sqrt(2) * 6001^3001 / 6001!! with two Stirling terms: the
    # surd's coefficient has more than 4,300 digits, its value 1,304
    mpmath = pytest.importorskip("mpmath")
    from epilab.stirling import e_half_integer

    s = e_half_integer(3000, 2)
    # the width is about b * 10**-scale, so the scale covers b's 1,304 digits
    lo, hi = s.interval(ilog10_floor(abs(s.b.numerator), s.b.denominator) + 12)
    assert hi - lo <= Fraction(1, 10**10)
    with mpmath.workdps(1400):  # mpmath's own rounding: under 10**-90 here
        exact = (mpmath.mpf(s.a.numerator) / s.a.denominator
                 + mpmath.mpf(s.b.numerator) / s.b.denominator * mpmath.sqrt(s.r))
        slack = mpmath.mpf(10) ** -50
        assert mpmath.mpf(lo.numerator) / lo.denominator - slack <= exact
        assert exact <= mpmath.mpf(hi.numerator) / hi.denominator + slack
