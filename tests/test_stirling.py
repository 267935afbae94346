"""Factorial asymptotics: correction factors and powers of e."""

from __future__ import annotations

from fractions import Fraction
from math import factorial

import pytest

from epilab import expr
from epilab.cli import _places
from epilab.oracle import exp_interval
from epilab.stirling import (
    STIRLING_COEFFS,
    double_factorial,
    e_from_ratio,
    e_half_integer,
    e_power_approx,
    stirling_e8_decomposition,
    stirling_factor,
)

from conftest import as_fractions, reference


def _printed(bounds, scale: int) -> Fraction:
    """An enclosure (lo, hi, den) as the CLI prints it at `scale` places,
    from bounds two digits finer: the midpoint rounded to nearest."""
    lo, hi, den = bounds
    return Fraction(_places(lo + hi, 2 * den, scale))


def test_coefficients_frozen():
    # pairs (p, q), each in lowest terms
    assert STIRLING_COEFFS == ((1, 1), (1, 12), (1, 288), (-139, 51840))


def test_double_factorial_values_and_identities():
    assert [double_factorial(k) for k in (-1, 0, 1, 2, 5, 6, 8)] == [1, 1, 1, 2, 15, 48, 384]
    for k in range(1, 12):
        assert double_factorial(2 * k) == 2**k * factorial(k)
        assert double_factorial(2 * k + 1) * 2**k * factorial(k) == factorial(2 * k + 1)
    with pytest.raises(ValueError):
        double_factorial(-2)


def _coeff_sum(n: Fraction, k: int) -> Fraction:
    return sum(Fraction(*STIRLING_COEFFS[i]) / n**i for i in range(k))


def test_stirling_factor_is_coefficient_prefix():
    # the sum as a pair in lowest terms, for an int or a Fraction n
    n = Fraction(2)
    for k in range(1, 5):
        expected = _coeff_sum(n, k).as_integer_ratio()
        assert stirling_factor(n, k) == stirling_factor(2, k) == expected
    assert stirling_factor(Fraction(2), 4) == (432221, 414720)
    assert stirling_factor(Fraction(1), 1) == (1, 1)
    for x in (Fraction(3, 7), Fraction(5, 2), 11):
        assert stirling_factor(x, 4) == _coeff_sum(Fraction(x), 4).as_integer_ratio()
    with pytest.raises(ValueError):
        stirling_factor(n, 0)
    with pytest.raises(ValueError):
        stirling_factor(n, 5)


def test_e_power_approx_accuracy():
    assert _printed(e_power_approx(1, 3, 12), 10) == Fraction("2.7242175346")
    e_ref = reference("e", 20)
    err = abs(_printed(e_power_approx(1, 3, 17), 15) - e_ref) / e_ref
    assert err < Fraction(3, 1000)
    # the asymptotic corrections are not monotone term by term at n=1,
    # but every corrected estimate beats the bare k=1 one
    errs = {
        k: abs(_printed(e_power_approx(1, k, 17), 15) - e_ref) / e_ref
        for k in (1, 2, 3, 4)
    }
    assert errs[2] < errs[1]
    assert errs[3] < errs[1]
    assert errs[4] < errs[3]


def test_e_from_ratio_value():
    assert _printed(e_from_ratio(1, 3, 12), 10) == Fraction("2.7132116428")
    e_ref = reference("e", 20)
    # larger n sharpens the ratio estimate
    close = abs(_printed(e_from_ratio(6, 3, 17), 15) - e_ref)
    far = abs(_printed(e_from_ratio(1, 3, 17), 15) - e_ref)
    assert close < far


def test_e_half_integer_shapes():
    assert str(e_half_integer(0, 2)) == "sqrt(2)*7/6"
    assert str(e_half_integer(1, 2)) == "sqrt(2)*19/6"
    assert str(e_half_integer(0, 1)) == "sqrt(2)"
    with pytest.raises(ValueError):
        e_half_integer(0, 3)
    with pytest.raises(ValueError):
        e_half_integer(-1, 2)


def test_e_half_integer_square_is_exact_rational():
    sq = e_half_integer(0, 2).squared()
    assert sq.is_rational()
    assert sq.as_fraction() == Fraction(49, 18)
    assert e_half_integer(1, 2).squared().as_fraction() == Fraction(361, 18)


def test_e_half_integer_tracks_exp():
    for n in range(0, 5):
        lo, hi = as_fractions(exp_interval(2 * n + 1, 2, 20))
        target = (lo + hi) / 2
        s = e_half_integer(n, 2)
        lo, hi = s.interval(20)
        rel = abs((lo + hi) / 2 - target) / target
        assert rel < Fraction(1, 1000), n
        # dropping the correction term loses accuracy
        lo1, hi1 = e_half_integer(n, 1).interval(20)
        assert abs((lo1 + hi1) / 2 - target) > abs((lo + hi) / 2 - target)


def test_e8_decomposition_exact_parts():
    # exact pairs in lowest terms
    d = stirling_e8_decomposition(12)
    assert d.correction == (17850625, 11943936)
    assert d.correction == (Fraction(13, 12) ** 4 * Fraction(25, 24) ** 2).as_integer_ratio()
    assert Fraction(*d.gap_from_3_2) == Fraction(*d.correction) - Fraction(3, 2)
    assert d.gap_from_3_2 == (-65279, 11943936)
    assert abs(Fraction(*d.gap_from_3_2)) < Fraction(6, 1000)


def test_e8_decomposition_certified_values():
    d = stirling_e8_decomposition(12)
    base, value = _printed(d.base_64pi3, 10), _printed(d.value_96pi3, 10)
    e8, ratio = _printed(d.e8, 10), _printed(d.ratio, 10)
    assert value == Fraction("2976.6025613088")
    assert e8 == Fraction("2980.9579870417")
    assert ratio == Fraction("1.0014632204")
    # base * 3/2 = 96 pi^3 by construction
    pi_ref = reference("pi", 30)
    assert abs(base - 64 * pi_ref**3) < Fraction(1, 10**8)
    assert abs(value - 96 * pi_ref**3) < Fraction(1, 10**8)
    # and the ratio column really is e^8 over 96 pi^3
    assert abs(ratio - e8 / value) < Fraction(1, 10**8)


def test_e8_decomposition_scale_parameter():
    # the enclosures meet the digits asked for
    d = stirling_e8_decomposition(18)
    for lo, hi, den in (d.base_64pi3, d.value_96pi3, d.e8, d.ratio):
        assert 0 <= (hi - lo) * 10**18 <= den
    assert _printed(d.e8, 16) == Fraction("2980.9579870417282747")


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_e_power_approx_within_one_ulp_of_mpmath(k):
    # the approximant itself, not e^n: sqrt(2 pi n) * n^n / n! * S(n, k);
    # its digits before the point grow with n, and the guard must follow
    mpmath = pytest.importorskip("mpmath")
    scale = 30
    ulp = Fraction(1, 10**scale)
    for n in range(1, 81):
        exact = Fraction(n**n, factorial(n)) * Fraction(*stirling_factor(n, k))
        with mpmath.workdps(scale + 80):
            root = mpmath.sqrt(2 * mpmath.pi * n)
            man, exp = root.man_exp
            ref = Fraction(man) * Fraction(2) ** exp * exact
        got = _printed(e_power_approx(n, k, scale + 2), scale)
        assert abs(got - ref) <= ulp, (n, k)


def test_e_power_approx_beyond_2944_within_one_ulp_of_mpmath():
    # e^3000 has 1,303 digits before the point, more than eight doublings
    # of a 10-digit guard could cover
    mpmath = pytest.importorskip("mpmath")
    n, k, scale = 3000, 4, 10
    exact = Fraction(n**n, factorial(n)) * Fraction(*stirling_factor(n, k))
    with mpmath.workdps(scale + 1400):
        man, exp = mpmath.sqrt(2 * mpmath.pi * n).man_exp
    ref = Fraction(man) * Fraction(2) ** exp * exact
    got = _printed(e_power_approx(n, k, scale + 2), scale)
    assert abs(got - ref) <= Fraction(1, 10**scale)


def test_e_power_approx_evaluates_its_tree_at_most_twice(monkeypatch):
    # every attempt evaluates the whole tree at one working precision
    precisions = set()
    real = expr._eval

    def counting(node, w):
        precisions.add(w)
        return real(node, w)

    monkeypatch.setattr(expr, "_eval", counting)
    e_power_approx(100, 4, 52)
    assert len(precisions) <= 2
