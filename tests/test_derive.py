"""Derivations: quadratic surds, linearization, scans, continued fractions."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import epilab.derive
import epilab.expr
from epilab import oracle
from epilab.bignum import Surd
from epilab.derive import (
    ScanRow,
    binomial_linearize,
    linear_combo_scan,
    linearize_error_bound,
    solve_linear_2x2,
    solve_pi_quadratic,
)
from epilab.expr import PrecisionCapError, cfrac, parse
from epilab.oracle import e_interval, pi_interval

from conftest import reference


def test_solve_pi_quadratic_examples():
    s = solve_pi_quadratic(8, 35)
    assert str(s) == "sqrt(51) - 4"
    lo, hi = s.interval(10)
    assert Fraction(31414, 10**4) <= lo <= hi < Fraction(31415, 10**4)
    t = solve_pi_quadratic(1, 13)
    assert str(t) == "sqrt(53)*1/2 - 1/2"
    lo, hi = t.interval(10)
    assert Fraction(31400, 10**4) <= lo <= hi < Fraction(31401, 10**4)
    assert str(solve_pi_quadratic(0, 10)) == "sqrt(10)"
    with pytest.raises(ValueError):
        solve_pi_quadratic(0, -1)


@given(
    st.fractions(min_value=Fraction(-20), max_value=Fraction(20), max_denominator=50),
    st.fractions(min_value=Fraction(-20), max_value=Fraction(20), max_denominator=50),
)
@settings(max_examples=80)
def test_solve_pi_quadratic_satisfies_equation(b, c):
    # x is the positive-branch root of x^2 + b x - c = 0
    disc = c + b * b / 4
    if disc <= 0:
        with pytest.raises(ValueError):
            solve_pi_quadratic(b, c)
        return
    s = solve_pi_quadratic(b, c)
    # plug back in exactly: (a + u)^2 + b(a + u) - c = 0 with u = sqrt-part
    sq = s.squared()
    poly_rat = sq.a + b * s.a - c
    poly_irr = sq.b + b * s.b
    if s.is_rational():
        x = s.as_fraction()
        assert x * x + b * x - c == 0
    else:
        assert poly_rat + poly_irr * 0 == poly_rat  # structural split
        # rational and irrational parts must vanish separately
        assert poly_irr == 0 or poly_rat == 0
        lo, hi = s.interval(30)
        assert lo * lo + b * lo - c <= Fraction(1, 10**25)
        assert hi * hi + b * hi - c >= -Fraction(1, 10**25)


def test_binomial_linearize_recovers_22_over_7():
    s = solve_pi_quadratic(8, 35)
    assert binomial_linearize(s, 7) == Fraction(22, 7)
    t = solve_pi_quadratic(1, 13)
    assert binomial_linearize(t, 7) == Fraction(22, 7)


def test_linearize_error_bound_is_sound():
    s = solve_pi_quadratic(8, 35)
    assert linearize_error_bound(s, 7) == Fraction(1, 686)
    approx = binomial_linearize(s, 7)
    # the exact value lies in [lo, hi], so its error is at most the larger end's
    lo, hi = s.interval(40)
    assert max(abs(approx - lo), abs(approx - hi)) <= linearize_error_bound(s, 7)
    with pytest.raises(ValueError):
        linearize_error_bound(s, 8)  # base^2 exceeds the radicand


@given(
    st.integers(min_value=2, max_value=60),
    st.integers(min_value=0, max_value=25),
)
@settings(max_examples=80)
def test_linearize_bound_dominates_true_error(base, extra):
    r = base * base + extra
    s = Surd.make(Fraction(0), Fraction(1), r)
    if s.is_rational() or s.r != r:
        # canonicalization pulled out a square factor; base no longer
        # undershoots the stored radicand
        return
    approx = binomial_linearize(s, base)
    bound = linearize_error_bound(s, base)
    lo, hi = s.interval(45)
    assert max(abs(approx - lo), abs(approx - hi)) <= bound + Fraction(1, 10**40)


def test_solve_linear_2x2():
    assert solve_linear_2x2(1, 1, Fraction(41, 7), 1, -1, Fraction(3, 7)) == (
        Fraction(22, 7),
        Fraction(19, 7),
    )
    with pytest.raises(ValueError):
        solve_linear_2x2(1, 2, 3, 2, 4, 6)


@given(
    st.fractions(min_value=Fraction(-9), max_value=Fraction(9), max_denominator=20),
    st.fractions(min_value=Fraction(-9), max_value=Fraction(9), max_denominator=20),
    st.fractions(min_value=Fraction(-9), max_value=Fraction(9), max_denominator=20),
    st.fractions(min_value=Fraction(-9), max_value=Fraction(9), max_denominator=20),
    st.fractions(min_value=Fraction(-9), max_value=Fraction(9), max_denominator=20),
    st.fractions(min_value=Fraction(-9), max_value=Fraction(9), max_denominator=20),
)
@settings(max_examples=80)
def test_solve_linear_2x2_plugs_back(a11, a12, b1, a21, a22, b2):
    if a11 * a22 - a12 * a21 == 0:
        with pytest.raises(ValueError):
            solve_linear_2x2(a11, a12, b1, a21, a22, b2)
        return
    x, y = solve_linear_2x2(a11, a12, b1, a21, a22, b2)
    assert a11 * x + a12 * y == b1
    assert a21 * x + a22 * y == b2


def test_scan_shape_and_residual_ranges():
    rows = linear_combo_scan(10)
    assert len(rows) == 440  # every (n, m) pair except (0, 0)
    seen = {(r.n, r.m) for r in rows}
    assert (0, 0) not in seen
    assert len(seen) == 440
    for r in rows:
        assert -Fraction(1, 2) <= r.residual <= Fraction(1, 2)
        assert r.mod7 == ((r.n - 2 * r.m) % 7 == 0)
        if r.flagged:
            assert abs(r.residual) < Fraction(6, 100)


def test_scan_sevens_family():
    rows = linear_combo_scan(10)
    family = [r for r in rows if r.mod7]
    assert len(family) == 62
    for r in family:
        assert abs(r.residual) < Fraction(6, 100)
        assert r.predicted is not None
        assert r.predicted == Fraction(22 * r.n + 19 * r.m, 7)
    worst = max(abs(r.residual) for r in family)
    assert Fraction(5, 100) < worst < Fraction(6, 100)


def test_scan_threshold_validation():
    with pytest.raises(ValueError):
        linear_combo_scan(10, threshold=Fraction(3, 5))
    with pytest.raises(ValueError):
        linear_combo_scan(10, threshold=Fraction(0))
    with pytest.raises(ValueError):
        linear_combo_scan(0)


def test_scan_values_track_oracle():
    pi_ref = reference("pi", 35)
    e_ref = reference("e", 35)
    for r in linear_combo_scan(3, digits=30):
        assert abs(r.value - (r.n * pi_ref + r.m * e_ref)) < Fraction(1, 10**25)
        assert r.nearest == round(r.n * float(pi_ref) + r.m * float(e_ref))


def _direct_scan(max_coeff, pi_iv, e_iv, threshold):
    """The scan's rows in Fractions, from the pi and e enclosures given."""
    plo, phi = pi_iv
    elo, ehi = e_iv
    rows = []
    for n in range(-max_coeff, max_coeff + 1):
        for m in range(-max_coeff, max_coeff + 1):
            if n == 0 and m == 0:
                continue
            lo = min(n * plo, n * phi) + min(m * elo, m * ehi)
            hi = max(n * plo, n * phi) + max(m * elo, m * ehi)
            mid = (lo + hi) / 2
            nearest = math.floor(mid + Fraction(1, 2))
            residual = mid - nearest
            mod7 = (n - 2 * m) % 7 == 0
            num = 22 * n + 19 * m
            predicted = num // 7 if mod7 and num % 7 == 0 else None
            rows.append(ScanRow(n, m, mid, nearest, residual, mod7, predicted,
                                abs(residual) < threshold))
    return rows


def _assert_rows_equal(rows, expected):
    assert len(rows) == len(expected)
    for got, want in zip(rows, expected):
        assert got == want


@pytest.mark.parametrize("threshold", [Fraction(6, 100), Fraction(1, 2)])
@pytest.mark.parametrize("digits", [10, 30, 60])
def test_scan_rows_equal_direct_fraction_evaluation(digits, threshold):
    expected = _direct_scan(10, pi_interval(digits), e_interval(digits), threshold)
    _assert_rows_equal(linear_combo_scan(10, digits, threshold), expected)


def test_scan_ties_follow_fraction_semantics(monkeypatch):
    # made-up units on the 10**-2 grid, with midpoints 7/2 and 147/50 =
    # 2.94: pi's row lands exactly on a half-integer (nearest rounds up)
    # and e's residual is exactly -0.06 (not flagged)
    units = {oracle._pi_unit: (2, 350 - 33, 350 + 33), oracle._e_unit: (2, 294 - 14, 294 + 14)}
    monkeypatch.setattr(epilab.derive, "_cached", lambda kernel, digits: units[kernel])
    fake_pi, fake_e = ((Fraction(lo, 100), Fraction(hi, 100)) for _, lo, hi in units.values())
    threshold = Fraction(6, 100)
    rows = linear_combo_scan(4, 30, threshold)
    _assert_rows_equal(rows, _direct_scan(4, fake_pi, fake_e, threshold))
    by_nm = {(r.n, r.m): r for r in rows}
    assert by_nm[1, 0].nearest == 4 and by_nm[1, 0].residual == Fraction(-1, 2)
    assert by_nm[0, 1].residual == -threshold and not by_nm[0, 1].flagged


def test_cfrac_rational_terminates_exactly():
    assert cfrac(parse("22/7"), 10) == [3, 7]
    assert cfrac(parse("0 - 22/7"), 10) == [-4, 1, 6]
    assert cfrac(parse("7"), 10) == [7]
    # an exact root and a negative power of exact points are points too
    assert cfrac(parse("root(2, 8/2)"), 10) == [2]
    assert cfrac(parse("(2/4)^-1"), 10) == [2]


def test_cfrac_known_expansions():
    assert cfrac(parse("exp(pi)"), 3) == [23, 7, 9]
    assert cfrac(parse("pi"), 10) == [3, 7, 15, 1, 292, 1, 1, 1, 2, 1]
    assert cfrac(parse("exp(pi)"), 7) == [23, 7, 9, 3, 1, 1, 591]


def test_cfrac_convergents_bracket_value():
    from epilab.expr import eval_interval

    quotients = cfrac(parse("exp(pi)"), 7)
    lo, hi = eval_interval(parse("exp(pi)"), 40)
    # reconstruct convergents h/k and check alternating bracketing
    h0, k0 = quotients[0], 1
    h1, k1 = quotients[1] * quotients[0] + 1, quotients[1]
    convergents = [Fraction(h0, k0), Fraction(h1, k1)]
    for a in quotients[2:]:
        h0, h1 = h1, a * h1 + h0
        k0, k1 = k1, a * k1 + k0
        convergents.append(Fraction(h1, k1))
    for i, c in enumerate(convergents):
        if i % 2 == 0:
            assert c <= hi
        else:
            assert c >= lo


def test_cfrac_argument_validation_and_cap(monkeypatch):
    with pytest.raises(ValueError):
        cfrac(parse("pi"), 0)
    monkeypatch.setattr(epilab.expr, "CFRAC_MAX_DIGITS", 128)
    # exactly 2 but never syntactically rational: no quotient after the
    # first can ever be certified, so the precision ladder must give up
    with pytest.raises(PrecisionCapError):
        cfrac(parse("sqrt(2)*sqrt(2)"), 2)
    # pi - pi is no exact point, so pi - pi + 1 straddles 1 at every precision
    with pytest.raises(PrecisionCapError, match="at 128 digits"):
        cfrac(parse("pi - pi + 1"), 2)
