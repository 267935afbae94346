"""Derivations: quadratic surds, linearization, scans, continued fractions."""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import epilab.derive
import epilab.expr
from epilab.bignum import Surd
from epilab.derive import (
    binomial_linearize,
    linearize_error_bound,
    scan_units,
    solve_linear_2x2,
    solve_pi_quadratic,
)
from epilab.expr import PrecisionCapError, cfrac, parse
from epilab.oracle import e_interval, pi_interval

from conftest import as_fractions, reference


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


Row = namedtuple("Row", "n m value nearest residual mod7 predicted flagged")


def _scan(max_coeff, digits=30, threshold=(6, 100)):
    """scan_units' rows, with the value and residual read as Fractions."""
    two_den, rows = scan_units(max_coeff, digits, threshold)
    return [Row(n, m, Fraction(total, two_den), nearest, Fraction(residual, two_den), *rest)
            for n, m, total, nearest, residual, *rest in rows]


def test_scan_shape_and_residual_ranges():
    rows = _scan(10)
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
    rows = _scan(10)
    family = [r for r in rows if r.mod7]
    assert len(family) == 62
    for r in family:
        assert abs(r.residual) < Fraction(6, 100)
        assert r.predicted is not None
        assert r.predicted == Fraction(22 * r.n + 19 * r.m, 7)
    worst = max(abs(r.residual) for r in family)
    assert Fraction(5, 100) < worst < Fraction(6, 100)


def test_scan_threshold_validation():
    # the threshold is a pair (p, q), q > 0, in (0, 1/2]
    with pytest.raises(ValueError):
        scan_units(10, 30, (3, 5))
    with pytest.raises(ValueError):
        scan_units(10, 30, (0, 1))
    with pytest.raises(ValueError):
        scan_units(10, 30, (-1, 10))
    assert sum(r.flagged for r in _scan(2, threshold=(1, 2))) == 24
    with pytest.raises(ValueError):
        scan_units(0, 30, (6, 100))


def test_scan_values_track_oracle():
    pi_ref = reference("pi", 35)
    e_ref = reference("e", 35)
    for r in _scan(3, digits=30):
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
            rows.append(Row(n, m, mid, nearest, residual, mod7, predicted,
                            abs(residual) < threshold))
    return rows


def _assert_rows_equal(rows, expected):
    assert len(rows) == len(expected)
    for got, want in zip(rows, expected):
        assert got == want


@pytest.mark.parametrize("threshold", [Fraction(6, 100), Fraction(1, 2)])
@pytest.mark.parametrize("digits", [10, 30, 60])
def test_scan_rows_equal_direct_fraction_evaluation(digits, threshold):
    expected = _direct_scan(10, as_fractions(pi_interval(digits)), as_fractions(e_interval(digits)),
                            threshold)
    _assert_rows_equal(_scan(10, digits, threshold.as_integer_ratio()), expected)


def test_scan_ties_follow_fraction_semantics(monkeypatch):
    # made-up units on the 10**-2 grid, with midpoints 7/2 and 147/50 =
    # 2.94: pi's row lands exactly on a half-integer (nearest rounds up)
    # and e's residual is exactly -0.06 (not flagged)
    units = {"pi_interval": (350 - 33, 350 + 33, 100), "e_interval": (294 - 14, 294 + 14, 100)}
    for name, bounds in units.items():
        monkeypatch.setattr(epilab.derive, name, lambda digits, bounds=bounds: bounds)
    fake_pi, fake_e = (as_fractions(bounds) for bounds in units.values())
    threshold = Fraction(6, 100)
    rows = _scan(4, 30, threshold.as_integer_ratio())
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
    lo, hi = as_fractions(eval_interval(parse("exp(pi)"), 40))
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


def _count_evaluations(monkeypatch) -> list[int]:
    """The digits of each eval_interval call that cfrac makes, in order."""
    digits, evaluate = [], epilab.expr.eval_interval

    def counted(expr, d):
        digits.append(d)
        return evaluate(expr, d)

    monkeypatch.setattr(epilab.expr, "eval_interval", counted)
    return digits


def test_cfrac_starts_at_levys_estimate(monkeypatch):
    # about 1.03 digits a quotient: one evaluation where doubling from 30
    # digits made 7 (pi) and 8 (exp(pi))
    calls = _count_evaluations(monkeypatch)
    assert cfrac(parse("pi"), 1000)[:5] == [3, 7, 15, 1, 292]
    assert len(calls) == 1
    calls.clear()
    assert cfrac(parse("exp(pi)"), 3000)[:7] == [23, 7, 9, 3, 1, 1, 591]
    assert len(calls) <= 2
    calls.clear()
    # e's quotients grow, so Lévy undershoots; the retry aims from the k certified
    assert cfrac(parse("e"), 1000)[:5] == [2, 1, 2, 1, 1]
    assert len(calls) == 2 and calls[1] > calls[0]
    calls.clear()
    assert cfrac(parse("pi"), 7) == [3, 7, 15, 1, 292, 1, 1]
    assert calls == [17]  # 7 quotients and the margin of 10


def test_cfrac_schedule_ends_at_the_cap(monkeypatch):
    calls = _count_evaluations(monkeypatch)
    # no quotient certifies: the precision doubles up to the cap
    with pytest.raises(PrecisionCapError, match="at 4096 digits"):
        cfrac(parse("pi-pi"), 7)
    assert calls == [17, 34, 68, 136, 272, 544, 1088, 2176, 4096]
    calls.clear()
    # Lévy's estimate is past the cap: one attempt, at the cap
    with pytest.raises(PrecisionCapError, match="100000 partial quotients at 4096 digits"):
        cfrac(parse("pi"), 100000)
    assert calls == [4096]


@pytest.mark.parametrize("argv", [["pi-pi"], ["pi", "--terms", "100000"]])
def test_cfrac_cli_still_fails_at_the_cap(capsys, argv):
    from epilab.cli import main

    assert main(["cfrac", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: could not certify ")
    # only pi - pi, which certifies nothing, is suspected of being rational
    tail = "(0 certified; a value that is rational" if argv == ["pi-pi"] else "(3981 certified)\n"
    assert f" partial quotients at 4096 digits {tail}" in captured.err


@pytest.mark.parametrize("text, n_terms, certified, rational", [
    ("pi", 5000, 3981, False),  # irrational: the one attempt, at the cap, certified 3981
    ("pi-pi", 7, 0, True),  # the precision doubled to the cap and certified none
    ("pi-pi+1/3", 7, 1, True),  # the raise to the cap certified 1, as the attempt before it
    ("pi-pi+1/3", 5000, 1, False),  # one attempt, which certified more than none
])
def test_cfrac_cap_message_counts_the_quotients_certified(text, n_terms, certified, rational):
    with pytest.raises(PrecisionCapError) as caught:
        cfrac(parse(text), n_terms)
    message = str(caught.value)
    assert message.startswith(f"could not certify {n_terms} partial quotients at 4096 digits "
                              f"({certified} certified")
    assert ("rational but not written as one" in message) == rational


def test_cfrac_cap_message_names_the_digits_reached(monkeypatch):
    # Lévy's estimate is past a lowered cap: cfrac evaluates once, at the
    # cap, and its message names those digits and the likely cause
    monkeypatch.setattr(epilab.expr, "CFRAC_MAX_DIGITS", 128)
    calls = _count_evaluations(monkeypatch)
    with pytest.raises(PrecisionCapError, match="at 128 digits .*rational but not written as one"):
        cfrac(parse("pi - pi + 1"), 200)
    assert calls == [128]
