"""Acceptance gate: one test per shipped claim, at the stated tolerance.

Run with -v to get one PASS/FAIL line per criterion; each test also
prints a summary line visible under -s or on failure.
"""

from __future__ import annotations

import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epilab.accel import compare_expansions, gl_regroup_term, paired_term_identity
from epilab.bignum import BigFixed, root_interval
from epilab.cli import _verify_cells
from epilab.derive import binomial_linearize, scan_units, solve_linear_2x2, solve_pi_quadratic
from epilab.expr import _floor_cf, cfrac, eval_expr, eval_interval, parse
from epilab.oracle import exp_interval, pi_interval
from epilab.registry import get_relation, relation_ids, verify, verify_all
from epilab.series import builtin, convergence_table, partial_sum, terms_needed
from epilab.stirling import e_half_integer, e_power_approx, stirling_e8_decomposition

from conftest import as_bounds, as_fractions, reference


def _lhs_text(report) -> str:
    """The report's lhs as the CLI prints it, at precision_used places."""
    return _verify_cells(report)[0]


def test_criterion_01_registry_golden_digits():
    prefixes = {
        "R01": "0.9996",
        "R02": "68.99966",
        "R03": "0.999999956",
        "R05": "19.999",
        "R06": "0.9999",
        "R08": "9.001",
    }
    for rid, prefix in prefixes.items():
        report = verify(get_relation(rid), 30)
        assert _lhs_text(report).startswith(prefix), rid
        assert report.certified, rid
    r04 = verify(get_relation("R04"), 30)
    v = Fraction(_lhs_text(r04))
    assert Fraction(99998, 10000) <= v < 10
    # the flat-ratio digits beyond the printed prefix, pinned from the oracle
    r06 = verify(get_relation("R06"), 30)
    assert _lhs_text(r06).startswith("0.999986933893739750972749104011")
    print("criterion 01 PASS: registry golden digit prefixes reproduced at 30 digits")


def test_criterion_02_ramanujan_constant():
    start = time.monotonic()
    report = verify(get_relation("R07"), 45)
    elapsed = time.monotonic() - start
    text = _lhs_text(report)
    int_part, frac_part = text.split(".")
    assert int_part == "262537412640768743"
    assert frac_part.startswith("99999999999925")
    residual = Fraction(report.lhs_units - report.rhs_units, 10 ** (report.precision_used + 2))
    assert abs(residual) < Fraction(1, 10**12)
    assert report.certified
    assert elapsed < 10
    print(f"criterion 02 PASS: 45-digit check in {elapsed:.3f}s, residual < 1e-12")


def test_criterion_03_exact_identities_exhaustive():
    for n in range(1, 10**4 + 1):
        a, b, c = gl_regroup_term(n)
        assert a == b == c, n
        grouped, closed = paired_term_identity(n)
        assert grouped == closed, n
        assert closed == Fraction(-3, n * (n + 1) * (4 * n + 1) * (4 * n + 3)), n
    firsts = [abs(paired_term_identity(n)[1]) for n in (1, 2, 3)]
    assert firsts == [Fraction(3, 70), Fraction(1, 198), Fraction(1, 780)]
    print("criterion 03 PASS: term identities exhaustive to n=10^4; first pairs 3/70, 1/198, 1/780")


def test_criterion_04_convergence_digits():
    checkpoints = (10, 100, 1000)
    expectations = {
        "gregory-leibniz": ("pi", [1, 2, 3], True),
        "nilakantha": ("pi", [3, 6, 9], False),
        "nilakantha-paired": ("two_pi", [4, 7, 11], False),
    }
    for name, (constant, wanted, exact) in expectations.items():
        spec = builtin(name)
        assert spec.constant == constant
        rows = convergence_table(spec, checkpoints)
        got = [r.digits_correct for r in rows]
        if exact:
            assert got == wanted, name
        else:
            assert all(g >= w for g, w in zip(got, wanted)), (name, got)
        for row in rows:
            assert Fraction(*row.abs_error) <= Fraction(*row.bound), (name, row.n)
    print("criterion 04 PASS: digits-correct {1,2,3} / >= {3,6,9} / >= {4,7,11}, bounds hold")


def test_criterion_05_zeta_series():
    lam = builtin("lambda6")
    last = lam.start_index + 399  # exactly 400 terms
    s = partial_sum(lam, last)
    value, bound = Fraction(*s.value), Fraction(*s.bound)
    lo, hi = as_fractions(root_interval(*as_bounds(value - bound, value + bound), 6, 40))
    pi_ref = reference("pi", 45)
    assert abs((lo + hi) / 2 - pi_ref) < Fraction(1, 10**12)
    zeta = builtin("zeta8")
    r = partial_sum(zeta, zeta.start_index + 49)
    pi8_ref = reference("pi8", 45)
    assert abs(Fraction(*r.value) - pi8_ref) <= Fraction(*r.bound) + Fraction(1, 10**40)
    print("criterion 05 PASS: sixth root of 400-term sum within 1e-12 of pi; pi^8 sum within bound")


def test_criterion_06_stirling():
    sq = e_half_integer(0, 2).squared()
    assert sq.is_rational()
    assert sq.as_fraction() == Fraction(49, 18)
    e_ref = reference("e", 25)
    lo, hi, den = e_power_approx(1, 3, 20)
    rel = abs(Fraction(lo + hi, 2 * den) - e_ref) / e_ref
    assert rel < Fraction(3, 1000)
    d = stirling_e8_decomposition(12)
    assert d.correction == (17850625, 11943936)
    assert abs(Fraction(*d.correction) - Fraction(3, 2)) < Fraction(6, 1000)
    print("criterion 06 PASS: 49/18 exact; rel error < 3e-3; correction exact and near 3/2")


def test_criterion_07_derivation_chain():
    s = solve_pi_quadratic(8, 35)
    assert str(s) == "sqrt(51) - 4"
    lo, hi = s.interval(10)
    assert Fraction(31414, 10**4) <= lo <= hi < Fraction(31415, 10**4)
    assert binomial_linearize(s, 7) == Fraction(22, 7)
    # 2*pi + e = 9 and pi + 4*e = 14, solved exactly
    assert solve_linear_2x2(2, 1, 9, 1, 4, 14) == (Fraction(22, 7), Fraction(19, 7))
    assert BigFixed.from_fraction(Fraction(512, 163), 10).to_decimal_string().startswith("3.1411")
    print("criterion 07 PASS: quadratic -> sqrt(51)-4 -> 22/7; 2x2 -> (22/7, 19/7); 512/163 = 3.1411...")


def _cfrac_by_floor_walk(lo: Fraction, hi: Fraction, n_terms: int) -> list[int] | None:
    # independent quotient extraction: plain floor-and-reciprocal walk on
    # an enclosure, on Fractions.  It stops early where the enclosure is
    # one rational that ends, and gives None where the floors differ or
    # only one endpoint ends.
    out = []
    while len(out) < n_terms:
        f_lo = lo.numerator // lo.denominator
        f_hi = hi.numerator // hi.denominator
        if f_lo != f_hi:
            return None
        out.append(f_lo)
        lo, hi = lo - f_lo, hi - f_lo
        if hi == 0:
            break
        if lo == 0:
            return None
        lo, hi = 1 / hi, 1 / lo
    return out


def test_criterion_08_continued_fraction():
    assert cfrac(parse("exp(pi)"), 3) == [23, 7, 9]
    got = cfrac(parse("exp(pi)"), 7)
    # recompute from the exponential oracle alone
    pi_lo, pi_hi, den = pi_interval(130)
    e_lo, _, unit = exp_interval(pi_lo, den, 120)
    e_hi = exp_interval(pi_hi, den, 120)[1]
    independent = _cfrac_by_floor_walk(Fraction(e_lo, unit), Fraction(e_hi, unit), 7)
    assert got == independent
    assert got == [23, 7, 9, 3, 1, 1, 591]
    # widely circulated truncations omit the fourth quotient; the full
    # expansion keeps it, see README discrepancy notes
    assert got[3] == 3
    print("criterion 08 PASS: [23; 7, 9] confirmed; 7-term expansion matches oracle floor-walk")


@st.composite
def _rational_intervals(draw) -> tuple[Fraction, Fraction]:
    # Endpoints of either sign, exact integers among them, and widths from
    # zero (one rational) through tiny to a few units (straddling
    # quotients).  Either end may be the drawn anchor, so a short rational
    # expansion can end at the lower end or at the upper one.
    anchor = draw(st.one_of(
        st.integers(-30, 30).map(Fraction),
        st.fractions(min_value=-30, max_value=30, max_denominator=100),
        st.fractions(min_value=-30, max_value=30, max_denominator=10**30)))
    width = draw(st.one_of(
        st.just(Fraction(0)),
        st.integers(1, 3).map(Fraction),
        st.integers(1, 60).map(lambda k: Fraction(1, 10**k)),
        st.fractions(min_value=0, max_value=2, max_denominator=10**30)))
    return (anchor, anchor + width) if draw(st.booleans()) else (anchor - width, anchor)


@settings(max_examples=300, deadline=None)
@given(_rational_intervals(), st.integers(1, 40), st.integers(1, 10**40), st.integers(1, 10**40))
@example((Fraction(3), Fraction(3)), 5, 1, 1)
@example((Fraction(-22, 7), Fraction(-22, 7)), 5, 1, 1)
@example((Fraction(2), Fraction(5, 2)), 5, 1, 1)  # only the lower end is an integer
@example((Fraction(5, 2), Fraction(3)), 5, 1, 1)  # only the upper end is
@example((Fraction(-31, 10), Fraction(-29, 10)), 5, 1, 1)  # straddles -3
@example((Fraction(355, 113), Fraction(355, 113) + Fraction(1, 10**40)), 40, 1, 1)
@example((Fraction(22, 7) - Fraction(1, 10**40), Fraction(22, 7)), 5, 1, 1)
# one power of ten under both ends, as cfrac passes the evaluator's units
@example((Fraction(314159, 100000), Fraction(314161, 100000)), 5, 7 * 10**4, 10**3)
@example((Fraction(5, 2), Fraction(5, 2)), 5, 2, 10**9)
def test_integer_floor_cf_matches_fraction_walk(interval, n_terms, g_lo, g_hi):
    # the endpoints go in unreduced, each scaled by its own multiplier
    lo, hi = interval
    got = _floor_cf(lo.numerator * g_lo, lo.denominator * g_lo,
                    hi.numerator * g_hi, hi.denominator * g_hi, n_terms)
    assert got == _cfrac_by_floor_walk(lo, hi, n_terms)


@pytest.mark.parametrize("name", ["pi", "e"])
def test_cfrac_1000_terms_match_mpmath(name):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(3000):
        man, exp = (+mpmath.pi if name == "pi" else mpmath.e()).man_exp
    # mpmath rounds its constants correctly: within half a unit in the last place
    mid, ulp = man * Fraction(2) ** exp, Fraction(2) ** exp
    expected = _cfrac_by_floor_walk(mid - ulp, mid + ulp, 1000)
    assert expected is not None and len(expected) == 1000
    assert cfrac(parse(name), 1000) == expected


def test_criterion_09_linear_scan():
    two_den, rows = scan_units(10, 30, (6, 100))
    # (nearest, residual) of each row with 7 | n - 2m
    family = {(n, m): (nearest, Fraction(residual, two_den))
              for n, m, _, nearest, residual, mod7, *_ in rows if mod7}
    assert family
    for (n, m), (nearest, residual) in family.items():
        assert abs(residual) < Fraction(6, 100), (n, m)
        assert nearest == Fraction(22 * n + 19 * m, 7), (n, m)
    shown = [family[(3, -2)], family[(-1, 3)], family[(-4, 5)]]
    assert [nearest for nearest, _ in shown] == [4, 5, 1]
    mags = [abs(residual) for _, residual in shown]
    assert mags[0] < mags[1] < mags[2]
    print("criterion 09 PASS: 7k-family residuals < 0.06, nearest = (22n+19m)/7, displayed order holds")


def test_criterion_10_soundness_sweep():
    violations = []
    # registry: reported value vs a 60-digit recomputation of each side
    for rid in relation_ids():
        rel = get_relation(rid)
        report = verify(rel, 30)
        d = report.precision_used
        for expr, reported in ((rel.lhs, report.lhs_units), (rel.rhs, report.rhs_units)):
            lo, hi = as_fractions(eval_interval(expr, 60))
            truth = (lo + hi) / 2
            value, error_bound = eval_expr(expr, d)  # in units of 10**-(d+2) and 10**-(d+6)
            if reported != value or abs(Fraction(value, 10 ** (d + 2)) - truth) \
                    > Fraction(error_bound, 10 ** (d + 6)):
                violations.append(("expr", rid))
        if report.certified and report.lhs_units == report.rhs_units:
            violations.append(("certified-zero-residual", rid))
    # series: certified tail bounds vs oracle at assorted cut points
    for name in ("e-factorial", "gregory-leibniz", "nilakantha", "nilakantha-paired", "lambda6", "zeta8"):
        spec = builtin(name)
        ref = reference(spec.constant, 50)
        for n in (spec.start_index + 3, spec.start_index + 250):
            r = partial_sum(spec, n)
            slack = Fraction(1, 10**38)  # fixed-path grid rounding
            if abs(Fraction(*r.value) - ref) > Fraction(*r.bound) + slack:
                violations.append(("series", name, n))
    # acceleration rows: every distance column within the running bound
    for row in compare_expansions(30):
        assert Fraction(*row.distance_to_9) == abs(Fraction(*row.running) - 9)
    assert violations == []
    print("criterion 10 PASS: zero certified-bound violations across registry and series")
