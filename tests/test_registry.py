"""The relation catalog and its certified verifier."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import epilab.registry
from epilab.cli import _verify_cells
from epilab.expr import EvalDomainError, PrecisionCapError, eval_interval, parse, to_text
from epilab.oracle import ExpRangeError
from epilab.registry import (
    NEAR_EQUAL,
    NEAR_INTEGER,
    REGISTRY,
    Relation,
    VerificationFailure,
    VerificationReport,
    digits_of_agreement,
    get_relation,
    relation_ids,
    verify,
    verify_all,
)

from conftest import as_fractions

EXPECTED_IDS = [f"R{i:02d}" for i in range(1, 21)]


def test_catalog_ids_and_lookup():
    assert relation_ids() == EXPECTED_IDS
    for rid in EXPECTED_IDS:
        rel = get_relation(rid)
        assert rel.id == rid
        assert rel.kind in (NEAR_EQUAL, NEAR_INTEGER)
        assert rel.paper_eq
        assert rel.min_digits >= 6
    with pytest.raises(KeyError):
        get_relation("R99")


def test_kind_split():
    kinds = [get_relation(rid).kind for rid in EXPECTED_IDS]
    assert kinds.count(NEAR_EQUAL) == 8
    assert kinds.count(NEAR_INTEGER) == 12


def test_near_integer_sides_are_integers():
    from epilab.expr import eval_interval

    for rid in EXPECTED_IDS:
        rel = get_relation(rid)
        if rel.kind == NEAR_INTEGER:
            lo, hi = as_fractions(eval_interval(rel.rhs, 10))
            assert lo == hi
            assert lo.denominator == 1


def test_catalog_notes():
    # one relation records a claimed integer that is not the nearest one
    assert "961" in get_relation("R16").note
    assert get_relation("R07").min_digits >= 45


def test_digits_of_agreement_examples():
    # two integers on one grid: 9.001 against 9 is 9001 against 9000
    assert digits_of_agreement(9001, 9000) == 3
    assert digits_of_agreement(999999956, 10**9) == 7
    assert digits_of_agreement(15, 10) == 0
    with pytest.raises(ValueError):
        digits_of_agreement(3, 0)
    with pytest.raises(ValueError):
        digits_of_agreement(3, 3)
    assert digits_of_agreement(3, 3, cap=30) == 30
    assert digits_of_agreement(9001, 9000, cap=2) == 2


@given(
    st.integers(min_value=-(10**7), max_value=10**7),
    st.integers(min_value=1, max_value=10**7),
    st.integers(min_value=-3, max_value=3),
)
@settings(max_examples=100)
def test_digits_of_agreement_scale_invariant(m1, m2, k):
    a = Fraction(m1, 10**4)
    b = Fraction(m2, 10**4)
    if a == b:
        return
    # each value is exact on its grid: a and b have four places, and k >= -3
    base = digits_of_agreement(int(a * 10**12), int(b * 10**12))
    shift = Fraction(10) ** k
    shifted = digits_of_agreement(int(a * shift * 10**15), int(b * shift * 10**15))
    assert base == shifted


def test_verify_rejects_low_precision():
    with pytest.raises(ValueError):
        verify(get_relation("R01"), 5)


def test_verify_r02_report_fields():
    r = verify(get_relation("R02"), 12)
    assert r.relation_id == "R02"
    assert r.precision_used == 12
    # lhs and rhs in units of 10**-14, as eval_expr computes them; the
    # CLI prints them at 12 places and the residuals at 22
    lhs, rhs, residual, rel = _verify_cells(r)
    assert lhs.startswith("68.99966")
    assert r.rhs_units == 69 * 10**14 and rhs == "69.000000000000"
    # the signed residual keeps the direction of the miss
    assert r.lhs_units < r.rhs_units and residual.startswith("-0.000")
    assert Fraction(rel) > 0
    assert r.digits_of_agreement == 5
    assert r.certified


def test_verify_min_digits_escalation():
    r = verify(get_relation("R07"), 6)
    assert r.precision_used == 45
    assert r.certified
    assert r.digits_of_agreement >= 29


def test_verify_agreement_is_precision_stable():
    for rid in EXPECTED_IDS:
        rel = get_relation(rid)
        low = verify(rel, 12)
        high = verify(rel, 40)
        assert low.digits_of_agreement == high.digits_of_agreement, rid
        assert low.certified and high.certified


def test_verify_all_full_catalog():
    reports = verify_all(12)
    assert [r.relation_id for r in reports] == EXPECTED_IDS
    assert all(isinstance(r, VerificationReport) for r in reports)
    assert all(r.certified for r in reports)


def test_verify_all_continues_past_failures(monkeypatch):
    broken = Relation(
        id="X01",
        lhs=parse("1/(1 - 1)"),
        rhs=parse("1"),
        kind=NEAR_EQUAL,
        paper_eq="none",
        paper_quote="",
    )
    patched = (REGISTRY[0], broken, REGISTRY[1])
    monkeypatch.setattr(epilab.registry, "REGISTRY", patched)
    out = verify_all(12)
    assert len(out) == 3
    assert isinstance(out[0], VerificationReport)
    assert isinstance(out[1], VerificationFailure)
    assert out[1].relation_id == "X01"
    assert "zero" in out[1].error
    assert isinstance(out[2], VerificationReport)


def _raising_relation(monkeypatch, exc):
    """Put a relation whose evaluation raises `exc` between R01 and R02."""
    faulty = Relation(
        id="X03",
        lhs=parse("pi + 1"),
        rhs=parse("4"),
        kind=NEAR_EQUAL,
        paper_eq="none",
        paper_quote="",
    )
    real = epilab.registry.eval_expr

    def eval_expr(expr, digits):
        if expr is faulty.lhs:
            raise exc
        return real(expr, digits)

    monkeypatch.setattr(epilab.registry, "eval_expr", eval_expr)
    monkeypatch.setattr(epilab.registry, "REGISTRY", (REGISTRY[0], faulty, REGISTRY[1]))


@pytest.mark.parametrize("exc", [
    EvalDomainError("root of a negative"),
    ExpRangeError("exp argument out of range"),
    PrecisionCapError("precision cap reached"),
])
def test_verify_all_reports_evaluation_failures(monkeypatch, exc):
    _raising_relation(monkeypatch, exc)
    out = verify_all(12)
    assert [type(r) for r in out] == [VerificationReport, VerificationFailure,
                                      VerificationReport]
    assert out[1].error == str(exc)


def test_verify_all_propagates_programming_errors(monkeypatch):
    _raising_relation(monkeypatch, TypeError("a fault, not a failed evaluation"))
    with pytest.raises(TypeError, match="a fault"):
        verify_all(12)


def test_verify_near_integer_demands_integer_rhs():
    bad = Relation(
        id="X02",
        lhs=parse("pi"),
        rhs=parse("e"),
        kind=NEAR_INTEGER,
        paper_eq="none",
        paper_quote="",
    )
    with pytest.raises(ValueError):
        verify(bad, 12)


def test_registry_is_immutable_tuple():
    assert isinstance(REGISTRY, tuple)
    assert len(REGISTRY) == 20
    with pytest.raises(AttributeError):
        REGISTRY[0].id = "zzz"  # type: ignore[misc]


@pytest.mark.parametrize("rel", REGISTRY, ids=lambda rel: rel.id)
def test_paper_quote_is_the_rhs_or_a_certified_prefix(rel):
    # a quote is the right-hand side as printed, with * read as a space
    # (R17's "96 pi^3"), or a decimal string, less any trailing "...",
    # that both ends of the left-hand side's certified enclosure begin
    # with when truncated at its places ("20.08" for e^3 = 20.0855...)
    if rel.paper_quote == to_text(rel.rhs).replace("*", " "):
        return
    whole, dot, frac = rel.paper_quote.removesuffix("...").partition(".")
    assert dot and whole.isdigit() and frac.isdigit(), rel.paper_quote
    places = len(frac)
    lo, hi, den = eval_interval(rel.lhs, places + 5)
    assert lo > 0  # so flooring truncates
    for end in (lo, hi):
        t = end * 10**places // den
        assert f"{t // 10**places}.{t % 10**places:0{places}d}" == f"{whole}.{frac}"


def _nearest_text(x: Fraction, places: int) -> str:
    """x at `places` decimals, rounded to nearest with ties away from zero,
    by Fraction arithmetic and str formatting alone."""
    units = math.floor(abs(x) * 10**places + Fraction(1, 2))
    digits = str(units).rjust(places + 1, "0")
    sign = "-" if x < 0 and units else ""
    return sign + (f"{digits[:-places]}.{digits[-places:]}" if places else digits)


@pytest.mark.parametrize("digits", [6, 30])
def test_verify_matches_a_fraction_reference(digits):
    # verify reports eval_expr's mantissas and the CLI rounds them; the
    # same cells from exact Fractions, for the catalog and for residuals of
    # 10^-j, j around the precision, whose certificates flip from yes to no
    from epilab.expr import eval_expr

    near = [Relation(f"X{j}", parse(f"pi + 1/10^{j}"), parse("pi"), NEAR_EQUAL, "none", "")
            for j in range(digits - 3, digits + 3)]
    flags = set()
    for relation in (*REGISTRY, *near):
        report = verify(relation, digits)
        d = report.precision_used
        (lhs, lhs_err), (rhs, rhs_err) = (eval_expr(side, d) for side in (relation.lhs, relation.rhs))
        # values in units of 10**-(d + 2), bounds in units of 10**-(d + 6)
        lhs, rhs = Fraction(lhs, 10 ** (d + 2)), Fraction(rhs, 10 ** (d + 2))
        residual = lhs - rhs
        expected = [_nearest_text(lhs, d), _nearest_text(rhs, d), _nearest_text(residual, d + 10),
                    _nearest_text(abs(residual) / abs(rhs), d + 10),
                    10 * Fraction(lhs_err + rhs_err, 10 ** (d + 6)) < abs(residual)]
        assert [*_verify_cells(report), report.certified] == expected, relation.id
        flags.add((relation.id[0], report.certified))
    assert flags == {("R", True), ("X", True), ("X", False)}
