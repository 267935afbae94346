"""Series partial sums, tail bounds, and convergence tables."""

from __future__ import annotations

import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from epilab import series
from epilab.accel import e_regrouped, nilakantha_doubled, pair_transform
from epilab.bignum import BigFixed, _div_nearest
from epilab.series import (
    BoundViolation,
    EXACT_TERM_LIMIT,
    FIXED_ACC_SCALE,
    InfeasibleRequest,
    SeriesSpec,
    builtin,
    builtin_names,
    convergence_table,
    partial_sum,
    scale_series,
    terms_needed,
)

from conftest import reference

def F(pair) -> Fraction:
    """A pair (p, q), as the series return values, bounds and offsets."""
    return Fraction(*pair)


ALL_NAMES = (
    "e-factorial",
    "gregory-leibniz",
    "nilakantha",
    "nilakantha-paired",
    "lambda6",
    "zeta8",
)


def test_builtin_catalog():
    assert builtin_names() == ALL_NAMES
    for name in ALL_NAMES:
        spec = builtin(name)
        assert spec.name == name
    with pytest.raises(ValueError):
        builtin("basel")


def test_gregory_leibniz_exact_prefix_sums():
    gl = builtin("gregory-leibniz")
    assert gl.alternating
    # 4*(1 - 1/3 + 1/5 - 1/7), indices 0..3
    assert F(partial_sum(gl, 3).value) == Fraction(304, 105)
    r = partial_sum(gl, 4)
    assert F(r.value) == Fraction(1052, 315)
    assert r.terms_used == 4
    assert F(r.bound) == Fraction(4, 11)


def test_e_factorial_exact_prefix_sums():
    ef = builtin("e-factorial")
    assert not ef.alternating
    assert F(partial_sum(ef, 5).value) == Fraction(163, 60)
    # tail after 1/5! is below 2/6!
    assert F(partial_sum(ef, 5).bound) <= Fraction(2, 720)


def test_every_builtin_bound_dominates_true_error():
    # soundness spot-check at several cut points against the oracle
    for name in ALL_NAMES:
        spec = builtin(name)
        ref = reference(spec.constant, 45)
        for n in (spec.start_index + 2, spec.start_index + 17, spec.start_index + 60):
            r = partial_sum(spec, n)
            err = abs(F(spec.offset) + _exact_sum(spec, n) - ref)
            assert err <= F(r.bound) + Fraction(1, 10**40), (name, n)


def _exact_sum(spec, n):
    # the sequential reference the pairwise sum must equal exactly
    return sum(spec.term(k) for k in range(spec.start_index, n + 1))


def test_partial_sum_matches_direct_summation():
    for name in ("nilakantha", "lambda6", "zeta8"):
        spec = builtin(name)
        n = spec.start_index + 37
        assert F(partial_sum(spec, n).value) == F(spec.offset) + _exact_sum(spec, n)


def test_fixed_point_path_agrees_with_exact(monkeypatch):
    spec = builtin("nilakantha")
    exact = F(partial_sum(spec, 200).value)
    monkeypatch.setattr(series, "EXACT_TERM_LIMIT", 10)
    fixed = F(partial_sum(spec, 200).value)
    # the fixed path accumulates on the 10**-40 grid
    assert 10**40 % fixed.denominator == 0
    assert abs(fixed - exact) <= Fraction(1, 10**35)


def test_terms_needed_is_minimal():
    for name, digits in (("nilakantha", 6), ("nilakantha-paired", 8), ("zeta8", 20)):
        spec = builtin(name)
        n = terms_needed(spec, digits)
        eps = Fraction(1, 10**digits)
        assert F(spec.tail_bound(n)) < eps
        assert F(spec.tail_bound(n - 1)) >= eps


def test_terms_needed_infeasible_without_enough_budget():
    gl = builtin("gregory-leibniz")
    with pytest.raises(InfeasibleRequest) as exc:
        terms_needed(gl, 30)
    assert exc.value.name == "gregory-leibniz"
    assert exc.value.digits == 30
    assert "30" in str(exc.value)
    assert str(exc.value.cap) in str(exc.value)
    # a feasible request right at the cap edge does not raise
    assert terms_needed(gl, 3, cap=10**4) > 0
    with pytest.raises(InfeasibleRequest):
        terms_needed(gl, 5, cap=10**4)


def test_convergence_table_shape_and_monotonicity():
    spec = builtin("nilakantha")
    rows = convergence_table(spec, (10, 100, 1000))
    assert [r.n for r in rows] == [10, 100, 1000]
    for row in rows:
        assert F(row.abs_error) <= F(row.bound)
        assert row.digits_correct >= 0
    assert F(rows[0].abs_error) > F(rows[1].abs_error) > F(rows[2].abs_error)
    assert rows[0].digits_correct <= rows[1].digits_correct <= rows[2].digits_correct
    assert rows[0].digits_correct >= 3
    assert rows[2].digits_correct >= 9


def test_convergence_table_frozen_gl_digits():
    gl = builtin("gregory-leibniz")
    rows = convergence_table(gl, (10, 100, 1000))
    assert [r.digits_correct for r in rows] == [1, 2, 3]


PI_100 = ("3.1415926535897932384626433832795028841971693993751058209749445923078164"
          "062862089986280348253421170679")


def test_convergence_table_rejects_coarse_reference():
    # the offset is pi to 100 places and the loose bound asks for a
    # 60-digit reference, whose certificate the true error lies below
    pi_100 = Fraction(PI_100.replace(".", "")) / 10**100
    spec = SeriesSpec(
        name="pi-100",
        constant="pi",
        offset=pi_100.as_integer_ratio(),
        start_index=1,
        pairs=lambda a, b: ((0, 1) for _ in range(a, b + 1)),
        tail_bound=lambda n: (1, 1000),
    )
    with pytest.raises(ValueError, match="not precise enough"):
        convergence_table(spec, (10,))


def test_convergence_table_catches_lying_bound():
    honest = builtin("nilakantha")
    liar = SeriesSpec(
        name="liar",
        constant="pi",
        offset=honest.offset,
        start_index=honest.start_index,
        pairs=honest.pairs,
        tail_bound=lambda n: (1, 10**30),
        alternating=honest.alternating,
    )
    with pytest.raises(BoundViolation):
        convergence_table(liar, (10,))


def test_scale_series_halves_sums_and_bounds():
    paired = builtin("nilakantha-paired")
    halved = scale_series(paired, Fraction(1, 2), name="halved", constant="pi")
    assert halved.name == "halved"
    assert halved.constant == "pi"
    n = paired.start_index + 9
    assert F(partial_sum(halved, n).value) * 2 == F(partial_sum(paired, n).value)
    assert F(halved.tail_bound(n)) * 2 == F(paired.tail_bound(n))


@given(st.integers(min_value=1, max_value=400))
@settings(max_examples=30, deadline=None)
def test_tail_bounds_decrease(n):
    for name in ("nilakantha", "nilakantha-paired", "lambda6", "zeta8"):
        spec = builtin(name)
        k = spec.start_index + n
        assert F(spec.tail_bound(k + 1)) <= F(spec.tail_bound(k))
        assert F(spec.tail_bound(k)) > 0


def test_exact_term_limit_boundary():
    # right at the limit the sum is still the exact rational; one term
    # later it is on the fixed-point grid
    spec = builtin("zeta8")
    n = EXACT_TERM_LIMIT + spec.start_index - 1
    assert F(partial_sum(spec, n).value) == F(spec.offset) + _exact_sum(spec, n)
    assert 10**FIXED_ACC_SCALE % F(partial_sum(spec, n + 1).value).denominator == 0


@given(
    name=st.sampled_from(ALL_NAMES),
    extra=st.integers(min_value=0, max_value=600),
    factor=st.one_of(
        st.none(),
        st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6)
        .filter(lambda f: f != 0),
    ),
)
@settings(max_examples=60, deadline=None)
def test_pairwise_sum_equals_sequential_sum(name, extra, factor):
    spec = builtin(name)
    if factor is not None:
        spec = scale_series(spec, factor)
    n = spec.start_index + extra
    assert F(partial_sum(spec, n).value) == F(spec.offset) + _exact_sum(spec, n)


def test_convergence_table_rows_match_partial_sums():
    for name in ("e-factorial", "nilakantha", "zeta8"):
        spec = builtin(name)
        points = (spec.start_index, spec.start_index + 1, 17, 18, 40, 41)
        rows = convergence_table(spec, points)
        assert [r.n for r in rows] == sorted(set(points))
        # every bound here is above 10^-50: the table takes a 60-digit reference
        exact = reference(spec.constant, 60)
        for row in rows:
            value = F(partial_sum(spec, row.n).value)
            assert F(row.abs_error) == abs(value - exact), (name, row.n)
            assert F(row.value) == value, (name, row.n)


# the terms written out one by one, as a reference for the runs: the
# builtins, the regrouped e series and the paired doubled Nilakantha
# series, which is the closed paired form term by term
REFERENCE_TERMS = {
    "e-factorial": lambda n: Fraction(1, math.factorial(n)),
    "gregory-leibniz": lambda n: Fraction(4 if n % 2 == 0 else -4, 2 * n + 1),
    "nilakantha": lambda n: Fraction(1 if n % 2 else -1, n * (2 * n + 1) * (n + 1)),
    "nilakantha-paired": lambda n: Fraction(-3, n * (n + 1) * (4 * n + 1) * (4 * n + 3)),
    "lambda6": lambda n: Fraction(960, (2 * n + 1) ** 6),
    "zeta8": lambda n: Fraction(9450, n**8),
    "e-factorial-regrouped": lambda k: (
        (Fraction(3), Fraction(-1, 3))[k - 1] if k < 3 else Fraction(1, math.factorial(k + 1))),
}
REFERENCE_TERMS["nilakantha-doubled-paired"] = REFERENCE_TERMS["nilakantha-paired"]

RUN_SPECS = {name: builtin(name) for name in ALL_NAMES}
RUN_SPECS.update((s.name, s) for s in (e_regrouped(), pair_transform(nilakantha_doubled())))


@given(
    name=st.sampled_from(sorted(RUN_SPECS)),
    ends=st.lists(st.integers(min_value=0, max_value=600), min_size=2, max_size=2),
    factor=st.one_of(
        st.none(),
        st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6)
        .filter(lambda f: f != 0),
    ),
)
@settings(max_examples=80, deadline=None)
def test_pair_runs_equal_the_terms(name, ends, factor):
    spec = RUN_SPECS[name]
    a, b = (spec.start_index + k for k in sorted(ends))
    expected = [REFERENCE_TERMS[name](i) for i in range(a, b + 1)]
    if factor is not None:
        spec = scale_series(spec, factor)
        expected = [factor * t for t in expected]
    run = list(spec.pairs(a, b))
    assert all(q > 0 for _, q in run)
    assert [Fraction(p, q) for p, q in run] == expected
    assert [spec.term(i) for i in range(a, b + 1)] == expected
    assert list(spec.pairs(b + 1, b)) == []


def test_e_run_sum_is_the_factorial_sum():
    # every run a..b up to 40 against the Fraction sum of the terms, the
    # regrouped e series' runs too, and two long runs against sum(b!/n!)
    # over b!, an integer sum that shares no code with the splitter
    ef, er = builtin("e-factorial"), e_regrouped()
    for a in range(41):
        for b in range(a, 41):
            expected = sum(REFERENCE_TERMS["e-factorial"](n) for n in range(a, b + 1))
            assert F(ef.run_sum(a, b)) == expected, (a, b)
            if a:
                terms = (REFERENCE_TERMS["e-factorial-regrouped"](k) for k in range(a, b + 1))
                assert F(er.run_sum(a, b)) == sum(terms, Fraction(0)), (a, b)
    for a, b in ((0, 1999), (1000, 4999)):
        units, quotient = 0, 1  # quotient = b!/n!, from n = b down
        for n in range(b, a - 1, -1):
            units += quotient
            quotient *= n
        p, q = ef.run_sum(a, b)
        assert p * math.factorial(b) == units * q, (a, b)
    scaled = scale_series(ef, Fraction(3, 7))
    for a, b in ((0, 0), (0, 40), (3, 17), (1000, 4999)):
        assert F(scaled.run_sum(a, b)) == Fraction(3, 7) * F(ef.run_sum(a, b)), (a, b)


def test_a_run_sum_is_exact_past_the_exact_term_limit():
    # e and a scaled copy of it are summed by the splitter at any count,
    # against sum(n!/k!) over n!, an integer sum that shares no code with
    # it; the bound is the tail bound alone, with no fixed-point rounding
    ef = builtin("e-factorial")
    n = EXACT_TERM_LIMIT  # EXACT_TERM_LIMIT + 1 terms, from index 0
    units, quotient = 0, 1  # quotient = n!/k!, from k = n down
    for k in range(n, -1, -1):
        units += quotient
        quotient *= k
    exact = Fraction(units, math.factorial(n))
    for spec, factor in ((ef, 1), (scale_series(ef, Fraction(-7, 3)), Fraction(-7, 3))):
        r = partial_sum(spec, n)
        assert F(r.value) == factor * exact, spec.name
        assert r.bound == spec.tail_bound(n), spec.name


def test_only_the_e_series_state_a_run_sum():
    # the factorial series, its scaled copies and the regrouped e series
    # sum through the splitter; every other series joins its pairs
    assert sorted(name for name, spec in RUN_SPECS.items() if spec.run_sum) \
        == ["e-factorial", "e-factorial-regrouped"]
    assert scale_series(builtin("e-factorial"), 2).run_sum is not None
    assert scale_series(builtin("zeta8"), 2).run_sum is None


def _rounded_at_fixed_scale(t: Fraction) -> int:
    # nearest multiple of 10**-FIXED_ACC_SCALE, in units, ties away from zero
    units = abs(t) * 10**FIXED_ACC_SCALE
    return math.floor(units + Fraction(1, 2)) * (1 if t >= 0 else -1)


def test_fixed_point_path_rounds_each_term_to_nearest(monkeypatch):
    # the fixed-point path serves only the specs that state no run_sum
    monkeypatch.setattr(series, "EXACT_TERM_LIMIT", 10)
    specs = [spec for spec in map(builtin, ALL_NAMES) if not spec.run_sum]
    specs.append(scale_series(builtin("nilakantha"), Fraction(-7, 3)))
    # every term lies halfway between two grid points, of either sign
    specs.append(SeriesSpec("ties", "pi", (3, 1), 0,
                            lambda a, b: (((-1) ** n * (2 * n + 1), 2 * 10**FIXED_ACC_SCALE)
                                          for n in range(a, b + 1)),
                            lambda n: (1, 1)))
    unit = 10**FIXED_ACC_SCALE
    for spec in specs:
        n = spec.start_index + 150
        r = partial_sum(spec, n)
        units = sum(_rounded_at_fixed_scale(spec.term(i)) for i in range(spec.start_index, n + 1))
        assert F(r.value) == F(spec.offset) + Fraction(units, unit), spec.name
        assert F(r.bound) == F(spec.tail_bound(n)) + Fraction(151, 2 * unit), spec.name


# runs of integer pairs (p, q), q > 0, for the split sum: p of any sign
# and zero; q free, or with shared factors (factorial chains, powers of
# one base, n^8 as in zeta8); or every term a tie on the fixed-point grid
_UNIT = 10**FIXED_ACC_SCALE
_NUMERATORS = st.integers(min_value=-10**30, max_value=10**30)
_COUNTS = st.one_of(st.sampled_from([0, 1, 16, 17]), st.integers(min_value=0, max_value=70))


def _chain(make_q):
    return st.tuples(st.integers(min_value=0, max_value=40), _COUNTS).flatmap(
        lambda s: st.lists(_NUMERATORS, min_size=s[1], max_size=s[1]).map(
            lambda ps: [(p, make_q(s[0] + i)) for i, p in enumerate(ps)]))


_PAIR_RUNS = st.one_of(
    _COUNTS.flatmap(lambda n: st.lists(st.tuples(_NUMERATORS, st.one_of(
        st.integers(min_value=1, max_value=10**12),
        st.builds(math.factorial, st.integers(min_value=0, max_value=60)),
        st.builds(pow, st.sampled_from([2, 3, 6, 10]), st.integers(min_value=0, max_value=50)),
    )), min_size=n, max_size=n)),
    _chain(math.factorial),
    _chain(lambda k: 6**k),
    _chain(lambda k: (k + 1) ** 8),
    # (2j + 1) d / (2 d unit): exactly half way between two grid points
    _COUNTS.flatmap(lambda n: st.lists(st.builds(
        lambda j, d: ((2 * j + 1) * d, 2 * d * _UNIT),
        st.integers(min_value=-10**6, max_value=10**6), st.integers(min_value=1, max_value=99),
    ), min_size=n, max_size=n)),
)


# no explain phase: it traces every shrink step, and on a failing run of
# big-integer pairs that took minutes instead of seconds
@given(run=_PAIR_RUNS, offset=st.fractions(max_denominator=50))
@settings(max_examples=300, deadline=None,
          phases=[phase for phase in Phase if phase is not Phase.explain])
def test_split_sum_equals_fraction_sum_and_fixed_sum_rounds_each_term(run, offset):
    # the exact split draws exactly `count` pairs, in order
    rest = iter([*run, (7, 11)])
    big_p, big_q = series._exact_sum(rest, len(run))
    assert big_q > 0
    assert Fraction(big_p, big_q) == sum((Fraction(p, q) for p, q in run), Fraction(0))
    assert next(rest) == (7, 11)
    if not run:
        return
    spec = SeriesSpec("run", "pi", offset.as_integer_ratio(), 0, lambda a, b: run[a:b + 1],
                      lambda n: (1, 1))
    n = len(run) - 1
    assert F(partial_sum(spec, n).value) == offset + Fraction(big_p, big_q)
    with mock.patch.object(series, "EXACT_TERM_LIMIT", 0):
        fixed = partial_sum(spec, n)
    units = sum(_div_nearest(p * _UNIT, q) for p, q in run)
    assert F(fixed.value) == offset + Fraction(units, _UNIT)
    assert F(fixed.bound) == 1 + Fraction(len(run), 2 * _UNIT)
