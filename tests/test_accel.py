"""Series acceleration: pair regrouping and the two expansions of 9."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epilab.accel import (
    compare_expansions,
    e_regrouped,
    gl_regroup_term,
    nilakantha_doubled,
    pair_transform,
    paired_term_identity,
)
from epilab.series import NILAKANTHA_PAIRED, builtin, partial_sum

from conftest import reference


def F(pair) -> Fraction:
    """A pair (p, q), as the series and compare rows carry exact values."""
    return Fraction(*pair)


@given(st.integers(min_value=1, max_value=10**6))
def test_gl_regroup_three_forms_agree(n):
    a, b, c = gl_regroup_term(n)
    assert a == b == c
    assert a > 0


def test_gl_regroup_first_values():
    assert gl_regroup_term(1) == (Fraction(1, 6),) * 3
    assert gl_regroup_term(2) == (Fraction(1, 30),) * 3
    with pytest.raises(ValueError):
        gl_regroup_term(0)


@given(st.integers(min_value=1, max_value=10**6))
def test_paired_identity_agrees(n):
    grouped, closed = paired_term_identity(n)
    assert grouped == closed
    assert grouped < 0


def test_paired_first_magnitudes():
    assert paired_term_identity(1)[1] == Fraction(-3, 70)
    assert paired_term_identity(2)[1] == Fraction(-1, 198)
    assert paired_term_identity(3)[1] == Fraction(-1, 780)


def test_nilakantha_doubled_doubles():
    nd = nilakantha_doubled()
    nil = builtin("nilakantha")
    assert nd.constant == "two_pi"
    assert F(nd.offset) == 2 * F(nil.offset)
    for n in range(1, 30):
        assert nd.term(n) == 2 * nil.term(n)
    assert F(partial_sum(nd, 20).value) == 2 * F(partial_sum(nil, 20).value)


def test_pair_transform_reproduces_builtin_paired():
    p = pair_transform(nilakantha_doubled())
    assert p.constant == "two_pi"
    assert F(p.offset) == F(NILAKANTHA_PAIRED.offset) == Fraction(19, 3)
    for k in range(1, 50):
        assert p.term(k) == NILAKANTHA_PAIRED.term(k)


def test_pair_transform_prefix_sums_match_original():
    nd = nilakantha_doubled()
    p = pair_transform(nd)
    # folding one term and pairing K more consumes 2K + 1 original terms
    for K in range(1, 9):
        lhs = F(p.offset) + sum(p.term(k) for k in range(p.start_index, K + 1))
        rhs = F(nd.offset) + sum(nd.term(j)
                                 for j in range(nd.start_index, nd.start_index + 1 + 2 * K))
        assert lhs == rhs


def test_pair_transform_without_fold():
    gl = builtin("gregory-leibniz")
    pg = pair_transform(gl, fold_into_offset=0)
    assert F(pg.offset) == 0
    assert pg.term(pg.start_index) == Fraction(8, 3)
    for K in range(1, 9):
        lhs = F(pg.offset) + sum(pg.term(k) for k in range(pg.start_index, pg.start_index + K))
        rhs = sum(gl.term(j) for j in range(gl.start_index, gl.start_index + 2 * K))
        assert lhs == rhs


def test_pair_transform_bounds_are_sound():
    two_pi = reference("two_pi", 40)
    p = pair_transform(nilakantha_doubled())
    for K in (1, 5, 25, 100):
        got = F(p.offset) + sum(p.term(k) for k in range(p.start_index, K + 1))
        assert abs(got - two_pi) <= F(p.tail_bound(K)) + Fraction(1, 10**35)


def test_pair_transform_rejects_non_alternating():
    with pytest.raises(ValueError):
        pair_transform(builtin("e-factorial"))


def test_e_regrouped_terms_and_sum():
    er = e_regrouped()
    assert er.constant == "e"
    ks = range(er.start_index, er.start_index + 4)
    assert [er.term(k) for k in ks] == [
        Fraction(3),
        Fraction(-1, 3),
        Fraction(1, 24),
        Fraction(1, 120),
    ]
    assert F(partial_sum(er, er.start_index + 4).value) == Fraction(1957, 720)


def test_e_regrouped_converges_to_e_within_bounds():
    er = e_regrouped()
    e_ref = reference("e", 40)
    for n in (er.start_index, er.start_index + 3, er.start_index + 12):
        r = partial_sum(er, n)
        assert abs(F(r.value) - e_ref) <= F(r.bound) + Fraction(1, 10**35)


def test_compare_rows_start_at_exactly_nine():
    rows = list(compare_expansions(4))
    assert [r.k for r in rows] == [1, 2, 3, 4]
    # the terms are pairs (num, den) in lowest terms; running and
    # distance_to_9 are exact pairs (num, den)
    assert rows[0].e_term == (3, 1)
    assert rows[0].two_pi_term == (6, 1)
    assert [(r.e_term, r.two_pi_term) for r in rows[1:]] == [((-1, 3), (1, 3)),
                                                              ((1, 24), (-3, 70)),
                                                              ((1, 120), (-1, 198))]
    assert Fraction(*rows[0].running) == 9
    assert rows[0].distance_to_9[0] == 0
    assert Fraction(*rows[1].running) == 9
    # 9 + 1/24 - 3/70 = 8.99880952...
    assert Fraction(*rows[2].running) == 9 - Fraction(1, 840)
    assert Fraction(*rows[2].distance_to_9) == Fraction(1, 840)


def test_compare_distance_settles_near_true_gap():
    # e + 2*pi - 9 = 1.46713e-3...; the running distance closes in on it
    e_ref = reference("e", 30)
    two_pi = reference("two_pi", 30)
    gap = e_ref + two_pi - 9
    last = Fraction(*list(compare_expansions(80))[-1].distance_to_9)
    assert abs(last - gap) < Fraction(1, 10**6)
    assert Fraction(146, 10**5) <= last < Fraction(147, 10**5)


def test_compare_respects_scale(capsys):
    # the rows are exact; the CLI rounds them at --scale
    from epilab.cli import main

    assert main(["compare", "--rows", "3", "--scale", "6", "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "3,1/24,-3/70,8.998810,0.001190"
    with pytest.raises(ValueError):
        compare_expansions(0)
