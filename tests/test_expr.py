"""Expression parsing, rendering, and certified interval evaluation."""

from __future__ import annotations

import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epilab.expr import (
    Add,
    ConstE,
    ConstPi,
    Div,
    EvalDomainError,
    Exp,
    IntLit,
    MAX_DEPTH,
    Mul,
    ParseError,
    PowInt,
    PrecisionCapError,
    Root,
    Sqrt,
    Sub,
    _WORDS,
    _tokenize,
    depth,
    eval_expr,
    eval_interval,
    parse,
    to_text,
)
from epilab.oracle import ExpRangeError

from conftest import as_fractions, reference


def exact(text):
    lo, hi = as_fractions(eval_interval(parse(text), 20))
    assert lo == hi
    return lo


def test_precedence_and_associativity():
    assert exact("2+3*4") == 14
    assert exact("2*3^2") == 18
    assert exact("(2+3)*4") == 20
    assert exact("10-3-2") == 5
    assert exact("16/4/2") == 2
    assert exact("2^3^2") == 64  # ^ chains to the left
    assert exact("-2^2") == -4  # unary minus binds looser than ^
    assert exact("2^-3") == Fraction(1, 8)
    assert exact("2 - (3 - 4)") == 3


def test_rational_subtrees_stay_exact():
    assert exact("22/7") == Fraction(22, 7)
    assert exact("1/3 + 1/6") == Fraction(1, 2)
    assert exact("640320^3 + 744") == 640320**3 + 744
    assert exact("sqrt(49)") == 7


@pytest.mark.parametrize("text, point", [
    ("root(2, 8/2)", (2, 2, 1)),
    ("(2/4)^-1", (2, 2, 1)),
    ("22/7", (22, 22, 7)),
    ("1/3 + 1/6", (1, 1, 2)),
    ("0 - 6/4", (-3, -3, 2)),
    ("root(3, 0 - 27/8)", (-3, -3, 2)),
    ("(pi - pi)*0 + 3", (3, 3, 1)),  # an exact zero factor
    ("exp(0)", (1, 1, 1)),
])
def test_an_exact_value_is_a_point_in_lowest_terms(text, point):
    # the evaluator's enclosure of an exact value is the point (p, p, q),
    # reduced as Fraction(p, q) would be, at every precision
    assert eval_interval(parse(text), 5) == eval_interval(parse(text), 40) == point
    lo, hi = as_fractions(eval_interval(parse(text), 5))
    assert lo == hi == Fraction(point[0], point[2])


def test_rational_literal_leaves_are_exact_points():
    # a rational is written as a quotient of integer literals
    tree = Mul(Div(IntLit(6), IntLit(4)), Add(IntLit(1), Div(IntLit(-1), IntLit(3))))
    assert eval_interval(tree, 10) == (1, 1, 1)


@given(st.integers(-10**6, 10**6), st.integers(1, 10**6), st.integers(1, 40))
@example(0, 7, 1)
@example(-6, 4, 5)
@example(10**6, 10**6, 40)
def test_a_quotient_of_literals_is_the_lowest_terms_point(p, q, digits):
    g = math.gcd(p, q)
    tree = Div(IntLit(p), IntLit(q))
    assert eval_interval(tree, digits) == (p // g, p // g, q // g)
    assert eval_interval(parse(to_text(tree)), digits) == (p // g, p // g, q // g)


@pytest.mark.parametrize("value", [0.1, 2.0, Fraction(1, 3), "7", None])
def test_an_integer_literal_takes_only_an_int(value):
    # a float would enter as its binary value, 0.1 as 3602879701896397/2**55
    with pytest.raises(TypeError, match="IntLit takes an int"):
        IntLit(value)


@pytest.mark.parametrize("value", [0.5, 2.0, Fraction(1, 2), "2", None])
@pytest.mark.parametrize("node, name", [(lambda v: PowInt(ConstPi(), v), "PowInt"),
                                        (lambda v: Root(IntLit(2), v), "Root")],
                         ids=["PowInt", "Root"])
def test_a_power_and_a_root_take_only_an_int(node, name, value):
    # PowInt(pi, 0.5) would be evaluated in binary floating point, and
    # Root(2, 2.5) would fail deep in the integer arithmetic
    with pytest.raises(TypeError, match=f"{name} takes an int"):
        node(value)


def test_sqrt_is_root_two():
    assert parse("sqrt(51)") == Root(IntLit(51), 2)
    assert Sqrt(ConstPi()) == Root(ConstPi(), 2)
    assert parse("root(3, e)") == Root(ConstE(), 3)


def test_parse_errors():
    for bad in (
        "",
        "pi e",
        "2**3",
        "tau",
        "root(e, 2)",
        "sqrt()",
        "(1",
        "1)",
        "1 +",
        "^2",
        "exp()",
        "2^pi",
        "1..2",
    ):
        with pytest.raises(ParseError):
            parse(bad)


def _tokenize_by_pattern(text: str) -> list[str]:
    """The tokenizer as it was written on re: the reference for _tokenize."""
    tokens, pos = [], 0
    while pos < len(text):
        m = re.compile(r"\s*(\d+|[a-z]+|[()+\-*/^,])").match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError(f"bad character at position {pos}: {text[pos:pos+10]!r}")
            break
        tok = m.group(1)
        if tok.isalpha() and tok not in _WORDS:
            raise ParseError(f"unknown name {tok!r}")
        tokens.append(tok)
        pos = m.end()
    return tokens


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as exc:
        return str(exc)


@given(st.one_of(
    st.text(max_size=20),
    # the grammar's own characters, with digits and letters of other
    # scripts, other whitespace, capitals and junk among them
    st.text(alphabet="0123456789()+-*/^, \t\npiesqrtxoAZ_.٣١²éßİK\u00a0\u2003\u3000",
            max_size=20),
))
@example("")
@example("   ")
@example("sqrt(2) + 3*pi")
@example("pié")
@example("piX")
@example("٣٣ + 1")
@example("2²")
@example("1 $ 2")
@example("  \u00a0#")
@settings(max_examples=500, deadline=None)
def test_tokenize_reads_what_the_pattern_read(text):
    # the same tokens, or the same ParseError at the same position
    assert _tokens_or_error(_tokenize, text) == _tokens_or_error(_tokenize_by_pattern, text)


def test_depth_guard_follows_tree_depth():
    deep_ok = "sqrt(" * (MAX_DEPTH - 1) + "2" + ")" * (MAX_DEPTH - 1)
    assert depth(parse(deep_ok)) == MAX_DEPTH
    with pytest.raises(ParseError):
        parse("sqrt(" * MAX_DEPTH + "2" + ")" * MAX_DEPTH)
    # redundant parentheses do not add tree depth
    assert depth(parse("(" * 60 + "pi" + ")" * 60)) == 1
    with pytest.raises(ParseError):
        # unbounded nesting is still cut off, without a RecursionError
        parse("(" * 5000 + "1" + ")" * 5000)


def test_to_text_frozen_forms():
    cases = {
        "2+3*4": "2 + 3*4",
        "(2+3)*4": "(2 + 3)*4",
        "pi^2/(4*e-1)": "pi^2/(4*e - 1)",
        "-2^2": "0 - 2^2",
        "2^-3": "2^-3",
        "exp(pi)-pi": "exp(pi) - pi",
        "root(3, 640320)": "root(3, 640320)",
        "2 - (3 - 4)": "2 - (3 - 4)",
    }
    for src, rendered in cases.items():
        assert to_text(parse(src)) == rendered


@pytest.mark.parametrize("tree, rendered", [
    (Div(IntLit(-3), IntLit(7)), "(-3)/7"),
    (IntLit(4), "4"),
    (IntLit(-4), "(-4)"),
    (PowInt(Div(IntLit(2), IntLit(3)), 3), "(2/3)^3"),
    (PowInt(Sub(IntLit(0), Div(IntLit(2), IntLit(3))), 2), "(0 - 2/3)^2"),
    (Div(ConstPi(), Div(IntLit(2), IntLit(3))), "pi/(2/3)"),
])
def test_to_text_renders_rational_leaves(tree, rendered):
    # parse reads a negative literal as 0 minus it, so the round trip
    # below, which compares trees, cannot take every one; values must agree
    assert to_text(tree) == rendered
    assert as_fractions(eval_interval(parse(rendered), 20)) == as_fractions(eval_interval(tree, 20))


leaves = st.one_of(
    st.integers(min_value=0, max_value=99).map(IntLit),
    st.just(ConstPi()),
    st.just(ConstE()),
)


def _combine(children):
    binary = st.tuples(children, children)
    return st.one_of(
        binary.map(lambda p: Add(*p)),
        binary.map(lambda p: Sub(*p)),
        binary.map(lambda p: Mul(*p)),
        binary.map(lambda p: Div(*p)),
        st.tuples(
            children, st.integers(min_value=-5, max_value=5)
        ).map(lambda p: PowInt(*p)),
        st.tuples(
            children, st.integers(min_value=2, max_value=5)
        ).map(lambda p: Root(*p)),
        children.map(Exp),
    )


expr_trees = st.recursive(leaves, _combine, max_leaves=12)


@given(expr_trees)
@settings(max_examples=150)
def test_to_text_parse_round_trip(tree):
    assert parse(to_text(tree)) == tree


def test_eval_matches_oracle():
    pi_ref = reference("pi", 40)
    value, error_bound = eval_expr(parse("pi"), 30)  # in units of 10**-32 and 10**-36
    assert abs(Fraction(value, 10**32) - pi_ref) <= Fraction(1, 10**30)
    assert Fraction(error_bound, 10**36) <= Fraction(1, 10**29)


def test_eval_error_bound_is_sound():
    for text in (
        "pi^2/(4*e - 1)",
        "exp(pi) - pi",
        "sqrt(51) - 4",
        "163*(pi - e)",
        "pi^2*e",
    ):
        node = parse(text)
        truth_lo, truth_hi = as_fractions(eval_interval(node, 60))
        value, error_bound = eval_expr(node, 12)  # in units of 10**-14 and 10**-18
        truth_mid = (truth_lo + truth_hi) / 2
        assert abs(Fraction(value, 10**14) - truth_mid) <= Fraction(error_bound, 10**18), text


def test_eval_intervals_overlap_across_precision():
    node = parse("exp(pi) - pi")
    lo1, hi1 = as_fractions(eval_interval(node, 10))
    lo2, hi2 = as_fractions(eval_interval(node, 25))
    assert max(lo1, lo2) <= min(hi1, hi2)
    assert hi2 - lo2 < hi1 - lo1


def test_domain_errors():
    with pytest.raises(EvalDomainError):
        eval_interval(parse("1/0"), 10)
    with pytest.raises(EvalDomainError):
        eval_interval(parse("1/(1 - 1)"), 10)
    with pytest.raises(EvalDomainError):
        eval_interval(parse("sqrt(0 - 1)"), 10)
    with pytest.raises(EvalDomainError):
        eval_interval(parse("root(2, e - 3)"), 10)
    with pytest.raises(EvalDomainError):
        eval_interval(parse("0^-1"), 10)


def test_odd_roots_of_negative_values():
    assert exact("root(3, 0-8)") == -2
    assert exact("root(5, 0 - 32/243)") == Fraction(-2, 3)
    # an argument that straddles zero encloses zero
    lo, hi = as_fractions(eval_interval(parse("root(3, pi - pi)"), 10))
    assert lo <= 0 <= hi and hi - lo <= Fraction(1, 10**10)
    # about -6.7e-15, whose enclosure at the first guard digits straddles
    # zero; at one digit that coarse enclosure is already narrow enough
    arg = parse("314159265358980/10^14 - pi")
    lo, hi = as_fractions(eval_interval(Root(arg, 3), 1))
    arg_lo, arg_hi = as_fractions(eval_interval(arg, 60))
    assert lo**3 <= arg_lo and arg_hi <= hi**3 and lo < 0 < hi


@pytest.mark.parametrize("digits", [30, 100])
def test_odd_root_of_negative_contains_mpmath(digits):
    mpmath = pytest.importorskip("mpmath")
    lo, hi = as_fractions(eval_interval(parse("root(3, 0-pi)"), digits))
    with mpmath.workdps(2 * digits + 60):
        man, exp = mpmath.cbrt(mpmath.pi).man_exp  # the mantissa carries no sign
    ref = -Fraction(man) * Fraction(2) ** exp
    assert lo <= ref <= hi
    assert hi - lo <= Fraction(1, 10**digits)


@pytest.mark.parametrize("text", ["root(3, pi - pi)", "root(5, e - e)"])
def test_odd_root_of_vanishing_width_narrows(text):
    # the root's width shrinks only as 10**(-guard/k), so the guard must
    # keep growing geometrically, not by the digits each attempt missed by
    lo, hi = as_fractions(eval_interval(parse(text), 100))
    assert lo <= 0 <= hi
    assert hi - lo <= Fraction(1, 10**100)


def test_division_by_vanishing_width_hits_precision_cap():
    with pytest.raises(PrecisionCapError):
        eval_interval(parse("1/(pi - pi)"), 10)


@pytest.mark.parametrize("text, digits, attempts", [
    # undecided every time: the guard doubles until the attempts run out
    ("1/(pi - pi)", 10, [20, 30, 50, 90, 170, 330, 650, 1290, "cap"]),
    # 18 digits before the point: the second attempt adds the digits missed
    ("exp(pi*sqrt(163))", 30, [40, 50]),
    # an odd root of a width around zero narrows slowly: the guard doubles
    ("root(3, pi - pi)", 10, [20, 30, 50]),
])
def test_eval_interval_attempt_schedule(monkeypatch, text, digits, attempts):
    # the precision of each whole-tree evaluation eval_interval makes
    import epilab.expr

    calls, evaluate, nesting = [], epilab.expr._eval, []

    def recorded(expr, w):
        if not nesting:
            calls.append(w)
        nesting.append(w)
        try:
            return evaluate(expr, w)
        finally:
            nesting.pop()

    monkeypatch.setattr(epilab.expr, "_eval", recorded)
    try:
        eval_interval(parse(text), digits)
    except PrecisionCapError:
        calls.append("cap")
    assert calls == attempts


def test_exp_range():
    lo, hi = as_fractions(eval_interval(parse("exp(100)"), 5))
    assert lo > 10**43
    with pytest.raises(ExpRangeError):
        eval_interval(parse("exp(101)"), 5)
    with pytest.raises(ExpRangeError):
        eval_interval(parse("exp(0 - 101)"), 5)


@pytest.mark.parametrize("text", ["exp(100 + (pi - pi))", "exp(pi - pi - 100)"])
def test_exp_argument_across_the_limit_is_undecided_not_out_of_range(text):
    # the argument's enclosure straddles +-100 at every precision, so no
    # attempt can tell whether it is in range
    with pytest.raises(PrecisionCapError):
        eval_interval(parse(text), 5)


def test_interval_width_honors_request():
    for digits in (6, 18, 34):
        lo, hi = as_fractions(eval_interval(parse("pi^9/e^8"), digits))
        assert hi - lo <= Fraction(10, 10**digits)


@pytest.mark.parametrize("text, per_attempt", [("exp(100)", 1), ("exp(-1/3)", 1), ("exp(pi)", 2)])
def test_exp_of_a_point_calls_the_kernel_once_per_attempt(monkeypatch, text, per_attempt):
    # each attempt evaluates at a new precision, so the calls at each
    # precision are the calls of one attempt: one for an exact argument,
    # one per endpoint otherwise
    import epilab.expr
    from epilab.oracle import exp_interval

    calls = []

    def counting(num, den, eps_digits):
        calls.append(eps_digits)
        return exp_interval(num, den, eps_digits)

    monkeypatch.setattr(epilab.expr, "exp_interval", counting)
    lo, hi = as_fractions(eval_interval(parse(text), 30))
    assert hi - lo <= Fraction(1, 10**30)
    assert calls and all(calls.count(w) == per_attempt for w in calls)
