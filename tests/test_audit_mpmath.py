"""The printed numbers of cfrac, compare, stirling --op e8 and the sign
of verify's residual against mpmath, a reference that shares no code
with epilab.

Every golden cfrac, compare and e8 command runs as the CLI runs it, and
its output is parsed in its own format.  No ulp of tolerance is allowed:

* cfrac: each quotient is the one mpmath's continued fraction gives.
  Each expression is written again by hand for ``mpmath.iv``, whose
  interval holds the true value; both ends of it are expanded, and only
  the quotients they share count.  The precision doubles until they
  share every printed quotient.
* compare: the terms are the series' own terms, 1/(k+1)! for e and
  -3/(n (n+1) (4n+1) (4n+3)) for 2*pi, and they sum to within their
  tails of mpmath's e and 2*pi.  The running sum and the distance to 9
  are the exact sums rounded to nearest at --scale.
* e8: e^8, 96 pi^3, 64 pi^3 and their ratio are the true values rounded
  to nearest at --scale, decided on an ``mpmath.iv`` interval whose two
  ends round alike; the correction and its gap to 3/2 are exact.
* verify: for every relation at 30 and 100 digits, a residual printed as
  certified has the sign of lhs - rhs on an ``mpmath.iv`` interval that
  excludes zero.

mpmath is a test-only dependency; without it these tests are skipped.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from fractions import Fraction

import pytest

from epilab.cli import main

from test_cli_golden import COMMANDS as GOLDEN
from test_cli_mpmath import _decimal, _exact, _run

mpmath = pytest.importorskip("mpmath")
iv = mpmath.iv

#: each golden cfrac expression, written for mpmath.iv by hand
CFRAC_VALUES = {
    "pi": lambda: iv.pi,
    "e": lambda: iv.e,
    "exp(pi)": lambda: iv.exp(iv.pi),
    "exp(pi*sqrt(163))": lambda: iv.exp(iv.pi * iv.sqrt(163)),
    "exp(-pi)": lambda: iv.exp(-iv.pi),
    "exp(100)": lambda: iv.exp(100),
    "exp(-100)": lambda: iv.exp(-100),
    "exp(99/7)": lambda: iv.exp(iv.mpf(99) / 7),
    "exp(-1/3)": lambda: iv.exp(-iv.mpf(1) / 3),
    "10^4400 + pi": lambda: iv.mpf(10) ** 4400 + iv.pi,
}


def _commands(name: str, *rest: str) -> list[list[str]]:
    return [argv for argv in GOLDEN if argv[0] == name and argv[1:1 + len(rest)] == list(rest)]


def _option(argv, name: str, default: str) -> str:
    return argv[argv.index(name) + 1] if name in argv else default


@contextlib.contextmanager
def _iv_dps(dps: int):
    old = iv.dps
    iv.dps = dps
    try:
        yield
    finally:
        iv.dps = old


def _ends(x) -> tuple[Fraction, Fraction]:
    """The two ends of an mpmath.iv interval, as exact Fractions."""
    return tuple((-1) ** sign * Fraction(man) * Fraction(2) ** exp for sign, man, exp, _ in x._mpi_)


def _nearest(x: Fraction, scale: int) -> Fraction:
    """x >= 0 rounded to nearest at `scale` places, ties up."""
    return Fraction(math.floor(x * 10**scale + Fraction(1, 2)), 10**scale)


def test_every_golden_cfrac_compare_and_e8_command_is_audited():
    assert len(_commands("cfrac")) == 11
    assert {argv[1] for argv in _commands("cfrac")} == set(CFRAC_VALUES)
    assert len(_commands("compare")) == 4
    assert len(_commands("stirling", "--op", "e8")) == 3


# ---------------------------------------------------------------------------
# cfrac


def _quotients(x: Fraction, count: int) -> list[int]:
    """The first `count` quotients of x's continued fraction, fewer if it ends."""
    p, q, out = x.numerator, x.denominator, []
    while q and len(out) < count:
        a = p // q
        out.append(a)
        p, q = q, p - a * q
    return out


def _shared_quotients(value, count: int) -> list[int]:
    """The first `count` quotients of the continued fraction of every
    point of value()'s interval: both ends expand to more than `count`
    quotients and agree on the first `count`, and the points with a
    given prefix form an interval, so every point between agrees too."""
    dps = 2 * count + 60
    while dps < 100_000:
        with _iv_dps(dps):
            lo, hi = _ends(value())
        a, b = _quotients(lo, count + 1), _quotients(hi, count + 1)
        if len(a) > count and len(b) > count and a[:count] == b[:count]:
            return a[:count]
        dps *= 2
    raise AssertionError("mpmath's interval never settled the quotients")


def _printed_quotients(argv, out: str) -> list[int]:
    def read(text):  # an int in pieces, past the int <-> str cap
        value, places = _decimal(text)
        assert places == 0 and value.denominator == 1
        return value.numerator

    fmt = _option(argv, "--format", "text")
    if fmt == "json":
        return json.loads(out, parse_int=read)["quotients"]
    if fmt == "csv":
        header, *rows = csv.reader(io.StringIO(out))
        assert header == ["index", "quotient"]
        assert [int(i) for i, _ in rows] == list(range(len(rows)))
        return [read(q) for _, q in rows]
    return [read(q) for q in out.splitlines()[-1].split()]


@pytest.mark.parametrize("argv", _commands("cfrac"), ids=" ".join)
def test_cfrac_quotients_match_mpmath(default_int_str_limit, argv):
    got = _printed_quotients(argv, _run(argv))
    assert len(got) == int(_option(argv, "--terms", "7"))
    assert got == _shared_quotients(CFRAC_VALUES[argv[1]], len(got))


# ---------------------------------------------------------------------------
# compare


def _compare_rows(argv, out: str) -> list[list[str]]:
    """The printed rows: k, e_term, two_pi_term, running_sum, distance_to_9."""
    columns = ["k", "e_term", "two_pi_term", "running_sum", "distance_to_9"]
    fmt = _option(argv, "--format", "text")
    if fmt == "json":
        return [[r[c] for c in columns] for r in json.loads(out)]
    if fmt == "csv":
        header, *rows = csv.reader(io.StringIO(out))
    else:  # a title line unless --quiet, then a table
        header, *rows = (line.split() for line in out.splitlines()[0 if "--quiet" in argv else 1:])
    assert header == columns
    return rows


def _terms(k: int) -> tuple[Fraction, Fraction]:
    """Row k's terms of e = 1 + 1 + 1/2 + 1/6 + ... and of 2*pi = 6 + 1/3
    - 3/70 - ...: the first two rows split 3 - 1/3 and 6 + 1/3, then come
    1/(k+1)! and the paired Nilakantha term of n = k - 2."""
    if k < 3:
        return ((Fraction(3), Fraction(6)), (Fraction(-1, 3), Fraction(1, 3)))[k - 1]
    n = k - 2
    return Fraction(1, math.factorial(k + 1)), Fraction(-3, n * (n + 1) * (4 * n + 1) * (4 * n + 3))


@pytest.mark.parametrize("argv", _commands("compare"), ids=" ".join)
def test_compare_rows_are_exact_sums_rounded(argv):
    rows = _compare_rows(argv, _run(argv))
    count, scale = int(_option(argv, "--rows", "8")), int(_option(argv, "--scale", "10"))
    assert [int(r[0]) for r in rows] == list(range(1, count + 1))
    e_sum = two_pi_sum = Fraction(0)
    for k, e_term, two_pi_term, running, distance in rows:
        terms = _terms(int(k))
        assert (Fraction(e_term), Fraction(two_pi_term)) == terms, k
        e_sum, two_pi_sum = e_sum + terms[0], two_pi_sum + terms[1]
        total = e_sum + two_pi_sum
        assert _decimal(running) == (_nearest(total, scale), scale), k
        assert _decimal(distance) == (_nearest(abs(total - 9), scale), scale), k
    # the terms are e's and 2*pi's: their sums lie within their tails
    # (2/(K+2)! for e, 1/(16 n^3) for 2*pi) of mpmath's values
    n = count - 2
    with mpmath.workdps(2 * len(str(math.factorial(count + 2))) + 30):
        e, two_pi = _exact(mpmath.e()), _exact(2 * mpmath.pi)
    assert abs(e - e_sum) <= Fraction(2, math.factorial(count + 2))
    assert abs(two_pi - two_pi_sum) <= Fraction(1, 16 * n**3)


# ---------------------------------------------------------------------------
# stirling --op e8

#: each inexact e8 cell, written for mpmath.iv by hand
E8_VALUES = {
    "e8": lambda: iv.exp(8),
    "value_96pi3": lambda: 96 * iv.pi**3,
    "base_64pi3": lambda: 64 * iv.pi**3,
    "ratio": lambda: iv.exp(8) / (96 * iv.pi**3),
}


def _e8_cells(argv, out: str) -> dict:
    fmt = _option(argv, "--format", "text")
    if fmt == "json":
        return json.loads(out)
    if fmt == "csv":
        header, row = csv.reader(io.StringIO(out))
        return dict(zip(header, row))
    names = {"e^8": "e8", "96 pi^3": "value_96pi3", "64 pi^3": "base_64pi3",
             "correction": "correction", "ratio": "ratio"}
    cells = {names[name.strip()]: value.strip()
             for name, _, value in (line.partition(" = ") for line in out.splitlines())}
    cells["correction"], _, gap = cells["correction"].partition(" (gap to 3/2: ")
    cells["gap_from_3_2"] = gap.removesuffix(")")
    return cells


@pytest.mark.parametrize("argv", _commands("stirling", "--op", "e8"), ids=" ".join)
def test_e8_values_are_true_values_rounded(argv):
    cells = _e8_cells(argv, _run(argv))
    scale = int(_option(argv, "--scale", "10"))
    correction = Fraction(13, 12) ** 4 * Fraction(25, 24) ** 2
    assert cells["correction"] == "17850625/11943936" == str(correction)
    assert Fraction(cells["gap_from_3_2"]) == correction - Fraction(3, 2)
    for name, value in E8_VALUES.items():
        with _iv_dps(scale + 30):
            lo, hi = (_nearest(end, scale) for end in _ends(value()))
        assert lo == hi, name  # the interval decides the rounding
        assert _decimal(cells[name]) == (lo, scale), name


# ---------------------------------------------------------------------------
# verify

#: lhs - rhs of each relation, written for mpmath.iv by hand
RESIDUALS = {
    "R01": lambda: iv.pi**2 / (4 * iv.e - 1) - 1,
    "R02": lambda: 163 * (iv.pi - iv.e) - 69,
    "R03": lambda: (iv.pi**4 + iv.pi**5) / iv.e**6 - 1,
    "R04": lambda: iv.pi**9 / iv.e**8 - 10,
    "R05": lambda: iv.exp(iv.pi) - iv.pi - 20,
    "R06": lambda: iv.pi**2 * iv.sqrt((iv.pi - iv.e) ** 3) / iv.e - 1,
    "R07": lambda: iv.exp(iv.pi * iv.sqrt(163)) - (640320**3 + 744),
    "R08": lambda: iv.e + 2 * iv.pi - 9,
    "R09": lambda: iv.pi**2 + 8 * iv.pi - 35,
    "R10": lambda: iv.sqrt(51) - 4 - iv.pi,
    "R11": lambda: iv.mpf(512) / 163 - iv.pi,
    "R12": lambda: iv.pi**2 + iv.pi - 13,
    "R13": lambda: 4 * iv.e + iv.pi - 14,
    "R14": lambda: iv.e**3 - 20,
    "R15": lambda: iv.pi**3 - 31,
    "R16": lambda: iv.pi**6 - 960,
    "R17": lambda: iv.e**8 - 96 * iv.pi**3,
    "R18": lambda: iv.exp(iv.pi) - (20 + iv.pi),
    "R19": lambda: 27 * iv.pi**8 * (iv.pi - 3) ** 3 / (iv.pi**2 * iv.e) ** 2 - 1,
    "R20": lambda: iv.pi**2 * iv.e - 27,
}


def test_every_relation_has_a_residual_reference():
    from epilab.registry import relation_ids

    assert sorted(RESIDUALS) == relation_ids()


@pytest.mark.parametrize("digits", [30, 100])
@pytest.mark.parametrize("rid", sorted(RESIDUALS))
def test_a_certified_residual_has_the_true_sign(rid, digits):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["verify", rid, "--digits", str(digits), "--format", "json"])
    cells = json.loads(out.getvalue())
    with _iv_dps(digits + 30):
        lo, hi = _ends(RESIDUALS[rid]())
    assert lo > 0 or hi < 0, rid  # mpmath settles the sign
    if cells["certified"]:
        assert cells["abs_residual"].startswith("-") == (hi < 0), rid
