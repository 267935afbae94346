"""The printed convergence tables against mpmath, a reference that shares
no code with epilab.

Every golden table command runs as the CLI runs it, and its output is
parsed in its own format.  For each row the partial sum S_n and the
series' limit C are computed here with mpmath alone, from the series as
the paper writes them: the value cell is S_n rounded to nearest at
--scale places, abs_error is |S_n - C| rounded to nearest at 25 places,
bound is at least |S_n - C|, and digits_correct is
max(0, floor(-log10(|S_n - C| / |C|))).

Each table is computed at 60 digits past the size of its smallest first
omitted term, and every error is checked to lie at least 40 digits
above that precision, so at least 30 past the last place of C (whose
magnitude is under 10**4) and of the smallest bound, which is never
below its error.  mpmath is a test-only dependency; without it these
tests are skipped.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from epilab.cli import main

mpmath = pytest.importorskip("mpmath")

GOLDEN = Path(__file__).with_name("cli_golden.json")
COMMANDS = [key.split() for key in json.loads(GOLDEN.read_text()) if key.startswith("table ")]

COLUMNS = ["n", "value", "abs_error", "bound", "digits_correct"]

#: each series: the name of its limit, its first index, its offset, its
#: n-th term and its limit
SERIES = {
    "e-factorial": ("e", 0, Fraction(0), lambda n: 1 / mpmath.mpf(math.factorial(n)),
                    lambda: +mpmath.e),
    "gregory-leibniz": ("pi", 0, Fraction(0), lambda n: mpmath.mpf(4 * (-1) ** n) / (2 * n + 1),
                        lambda: +mpmath.pi),
    "nilakantha": ("pi", 1, Fraction(3),
                   lambda n: mpmath.mpf((-1) ** (n + 1)) / (n * (2 * n + 1) * (n + 1)),
                   lambda: +mpmath.pi),
    "nilakantha-paired": ("two_pi", 1, Fraction(19, 3),
                          lambda n: mpmath.mpf(-3) / (n * (n + 1) * (4 * n + 1) * (4 * n + 3)),
                          lambda: 2 * mpmath.pi),
    "lambda6": ("pi6", 0, Fraction(0), lambda n: mpmath.mpf(960) / (2 * n + 1) ** 6,
                lambda: mpmath.pi**6),
    "zeta8": ("pi8", 1, Fraction(0), lambda n: mpmath.mpf(9450) / mpmath.mpf(n) ** 8,
              lambda: mpmath.pi**8),
}


def _exact(x) -> Fraction:
    """The exact binary value of an mpmath number."""
    man, exp = mpmath.mpf(x).man_exp
    return Fraction(man) * Fraction(2) ** exp


def _nearest(x: Fraction, places: int) -> Fraction:
    """x rounded to nearest at places; a tie cannot occur, as no S_n or
    |S_n - C| here ends on a half unit."""
    return Fraction(round(x * 10**places), 10**places)


def _rows(argv, out: str) -> list[dict]:
    """The table's rows, parsed from the format it printed."""
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "text"
    if fmt == "json":
        return json.loads(out)
    if fmt == "csv":
        return list(csv.DictReader(io.StringIO(out)))
    lines = out.splitlines()
    if "--quiet" not in argv:
        assert lines.pop(0) == f"series = {argv[1]} (limit: {SERIES[argv[1]][0]})"
    assert lines.pop(0).split() == COLUMNS
    return [dict(zip(COLUMNS, line.split())) for line in lines]


def _option(argv, name: str, default: str) -> str:
    return argv[argv.index(name) + 1] if name in argv else default


def test_every_golden_table_is_audited():
    assert len(COMMANDS) == 8


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_table_rows_match_mpmath(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    rows = _rows(argv, out.getvalue())
    points = sorted({int(p) for p in _option(argv, "--checkpoints", "10,100,1000").split(",")})
    scale = int(_option(argv, "--scale", "15"))
    assert [int(r["n"]) for r in rows] == points

    _, start, offset, term, limit = SERIES[argv[1]]
    dps = 60 + max(int(-mpmath.log10(abs(term(n + 1)))) for n in points)
    with mpmath.workdps(dps):
        c = limit()
        total, i = mpmath.mpf(offset.numerator) / offset.denominator, start
        for row, n in zip(rows, points):
            for k in range(i, n + 1):
                total += term(k)
            i = n + 1
            err = abs(total - c)
            assert err > mpmath.mpf(10) ** (40 - dps), (argv, n)
            err_exact = _exact(err)
            assert Fraction(row["value"]) == _nearest(_exact(total), scale), (argv, n)
            assert Fraction(row["abs_error"]) == _nearest(err_exact, 25), (argv, n)
            assert Fraction(row["bound"]) >= err_exact, (argv, n)
            digits = max(0, int(mpmath.floor(-mpmath.log10(err / c))))
            assert int(row["digits_correct"]) == digits, (argv, n)
