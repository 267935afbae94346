"""The printed numbers of compute and stirling against mpmath, a
reference that shares no code with epilab.

Every golden compute command and every golden stirling approx or ratio
command runs as the CLI runs it, and its output is parsed in its own
format.  compute prints a value and a bound: the true constant must lie
within the bound of the value.  stirling prints an approximant, its
target and a relative error: the target must be the true value rounded
to nearest, and the relative error must be the true one rounded up at
ten places, give or take the enclosure it is computed from (2 * 10**-10).

The reference is mpmath's value at 90 digits more than the printed
places (at least 46 past the printed digits, as e**100 has 44 before the
point), read as an exact binary fraction, so its own rounding lies far
below every margin checked.  The printed numbers run to 5,000 digits;
they are read in pieces, so the int <-> str cap stays at its default
while the CLI runs.  mpmath is a test-only dependency; without it these tests are
skipped.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
from fractions import Fraction
from pathlib import Path

import pytest

from epilab.cli import main

mpmath = pytest.importorskip("mpmath")

GOLDEN = Path(__file__).with_name("cli_golden.json")
COMMANDS = [key.split() for key in json.loads(GOLDEN.read_text())
            if key.startswith(("compute ", "stirling --op approx ", "stirling --op ratio "))]


def _exact(x) -> Fraction:
    """The exact binary value of an mpmath number."""
    sign, man, exp, _ = mpmath.mpf(x)._mpf_
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


def _decimal(text: str) -> tuple[Fraction, int]:
    """A printed fixed-point number as an exact Fraction, and its places.

    The digits are read 1,000 at a time, below the int <-> str cap."""
    sign, whole, _, frac = re.fullmatch(r"(-?)(\d+)(\.(\d+))?", text).groups(default="")
    digits = whole + frac
    n = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i:i + 1000]
        n = n * 10 ** len(chunk) + int(chunk)
    return Fraction(-n if sign else n, 10 ** len(frac)), len(frac)


def _run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


def _cells(argv, out: str) -> dict:
    """The command's cells, parsed from the format it printed."""
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "text"
    if fmt == "json":
        return json.loads(out)
    if fmt == "csv":
        header, row = csv.reader(io.StringIO(out))
        return dict(zip(header, row))
    if argv[0] == "stirling":
        value, target, rel = re.fullmatch(
            r"\S+ ≈ (\S+)  \(true (\S+), rel error (\S+)\)\n", out).groups()
        return {"value": value, "target": target, "rel_error": rel}
    lines = out.splitlines()
    return {"value": lines[0].partition(" = ")[2], "error_bound": lines[-1].partition(" <= ")[2]}


def _reference(name: str, places: int) -> Fraction:
    """pi, e or exp(n) from mpmath at places + 90 digits (n <= 100)."""
    with mpmath.workdps(places + 90):
        if name == "pi":
            return _exact(+mpmath.pi)
        if name == "e":
            return _exact(mpmath.e())
        return _exact(mpmath.exp(int(name)))


def test_every_golden_compute_and_approximant_is_audited():
    assert sum(argv[0] == "compute" for argv in COMMANDS) == 19
    assert len(COMMANDS) == 30


@pytest.mark.parametrize("argv", [a for a in COMMANDS if a[0] == "compute"], ids=" ".join)
def test_compute_value_is_within_its_bound(default_int_str_limit, argv):
    if "--quiet" in argv:
        # the quiet text is the value the full text prints with its bound
        out = _run(argv)
        argv = [a for a in argv if a != "--quiet"]
        assert out == _cells(argv, _run(argv))["value"] + "\n"
    cells = _cells(argv, _run(argv))
    value, places = _decimal(cells["value"])
    bound, _ = _decimal(cells["error_bound"])
    true = _reference(argv[1], places)
    assert abs(true - value) <= bound


@pytest.mark.parametrize("argv", [a for a in COMMANDS if a[0] == "stirling"], ids=" ".join)
def test_stirling_target_and_relative_error(default_int_str_limit, argv):
    cells = _cells(argv, _run(argv))
    approx, _ = _decimal(cells["value"])
    target, scale = _decimal(cells["target"])
    rel_error, _ = _decimal(cells["rel_error"])
    true = _reference("e" if argv[2] == "ratio" else argv[argv.index("--n") + 1], scale)
    # nearest, ties away from zero; a tie cannot occur, as true is irrational
    assert target * 10**scale == math.floor(true * 10**scale + Fraction(1, 2))
    true_rel = abs(approx - true) / true
    assert true_rel <= rel_error <= true_rel + Fraction(2, 10**10)
