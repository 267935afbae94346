"""Golden CLI output: stdout digests and exit codes of a fixed command set.

The set is every command of the benchmark's exact-sweeps and catalog
workloads and the fixed commands of its deep-digits workload, the scan
in all three formats (also with every row, with wide low-digit
enclosures below six digits, at the threshold's 1/2 limit, with --quiet
and with a threshold out of range, which prints nothing), three
convergence tables (one with checkpoints on both sides of the exact
sum's 16-term leaf), every builtin series summed past the exact-sum
limit (its fixed-point path, also on an all-negative and an alternating
run given by --terms), Stirling approximants of e^n on both
sides of n = 35, of e by the factorial ratio, the e^8 ~ 96 pi^3
assembly in every format, the e and 2*pi expansions as json, exp
of negative, large and fractional arguments, and every output path left
(each format and --quiet of every command, and a json quotient past the
int->str cap).  cli_golden.json holds the sha256 of each command's stdout
and its exit code, each taken with cold oracle caches as in a fresh
process; a refactor that changes one printed byte fails here.

List the commands whose exit code or digest differs from the file, and
exit 1 if any does, writing nothing:

    PYTHONPATH=src python tests/test_cli_golden.py --check

Regenerate the digests (only when an output change is intended):

    PYTHONPATH=src python tests/test_cli_golden.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from epilab import oracle
from epilab.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")

COMMANDS = [
    # the exact-sweeps workload
    ["compute", "e", "--method", "e-factorial", "--terms", "2000"],
    ["compute", "pi", "--method", "gregory-leibniz", "--digits", "4", "--format", "json"],
    ["table", "zeta8", "--checkpoints", "10,100,1000,3000"],
    ["table", "gregory-leibniz", "--checkpoints", "10,100,1000,3000", "--format", "json"],
    ["scan", "--max", "50", "--format", "csv"],
    ["compare", "--rows", "200"],
    ["stirling", "--op", "e8", "--format", "json"],
    # the scan in every format
    ["scan", "--max", "10"],
    ["scan", "--max", "10", "--format", "csv"],
    ["scan", "--max", "10", "--format", "json"],
    ["scan", "--max", "12", "--all-rows"],
    ["scan", "--max", "20", "--digits", "8", "--threshold", "0.5", "--format", "json"],
    ["scan", "--max", "30", "--threshold", "0.01", "--quiet"],
    ["scan", "--max", "5", "--digits", "3", "--format", "csv"],
    ["scan", "--max", "50", "--all-rows"],
    ["scan", "--max", "50", "--format", "json"],
    ["scan", "--max", "4", "--digits", "1", "--format", "csv"],
    # a bad option value exits 2 before the csv header is written
    ["scan", "--max", "50", "--threshold", "0.7", "--format", "csv"],
    # tables
    ["table", "lambda6"],
    ["table", "nilakantha-paired"],
    ["table", "e-factorial", "--checkpoints", "10,2000"],
    # every builtin series on the fixed-point path (over 10^4 terms)
    ["compute", "pi", "--method", "nilakantha", "--digits", "12"],
    ["compute", "pi", "--method", "nilakantha-paired", "--digits", "13"],
    ["compute", "pi", "--method", "lambda6", "--digits", "20"],
    ["compute", "pi", "--method", "zeta8", "--digits", "30"],
    ["compute", "e", "--method", "e-factorial", "--digits", "30", "--format", "csv"],
    # the fixed-point path on an all-negative and on an alternating run,
    # and a table whose checkpoints straddle the exact sum's leaf size
    ["compute", "pi", "--method", "nilakantha-paired", "--terms", "12000", "--format", "json"],
    ["compute", "pi", "--method", "nilakantha", "--terms", "30000", "--format", "csv"],
    ["table", "nilakantha", "--checkpoints", "1,16,17,5000"],
    # Stirling approximants of e^n
    ["stirling", "--op", "approx", "--n", "10", "--k", "1", "--scale", "30"],
    ["stirling", "--op", "approx", "--n", "34", "--k", "2", "--scale", "30"],
    ["stirling", "--op", "approx", "--n", "35", "--k", "1", "--scale", "30"],
    ["stirling", "--op", "approx", "--n", "59", "--k", "1", "--scale", "30"],
    ["stirling", "--op", "approx", "--n", "80", "--k", "4", "--scale", "30",
     "--format", "json"],
    ["stirling", "--op", "approx", "--n", "100", "--k", "4", "--scale", "50"],
    # Stirling approximants of e itself, and the e^8 ~ 96 pi^3 assembly
    ["stirling", "--op", "ratio", "--n", "1", "--k", "3"],
    ["stirling", "--op", "ratio", "--n", "6", "--k", "4", "--scale", "30"],
    ["stirling", "--op", "ratio", "--n", "50", "--k", "2", "--scale", "30",
     "--format", "csv"],
    ["stirling", "--op", "e8", "--scale", "40"],
    ["stirling", "--op", "e8", "--format", "csv"],
    ["compare", "--rows", "12", "--format", "json"],
    # the catalog workload
    *[["verify", "--all", "--digits", digits, "--format", fmt]
      for fmt in ("text", "json", "csv") for digits in ("30", "100", "150")],
    # the fixed commands of the deep-digits workload
    *[["compute", constant, "--digits", str(digits), "--format",
       ("text", "json", "csv")[(i + j) % 3]]
      for i, digits in enumerate((1000, 2000, 3000, 4000))
      for j, constant in enumerate(("pi", "e"))],
    ["compute", "pi", "--digits", "5000"],
    ["cfrac", "pi", "--terms", "1000"],
    ["cfrac", "e", "--terms", "1000", "--format", "json"],
    ["cfrac", "exp(pi)", "--terms", "200", "--format", "csv"],
    ["cfrac", "exp(pi*sqrt(163))", "--terms", "60"],
    # exp of negative, large and fractional arguments, and the exp relations
    ["cfrac", "exp(-pi)", "--terms", "100"],
    ["cfrac", "exp(100)", "--terms", "30", "--format", "json"],
    ["cfrac", "exp(-100)", "--terms", "30"],
    ["cfrac", "exp(99/7)", "--terms", "80", "--format", "csv"],
    ["cfrac", "exp(-1/3)", "--terms", "300"],
    ["verify", "R07", "--digits", "300"],
    ["verify", "R18", "--digits", "1000", "--format", "csv"],
    # every command's remaining formats and --quiet paths
    ["table", "lambda6", "--format", "csv"],
    ["table", "zeta8", "--checkpoints", "10,100", "--quiet"],
    ["compare", "--rows", "12", "--format", "csv"],
    ["compare", "--rows", "12", "--quiet"],
    ["verify", "R02", "--format", "json"],
    ["verify", "R02", "--quiet"],
    ["stirling", "--op", "approx", "--n", "10", "--k", "1", "--format", "csv"],
    ["stirling", "--op", "ratio", "--n", "6", "--k", "4", "--format", "json"],
    *[["stirling", "--op", "e-half", "--n", "7", "--format", fmt]
      for fmt in ("text", "json", "csv")],
    ["cfrac", "pi", "--quiet"],
    ["compute", "e", "--digits", "10", "--quiet"],
    ["cfrac", "10^4400 + pi", "--terms", "3", "--format", "json"],
]


def _key(argv: list[str]) -> str:
    return " ".join(argv)


def capture(argv: list[str]) -> dict:
    # cold caches, as in a fresh CLI process
    oracle._cache.clear()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return {
        "exit": code,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
    }


def test_golden_covers_every_command():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(map(_key, COMMANDS))


@pytest.mark.parametrize("argv", COMMANDS, ids=_key)
def test_cli_output_matches_golden(argv):
    expected = json.loads(GOLDEN.read_text())[_key(argv)]
    assert capture(argv) == expected


if __name__ == "__main__":
    if sys.argv[1:] not in (["--check"], ["--write"]):
        sys.exit("usage: test_cli_golden.py --check | --write")
    digests = {_key(argv): capture(argv) for argv in COMMANDS}
    if sys.argv[1] == "--write":
        GOLDEN.write_text(json.dumps(digests, indent=2) + "\n")
    else:
        golden = json.loads(GOLDEN.read_text())
        changed = [key for key, digest in digests.items() if golden.get(key) != digest]
        for key in changed:
            print(key)
        sys.exit(1 if changed else 0)
