"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Runs a few small epilab commands, confirms that their genuine output
passes its check, then feeds the checks corrupted copies: a wrong digit
in a compute result, error bounds shrunk below the true error, a missing
scan row, a wrong cfrac quotient and a wrong verify digit.  Each
corrupted copy must be reported as a failed operation.  Exits 1 if any
is not, or if a genuine output is rejected.  Last, a traced command that
raises inside cli.main must still leave its trace and count as failed.
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys
from functools import partial

import check
import run


def wrong_digit(text: str, line_prefix: str, place: int) -> str:
    """Change the digit `place` places after the point on the first line
    starting with line_prefix."""
    lines = text.splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if line.startswith(line_prefix))
    at = lines[i].index(".") + place
    lines[i] = lines[i][:at] + str((int(lines[i][at]) + 1) % 10) + lines[i][at + 1:]
    return "".join(lines)


def shrink_compute_bound(text: str) -> str:
    d = json.loads(text)
    places = len(d["error_bound"].split(".")[1])
    d["error_bound"] = "0." + "0" * (places - 1) + "1"
    return json.dumps(d, indent=2)


def shrink_table_bound(text: str) -> str:
    rows = json.loads(text)
    rows[-1]["bound"] = "0." + "0" * 24 + "1"  # the true error at 10^4 is ~1e-4
    return json.dumps(rows, indent=2)


def drop_scan_row(text: str) -> str:
    lines = text.splitlines(keepends=True)
    return "".join(lines[:7] + lines[8:])


def bump_quotient(text: str, index: int) -> str:
    d = json.loads(text)
    d["quotients"][index] += 1
    return json.dumps(d, indent=2)


def wrong_verify_lhs(text: str) -> str:
    rows = json.loads(text)
    lhs = rows[4]["lhs"]  # R05, exp(pi) - pi
    at = lhs.index(".") + 12
    rows[4]["lhs"] = lhs[:at] + str((int(lhs[at]) + 5) % 10) + lhs[at + 1:]
    return json.dumps(rows, indent=2)


# command, its check, and the corruptions that check must catch
CASES = [
    (("compute", "pi", "--digits", "50"),
     partial(check.check_compute, "pi", 50, "text"),
     {"wrong digit in compute": lambda t: wrong_digit(t, "pi = ", 20)}),
    (("compute", "pi", "--digits", "50", "--format", "json"),
     partial(check.check_compute, "pi", 50, "json"),
     {"compute bound below the true error": shrink_compute_bound}),
    (("table", "gregory-leibniz", "--checkpoints", "10,10000", "--format", "json"),
     partial(check.check_table, "gregory-leibniz", [10, 10000], "json"),
     {"table bound below the true error": shrink_table_bound}),
    (("scan", "--max", "5", "--format", "csv"),
     partial(check.check_scan, 5, "csv"),
     {"missing scan row": drop_scan_row}),
    (("cfrac", "e", "--terms", "30", "--format", "json"),
     partial(check.check_cfrac, "e", 30, "json"),
     {"wrong cfrac quotient": partial(bump_quotient, index=17)}),
    (("verify", "--all", "--digits", "30", "--format", "json"),
     partial(check.check_verify_all, 30, "json"),
     {"wrong verify digit": wrong_verify_lhs}),
]


def main() -> int:
    with run.Launcher() as launcher:
        return selftest(launcher)


def selftest(launcher: run.Launcher) -> int:
    problems = 0
    for argv, check_fn, corruptions in CASES:
        op = run.Op(argv, check_fn)
        genuine = run.run_op(launcher, op, traced=False)
        tally = run.Tally()
        tally.record(op, genuine)
        ok = tally.failed == 0
        problems += not ok
        print(f"{'ok  ' if ok else 'FAIL'} genuine output of epilab {' '.join(argv)} passes")
        for reason in tally.reasons:
            print(f"     {reason}")
        for name, corrupt in corruptions.items():
            bad = dataclasses.replace(genuine, stdout=corrupt(genuine.stdout))
            tally = run.Tally()
            tally.record(op, bad)
            caught = tally.failed == 1 and tally.wrong == 1
            problems += not caught
            why = re.sub(r"^.*wrong output: ", "", next(iter(tally.reasons), "not reported"))
            print(f"{'ok  ' if caught else 'FAIL'} {name} is a failed operation ({why})")
    # argparse raises SystemExit inside cli.main: the traced command must
    # still leave its summary (run_op exits if not) and count as failed
    op = run.Op(("compute", "--no-such-flag"), None)
    tally = run.Tally()
    tally.record(op, run.run_op(launcher, op, traced=True))
    ok = tally.failed == 1 and tally.wrong == 0
    problems += not ok
    print(f"{'ok  ' if ok else 'FAIL'} a traced command that raises leaves its trace and fails")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
