"""The program path: ``python -m epilab.cli``, where main() reads sys.argv.

The golden digests run main(argv) in-process with a list; these tests run
the commands as the installed script and the benchmark do, in a fresh
interpreter, and check the bytes, the exit code, and how the process
ends: main() freezes the collector once the command has run, atexit
handlers still run, and main(argv) with a list leaves the collector
alone.  The README's CLI tour is checked here too, example by example.
"""

from __future__ import annotations

import gc
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from epilab.cli import main

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: this checkout's sources first, as the in-process tests import them
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}


def _program(*args: str, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE,
                          text=True, timeout=120, env=ENV)


@pytest.mark.parametrize("argv", [
    ["compute", "pi", "--digits", "50"],
    ["table", "nilakantha", "--checkpoints", "10,100", "--format", "csv"],
    ["verify", "R01", "--format", "json"],
    ["cfrac", "pi", "--terms", "12"],
    ["stirling", "--op", "e8"],
    ["scan", "--max", "3", "--format", "csv"],
    ["compare", "--rows", "4"],
    ["cfrac", "sqrt(0-pi)"],  # exit 1
    ["compute", "pi", "--digits", "0"],  # exit 2
], ids=" ".join)
def test_the_program_prints_what_main_returns_in_process(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    proc = _program("-m", "epilab.cli", *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (rc, captured.out, captured.err)


#: a child that runs the module as the program and, from an atexit
#: handler, reports whether the collector was frozen by then
_ATEXIT_CHILD = """\
import atexit, gc, runpy, sys
atexit.register(lambda: print("atexit ran, frozen:", gc.get_freeze_count() > 0))
sys.argv = ["epilab", "compute", "pi", "--digits", "10", "--quiet"]
runpy.run_module("epilab.cli", run_name="__main__", alter_sys=True)
"""


def test_the_program_freezes_the_collector_and_runs_atexit_handlers():
    proc = _program("-c", _ATEXIT_CHILD)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "3.1415926535\natexit ran, frozen: True\n", "")


def test_main_with_a_list_leaves_the_collector_alone(capsys):
    assert gc.get_freeze_count() == 0
    assert main(["compute", "pi", "--digits", "10"]) == 0
    assert main(["cfrac", "sqrt(0-pi)"]) == 1
    assert gc.get_freeze_count() == 0


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
def test_a_failed_write_still_exits_one():
    with open("/dev/full", "w") as full:
        proc = _program("-m", "epilab.cli", "compute", "pi", "--digits", "10", stdout=full)
    # one error: line names the cause, and the exit-time flush fails no more
    assert (proc.returncode, proc.stderr) == (
        1, "error: cannot write stdout: No space left on device\n")


def test_the_program_runs_under_a_profiler():
    # cProfile prints its report after main() has returned
    proc = _program("-m", "cProfile", "-m", "epilab.cli", "compute", "pi", "--digits", "10")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("pi = 3.1415926535\n")
    assert "function calls" in proc.stdout


def _tour() -> list[tuple[str, list[str]]]:
    """Each `$ epilab ...` example in README's CLI tour, with the lines
    shown after it: up to the next example or the end of its block,
    without trailing blank lines."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = text.split("## CLI tour", 1)[1].split("\n## ", 1)[0]
    examples = []
    for block in tour.split("```text\n")[1:]:
        for chunk in block.split("```", 1)[0].split("$ epilab ")[1:]:
            command, *lines = chunk.split("\n")
            while lines and not lines[-1]:
                lines.pop()
            examples.append((command, lines))
    return examples


_TOUR = _tour()


def test_the_tour_has_its_examples():
    assert [command.split()[0] for command, _ in _TOUR] == [
        "compute", "compute", "table", "verify", "verify", "cfrac", "stirling", "stirling",
        "scan", "compare"]


@pytest.mark.parametrize("command, shown", _TOUR,
                         ids=[command.split("#")[0].strip() for command, _ in _TOUR])
def test_the_readme_tour_prints_what_it_shows(command, shown):
    # a block ending in "..." shows a prefix of the output; an example
    # shown with no output is checked for its exit code alone
    proc = _program("-m", "epilab.cli", *shlex.split(command, comments=True))
    assert (proc.returncode, proc.stderr) == (0, "")
    if shown[-1:] == ["..."]:
        assert proc.stdout.splitlines()[:len(shown) - 1] == shown[:-1]
    elif shown:
        assert proc.stdout.splitlines() == shown
