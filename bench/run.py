"""epilab's benchmark: CLI workloads with checked outputs and a traced run.

    python3 bench/run.py --workload catalog --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each operation is one epilab CLI
command in a fresh interpreter (``python -m epilab.cli`` with ``src`` on
the path, so every command starts with cold oracle caches), and its
stdout is checked against mpmath or the method's own properties
(bench/check.py).  A round runs every operation of the workload once; a
run repeats whole rounds, as many as fit in --seconds judged from the
first round (at least one).  The last line of stdout is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.

--trace 0 reports the end-to-end metrics: setup_s, wall_s, cmd_p50_s and
peak_rss_mb.  --trace 1 runs the rounds through bench/trace_cli.py and
reports the per-layer metrics, with the tracing overhead that each traced
command estimates for itself.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import check

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_CLI = Path(__file__).resolve().parent / "trace_cli.py"
LAUNCHER = Path(__file__).resolve().parent / "launcher.py"


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    check: object  # stdout -> None, raises check.CheckFailed


def _op(check_fn, *argv) -> Op:
    return Op(tuple(str(a) for a in argv), check_fn)


# ---------------------------------------------------------------------------
# workloads


def catalog(seed: int) -> list[Op]:
    """The coincidence catalog at 30, 100 and 150 digits in every format.

    The precisions take turns, so the slow 150-digit commands are spread
    over the round.  A round takes about 6 s, so a 30-s run holds about
    five samples of each command.  At 200 digits a round took 10 s and a
    run held two or three, and at 300 digits one command alone took 15 s:
    medians of so few samples spread too much between runs.
    """
    return [_op(partial(check.check_verify_all, d, fmt),
                "verify", "--all", "--digits", d, "--format", fmt)
            for fmt in ("text", "json", "csv") for d in (30, 100, 150)]


def deep_digits(seed: int) -> list[Op]:
    """A few deep evaluations: pi and e to thousands of digits and long
    continued fractions, plus three cfrac inputs drawn from the seed.

    The drawn inputs stop at 50 quotients, which keeps them among the
    cheapest commands, so the inputs a seed draws do not move cmd_p50_s.
    ``compute pi --digits 5000`` fails at this commit (the 4,300-digit
    int->str limit) and is kept as a counted failure.
    """
    fmts = ("text", "json", "csv")
    ops = []
    for i, digits in enumerate((1000, 2000, 3000, 4000)):
        for j, constant in enumerate(("pi", "e")):
            fmt = fmts[(i + j) % 3]
            ops.append(_op(partial(check.check_compute, constant, digits, fmt),
                           "compute", constant, "--digits", digits, "--format", fmt))
    ops.append(_op(partial(check.check_compute, "pi", 5000, "text"),
                   "compute", "pi", "--digits", 5000))
    rng = random.Random(seed)
    drawn = [
        f"{rng.randint(1, 9)}*pi + {rng.randint(1, 9)}*e",
        f"exp(pi/{rng.randint(2, 9)})",
        f"root({rng.randint(2, 5)}, {rng.randint(1, 9)}*pi + {rng.randint(1, 9)})",
    ]
    cfracs = [("pi", 1000, "text"), ("e", 1000, "json"), ("exp(pi)", 200, "csv"),
              ("exp(pi*sqrt(163))", 60, "text")] + [(x, 50, "text") for x in drawn]
    for text, terms, fmt in cfracs:
        ops.append(_op(partial(check.check_cfrac, text, terms, fmt),
                       "cfrac", text, "--terms", terms, "--format", fmt))
    return ops


_CHECKPOINTS = [10, 100, 1000, 3000]


def exact_sweeps(seed: int) -> list[Op]:
    """Exact rational summation and many-row rendering; the oracle is
    used only at 60 digits or fewer.

    Sized so that a round takes about 4 s and a 30-s run holds about seven
    samples of each command; with rounds of 12 s a run held two, and their
    medians spread too much between runs.  The Gregory-Leibniz sum at 4
    digits still takes 2*10**5 terms, on the fixed-point path above 10**4.
    """
    points = ",".join(map(str, _CHECKPOINTS))
    return [
        _op(partial(check.check_compute, "e", 30, "text", method="e-factorial", terms=2000),
            "compute", "e", "--method", "e-factorial", "--terms", 2000),
        _op(partial(check.check_compute, "pi", 4, "json", method="gregory-leibniz"),
            "compute", "pi", "--method", "gregory-leibniz", "--digits", 4, "--format", "json"),
        _op(partial(check.check_table, "zeta8", _CHECKPOINTS, "text"),
            "table", "zeta8", "--checkpoints", points),
        _op(partial(check.check_table, "gregory-leibniz", _CHECKPOINTS, "json"),
            "table", "gregory-leibniz", "--checkpoints", points, "--format", "json"),
        _op(partial(check.check_scan, 50, "csv"), "scan", "--max", 50, "--format", "csv"),
        _op(partial(check.check_compare, 200, "text"), "compare", "--rows", 200),
        _op(partial(check.check_stirling_e8, "json"), "stirling", "--op", "e8", "--format", "json"),
    ]


WORKLOADS = {"catalog": catalog, "deep-digits": deep_digits, "exact-sweeps": exact_sweeps}


# ---------------------------------------------------------------------------
# one command in its own process


def _child_env() -> dict[str, str]:
    """The caller's environment without the PYTHON* settings that change how
    an interpreter runs, so every run measures the interpreter a user gets:
    bytecode cached, stdout buffered and the default int->str limit (a
    raised limit would hide the 4,300-digit fault).  Only src is on the path."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") or k == "PYTHONHOME"}
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Result:
    start: float
    end: float
    returncode: int
    stdout: str
    stderr: str
    stdout_bytes: int
    maxrss_mb: float
    trace: dict | None = None

    @property
    def wall_s(self) -> float:
        return self.end - self.start


class Launcher:
    """Runs commands, one at a time, through bench/launcher.py.

    The launcher stays at a bare interpreter's size, so each command's
    peak RSS, read from its own rusage (os.wait4), is the command's own and
    not this process's: see launcher.py.  RUSAGE_CHILDREN would report the
    largest child seen so far instead.  Commands write their output to
    files in a scratch directory of the checkout, removed by close().
    """

    def __init__(self) -> None:
        self._dir = tempfile.TemporaryDirectory(prefix=".bench-out-", dir=ROOT)
        out = Path(self._dir.name)
        self._stdout, self._stderr = out / "stdout", out / "stderr"
        self.trace_file = out / "trace.json"
        self._proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(LAUNCHER), str(self._stdout), str(self._stderr)],
            cwd=ROOT, env=_child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)

    def spawn(self, argv: list[str]) -> Result:
        """Run argv, timed from spawn until it is reaped."""
        self._proc.stdin.write(json.dumps(argv) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            sys.exit(f"run.py: the launcher ended (exit {self._proc.wait()})")
        r = json.loads(reply)
        out = self._stdout.read_bytes()
        return Result(r["start"], r["end"], r["exitcode"], out.decode(),
                      self._stderr.read_text(), len(out), r["maxrss_kb"] / 1024)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()
        self._dir.cleanup()

    def __enter__(self) -> Launcher:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def run_op(launcher: Launcher, op: Op, traced: bool) -> Result:
    """Run one operation; a traced one leaves its spans' summary in r.trace."""
    if not traced:
        return launcher.spawn([sys.executable, "-m", "epilab.cli", *op.argv])
    launcher.trace_file.unlink(missing_ok=True)
    r = launcher.spawn([sys.executable, str(TRACE_CLI), str(launcher.trace_file), *op.argv])
    try:
        r.trace = json.loads(launcher.trace_file.read_text())
    except (OSError, json.JSONDecodeError):
        sys.exit(f"run.py: traced run of {' '.join(op.argv)} left no trace:\n{r.stderr}")
    return r


_SETUP_CODE = "import epilab.cli; epilab.cli.build_parser()"


def setup_once(launcher: Launcher) -> float:
    """Time for a fresh interpreter to import epilab.cli and build its parser."""
    r = launcher.spawn([sys.executable, "-c", _SETUP_CODE])
    if r.returncode != 0:
        sys.exit(f"run.py: importing epilab.cli failed:\n{r.stderr}")
    return r.wall_s


# A fixed command that shares no code with epilab: a fresh interpreter
# that imports the stdlib modules epilab's commands import.  It takes about
# REFERENCE_S on the reference machine of the README.
_CALIBRATION_CODE = "import argparse, decimal, fractions"
REFERENCE_S = 0.060


def calibrate(launcher: Launcher) -> float:
    """Wall time of the calibration command, timed like any command."""
    r = launcher.spawn([sys.executable, "-c", _CALIBRATION_CODE])
    if r.returncode != 0:
        sys.exit(f"run.py: the calibration command failed:\n{r.stderr}")
    return r.wall_s


# ---------------------------------------------------------------------------
# rounds


@dataclass
class Tally:
    """Operations attempted and failed.  A failed operation either exited
    non-zero or printed output that failed its check (counted in wrong)."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    reasons: dict[str, int] = field(default_factory=dict)

    def record(self, op: Op, r: Result) -> None:
        self.attempted += 1
        if r.returncode != 0:
            last = (r.stderr.strip().splitlines() or ["(no stderr)"])[-1]
            reason = f"exit {r.returncode}: {last[:160]}"
        else:
            try:
                op.check(r.stdout)
                return
            except Exception as exc:  # malformed output fails its check too
                self.wrong += 1
                reason = f"wrong output: {type(exc).__name__}: {exc}"
        self.failed += 1
        key = f"epilab {' '.join(op.argv)}: {reason}"
        self.reasons[key] = self.reasons.get(key, 0) + 1


def traced_round(launcher: Launcher, ops: list[Op], tally: Tally) -> list[Result]:
    results = []
    for op in ops:
        r = run_op(launcher, op, traced=True)
        for name in r.trace["missing"]:
            print(f"run.py: {name} no longer exists; its spans are missing", file=sys.stderr)
        tally.record(op, r)
        results.append(r)
    return results


def repeat(seconds: float, one_round) -> list:
    """Whole rounds, as many as fit in `seconds` judged from the first."""
    t0 = time.perf_counter()
    first = one_round()
    n = max(1, round(seconds / (time.perf_counter() - t0)))
    return [first] + [one_round() for _ in range(n - 1)]


# ---------------------------------------------------------------------------
# metrics


def end_to_end(launcher: Launcher, ops: list[Op], seconds: float,
               tally: Tally) -> dict[str, float]:
    """The end-to-end metrics, with every time scaled to the reference speed.

    The machine's speed drifts while a run goes on and from one run to the
    next, so the calibration command runs between every two commands, and
    each sample is scaled by REFERENCE_S over the mean of the calibration
    times on either side of it.  A set-up sample is taken right before each
    command, so set-up times see the same machine as the commands do.
    """
    setup_once(launcher)  # writes the bytecode cache; not counted
    setups: list[float] = []
    peaks: list[float] = []
    raw: list[float] = []  # unscaled command times, reported on stderr
    calibrations = [calibrate(launcher)]

    def one_round() -> list[float]:
        times = []
        for op in ops:
            setup = setup_once(launcher)
            r = run_op(launcher, op, traced=False)
            tally.record(op, r)
            calibrations.append(calibrate(launcher))
            speed = REFERENCE_S / statistics.fmean(calibrations[-2:])
            setups.append(setup * speed)
            times.append(r.wall_s * speed)
            raw.append(r.wall_s)
            peaks.append(r.maxrss_mb)
        return times

    rounds = repeat(seconds, one_round)
    # each command's time is its median over the rounds
    per_op = [statistics.median(times) for times in zip(*rounds)]
    raw_per_op = [statistics.median(raw[i::len(ops)]) for i in range(len(ops))]
    print(f"run.py: {len(rounds)} rounds; calibration median "
          f"{statistics.median(calibrations):.4f} s (reference {REFERENCE_S} s); "
          f"unscaled wall_s {sum(raw_per_op):.4f}, cmd_p50_s "
          f"{statistics.median(raw_per_op):.4f}", file=sys.stderr)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": sum(per_op),
        "cmd_p50_s": statistics.median(per_op),
        "peak_rss_mb": max(peaks),
    }


def _layers(rnd: list[Result]) -> dict[str, float]:
    """Per-layer metrics of one traced round, summed over its commands."""
    fn: dict[str, dict] = {}
    cfrac_evals = 0
    process = 0.0
    for r in rnd:
        for name, f in r.trace["functions"].items():
            acc = fn.setdefault(name, {"calls": 0, "self_s": 0.0, "max": 0, "sum": 0})
            acc["calls"] += f["calls"]
            acc["self_s"] += f["self_s"]
            acc["max"] = max(acc["max"], f["max"])
            acc["sum"] += f["sum"]
        cfrac_evals += r.trace["cfrac_evals"]
        main_start, main_end = r.trace["main"]
        # interpreter start, imports and exit: the command outside cli.main
        process += (main_start - r.start) + (r.end - main_end)

    def pick(key, *names):
        return sum(fn[n][key] for n in names if n in fn)

    def layer(key, prefix):
        return pick(key, *(n for n in fn if n.startswith(prefix + ".")))

    m = {
        "oracle.exp_s": pick("self_s", "oracle.exp_interval", "oracle.exp_oracle"),
        "oracle.exp_calls": pick("calls", "oracle.exp_interval"),
        "oracle.pi_s": pick("self_s", "oracle.pi_interval", "oracle.pi_oracle",
                            "oracle.pi_reference"),
        "oracle.pi_calls": pick("calls", "oracle.pi_interval"),
        "oracle.pi_max_digits": pick("max", "oracle.pi_interval"),
        "oracle.e_s": pick("self_s", "oracle.e_interval", "oracle.e_oracle",
                           "oracle.e_reference"),
        "oracle.e_calls": pick("calls", "oracle.e_interval"),
        "oracle.e_max_digits": pick("max", "oracle.e_interval"),
        "expr.self_s": layer("self_s", "expr"),
        "expr.eval_calls": pick("calls", "expr.eval_interval"),
        "expr.max_digits": pick("max", "expr.eval_interval"),
        "expr.parse_s": pick("self_s", "expr.parse"),
        "derive.cfrac_self_s": pick("self_s", "derive.cfrac"),
        "derive.cfrac_calls": pick("calls", "derive.cfrac"),
        "derive.cfrac_evals": cfrac_evals,
        "derive.scan_s": pick("self_s", "derive.linear_combo_scan"),
        "derive.scan_rows": pick("sum", "derive.linear_combo_scan"),
        "series.self_s": layer("self_s", "series"),
        "series.calls": layer("calls", "series"),
        "series.terms": pick("sum", "series.partial_sum", "series.convergence_table"),
        "bignum.self_s": layer("self_s", "bignum"),
        "bignum.calls": layer("calls", "bignum"),
        "bignum.render_digits": pick("sum", "bignum.to_decimal_string"),
        "cli.self_s": pick("self_s", "cli.main"),
        "cli.stdout_bytes": sum(r.stdout_bytes for r in rnd),
        "registry.self_s": layer("self_s", "registry"),
        "registry.verify_calls": pick("calls", "registry.verify"),
        "accel.self_s": layer("self_s", "accel"),
        "stirling.self_s": layer("self_s", "stirling"),
        "process.self_s": process,
        "trace.wall_s": sum(r.wall_s for r in rnd),
        "trace.spans": sum(r.trace["spans"] for r in rnd),
        "trace.overhead_s": sum(r.trace["overhead_s"] for r in rnd),
    }
    return m


def per_layer(launcher: Launcher, ops: list[Op], seconds: float,
              tally: Tally) -> dict[str, float]:
    setup_once(launcher)  # writes the bytecode cache
    traced = [_layers(rnd) for rnd in
              repeat(seconds, lambda: traced_round(launcher, ops, tally))]
    return {k: statistics.median(t[k] for t in traced) for k in traced[0]}


# ---------------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "epilab" / "cli.py").is_file():
        sys.exit(f"run.py: {SRC / 'epilab'} not found; run from the root of an epilab checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    ops = WORKLOADS[args.workload](args.seed)
    tally = Tally()
    measure = per_layer if args.trace else end_to_end
    with Launcher() as launcher:
        values = measure(launcher, ops, args.seconds, tally)
    for reason, count in tally.reasons.items():
        print(f"failed {count}x: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
