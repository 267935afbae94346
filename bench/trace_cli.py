"""Run one epilab CLI command with span recorders around each layer.

    python bench/trace_cli.py SUMMARY_FILE <epilab arguments...>

behaves like ``python -m epilab.cli <arguments...>`` (same stdout, stderr
and exit code, an uncaught exception included) but first wraps the public
functions of every layer.  A span records its name, start, end and parent
span; a layer's self time is its span time minus the time of its child
spans.  When the command ends, however it ends, the spans are folded into
per-function totals and written to SUMMARY_FILE as one JSON object.

The spans come from these wrappers only; epilab's own code is unchanged.
Times are time.perf_counter(), which on Linux reads CLOCK_MONOTONIC, so
the benchmark can line them up with its own spawn and exit times.

The summary also estimates what tracing added to the command: the time
spent installing the wrappers, calibrating them and folding the spans,
plus the number of spans times the cost of one wrapper, measured in this
process on a function that does nothing.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from epilab import accel, bignum, cli, derive, expr, oracle, registry, series, stirling  # noqa: E402

_spans: list[list] = []  # [name, start, end, parent index, value]
_stack = [-1]


def _digits(text: str) -> int:
    return len(text) - text.count("-") - text.count(".")


# module, function, span name (or a function of the call's arguments that
# gives it), value recorded with the span (a function of args and result)
_WRAPPED = [
    (cli, "main", "cli.main", None),
    (registry, "verify", "registry.verify", None),
    (registry, "verify_all", "registry.verify_all", None),
    (derive, "cfrac", "derive.cfrac", None),
    (derive, "linear_combo_scan", "derive.linear_combo_scan", lambda a, r: len(r)),
    (expr, "parse", "expr.parse", None),
    (expr, "eval_interval", "expr.eval_interval", lambda a, r: a[1]),
    (expr, "eval_expr", "expr.eval_expr", None),
    (oracle, "pi_interval", "oracle.pi_interval", lambda a, r: a[0]),
    (oracle, "e_interval", "oracle.e_interval", lambda a, r: a[0]),
    (oracle, "exp_interval", "oracle.exp_interval", None),
    (oracle, "pi_oracle", "oracle.pi_oracle", None),
    (oracle, "e_oracle", "oracle.e_oracle", None),
    (oracle, "exp_oracle", "oracle.exp_oracle", None),
    # a reference for pi, 2pi, pi^6 or pi^8 is pi work; for e, e work
    (oracle, "constant_reference",
     lambda a: "oracle.e_reference" if a[0] == "e" else "oracle.pi_reference", None),
    (series, "partial_sum", "series.partial_sum",
     lambda a, r: a[1] - a[0].start_index + 1),
    (series, "terms_needed", "series.terms_needed", None),
    (series, "convergence_table", "series.convergence_table",
     lambda a, r: max(a[1]) - a[0].start_index + 1 if a[1] else 0),
    (accel, "compare_expansions", "accel.compare_expansions", None),
    (stirling, "e_power_approx", "stirling.e_power_approx", None),
    (stirling, "e_from_ratio", "stirling.e_from_ratio", None),
    (stirling, "e_half_integer", "stirling.e_half_integer", None),
    (stirling, "stirling_e8_decomposition", "stirling.stirling_e8_decomposition", None),
    (bignum, "root_interval", "bignum.root_interval", None),
    (bignum, "sqrt_interval", "bignum.sqrt_interval", None),
    (bignum, "iroot", "bignum.iroot", None),
    (bignum, "floor_neg_log10", "bignum.floor_neg_log10", None),
]


def _wrap(fn, name, value):
    clock = time.perf_counter

    def wrapper(*args, **kwargs):
        rec = [name(args) if callable(name) else name, 0.0, 0.0, _stack[-1], None]
        _stack.append(len(_spans))
        _spans.append(rec)
        rec[1] = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = clock()
            _stack.pop()
        if value is not None:
            rec[4] = value(args, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def install() -> list[str]:
    """Replace each function everywhere epilab's modules refer to it, and
    return the names of those that no longer exist.

    The modules import one another's functions by name, so the wrapper
    has to go into every namespace that holds the original.
    """
    modules = [m for n, m in sys.modules.items() if n == "epilab" or n.startswith("epilab.")]
    missing = []
    for module, attr, name, value in _WRAPPED:
        orig = getattr(module, attr, None)
        if orig is None:
            missing.append(f"{module.__name__}.{attr}")
            continue
        wrapper = _wrap(orig, name, value)
        for m in modules:
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, wrapper)
    big = bignum.BigFixed
    big.from_fraction = classmethod(
        _wrap(big.__dict__["from_fraction"].__func__, "bignum.from_fraction", None))
    big.to_decimal_string = _wrap(big.to_decimal_string, "bignum.to_decimal_string",
                                  lambda a, r: _digits(r))
    return missing


def calibrate(calls: int = 1000, repeats: int = 5) -> float:
    """Seconds one wrapper adds to a call: the fastest of `repeats` batches
    of wrapped calls less the fastest batch of bare calls, per call."""
    def noop():
        return None

    def batch(fn) -> float:
        t0 = clock()
        for _ in range(calls):
            fn()
        return clock() - t0

    clock = time.perf_counter
    wrapped = _wrap(noop, "calibrate", None)
    mark = len(_spans)
    bare = min(batch(noop) for _ in range(repeats))
    traced = min(batch(wrapped) for _ in range(repeats))
    del _spans[mark:]
    return max(0.0, traced - bare) / calls


def summary(missing: list[str]) -> dict:
    """Per-function calls, self time, largest and summed recorded value,
    and the eval_interval calls made directly by cfrac."""
    child = [0.0] * len(_spans)
    for name, start, end, parent, _ in _spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict] = {}
    cfrac_evals = 0
    for i, (name, start, end, parent, value) in enumerate(_spans):
        f = out.setdefault(name, {"calls": 0, "self_s": 0.0, "max": 0, "sum": 0})
        f["calls"] += 1
        f["self_s"] += end - start - child[i]
        if value is not None:
            f["max"] = max(f["max"], value)
            f["sum"] += value
        if name == "expr.eval_interval" and parent >= 0 and _spans[parent][0] == "derive.cfrac":
            cfrac_evals += 1
    main = next(s for s in _spans if s[0] == "cli.main")
    return {"main": [main[1], main[2]], "functions": out, "cfrac_evals": cfrac_evals,
            "spans": len(_spans), "missing": missing}


def run(summary_file: str, argv: list[str]) -> int:
    t0 = time.perf_counter()
    missing = install()
    per_span = calibrate()
    setup = time.perf_counter() - t0
    try:
        return cli.main(argv)
    finally:
        # written before an uncaught exception propagates, so the command
        # still ends as it would untraced and is counted as it would be
        t1 = time.perf_counter()
        result = summary(missing)
        result["overhead_s"] = setup + result["spans"] * per_span + time.perf_counter() - t1
        Path(summary_file).write_text(json.dumps(result))


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2:]))
