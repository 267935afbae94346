"""Command-line front end: every operation as a scriptable command.

Commands: compute, table, verify, cfrac, stirling, scan, compare.
Output formats: text (default), csv (always with a header row), json
(numbers as exact decimal strings).  Identical invocations produce
byte-identical output; --quiet drops everything except the payload.

Exit codes: 0 success; 1 when a well-formed input has no certified
result: the value is undefined (a root of a negative number, a division
by zero), an exp argument lies outside |x| <= 100, the precision cap is
reached, a series cannot reach the precision within its term cap, or
stdout closes before the output ends; 2 for usage errors: bad flags or
option values, unparsable expressions.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from .bignum import (BigFixed, _div_nearest, _fixed_to_string, _int_to_digits, _rational_to_digits,
                     ceil_grid, floor_grid, floor_neg_log10, root_interval)
from .expr import EvalDomainError, ParseError, PrecisionCapError, parse, to_text
from .oracle import ExpRangeError, constant_reference, e_interval, exp_interval
from .series import (
    DEFAULT_MAX_TERMS,
    EXACT_TERM_LIMIT,
    InfeasibleRequest,
    builtin,
    builtin_names,
    convergence_table,
    partial_sum,
    terms_needed,
)

# registry, derive, stirling and accel are imported inside the commands
# that run them: every command is a fresh process, and pays for its imports

__all__ = ["main"]

_PI_METHODS = ("oracle", "gregory-leibniz", "nilakantha", "nilakantha-paired",
               "lambda6", "zeta8")
_E_METHODS = ("oracle", "e-factorial")


def _emit_csv(columns: list[str], rows: list[list[str]]) -> None:
    import csv  # here, not at the top: text output never needs it
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)


def _emit_text_table(columns: list[str], rows: list[list[str]]) -> None:
    # each column as wide as its widest cell, header included, and two
    # spaces between columns; with no rows only the header is printed
    widths = [max(map(len, cells)) for cells in zip(columns, *rows)]
    for row in (columns, *rows):
        print("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())


def _emit_json(payload) -> None:
    import json  # here, not at the top: text output never needs it
    print(json.dumps(payload, indent=2))


# ---------------------------------------------------------------------------
# compute


def cmd_compute(args) -> int:
    digits = args.digits
    allowed = _E_METHODS if args.constant == "e" else _PI_METHODS
    if args.method not in allowed:
        raise ValueError(
            f"method {args.method!r} not valid for {args.constant}; "
            f"choose from {', '.join(allowed)}"
        )
    terms = None
    if args.method == "oracle":
        ov = constant_reference(args.constant, digits)
        mid = ov.value.as_fraction()
        halfwidth = Fraction(1, 10**ov.certified_digits)
    else:
        spec = builtin(args.method)
        if args.terms == "auto":
            last = terms_needed(spec, digits + 1, cap=args.max_terms)
        else:
            last = spec.start_index + int(args.terms) - 1
            if last < spec.start_index:
                raise ValueError("--terms must be >= 1")
        result = partial_sum(spec, last)
        terms = result.terms_used - spec.start_index + 1
        lo, hi = result.value - result.bound, result.value + result.bound
        if spec.constant == "two_pi":
            lo, hi = lo / 2, hi / 2
        elif spec.constant in ("pi6", "pi8"):  # pi^k: take the k-th root
            lo, hi = root_interval(max(lo, Fraction(0)), hi, int(spec.constant[2]), digits + 6)
        mid, halfwidth = (lo + hi) / 2, (hi - lo) / 2
    # mid > 0, so rounding down makes the rendered digits a prefix of its
    # decimal expansion, which is what "value to N digits" means here
    value = BigFixed(floor_grid(mid, digits), digits)
    err = halfwidth + abs(mid - value.as_fraction())
    bound = BigFixed(ceil_grid(err, digits + 4), digits + 4)

    if args.format == "json":
        _emit_json({
            "constant": args.constant,
            "method": args.method,
            "digits": digits,
            "terms": terms,
            "value": value.to_decimal_string(),
            "error_bound": bound.to_decimal_string(),
        })
    elif args.format == "csv":
        _emit_csv(
            ["constant", "method", "digits", "terms", "value", "error_bound"],
            [[args.constant, args.method, str(digits),
              "" if terms is None else str(terms),
              value.to_decimal_string(), bound.to_decimal_string()]],
        )
    elif args.quiet:
        print(value.to_decimal_string())
    else:
        print(f"{args.constant} = {value.to_decimal_string()}")
        print(f"method = {args.method}")
        if terms is not None:
            print(f"terms = {terms}")
        print(f"error <= {bound.to_decimal_string()}")
    return 0


# ---------------------------------------------------------------------------
# table


def cmd_table(args) -> int:
    spec = builtin(args.series)
    try:
        checkpoints = [int(p) for p in args.checkpoints.split(",") if p.strip()]
    except ValueError:
        raise ValueError(f"bad --checkpoints {args.checkpoints!r}; expected e.g. 10,100,1000")
    if not checkpoints:
        raise ValueError("--checkpoints must name at least one index")
    if max(checkpoints) > EXACT_TERM_LIMIT:
        raise ValueError(f"checkpoints above {EXACT_TERM_LIMIT} are not supported")
    # the reference must be finer than every error in the table; the
    # builtin errors sit within a small factor of their bounds, so ten
    # digits past the smallest bound suffice (and 60 digits cover every
    # table whose bounds stay above 10^-50)
    smallest = min((spec.tail_bound(p) for p in checkpoints if p >= spec.start_index),
                   default=None)
    digits = 60 if smallest is None else max(60, floor_neg_log10(smallest) + 10)
    reference = constant_reference(spec.constant, digits)
    rows = convergence_table(spec, checkpoints, reference, scale=args.scale)
    rendered = [
        [str(r.n), r.value.to_decimal_string(),
         BigFixed.from_fraction(r.abs_error, 25).to_decimal_string(),
         BigFixed(ceil_grid(r.bound, 25), 25).to_decimal_string(),
         str(r.digits_correct)]
        for r in rows
    ]
    columns = ["n", "value", "abs_error", "bound", "digits_correct"]
    if args.format == "json":
        _emit_json([dict(zip(columns, row)) for row in rendered])
    elif args.format == "csv":
        _emit_csv(columns, rendered)
    else:
        if not args.quiet:
            print(f"series = {spec.name} (limit: {spec.constant})")
        _emit_text_table(columns, rendered)
    return 0


# ---------------------------------------------------------------------------
# verify


def _report_row(rep) -> list[str]:
    from .registry import VerificationFailure
    if isinstance(rep, VerificationFailure):
        return [rep.relation_id, rep.paper_eq, "", "", "", "", "", "", "false"]
    d = rep.to_dict()
    return [d["id"], d["paper_eq"], d["lhs"], d["rhs"], d["abs_residual"],
            d["rel_residual"], str(d["digits_of_agreement"]),
            str(d["precision_used"]), "true" if d["certified"] else "false"]


def cmd_verify(args) -> int:
    from .registry import VerificationFailure, get_relation, verify, verify_all
    if args.all == (args.id is not None):
        raise ValueError("name exactly one relation id, or pass --all")
    if args.all:
        reports = verify_all(args.digits)
    else:
        reports = [verify(get_relation(args.id), args.digits)]
    ok = all(
        not isinstance(r, VerificationFailure) and r.certified for r in reports
    )
    columns = ["id", "paper_eq", "lhs", "rhs", "abs_residual", "rel_residual",
               "digits_of_agreement", "precision_used", "certified"]
    if args.format == "json":
        payload = [
            {"id": r.relation_id, "paper_eq": r.paper_eq, "error": r.error}
            if isinstance(r, VerificationFailure) else r.to_dict()
            for r in reports
        ]
        _emit_json(payload if args.all else payload[0])
    elif args.format == "csv":
        _emit_csv(columns, [_report_row(r) for r in reports])
    else:
        for r in reports:
            if isinstance(r, VerificationFailure):
                print(f"{r.relation_id}  FAILED: {r.error}")
                continue
            relation = get_relation(r.relation_id)
            if args.all:
                mark = "certified" if r.certified else "UNCERTIFIED"
                print(f"{r.relation_id}  {mark:11s}  digits_of_agreement={r.digits_of_agreement:2d}  "
                      f"lhs={r.lhs_value}  residual={r.abs_residual}")
                continue
            if not args.quiet:
                print(f"{relation.id}: {to_text(relation.lhs)} vs {to_text(relation.rhs)} "
                      f"[{relation.kind}, {relation.paper_eq}]")
                if relation.note:
                    print(f"note: {relation.note}")
            print(f"lhs = {r.lhs_value}")
            print(f"rhs = {r.rhs_value}")
            print(f"abs_residual = {r.abs_residual}")
            print(f"rel_residual = {r.rel_residual}")
            print(f"digits_of_agreement = {r.digits_of_agreement}")
            print(f"precision_used = {r.precision_used}")
            print(f"certified = {'yes' if r.certified else 'NO'}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# cfrac


def cmd_cfrac(args) -> int:
    from .derive import cfrac
    expr = parse(args.expr)
    quotients = cfrac(expr, args.terms, args.digits)
    # a quotient can pass the 4,300 digits str() converts, so each is
    # rendered in pieces; json gets the layout json.dumps(indent=2) gives
    digits = [_rational_to_digits(q) for q in quotients]
    if args.format == "json":
        import json
        body = ",\n".join(f"    {d}" for d in digits)
        print(f'{{\n  "expr": {json.dumps(to_text(expr))},\n  "quotients": [\n{body}\n  ]\n}}')
    elif args.format == "csv":
        _emit_csv(["index", "quotient"], [[str(i), d] for i, d in enumerate(digits)])
    else:
        if not args.quiet:
            print(f"expr = {to_text(expr)}")
        print(" ".join(digits))
    return 0


# ---------------------------------------------------------------------------
# stirling


def _rel_error(approx: BigFixed, lo: Fraction, hi: Fraction) -> BigFixed:
    a = approx.as_fraction()
    worst = max(abs(a - lo), abs(a - hi))
    return BigFixed(ceil_grid(worst / min(abs(lo), abs(hi)), 10), 10)


def cmd_stirling(args) -> int:
    from .stirling import e_from_ratio, e_half_integer, e_power_approx, stirling_e8_decomposition
    scale = (4 if args.op == "e-half" else 10) if args.scale is None else args.scale
    if scale < 0:
        raise ValueError("scale must be >= 0")
    if args.op == "e-half":
        s = e_half_integer(args.n, args.k)
        sq = s.squared().as_fraction()
        payload = {
            "op": "e-half", "n": args.n, "k": args.k,
            "surd": str(s),
            "squared": f"{_int_to_digits(sq.numerator)}/{_int_to_digits(sq.denominator)}",
            "squared_decimal": BigFixed.from_fraction(sq, scale).to_decimal_string(),
        }
        text = f"{s}; squared = {payload['squared']} ≈ {payload['squared_decimal']}"
    elif args.op == "approx":
        # the target first: its range check names why a large n fails
        lo, hi = exp_interval(Fraction(args.n), scale + 10)
        value = e_power_approx(args.n, args.k, scale)
        payload = {
            "op": "approx", "n": args.n, "k": args.k,
            "value": value.to_decimal_string(),
            "target": BigFixed.from_fraction((lo + hi) / 2, scale).to_decimal_string(),
            "rel_error": _rel_error(value, lo, hi).to_decimal_string(),
        }
        text = f"e^{args.n} ≈ {payload['value']}  (true {payload['target']}, " \
               f"rel error {payload['rel_error']})"
    elif args.op == "ratio":
        value = e_from_ratio(args.n, args.k, scale)
        lo, hi = e_interval(scale + 10)
        payload = {
            "op": "ratio", "n": args.n, "k": args.k,
            "value": value.to_decimal_string(),
            "target": BigFixed.from_fraction((lo + hi) / 2, scale).to_decimal_string(),
            "rel_error": _rel_error(value, lo, hi).to_decimal_string(),
        }
        text = f"e ≈ {payload['value']}  (true {payload['target']}, " \
               f"rel error {payload['rel_error']})"
    else:  # e8
        d = stirling_e8_decomposition(scale)
        payload = {
            "op": "e8",
            "e8": d.e8.to_decimal_string(),
            "value_96pi3": d.value_96pi3.to_decimal_string(),
            "base_64pi3": d.base_64pi3.to_decimal_string(),
            "correction": str(d.correction),
            "gap_from_3_2": str(d.gap_from_3_2),
            "ratio": d.ratio.to_decimal_string(),
        }
        text = "\n".join([
            f"e^8        = {payload['e8']}",
            f"96 pi^3    = {payload['value_96pi3']}",
            f"64 pi^3    = {payload['base_64pi3']}",
            f"correction = {payload['correction']} "
            f"(gap to 3/2: {payload['gap_from_3_2']})",
            f"ratio      = {payload['ratio']}",
        ])
    if args.format == "json":
        _emit_json(payload)
    elif args.format == "csv":
        _emit_csv(list(payload), [[str(v) for v in payload.values()]])
    else:
        print(text)
    return 0


# ---------------------------------------------------------------------------
# scan


def cmd_scan(args) -> int:
    from .derive import _scan_units
    two_den, rows = _scan_units(args.max, args.digits, Fraction(args.threshold))
    columns = ["n", "m", "value", "nearest", "residual", "mod7", "predicted", "flagged"]
    # value and residual are num / two_den; each cell renders at six places
    # as BigFixed does, with no record built per cell
    if args.format == "json":
        _emit_json([
            dict(zip(columns, (n, m, _fixed_to_string(_div_nearest(total * 10**6, two_den), 6),
                               nearest,
                               _fixed_to_string(_div_nearest(residual * 10**6, two_den), 6),
                               mod7, predicted, flagged)))
            for n, m, total, nearest, residual, mod7, predicted, flagged in rows
        ])
        return 0
    shown = rows if (args.all_rows or args.format == "csv") else [r for r in rows if r[7]]
    # a generator, so csv streams the cells and holds no second table;
    # booleans and the missing prediction are spelled as json spells them
    rendered = (
        [str(n), str(m), _fixed_to_string(_div_nearest(total * 10**6, two_den), 6), str(nearest),
         _fixed_to_string(_div_nearest(residual * 10**6, two_den), 6),
         "true" if mod7 else "false",
         "" if predicted is None else str(predicted),
         "true" if flagged else "false"]
        for n, m, total, nearest, residual, mod7, predicted, flagged in shown
    )
    if args.format == "csv":
        _emit_csv(columns, rendered)
    else:
        if not args.quiet:
            flagged = sum(1 for r in rows if r[7])
            print(f"combinations n*pi + m*e with |n|, |m| <= {args.max}; "
                  f"{flagged} of {len(rows)} rows within {args.threshold} of an integer"
                  + ("" if args.all_rows else " (shown; --all-rows for the rest)"))
        _emit_text_table(columns, list(rendered))
    return 0


# ---------------------------------------------------------------------------
# compare


def cmd_compare(args) -> int:
    from .accel import compare_expansions
    rows = compare_expansions(args.rows, scale=args.scale)
    rendered = [
        [str(r.k), _rational_to_digits(r.e_term), _rational_to_digits(r.two_pi_term),
         r.running.to_decimal_string(), r.distance_to_9.to_decimal_string()]
        for r in rows
    ]
    columns = ["k", "e_term", "two_pi_term", "running_sum", "distance_to_9"]
    if args.format == "json":
        _emit_json([dict(zip(columns, row)) for row in rendered])
    elif args.format == "csv":
        _emit_csv(columns, rendered)
    else:
        if not args.quiet:
            print("e expansion (3 - 1/3 + 1/24 + ...) against 2*pi "
                  "(6 + 1/3 - 3/70 - ...); running sum tracks e + 2*pi")
        _emit_text_table(columns, rendered)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epilab",
        description="Certified arithmetic playground for coincidences of e and pi.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, digits=True):
        p.add_argument("--format", choices=("text", "csv", "json"), default="text")
        p.add_argument("--quiet", action="store_true",
                       help="suppress headers and metadata in text output")
        if digits:
            p.add_argument("--digits", type=int, default=30)

    p = sub.add_parser("compute", help="evaluate a constant by series or oracle")
    p.add_argument("constant", choices=("pi", "e"))
    p.add_argument("--method", default="oracle",
                   help=f"oracle (default) or a series: {', '.join(builtin_names())}")
    p.add_argument("--terms", default="auto",
                   help="term count, or 'auto' to invert the tail bound (default)")
    p.add_argument("--max-terms", type=int, default=DEFAULT_MAX_TERMS)
    common(p)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("table", help="convergence table for a builtin series")
    p.add_argument("series", help=f"one of: {', '.join(builtin_names())}")
    p.add_argument("--checkpoints", default="10,100,1000")
    p.add_argument("--scale", type=int, default=15, help="decimals in the value column")
    common(p, digits=False)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="check registered coincidences")
    p.add_argument("id", nargs="?", help="relation id, e.g. R03")
    p.add_argument("--all", action="store_true", help="verify the whole registry")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("cfrac", help="certified continued fraction of an expression")
    p.add_argument("expr", help="expression text, e.g. 'exp(pi)'")
    p.add_argument("--terms", type=int, default=7)
    common(p)
    p.set_defaults(func=cmd_cfrac)

    p = sub.add_parser("stirling", help="Stirling-series approximants of e")
    p.add_argument("--op", choices=("approx", "ratio", "e-half", "e8"), required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--scale", type=int, default=None,
                   help="decimal places (default 10; e-half's square: 4)")
    common(p, digits=False)
    p.set_defaults(func=cmd_stirling)

    p = sub.add_parser("scan", help="integer scan of n*pi + m*e")
    p.add_argument("--max", type=int, default=10)
    p.add_argument("--threshold", default="0.06")
    p.add_argument("--all-rows", action="store_true",
                   help="text output: include rows that are not flagged")
    common(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("compare", help="e and 2*pi expansions side by side")
    p.add_argument("--rows", type=int, default=8)
    p.add_argument("--scale", type=int, default=10)
    common(p, digits=False)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has gone: point fd 1 at devnull, so the flush at
        # interpreter exit finds nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the output ended", file=sys.stderr)
        return 1
    except (InfeasibleRequest, PrecisionCapError, EvalDomainError, ExpRangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
