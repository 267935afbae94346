"""Command-line front end: every operation as a scriptable command.

Commands: compute, table, verify, cfrac, stirling, scan, compare.
Output formats: text (default), csv (always with a header row), json
(numbers as exact decimal strings).  Identical invocations produce
byte-identical output; --quiet drops everything except the payload.

Each command builds its output once, as rows of string cells under named
columns, and hands them to one emitter, _emit, which alone looks at
--format: csv writes the cells as they are, json writes them as records
through one writer in json.dumps(indent=2)'s layout, and text prints the
command's own layout or the rows as a table.  A command names its
literal columns, whose cells are json literals (integers, true, false;
the empty cell is null); every other cell is a json string.

Exit codes: 0 success; 1 when a well-formed input has no certified
result (an error derived from oracle.NoCertifiedResult: the value is
undefined, such as a root of a negative number or a division by zero,
an exp argument lies outside |x| <= 100, the precision cap is reached,
or a series cannot reach the precision within its term cap), or when
stdout closes before the output ends; 2 for usage errors (ValueError or
KeyError): bad flags or option values, unparsable expressions.  Anything
else is a fault and ends in a traceback.  main maps each error to its
code; verify alone also returns 1, after its output, when a relation
failed or is not certified.  Every non-zero exit writes one error: line
to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from .bignum import (BigFixed, _div_nearest, _fixed_to_string, _int_to_digits, _rational_to_digits,
                     ceil_div, floor_div, root_units)
from .oracle import _FORMS, NoCertifiedResult, _cached, _e_unit, _exp_units, constant_reference
from .series import (
    DEFAULT_MAX_TERMS,
    EXACT_TERM_LIMIT,
    builtin,
    builtin_names,
    convergence_table,
    partial_sum,
    terms_needed,
)

# expr, registry, derive, stirling and accel are imported inside the
# commands that run them: every command is a fresh process, and pays for
# its imports

__all__ = ["main"]

#: how a literal cell spells False and True; an empty literal cell is null
_BOOL = ("false", "true")


def _json(payload, literal=()) -> str:
    """payload in the layout json.dumps(payload, indent=2) gives it.

    payload is a record or a list of records, and a record is a dict or
    an iterable of (key, cell) pairs; a cell is a string, or a list of
    strings.  A cell under a key in literal is written as it is, and as
    null when empty; every other cell is a json string, escaped by json's
    own encoder.  No literal goes through int -> str, so integers past
    its 4,300-digit cap are written too.
    """
    from json.encoder import encode_basestring_ascii as quote

    def value(key, cell, pad):
        if isinstance(cell, list):
            inner = pad + "  "
            items = f",\n{inner}".join(value(key, c, inner) for c in cell)
            return f"[\n{inner}{items}\n{pad}]" if cell else "[]"
        return (cell or "null") if key in literal else quote(cell)

    def record(pairs, pad):
        inner = pad + "  "
        body = f",\n{inner}".join(
            f"{quote(k)}: {value(k, c, inner)}"
            for k, c in (pairs.items() if isinstance(pairs, dict) else pairs))
        return f"{{\n{inner}{body}\n{pad}}}" if body else "{}"

    if not isinstance(payload, list):
        return record(payload, "")
    body = ",\n  ".join(record(r, "  ") for r in payload)
    return f"[\n  {body}\n]" if payload else "[]"


def _emit(args, columns, rows, literal=(), *, payload=None, text=None, table=None) -> None:
    """Write a command's output in the format asked for.

    rows are lists of string cells under columns (any iterable: csv
    streams them).  csv writes them under a header row; json writes them
    as a list of records, or writes payload in their place when the
    command's json has another shape (see _json).  text prints text, the
    command's own layout, when given, and then table, rows for a text
    table, when given: each column as wide as its widest cell, header
    included, two spaces apart.
    """
    if args.format == "json":
        print(_json([zip(columns, row) for row in rows] if payload is None else payload, literal))
    elif args.format == "csv":
        import csv  # here, not at the top: text output never needs it
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
    else:
        if text is not None:
            print(text)
        if table is not None:
            table = list(table)
            widths = [max(map(len, cells)) for cells in zip(columns, *table)]
            for row in (columns, *table):
                print("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())


# ---------------------------------------------------------------------------
# compute


def cmd_compute(args) -> int:
    digits = args.digits
    # the series of e for e, those of pi and its forms for pi
    allowed = ("oracle", *[n for n in builtin_names()
                           if (builtin(n).constant == "e") == (args.constant == "e")])
    if args.method not in allowed:
        raise ValueError(
            f"method {args.method!r} not valid for {args.constant}; "
            f"choose from {', '.join(allowed)}"
        )
    if args.max_terms is not None and args.max_terms < 1:
        raise ValueError("--max-terms must be >= 1")
    if args.terms not in (None, "auto"):
        try:
            count = int(args.terms)
        except ValueError:
            raise ValueError(f"bad --terms {args.terms!r}; expected a count or 'auto'") from None
        if count < 1:
            raise ValueError("--terms must be >= 1")
    terms = ""
    # both methods give bounds lo <= constant * den <= hi
    if args.method == "oracle":
        if (args.terms, args.max_terms) != (None, None):
            raise ValueError("--terms and --max-terms apply only to a series --method")
        lo, hi, den = constant_reference(args.constant, digits)
    else:
        spec = builtin(args.method)
        cap = DEFAULT_MAX_TERMS if args.max_terms is None else args.max_terms
        last = (terms_needed(spec, digits + 1, cap=cap) if args.terms in (None, "auto")
                else spec.start_index + count - 1)
        result = partial_sum(spec, last)
        terms = str(result.terms_used - spec.start_index + 1)
        v, r = result.value, result.bound
        num, rad = v.numerator * r.denominator, r.numerator * v.denominator
        lo, hi, den = num - rad, num + rad, v.denominator * r.denominator
        # the series sums f * c**k, c being pi or e: divide by f, take the k-th root
        k, f = _FORMS[spec.constant]
        den *= f
        if k > 1:
            lo, hi = root_units(max(lo, 0), hi, den, k, digits + 6)
            den = 10 ** (digits + 6)
    # the midpoint is positive, so rounding it down makes the rendered
    # digits a prefix of its decimal expansion, which is what "value to N
    # digits" means here; the value is at most the midpoint, so the error
    # is at most hi/den - value
    value = floor_div((lo + hi) * 10**digits, 2 * den)
    error_bound = ceil_div((hi * 10**digits - value * den) * 10**4, den)
    cells = {"constant": args.constant, "method": args.method, "digits": str(digits),
             "terms": terms, "value": BigFixed(value, digits).to_decimal_string(),
             "error_bound": BigFixed(error_bound, digits + 4).to_decimal_string()}
    text = cells["value"] if args.quiet else "\n".join([
        f"{args.constant} = {cells['value']}", f"method = {args.method}",
        *([f"terms = {terms}"] if terms else []), f"error <= {cells['error_bound']}"])
    _emit(args, list(cells), [list(cells.values())], {"digits", "terms"}, payload=cells, text=text)
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
    if min(checkpoints) < spec.start_index:
        raise ValueError(f"--checkpoints must be >= {spec.start_index}")
    if max(checkpoints) > EXACT_TERM_LIMIT:
        raise ValueError(f"--checkpoints must be <= {EXACT_TERM_LIMIT}")
    rows = [
        [str(r.n), r.value.to_decimal_string(),
         BigFixed.from_fraction(r.abs_error, 25).to_decimal_string(),
         BigFixed(ceil_div(r.bound.numerator * 10**25, r.bound.denominator),
                  25).to_decimal_string(),
         str(r.digits_correct)]
        for r in convergence_table(spec, checkpoints, scale=args.scale)
    ]
    _emit(args, ["n", "value", "abs_error", "bound", "digits_correct"], rows,
          text=None if args.quiet else f"series = {spec.name} (limit: {spec.constant})",
          table=rows)
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    from .expr import to_text
    from .registry import VerificationFailure, get_relation, verify, verify_all
    if args.all == (args.id is not None):
        raise ValueError("name exactly one relation id, or pass --all")
    if args.all:
        reports = verify_all(args.digits)
    else:
        reports = [verify(get_relation(args.id), args.digits)]
    columns = ["id", "paper_eq", "lhs", "rhs", "abs_residual", "rel_residual",
               "digits_of_agreement", "precision_used", "certified"]
    # a relation whose evaluation failed has no values, and is not certified
    rows = [
        [r.relation_id, r.paper_eq, "", "", "", "", "", "", _BOOL[False]]
        if isinstance(r, VerificationFailure) else
        [r.relation_id, r.paper_eq, r.lhs_value.to_decimal_string(),
         r.rhs_value.to_decimal_string(), r.abs_residual.to_decimal_string(),
         r.rel_residual.to_decimal_string(), str(r.digits_of_agreement),
         str(r.precision_used), _BOOL[r.certified]]
        for r in reports
    ]
    if args.all:
        # in json a failed relation is a record of its own: its id and error
        payload = [{"id": r.relation_id, "paper_eq": r.paper_eq, "error": r.error}
                   if isinstance(r, VerificationFailure) else zip(columns, row)
                   for r, row in zip(reports, rows)]
        text = "\n".join(
            f"{r.relation_id}  FAILED: {r.error}" if isinstance(r, VerificationFailure) else
            f"{r.relation_id}  {'certified' if r.certified else 'UNCERTIFIED':11s}  "
            f"digits_of_agreement={r.digits_of_agreement:2d}  lhs={row[2]}  residual={row[4]}"
            for r, row in zip(reports, rows))
    else:
        (r,), (row,) = reports, rows
        relation = get_relation(r.relation_id)
        payload = dict(zip(columns, row))
        head = [] if args.quiet else [
            f"{relation.id}: {to_text(relation.lhs)} vs {to_text(relation.rhs)} "
            f"[{relation.kind}, {relation.paper_eq}]",
            *([f"note: {relation.note}"] if relation.note else [])]
        text = "\n".join([*head, *(f"{c} = {v}" for c, v in zip(columns[2:8], row[2:8])),
                          f"certified = {'yes' if r.certified else 'NO'}"])
    _emit(args, columns, rows, {"digits_of_agreement", "precision_used", "certified"},
          payload=payload, text=text)
    uncertified = [r.relation_id for r in reports
                   if isinstance(r, VerificationFailure) or not r.certified]
    if uncertified:
        print(f"error: not certified: {', '.join(uncertified)}", file=sys.stderr)
    return 1 if uncertified else 0


# ---------------------------------------------------------------------------
# cfrac


def cmd_cfrac(args) -> int:
    from .derive import cfrac
    from .expr import parse, to_text
    if args.terms < 1:
        raise ValueError("--terms must be >= 1")
    expr = parse(args.expr)
    # a quotient can pass the 4,300 digits str() converts, so each is
    # rendered in pieces
    quotients = [_rational_to_digits(q) for q in cfrac(expr, args.terms, args.digits)]
    shown = to_text(expr)
    text = " ".join(quotients)
    _emit(args, ["index", "quotient"], ([str(i), q] for i, q in enumerate(quotients)),
          {"quotients"}, payload={"expr": shown, "quotients": quotients},
          text=text if args.quiet else f"expr = {shown}\n{text}")
    return 0


# ---------------------------------------------------------------------------
# stirling


def _rel_error(approx: BigFixed, lo: int, hi: int, den: int) -> str:
    """ceil(max |approx - x| / min x, over x in [lo/den, hi/den]) at ten
    places, for lo > 0."""
    a, u = approx.mantissa * den, 10**approx.scale
    worst = max(abs(a - lo * u), abs(a - hi * u))
    return BigFixed(ceil_div(worst * 10**10, lo * u), 10).to_decimal_string()


def cmd_stirling(args) -> int:
    from .stirling import e_from_ratio, e_half_integer, e_power_approx, stirling_e8_decomposition
    scale = (4 if args.op == "e-half" else 10) if args.scale is None else args.scale
    if scale < 0:
        raise ValueError("scale must be >= 0")
    if args.op == "e-half":
        s = e_half_integer(args.n, args.k)
        sq = s.squared().as_fraction()
        cells = {
            "op": "e-half", "n": str(args.n), "k": str(args.k),
            "surd": str(s),
            "squared": f"{_int_to_digits(sq.numerator)}/{_int_to_digits(sq.denominator)}",
            "squared_decimal": BigFixed.from_fraction(sq, scale).to_decimal_string(),
        }
        text = f"{s}; squared = {cells['squared']} ≈ {cells['squared_decimal']}"
    elif args.op in ("approx", "ratio"):
        # bounds lo <= x * den <= hi on the true value x
        if args.op == "approx":
            # the target first: its range check names why a large n fails
            lo, hi = _exp_units(args.n, 1, scale + 10)
            den = 10 ** (scale + 14)
            value = e_power_approx(args.n, args.k, scale)
            name = f"e^{args.n}"
        else:
            value = e_from_ratio(args.n, args.k, scale)
            work, lo, hi = _cached(_e_unit, scale + 10)
            den = 10**work
            name = "e"
        cells = {
            "op": args.op, "n": str(args.n), "k": str(args.k),
            "value": value.to_decimal_string(),
            "target": BigFixed(_div_nearest((lo + hi) * 10**scale, 2 * den), scale)
                      .to_decimal_string(),
            "rel_error": _rel_error(value, lo, hi, den),
        }
        text = f"{name} ≈ {cells['value']}  (true {cells['target']}, " \
               f"rel error {cells['rel_error']})"
    else:  # e8
        d = stirling_e8_decomposition(scale)
        cells = {
            "op": "e8",
            "e8": d.e8.to_decimal_string(),
            "value_96pi3": d.value_96pi3.to_decimal_string(),
            "base_64pi3": d.base_64pi3.to_decimal_string(),
            "correction": str(d.correction),
            "gap_from_3_2": str(d.gap_from_3_2),
            "ratio": d.ratio.to_decimal_string(),
        }
        text = "\n".join([
            f"e^8        = {cells['e8']}",
            f"96 pi^3    = {cells['value_96pi3']}",
            f"64 pi^3    = {cells['base_64pi3']}",
            f"correction = {cells['correction']} (gap to 3/2: {cells['gap_from_3_2']})",
            f"ratio      = {cells['ratio']}",
        ])
    _emit(args, list(cells), [list(cells.values())], {"n", "k"}, payload=cells, text=text)
    return 0


# ---------------------------------------------------------------------------
# scan


def cmd_scan(args) -> int:
    from .derive import _scan_units
    try:
        threshold = Fraction(args.threshold)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad --threshold {args.threshold!r}") from None
    if args.max < 1:
        raise ValueError("--max must be >= 1")
    two_den, units = _scan_units(args.max, args.digits, threshold)
    if args.format == "text":
        # text holds the rows it prints, to size its columns; csv holds none
        units = [u for u in units if args.all_rows or u[7]]
    # value and residual are num / two_den; each cell renders at six places
    # as BigFixed does, with no record built per cell
    rows = (
        [str(n), str(m), _fixed_to_string(_div_nearest(total * 10**6, two_den), 6), str(nearest),
         _fixed_to_string(_div_nearest(residual * 10**6, two_den), 6), _BOOL[mod7],
         "" if predicted is None else str(predicted), _BOOL[flagged]]
        for n, m, total, nearest, residual, mod7, predicted, flagged in units
    )
    title = None if args.quiet or args.format != "text" else (
        f"combinations n*pi + m*e with |n|, |m| <= {args.max}; {sum(u[7] for u in units)} of "
        f"{(2 * args.max + 1) ** 2 - 1} rows within {args.threshold} of an integer"
        + ("" if args.all_rows else " (shown; --all-rows for the rest)"))
    _emit(args, ["n", "m", "value", "nearest", "residual", "mod7", "predicted", "flagged"], rows,
          {"n", "m", "nearest", "mod7", "predicted", "flagged"}, text=title, table=rows)
    return 0


# ---------------------------------------------------------------------------
# compare


def cmd_compare(args) -> int:
    from .accel import compare_expansions
    rows = [
        [str(r.k), _rational_to_digits(r.e_term), _rational_to_digits(r.two_pi_term),
         r.running.to_decimal_string(), r.distance_to_9.to_decimal_string()]
        for r in compare_expansions(args.rows, scale=args.scale)
    ]
    _emit(args, ["k", "e_term", "two_pi_term", "running_sum", "distance_to_9"], rows,
          text=None if args.quiet else "e expansion (3 - 1/3 + 1/24 + ...) against 2*pi "
                                       "(6 + 1/3 - 3/70 - ...); running sum tracks e + 2*pi",
          table=rows)
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
    p.add_argument("--terms",
                   help="term count, or 'auto' to invert the tail bound (default)")
    p.add_argument("--max-terms", type=int)
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
        # verify checks its own, higher floor
        if args.command != "verify" and getattr(args, "digits", 1) < 1:
            raise ValueError("digits must be >= 1")
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has gone: point fd 1 at devnull, so the flush at
        # interpreter exit finds nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the output ended", file=sys.stderr)
        return 1
    except NoCertifiedResult as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as exc:
        # str() of a KeyError quotes its message
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) and exc.args else exc}",
              file=sys.stderr)
        return 2

if __name__ == "__main__":
    sys.exit(main())
