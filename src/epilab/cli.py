"""Command-line front end: every operation as a scriptable command.

Commands: compute, table, verify, cfrac, stirling, scan, compare.
Output formats: text (default), csv (always with a header row), json
(numbers as exact decimal strings).  Identical invocations produce
byte-identical output; --quiet drops everything except the payload.

Each command builds its output once, as rows of string cells under named
columns, each decimal among them rounded from the library's exact
integers by one function, _places, and hands them to one emitter, _emit,
which alone looks at --format: csv writes the cells as they are, json
writes them as records through one writer in json.dumps(indent=2)'s
layout, and text prints the command's own layout or the rows as a
table.  A command names its literal columns, whose cells are json
literals (integers, true, false; the empty cell is null); every other
cell is a json string.

parse_args reads argv as argparse did, against one option table
(build_parser): each argument's kind, default, floor and help.  It
raises a ValueError for each usage error, and loads no argparse.

Exit codes: 0 success, and --help; 1 when a well-formed input has no
certified result (an error derived from oracle.NoCertifiedResult: the
value is undefined, such as a root of a negative number or a division by
zero, an exp argument lies outside |x| <= 100, the precision cap is
reached, or a series cannot reach the precision within its term cap), or
when stdout closes before the output ends or cannot be written (any
OSError: the commands do no other I/O); 2 for usage errors
(ValueError or KeyError): an unknown command or option, a missing or bad
value, one below its option's floor, an unparsable expression.  Anything
else is a fault and ends in a traceback.  main maps each error to its
code; verify alone also returns 1, after its output, when a relation
failed or is not certified.  Every non-zero exit writes one error: line
to stderr.

main() with no argument reads sys.argv and is the program: once the
command has run it calls gc.freeze(), so interpreter exit collects no
object alive then.  main(argv) with a list never touches the collector.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from .bignum import (_div_nearest, _fixed_to_string, _rational_to_digits, ceil_div, floor_div,
                     root_interval)
from .oracle import _FORMS, NoCertifiedResult, constant_reference, e_interval, exp_interval

# series, expr, registry, derive, stirling and accel are imported inside
# the commands that run them, and csv and json inside the code that needs
# them: every command is a fresh process, and pays for its imports.  The
# library hands the commands integers and pairs (p, q), so only stirling
# --op e-half, whose surd is built on Fractions, loads fractions

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
    if isinstance(payload, list):
        return "".join(_json_list(payload, literal))
    return _json_record(payload, literal, "", _quote())


def _quote():
    """json's own string encoder, without the json package and the re it loads."""
    try:
        from _json import encode_basestring_ascii
    except ImportError:  # an interpreter without json's C accelerator
        from json.encoder import encode_basestring_ascii
    return encode_basestring_ascii


def _json_list(records, literal=()):
    """_json of a list of records, one record a piece: a long list is never held whole."""
    quote = _quote()  # once, not once per record
    head = "["
    for record in records:
        yield f"{head}\n  {_json_record(record, literal, '  ', quote)}"
        head = ","
    yield "[]" if head == "[" else "\n]"


def _json_record(pairs, literal, pad: str, quote) -> str:
    """_json of one record, each line after the first indented by pad."""
    def value(key, cell, pad):
        if isinstance(cell, list):
            inner = pad + "  "
            items = f",\n{inner}".join(value(key, c, inner) for c in cell)
            return f"[\n{inner}{items}\n{pad}]" if cell else "[]"
        return (cell or "null") if key in literal else quote(cell)

    inner = pad + "  "
    body = f",\n{inner}".join(
        f"{quote(k)}: {value(k, c, inner)}"
        for k, c in (pairs.items() if isinstance(pairs, dict) else pairs))
    return f"{{\n{inner}{body}\n{pad}}}" if body else "{}"


def _emit(args, columns, rows, literal=(), *, payload=None, text=None, table=None) -> None:
    """Write a command's output in the format asked for.

    rows are lists of string cells under columns (any iterable: csv and
    json stream them).  csv writes them under a header row; json writes
    them as a list of records, or writes payload in their place when the
    command's json has another shape, a dict or a list of records (see
    _json).  text prints text, the command's own layout, when given, and
    then table, rows for a text table, when given: each column as wide as
    its widest cell, header included, two spaces apart.
    """
    if args.format == "json" and isinstance(payload, dict):
        print(_json(payload, literal))
    elif args.format == "json":
        sys.stdout.writelines(_json_list(
            (zip(columns, row) for row in rows) if payload is None else payload, literal))
        print()
    elif args.format == "csv":
        # here, not at the top: text output never needs it; csv.writer is
        # _csv's, and the csv module around it loads re
        import _csv
        writer = _csv.writer(sys.stdout, lineterminator="\n")
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


def _places(num: int, den: int, places: int, rounding=_div_nearest) -> str:
    """num/den, den > 0, at `places` decimals: to nearest with ties away
    from zero, or by floor_div or ceil_div.  Every decimal the commands
    print is rounded here.  A num already on the grid, den = 10**places,
    is every rounding of itself, and is rendered with no division."""
    unit = 10**places
    return _fixed_to_string(num if den == unit else rounding(num * unit, den), places)


# ---------------------------------------------------------------------------
# compute


def cmd_compute(args) -> int:
    digits = args.digits
    terms = ""
    # both methods give bounds lo <= constant * den <= hi
    if args.method == "oracle" and args.terms is None:
        lo, hi, den = constant_reference(args.constant, digits)
        # on its grid, den = 10**(digits + 3): the midpoint floored at
        # `digits` places, and hi/den less that value, over den
        value = (lo + hi) // 2000
        error = hi - 1000 * value, den
    else:
        # the series are loaded only where a series or --terms is named
        from .series import DEFAULT_MAX_TERMS, builtin, builtin_names, partial_sum, terms_needed
        # the series of e for e, those of pi and its forms for pi
        allowed = ("oracle", *[n for n in builtin_names()
                               if (builtin(n).constant == "e") == (args.constant == "e")])
        if args.method not in allowed:
            raise ValueError(
                f"method {args.method!r} not valid for {args.constant}; "
                f"choose from {', '.join(allowed)}"
            )
        if args.terms is not None and args.terms > DEFAULT_MAX_TERMS:
            raise ValueError(f"--terms must be <= {DEFAULT_MAX_TERMS}")
        if args.method == "oracle":
            raise ValueError("--terms applies only to a series --method")
        spec = builtin(args.method)
        last = (terms_needed(spec, digits + 1) if args.terms is None
                else spec.start_index + args.terms - 1)
        result = partial_sum(spec, last)
        terms = str(result.terms_used - spec.start_index + 1)
        (vp, vq), (rp, rq) = result.value, result.bound
        num, rad = vp * rq, rp * vq
        lo, hi, den = num - rad, num + rad, vq * rq
        # the series sums f * c**k, c being pi or e: divide by f, take the k-th root
        k, f = _FORMS[spec.constant]
        den *= f
        if k > 1:
            lo, hi, den = root_interval(max(lo, 0), hi, den, k, digits + 6)
        value = floor_div((lo + hi) * 10**digits, 2 * den)
        error = hi * 10**digits - value * den, den * 10**digits
    # the midpoint is positive, so rounding it down makes the rendered
    # digits a prefix of its decimal expansion, which is what "value to N
    # digits" means here; the value printed is at most the midpoint, so
    # the error is at most hi/den - value
    cells = {"constant": args.constant, "method": args.method, "digits": str(digits),
             "terms": terms, "value": _places(value, 10**digits, digits),
             "error_bound": _places(*error, digits + 4, ceil_div)}
    text = cells["value"] if args.quiet else "\n".join([
        f"{args.constant} = {cells['value']}", f"method = {args.method}",
        *([f"terms = {terms}"] if terms else []), f"error <= {cells['error_bound']}"])
    _emit(args, list(cells), [list(cells.values())], {"digits", "terms"}, payload=cells, text=text)
    return 0


# ---------------------------------------------------------------------------
# table


def cmd_table(args) -> int:
    from .series import EXACT_TERM_LIMIT, builtin, convergence_table
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

    # the value and error round to nearest, the bound up
    rows = [[str(r.n), _places(*r.value, args.scale), _places(*r.abs_error, 25),
             _places(*r.bound, 25, ceil_div), str(r.digits_correct)]
            for r in convergence_table(spec, checkpoints)]
    _emit(args, ["n", "value", "abs_error", "bound", "digits_correct"], rows,
          text=None if args.quiet else f"series = {spec.name} (limit: {spec.constant})",
          table=rows)
    return 0


# ---------------------------------------------------------------------------
# verify


def _verify_cells(r) -> list[str]:
    """A report's decimal cells: lhs and rhs at precision_used places, and
    the residual lhs - rhs and |lhs - rhs| / |rhs| at ten places more."""
    d, unit, residual = r.precision_used, 10 ** (r.precision_used + 2), r.lhs_units - r.rhs_units
    return [_places(r.lhs_units, unit, d), _places(r.rhs_units, unit, d),
            _places(residual, unit, d + 10), _places(abs(residual), abs(r.rhs_units), d + 10)]


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
        [r.relation_id, r.paper_eq, *_verify_cells(r),
         str(r.digits_of_agreement), str(r.precision_used), _BOOL[r.certified]]
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
    from .expr import cfrac, parse, to_text
    expr = parse(args.expr)
    # a quotient can pass the 4,300 digits str() converts, so each is
    # rendered in pieces
    quotients = [_rational_to_digits(q) for q in cfrac(expr, args.terms)]
    shown = to_text(expr)
    text = " ".join(quotients)
    _emit(args, ["index", "quotient"], ([str(i), q] for i, q in enumerate(quotients)),
          {"quotients"}, payload={"expr": shown, "quotients": quotients},
          text=text if args.quiet else f"expr = {shown}\n{text}")
    return 0


# ---------------------------------------------------------------------------
# stirling


def _rel_error(value: int, scale: int, lo: int, hi: int, den: int) -> str:
    """ceil(max |a - x| / min x, over x in [lo/den, hi/den]) at ten
    places, a being value * 10**-scale, for lo > 0."""
    a, u = value * den, 10**scale
    return _places(max(abs(a - lo * u), abs(a - hi * u)), lo * u, 10, ceil_div)


def cmd_stirling(args) -> int:
    from .stirling import (STIRLING_COEFFS, e_from_ratio, e_half_integer, e_power_approx,
                           stirling_e8_decomposition)
    scale = (4 if args.op == "e-half" else 10) if args.scale is None else args.scale
    if args.op == "e8" and (args.n, args.k) != (None, None):
        raise ValueError("--n and --k apply only to --op approx, ratio and e-half")
    n, k = 1 if args.n is None else args.n, 2 if args.k is None else args.k
    # the library checks these ranges too, but names its parameters n and k
    least_n, top_k = (0, 2) if args.op == "e-half" else (1, len(STIRLING_COEFFS))
    if n < least_n:
        raise ValueError(f"--n must be >= {least_n}")
    if not 1 <= k <= top_k:
        raise ValueError(f"--k must be in 1..{top_k}")
    if args.op == "e-half":
        s = e_half_integer(n, k)
        p, q = s.squared().as_fraction().as_integer_ratio()
        cells = {"op": "e-half", "n": str(n), "k": str(k), "surd": str(s),
                 "squared": _rational_to_digits(p, q), "squared_decimal": _places(p, q, scale)}
        text = f"{s}; squared = {cells['squared']} ≈ {cells['squared_decimal']}"
    elif args.op in ("approx", "ratio"):
        # bounds lo <= x * den <= hi on the true value x
        if args.op == "approx":
            # the target first: its range check names why a large n fails
            lo, hi, den = exp_interval(n, 1, scale + 10)
            a_lo, a_hi, a_den = e_power_approx(n, k, scale + 2)
            name = f"e^{n}"
        else:
            a_lo, a_hi, a_den = e_from_ratio(n, k, scale + 2)
            lo, hi, den = e_interval(scale + 10)
            name = "e"
        # each midpoint prints rounded to nearest; the error is that of the value printed
        value = _div_nearest((a_lo + a_hi) * 10**scale, 2 * a_den)
        cells = {"op": args.op, "n": str(n), "k": str(k), "value": _places(value, 10**scale, scale),
                 "target": _places(lo + hi, 2 * den, scale),
                 "rel_error": _rel_error(value, scale, lo, hi, den)}
        text = f"{name} ≈ {cells['value']}  (true {cells['target']}, " \
               f"rel error {cells['rel_error']})"
    else:  # e8: each field of the decomposition is a cell under its own name
        d = stirling_e8_decomposition(scale + 2)
        cells = {"op": "e8"}
        for name in ("e8", "value_96pi3", "base_64pi3", "correction", "gap_from_3_2", "ratio"):
            v = getattr(d, name)  # an enclosure (lo, hi, den), or an exact pair (p, q)
            cells[name] = (_places(v[0] + v[1], 2 * v[2], scale) if len(v) == 3
                           else _rational_to_digits(*v))
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


def _digit_groups(text: str) -> bool:
    """text is one or more decimal digits, single underscores between them."""
    return all(group.isdecimal() for group in text.split("_"))


def _rational(text: str) -> tuple[int, int, int]:
    """Fraction(text) as (p, q, k), the value p/q * 10**k with q > 0 and
    |p|, q < 10**len(text), read without fractions and the re it loads,
    for the text Python 3.11's Fraction reads: within whitespace, a sign,
    then n/d, or a decimal with a digit or a point and a digit first and
    an optional exponent k; digits are any decimal digits, in groups
    joined by single underscores.  Other text raises ValueError, and n/0
    ZeroDivisionError, as Fraction does."""
    body = text.strip()
    sign = -1 if body[:1] == "-" else 1
    body = body[1:] if body[:1] in ("-", "+") else body
    num, slash, den = body.partition("/")
    if slash:
        if not (_digit_groups(num) and _digit_groups(den)):
            raise ValueError(f"invalid literal {text!r}")
        if int(den) == 0:
            raise ZeroDivisionError(f"{text!r} divides by zero")
        return sign * int(num), int(den), 0
    mantissa, e, exp = body.replace("E", "e").partition("e")
    whole, _, frac = mantissa.partition(".")
    if not ((whole or frac) and all(_digit_groups(part) for part in (whole, frac) if part)
            and (not e or _digit_groups(exp[1:] if exp[:1] in ("-", "+") else exp))):
        raise ValueError(f"invalid literal {text!r}")
    frac = frac.replace("_", "")
    p, q = int(whole or "0") * 10 ** len(frac) + int(frac or "0"), 10 ** len(frac)
    return sign * p, q, int(exp) if e else 0


def cmd_scan(args) -> int:
    from .derive import scan_units
    try:
        p, q, k = _rational(args.threshold)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad --threshold {args.threshold!r}") from None
    # p/q is 0 or between 10**-size and 10**size, so the clamped k keeps a
    # threshold above 1/2 above it, and one below 10**-(digits + 20) below
    # that, where on the scan's grid of 10**-work, work < digits + 20, it
    # flags only an exact integer: the rows stay those of the exact value
    size = len(args.threshold)
    k = min(max(k, -(args.digits + 20 + size)), size + 1)
    two_den, units = scan_units(args.max, args.digits,
                                (p * 10**k, q) if k >= 0 else (p, q * 10**-k))
    if args.format == "text":
        # text holds the rows it prints, to size its columns; csv holds none
        units = [u for u in units if args.all_rows or u[7]]
    # value and residual are num / two_den, each printed at six places
    rows = (
        [str(n), str(m), _places(total, two_den, 6), str(nearest),
         _places(residual, two_den, 6), _BOOL[mod7],
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
    # each row is rendered as it is made, so its exact sums, with
    # thousands of digits at hundreds of rows, are freed once printed
    rows = (
        [str(r.k), _rational_to_digits(*r.e_term), _rational_to_digits(*r.two_pi_term),
         _places(*r.running, args.scale), _places(*r.distance_to_9, args.scale)]
        for r in compare_expansions(args.rows)
    )
    _emit(args, ["k", "e_term", "two_pi_term", "running_sum", "distance_to_9"], rows,
          text=None if args.quiet else "e expansion (3 - 1/3 + 1/24 + ...) against 2*pi "
                                       "(6 + 1/3 - 3/70 - ...); running sum tracks e + 2*pi",
          table=rows)
    return 0


# ---------------------------------------------------------------------------
# options


def build_parser() -> dict:
    """The option table: each command's function, help line and arguments
    (named for the argparse parser it replaced, as bench/run.py calls it).

    An argument maps its name, which has no dashes for a positional, to
    (kind, default, floor, help).  kind is int, str, bool (a flag) or a
    tuple of choices; a default of ... makes the argument required, and
    floor is the least value it takes.  A help text names the builtin
    series as {series}, which _help fills in: building the table loads no
    series, since every command builds it.
    """
    def common(digits=1):
        return {"--format": (("text", "csv", "json"), "text", None, ""),
                "--quiet": (bool, False, None, "suppress headers and metadata in text output"),
                **({"--digits": (int, 30, digits, "")} if digits else {})}

    return {
        "compute": (cmd_compute, "evaluate a constant by series or oracle", {
            "constant": (("pi", "e"), ..., None, ""),
            "--method": (str, "oracle", None, "oracle (default) or a series: {series}"),
            "--terms": (int, None, 1, "default: the fewest whose tail bound meets --digits"),
            **common()}),
        "table": (cmd_table, "convergence table for a builtin series", {
            "series": (str, ..., None, "one of: {series}"),
            "--checkpoints": (str, "10,100,1000", None, ""),
            "--scale": (int, 15, 0, "decimals in the value column"), **common(digits=0)}),
        "verify": (cmd_verify, "check registered coincidences", {
            "id": (str, None, None, "relation id, e.g. R03"),
            "--all": (bool, False, None, "verify the whole registry"), **common(digits=6)}),
        "cfrac": (cmd_cfrac, "certified continued fraction of an expression", {
            "expr": (str, ..., None, "expression text, e.g. 'exp(pi)'"),
            "--terms": (int, 7, 1, ""), **common(digits=0)}),
        "stirling": (cmd_stirling, "Stirling-series approximants of e", {
            "--op": (("approx", "ratio", "e-half", "e8"), ..., None, ""),
            "--n": (int, None, None, "default 1"), "--k": (int, None, None, "default 2"),
            "--scale": (int, None, 0, "decimal places (default 10; e-half's square: 4)"),
            **common(digits=0)}),
        "scan": (cmd_scan, "integer scan of n*pi + m*e", {
            "--max": (int, 10, 1, ""), "--threshold": (str, "0.06", None, ""),
            "--all-rows": (bool, False, None, "text output: include rows that are not flagged"),
            **common()}),
        "compare": (cmd_compare, "e and 2*pi expansions side by side", {
            "--rows": (int, 8, 1, ""), "--scale": (int, 10, 0, ""), **common(digits=0)}),
    }


def _help(args) -> int:
    """Print --help: every command, or every argument of args.command."""
    table = build_parser()
    if args.command is None:
        print("usage: epilab COMMAND [options]  (epilab COMMAND --help lists them)\n\n"
              "Certified arithmetic playground for coincidences of e and pi.\n")
        for name, (_, about, _) in table.items():
            print(f"  {name:9s} {about}")
        return 0
    from .series import builtin_names
    series = ", ".join(builtin_names())
    _, about, arguments = table[args.command]
    print(f"usage: epilab {args.command} [options]\n\n{about}\n")
    for name, (kind, default, floor, text) in arguments.items():
        text = text.replace("{series}", series)
        meta = ("{%s}" % ",".join(kind) if isinstance(kind, tuple)
                else {int: "N", str: "TEXT", bool: ""}[kind])
        shown = kind is not bool and default is not None and "default" not in text
        notes = [text, "required" if default is ... else f"default {default}" if shown else "",
                 "" if floor is None else f">= {floor}"]
        print(f"  {name + ' ' + meta:30s} {'; '.join(filter(None, notes))}".rstrip())
    print("  -h, --help")
    return 0


def _option(arg: str, names) -> str:
    """The name in names that argv word arg gives, whole or as a unique
    prefix, before any =value; -- gives itself, and a value gives "": as
    argparse read one, a word not led by -, - itself, a negative number or
    a word with a space."""
    # a negative number is -\d+ or -\d*\.\d+, \d any Unicode decimal digit
    head, dot, tail = arg[1:].partition(".")
    if arg[:1] != "-" or arg == "-" or (head == "" or head.isdecimal()) and (
            tail if dot else head).isdecimal():
        return ""
    key = arg.partition("=")[0]
    hits = [arg] if arg == "--" else [key] if key in names else [
        n for n in names if key[:2] == "--" and n.startswith(key)]
    if len(hits) > 1 or not hits and " " not in arg:
        raise ValueError(f"ambiguous option {key}: {', '.join(hits)}" if hits
                         else f"unknown option {key}")
    return hits[0] if hits else ""


def parse_args(argv) -> SimpleNamespace:
    """argv read against the option table: each argument under its name
    without dashes (--all-rows is all_rows), the command, and func, which
    runs it.  A usage error is a ValueError; -h or --help (or a prefix)
    before any -- runs _help in place of the command, whatever else argv
    holds, as argparse did."""
    table = build_parser()
    command = argv[0] if argv and argv[0] in table else None
    rest, words = argv[1:] if command else argv, []
    if any(a == "-h" or len(a) > 2 and "--help".startswith(a)
           for a in (rest[:rest.index("--")] if "--" in rest else rest)):
        return SimpleNamespace(command=command, func=_help)
    if command is None:
        raise ValueError(f"{f'unknown command {argv[0]!r}' if argv else 'no command'}; "
                         f"choose from {', '.join(table)}")
    func, _, arguments = table[command]
    values = {name: default for name, (_, default, *_) in arguments.items()}
    rest = iter(rest)
    for arg in rest:
        name = _option(arg, arguments)  # a positional's name never matches
        if name in ("", "--"):  # a positional, or -- before the rest of them
            words += rest if name else [arg]
        elif arguments[name][0] is bool:
            if "=" in arg:
                raise ValueError(f"{name} takes no value")
            values[name] = True
        else:
            values[name] = arg.partition("=")[2] if "=" in arg else next(rest, None)
            if values[name] is None or "=" not in arg and _option(values[name], arguments):
                raise ValueError(f"{name} needs a value")
    free = [n for n in arguments if n[0] != "-"]
    if len(words) > len(free):
        raise ValueError(f"unexpected argument {words[len(free)]!r}")
    values.update(zip(free, words))
    # the last of a repeated option wins, so values are checked at the end
    for name, (kind, _, floor, _) in arguments.items():
        value = values[name]
        if value is ... or isinstance(kind, tuple) and value not in kind:
            raise ValueError(f"missing {name}" if value is ... else
                             f"bad {name} {value!r}; choose from {', '.join(kind)}")
        if kind is int and isinstance(value, str):
            try:
                value = values[name] = int(value)
            except ValueError:
                raise ValueError(f"bad {name} {value!r}; expected an integer") from None
        if floor is not None and value is not None and value < floor:
            raise ValueError(f"{name} must be >= {floor}")
    return SimpleNamespace(command=command, func=func,
                           **{n.lstrip("-").replace("-", "_"): v for n, v in values.items()})


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except OSError as exc:
        # the commands do no I/O but stdout's, so a write failed, or the
        # reader has gone: point fd 1 at devnull, so the flush at
        # interpreter exit finds nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the output ended"
              if isinstance(exc, BrokenPipeError) else
              f"error: cannot write stdout: {exc.strerror or exc}", file=sys.stderr)
        return 1
    except NoCertifiedResult as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as exc:
        # str() of a KeyError quotes its message
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) and exc.args else exc}",
              file=sys.stderr)
        return 2
    finally:
        if argv is None:
            # the process ends next: frozen objects are skipped by the
            # collections that interpreter exit runs
            import gc
            gc.freeze()

if __name__ == "__main__":
    sys.exit(main())
