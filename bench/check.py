"""Independent checks of epilab's CLI output.

Every reference value here comes either from mpmath, at least twice the
precision of the command, or from a property the method must have (the
closed form of e's continued fraction, the exact terms of a series, the
row count of a scan).  Nothing here imports epilab and nothing compares
against a saved copy of earlier output, so a faster epilab that prints a
wrong digit or an unsound bound fails these checks.

Each ``check_*`` function takes the command's parameters and its stdout
and raises CheckFailed with a one-line reason when the output is wrong.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import re
import sys
from fractions import Fraction

import mpmath
from mpmath import mp

# References run to 8,000+ digits; this process is the checker, not epilab,
# so lifting CPython's int<->str limit here does not hide epilab's own fault.
sys.set_int_max_str_digits(0)


class CheckFailed(Exception):
    """The command's output disagrees with the independent reference."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# mpmath references


def _tokens(text: str) -> list[str]:
    return re.findall(r"\d+|[a-z]+|\S", text)


class _MpParser:
    """Recursive descent over epilab's expression grammar, built on mpmath.

    expr := term (('+'|'-') term)*;  term := unary (('*'|'/') unary)*;
    unary := '-' unary | power;  power := atom ('^' ['-'] integer)*;
    atom := integer | pi | e | (expr) | sqrt(expr) | root(k, expr) | exp(expr)
    """

    def __init__(self, text: str):
        self.toks = _tokens(text)
        self.i = 0

    def _peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def _next(self):
        tok = self._peek()
        if tok is None:
            raise ValueError("unexpected end of expression")
        self.i += 1
        return tok

    def _expect(self, tok):
        if self._next() != tok:
            raise ValueError(f"expected {tok!r}")

    def parse(self):
        value = self.expr()
        if self._peek() is not None:
            raise ValueError(f"trailing {self._peek()!r}")
        return value

    def expr(self):
        value = self.term()
        while self._peek() in ("+", "-"):
            value = value + self.term() if self._next() == "+" else value - self.term()
        return value

    def term(self):
        value = self.unary()
        while self._peek() in ("*", "/"):
            value = value * self.unary() if self._next() == "*" else value / self.unary()
        return value

    def unary(self):
        if self._peek() == "-":
            self._next()
            return -self.unary()
        return self.power()

    def power(self):
        value = self.atom()
        while self._peek() == "^":
            self._next()
            sign = -1 if self._peek() == "-" else 1
            if sign < 0:
                self._next()
            value = value ** (sign * int(self._next()))
        return value

    def atom(self):
        tok = self._next()
        if tok.isdigit():
            return mpmath.mpf(int(tok))
        if tok == "pi":
            return +mp.pi
        if tok == "e":
            return +mp.e
        if tok == "(":
            value = self.expr()
            self._expect(")")
            return value
        if tok in ("sqrt", "exp"):
            self._expect("(")
            value = self.expr()
            self._expect(")")
            return mpmath.sqrt(value) if tok == "sqrt" else mpmath.exp(value)
        if tok == "root":
            self._expect("(")
            k = int(self._next())
            self._expect(",")
            value = self.expr()
            self._expect(")")
            return mpmath.root(value, k)
        raise ValueError(f"unexpected token {tok!r}")


def to_fraction(x) -> Fraction:
    """The exact rational value of an mpf."""
    man, exp = mpmath.mpf(x).man_exp
    return Fraction(man * 2**exp) if exp >= 0 else Fraction(man, 2**-exp)


@functools.lru_cache(maxsize=None)
def true_value(text: str, digits: int) -> Fraction:
    """The expression's value with absolute error far below 10**-(2*digits).

    The working precision is twice the requested digits plus room for the
    integer part (exp(pi*sqrt(163)) has 18 integer digits).
    """
    with mp.workdps(2 * digits + 60):
        return to_fraction(_MpParser(text).parse())


def dec(text: str) -> Fraction:
    """An exact decimal literal as printed by epilab (no exponent form)."""
    _require(isinstance(text, str) and re.fullmatch(r"-?\d+(\.\d+)?", text) is not None,
             f"not a decimal literal: {str(text)[:40]!r}")
    return Fraction(text)


def _ulp(scale: int) -> Fraction:
    return Fraction(1, 10**scale)


def _scale_of(text: str) -> int:
    return len(text.split(".")[1]) if "." in text else 0


def _truncate(x: Fraction, digits: int) -> str:
    # the decimal expansion of a positive x cut after `digits` places
    q, r = divmod(x.numerator * 10**digits // x.denominator, 10**digits)
    return f"{q}.{r:0{digits}d}"


def neg_log10_floor(x: Fraction) -> int:
    """floor(-log10(x)) for x > 0, exactly: the largest k with x * 10**k <= 1."""
    k = len(str(x.denominator)) - len(str(x.numerator))
    while x * Fraction(10) ** (k + 1) <= 1:
        k += 1
    while x * Fraction(10) ** k > 1:
        k -= 1
    return k


# ---------------------------------------------------------------------------
# output parsing


def _json(stdout: str):
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from None


def _csv(stdout: str, columns: list[str]) -> list[dict]:
    rows = list(csv.reader(io.StringIO(stdout)))
    _require(bool(rows) and rows[0] == columns, f"csv header is not {columns}")
    _require(all(len(r) == len(columns) for r in rows[1:]), "csv row of the wrong width")
    return [dict(zip(columns, r)) for r in rows[1:]]


def _text_table(stdout: str, columns: list[str]) -> list[dict]:
    # the aligned text printer: optional preamble, a header row, then rows
    lines = stdout.splitlines()
    heads = [i for i, line in enumerate(lines) if line.split() == columns]
    _require(len(heads) == 1, "text table header not found")
    rows = [line.split() for line in lines[heads[0] + 1:]]
    _require(all(len(r) == len(columns) for r in rows), "text row of the wrong width")
    return [dict(zip(columns, r)) for r in rows]


def rows_of(stdout: str, fmt: str, columns: list[str]) -> list[dict]:
    """Table rows as dicts of strings, whichever format printed them."""
    if fmt == "csv":
        return _csv(stdout, columns)
    if fmt == "text":
        return _text_table(stdout, columns)
    data = _json(stdout)
    _require(isinstance(data, list), "json output is not a list")
    _require(all(isinstance(r, dict) and list(r) == columns for r in data),
             f"json rows do not have the keys {columns}")
    return [{k: "" if v is None else str(v).lower() if isinstance(v, bool) else str(v)
             for k, v in r.items()} for r in data]


def _close(printed: Fraction, true: Fraction, tol: Fraction, what: str) -> None:
    _require(abs(printed - true) <= tol,
             f"{what} off by {float(abs(printed - true)):.3g} (allowed {float(tol):.3g})")


# ---------------------------------------------------------------------------
# compute


def check_compute(constant: str, digits: int, fmt: str, stdout: str, *,
                  method: str = "oracle", terms: int | None = None) -> None:
    """The printed digits are a prefix of the true expansion and the printed
    bound is at least the true error (and at most 2 ulp, so it says something)."""
    if fmt == "json":
        d = _json(stdout)
        _require(isinstance(d, dict), "json output is not an object")
        fields = {k: d.get(k) for k in ("constant", "method", "digits", "terms")}
        value, bound = d.get("value"), d.get("error_bound")
    elif fmt == "csv":
        rows = _csv(stdout, ["constant", "method", "digits", "terms", "value", "error_bound"])
        _require(len(rows) == 1, "compute csv must have one row")
        r = rows[0]
        fields = {"constant": r["constant"], "method": r["method"],
                  "digits": int(r["digits"]), "terms": int(r["terms"]) if r["terms"] else None}
        value, bound = r["value"], r["error_bound"]
    else:
        kv = dict(line.split(" = ", 1) for line in stdout.splitlines() if " = " in line)
        m = re.search(r"^error <= (\S+)$", stdout, re.M)
        _require(m is not None and constant in kv, "text output lacks value or bound")
        fields = {"constant": constant, "method": kv.get("method"), "digits": digits,
                  "terms": int(kv["terms"]) if "terms" in kv else None}
        value, bound = kv[constant], m.group(1)
    expected_fields = {"constant": constant, "method": method, "digits": digits}
    _require(all(fields[k] == v for k, v in expected_fields.items()),
             f"header fields {fields} do not echo the request")
    if terms is not None:
        _require(fields["terms"] == terms, f"terms {fields['terms']} != {terms}")
    _require(isinstance(value, str) and isinstance(bound, str), "value or bound missing")
    true = true_value(constant, digits)
    _require(_scale_of(value) == digits, f"value has {_scale_of(value)} places, not {digits}")
    want = _truncate(true, digits)
    if value != want:
        at = next(i for i, (a, b) in enumerate(zip(value, want)) if a != b)
        raise CheckFailed(f"{constant} digit {at - 1} is {value[at]!r}, true {want[at]!r}")
    err, b = abs(dec(value) - true), dec(bound)
    _require(b >= err, f"bound {bound[:30]}... below the true error {float(err):.3g}")
    _require(b <= 2 * _ulp(digits), f"bound {float(b):.3g} is looser than 2e-{digits}")


# ---------------------------------------------------------------------------
# verify

#: the coincidence catalog: id, lhs, rhs, minimum working digits
RELATIONS = (
    ("R01", "pi^2 / (4*e - 1)", "1", 6),
    ("R02", "163*(pi - e)", "69", 6),
    ("R03", "(pi^4 + pi^5)/e^6", "1", 6),
    ("R04", "pi^9/e^8", "10", 6),
    ("R05", "exp(pi) - pi", "20", 6),
    ("R06", "pi^2 * root(2, (pi - e)^3) / e", "1", 6),
    ("R07", "exp(pi * sqrt(163))", "640320^3 + 744", 45),
    ("R08", "e + 2*pi", "9", 6),
    ("R09", "pi^2 + 8*pi", "35", 6),
    ("R10", "sqrt(51) - 4", "pi", 6),
    ("R11", "512/163", "pi", 6),
    ("R12", "pi^2 + pi", "13", 6),
    ("R13", "4*e + pi", "14", 6),
    ("R14", "e^3", "20", 6),
    ("R15", "pi^3", "31", 6),
    ("R16", "pi^6", "960", 6),
    ("R17", "e^8", "96*pi^3", 6),
    ("R18", "exp(pi)", "20 + pi", 6),
    ("R19", "27*pi^8*(pi - 3)^3/(pi^2*e)^2", "1", 6),
    ("R20", "pi^2*e", "27", 6),
)

_VERIFY_COLUMNS = ["id", "paper_eq", "lhs", "rhs", "abs_residual", "rel_residual",
                   "digits_of_agreement", "precision_used", "certified"]
_VERIFY_TEXT = re.compile(r"^(R\d\d)  (\w+) +digits_of_agreement= *(\d+)  "
                          r"lhs=(\S+)  residual=(\S+)$")


def check_verify_all(digits: int, fmt: str, stdout: str) -> None:
    """Each lhs, rhs, residual and digits_of_agreement matches the true
    values, and every relation is certified.

    epilab rounds each side to d+2 places and then the reported sides to
    d, so each side is within 0.555 ulp at d places and the residual
    within 0.11 ulp; the tolerances below are 0.6 and 0.2 ulp.
    """
    if fmt == "text":
        rows = []
        for line in stdout.splitlines():
            m = _VERIFY_TEXT.match(line)
            _require(m is not None, f"unparsable verify line {line[:60]!r}")
            rows.append({"id": m[1], "certified": str(m[2] == "certified").lower(),
                         "digits_of_agreement": m[3], "lhs": m[4], "abs_residual": m[5]})
    else:
        rows = rows_of(stdout, fmt, _VERIFY_COLUMNS)
    _require([r["id"] for r in rows] == [rel[0] for rel in RELATIONS],
             "relation ids are not R01..R20 in order")
    for row, (rid, lhs, rhs, min_digits) in zip(rows, RELATIONS):
        d = max(digits, min_digits)
        ulp = _ulp(d)
        L, R = true_value(lhs, d), true_value(rhs, d)
        res = L - R
        rel = abs(res) / abs(R)
        _require(row["certified"] == "true", f"{rid} is not certified")
        _close(dec(row["lhs"]), L, ulp * 6 / 10, f"{rid} lhs")
        _close(dec(row["abs_residual"]), res, ulp * 2 / 10, f"{rid} residual")
        agreement = min(d, max(0, neg_log10_floor(rel)))
        _require(int(row["digits_of_agreement"]) == agreement,
                 f"{rid} digits_of_agreement {row['digits_of_agreement']} != {agreement}")
        if fmt != "text":
            _require(int(row["precision_used"]) == d, f"{rid} precision_used != {d}")
            _close(dec(row["rhs"]), R, ulp * 6 / 10, f"{rid} rhs")
            _close(dec(row["rel_residual"]), rel, ulp * 2 / 10 / abs(R) + _ulp(d + 10),
                   f"{rid} rel_residual")


# ---------------------------------------------------------------------------
# cfrac


def _cf_prefix(x: Fraction, limit: int) -> list[int]:
    out = []
    p, q = x.numerator, x.denominator
    while q and len(out) < limit:
        a, r = divmod(p, q)
        out.append(a)
        p, q = q, r
    return out


@functools.lru_cache(maxsize=None)
def true_cfrac(text: str, terms: int) -> tuple[int, ...]:
    """The first `terms` partial quotients, certified by mpmath.

    Both ends of a tiny interval around mpmath's value are expanded by
    Euclid's algorithm; the quotients they share belong to every number
    between them.  Precision doubles until `terms` are shared.
    """
    digits = 2 * terms + 40
    while True:
        x = true_value(text, digits)
        r = Fraction(1, 10 ** (2 * digits))
        lo, hi = _cf_prefix(x - r, terms), _cf_prefix(x + r, terms)
        common = 0
        while common < min(len(lo), len(hi)) and lo[common] == hi[common]:
            common += 1
        if common >= terms:
            return tuple(lo[:terms])
        digits *= 2


def e_cfrac_closed_form(terms: int) -> list[int]:
    """e = [2; 1, 2, 1, 1, 4, 1, 1, 6, ...]."""
    return [2] + [2 * (i + 1) // 3 if i % 3 == 2 else 1 for i in range(1, terms)]


def check_cfrac(text: str, terms: int, fmt: str, stdout: str) -> None:
    """The quotients match the continued fraction of mpmath's value, and
    for e its closed form."""
    if fmt == "json":
        d = _json(stdout)
        _require(isinstance(d, dict) and isinstance(d.get("quotients"), list),
                 "json output lacks quotients")
        got = d["quotients"]
    elif fmt == "csv":
        rows = _csv(stdout, ["index", "quotient"])
        _require([r["index"] for r in rows] == [str(i) for i in range(len(rows))],
                 "csv indexes are not 0..n-1")
        got = [int(r["quotient"]) for r in rows]
    else:
        lines = stdout.splitlines()
        _require(len(lines) == 2 and lines[0].startswith("expr = "), "text output is not two lines")
        got = [int(t) for t in lines[1].split()]
    _require(len(got) == terms, f"{len(got)} quotients, asked for {terms}")
    want = list(true_cfrac(text, terms))
    if text == "e":
        _require(want == e_cfrac_closed_form(terms), "mpmath disagrees with e's closed form")
    if got != want:
        at = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
        raise CheckFailed(f"cfrac({text}) quotient {at} is {got[at]}, true {want[at]}")


# ---------------------------------------------------------------------------
# table


_SERIES = {
    # name: (limit expression, first index, term n -> mpf)
    "zeta8": ("pi^8", 1, lambda n: 9450 / mpmath.mpf(n) ** 8),
    "gregory-leibniz": ("pi", 0, lambda n: mpmath.mpf(4 * (-1) ** n) / (2 * n + 1)),
}


@functools.lru_cache(maxsize=None)
def partial_sums(name: str, points: tuple[int, ...]) -> dict[int, Fraction]:
    """Partial sums through each index, by plain summation at 80 digits
    (10^4 additions leave an error below 1e-70)."""
    _, start, term = _SERIES[name]
    out = {}
    with mp.workdps(80):
        total = mpmath.mpf(0)
        n = start
        for point in sorted(points):
            while n <= point:
                total += term(n)
                n += 1
            out[point] = to_fraction(total)
    return out


def check_table(name: str, checkpoints: list[int], fmt: str, stdout: str, *,
                scale: int = 15) -> None:
    """bound >= abs_error, and abs_error (and the value) match the true
    error of the partial sum."""
    rows = rows_of(stdout, fmt, ["n", "value", "abs_error", "bound", "digits_correct"])
    points = sorted(set(checkpoints))
    _require([int(r["n"]) for r in rows] == points, "table rows are not the checkpoints")
    limit = true_value(_SERIES[name][0], 40)
    sums = partial_sums(name, tuple(points))
    tiny = _ulp(60)
    for r in rows:
        n = int(r["n"])
        s = sums[n]
        err = abs(s - limit)
        _close(dec(r["value"]), s, _ulp(scale) / 2 + tiny, f"{name} value at {n}")
        _close(dec(r["abs_error"]), err, _ulp(25) / 2 + tiny, f"{name} abs_error at {n}")
        _require(dec(r["bound"]) >= err, f"{name} bound at {n} is below the true error")
        _require(int(r["digits_correct"]) == max(0, neg_log10_floor(err / limit)),
                 f"{name} digits_correct at {n}")


# ---------------------------------------------------------------------------
# scan

_SCAN_COLUMNS = ["n", "m", "value", "nearest", "residual", "mod7", "predicted", "flagged"]


def check_scan(max_coeff: int, fmt: str, stdout: str) -> None:
    """(2N+1)^2 - 1 rows, one per (n, m); nearest and residual match the
    true n*pi + m*e; flagged iff |residual| < 0.06; predicted is
    (22n + 19m)/7 exactly when 7 divides n - 2m."""
    rows = rows_of(stdout, fmt, _SCAN_COLUMNS)
    want = (2 * max_coeff + 1) ** 2 - 1
    _require(len(rows) == want, f"{len(rows)} scan rows, expected {want}")
    scale = 10**50  # pi and e as integers scaled by 10^50
    P = true_value("pi", 30).numerator * scale // true_value("pi", 30).denominator
    E = true_value("e", 30).numerator * scale // true_value("e", 30).denominator
    half, threshold = scale // 2, 6 * scale // 100
    # printed to 6 places from an enclosure about 1e-28 wide
    slack = scale // (2 * 10**6) + scale // 10**25
    seen = set()
    for r in rows:
        n, m = int(r["n"]), int(r["m"])
        _require(abs(n) <= max_coeff and abs(m) <= max_coeff and (n, m) != (0, 0)
                 and (n, m) not in seen, f"scan row ({n}, {m}) out of range or repeated")
        seen.add((n, m))
        v = n * P + m * E  # within 10^-47 of the true value
        nearest = (v + half) // scale
        residual = v - nearest * scale
        _require(int(r["nearest"]) == nearest, f"scan ({n}, {m}) nearest {r['nearest']} != {nearest}")
        for col, true in (("value", v), ("residual", residual)):
            printed = dec(r[col])
            _require(abs(printed * scale - true) <= slack, f"scan ({n}, {m}) {col} {r[col]} is off")
        _require(r["flagged"] == str(abs(residual) < threshold).lower(),
                 f"scan ({n}, {m}) flagged is wrong")
        mod7 = (n - 2 * m) % 7 == 0
        _require(r["mod7"] == str(mod7).lower(), f"scan ({n}, {m}) mod7 is wrong")
        predicted = str((22 * n + 19 * m) // 7) if mod7 else ""
        _require(r["predicted"] == predicted, f"scan ({n}, {m}) predicted is wrong")


# ---------------------------------------------------------------------------
# compare and stirling


def _compare_terms(k: int) -> tuple[Fraction, Fraction]:
    # e as 3 - 1/3 + 1/4! + 1/5! + ...; 2*pi as 6 + 1/3 - 3/(n(n+1)(4n+1)(4n+3))
    if k == 1:
        return Fraction(3), Fraction(6)
    if k == 2:
        return Fraction(-1, 3), Fraction(1, 3)
    n = k - 2
    return Fraction(1, math.factorial(k + 1)), Fraction(-3, n * (n + 1) * (4 * n + 1) * (4 * n + 3))


def check_compare(rows_wanted: int, fmt: str, stdout: str, *, scale: int = 10) -> None:
    """Every term is the series' own; the running sums and distances are
    rounded correctly; the last distance to 9 agrees with e + 2*pi - 9 to
    within the printed scale plus the two tail bounds."""
    rows = rows_of(stdout, fmt, ["k", "e_term", "two_pi_term", "running_sum", "distance_to_9"])
    _require([int(r["k"]) for r in rows] == list(range(1, rows_wanted + 1)),
             f"compare rows are not 1..{rows_wanted}")
    running = Fraction(0)
    half = _ulp(scale) / 2
    for r in rows:
        k = int(r["k"])
        et, pt = _compare_terms(k)
        _require(Fraction(r["e_term"]) == et and Fraction(r["two_pi_term"]) == pt,
                 f"compare terms at k={k} are wrong")
        running += et + pt
        _close(dec(r["running_sum"]), running, half, f"compare running_sum at k={k}")
        _close(dec(r["distance_to_9"]), abs(running - 9), half, f"compare distance at k={k}")
    k = rows_wanted
    if k >= 3:
        # e tail after 1/(k+1)! is below 2/(k+2)!; each 2*pi term after
        # n = k - 2 is below 3/(16 n^4), so that tail is below 1/(16 n^3)
        tail = Fraction(2, math.factorial(k + 2)) + Fraction(1, 16 * (k - 2) ** 3)
        gap = true_value("e + 2*pi - 9", 30)
        _close(dec(rows[-1]["distance_to_9"]), gap, _ulp(scale) + tail, "last distance to 9")


def check_stirling_e8(fmt: str, stdout: str, *, scale: int = 10) -> None:
    """e^8, 96 pi^3, 64 pi^3 and their ratio agree with the true values to
    half an ulp at the printed scale; the correction is (13/12)^4 (25/24)^2."""
    if fmt == "json":
        d = _json(stdout)
        _require(isinstance(d, dict), "json output is not an object")
    else:
        keys = {"e^8": "e8", "96 pi^3": "value_96pi3", "64 pi^3": "base_64pi3",
                "ratio": "ratio"}
        d = {}
        for line in stdout.splitlines():
            name, _, rest = line.partition("=")
            if name.strip() in keys:
                d[keys[name.strip()]] = rest.strip()
            elif name.strip() == "correction":
                m = re.fullmatch(r"(\S+) \(gap to 3/2: (\S+)\)", rest.strip())
                _require(m is not None, "unparsable correction line")
                d["correction"], d["gap_from_3_2"] = m[1], m[2]
    correction = Fraction(13, 12) ** 4 * Fraction(25, 24) ** 2
    _require(d.get("correction") == str(correction), "correction is not (13/12)^4 (25/24)^2")
    _require(d.get("gap_from_3_2") == str(correction - Fraction(3, 2)), "gap to 3/2 is wrong")
    tol = _ulp(scale) / 2 + _ulp(scale + 10)
    for key, text in (("e8", "e^8"), ("value_96pi3", "96*pi^3"), ("base_64pi3", "64*pi^3"),
                      ("ratio", "e^8/(96*pi^3)")):
        _require(key in d, f"stirling output lacks {key}")
        _close(dec(d[key]), true_value(text, 2 * scale), tol, f"stirling {key}")
