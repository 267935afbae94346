"""Expression trees over pi and e, with certified interval evaluation.

The AST covers exactly what the coincidence registry needs: the two
constants, integer literals (a rational is a quotient of two), field
operations, integer powers, k-th roots, and exp.  ``parse`` accepts the
matching text form:

    expr   :=  term  (('+' | '-') term)*
    term   :=  unary (('*' | '/') unary)*
    unary  :=  '-' unary | power
    power  :=  atom ('^' integer)*          # binds tightest
    atom   :=  integer | 'pi' | 'e' | '(' expr ')'
             | 'sqrt(' expr ')' | 'root(' k ',' expr ')' | 'exp(' expr ')'

'-' and '/' associate left.  Exponents may be negative ('^-2').  Tree
depth is capped at MAX_DEPTH both when parsing and when evaluating.

Evaluation is interval arithmetic on integers: every node carries bounds
(lo, hi, den), lo <= value * den <= hi with den > 0.  An exact subtree is
a point enclosure (p, p, q) in lowest terms, reduced by one gcd per
operation as a Fraction would be.  Every other node carries its bounds
on the decimal grid 10**-w: pi and e enter as the oracle's bounds,
each operation is computed exactly on the bounds and rounded outward
onto the grid by integer floor and ceiling division, so no inexact node
pays for a gcd and the numbers stay bounded.  If the interval comes out
too wide, or a comparison like "is the divisor nonzero" cannot be
decided, the whole tree is re-evaluated with the guard digits raised by
the digits the width missed by (none if undecided), and at least
doubled.  The result interval always contains the true value; that
containment is the correctness claim everything downstream leans on.

``eval_interval`` returns the bounds (lo, hi, den) of the root, and
``eval_expr`` integers too, a value and a bound in units of a power of
ten; rounding them for print is the CLI's business.  ``cfrac`` reads the
same bounds for certified continued fractions.
"""

from __future__ import annotations

import math

from ._record import record
from .bignum import (_div_nearest, _general, ceil_div, floor_div, ilog10_floor, iroot,
                     root_interval)
from .oracle import EXP_ARG_LIMIT, NoCertifiedResult, e_interval, exp_interval, pi_interval

__all__ = [
    "Expr",
    "ConstPi",
    "ConstE",
    "IntLit",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "PowInt",
    "Root",
    "Exp",
    "Sqrt",
    "parse",
    "to_text",
    "depth",
    "eval_expr",
    "eval_interval",
    "cfrac",
    "ParseError",
    "EvalDomainError",
    "PrecisionCapError",
    "MAX_DEPTH",
]

MAX_DEPTH = 64
_MAX_ATTEMPTS = 8  # evaluations eval_interval tries before PrecisionCapError

#: cfrac raises its precision up to this many digits before PrecisionCapError
CFRAC_MAX_DIGITS = 4096


class ParseError(ValueError):
    """Malformed expression text."""


class EvalDomainError(ValueError, NoCertifiedResult):
    """The expression is undefined (division by zero, root of a negative)."""


class PrecisionCapError(ArithmeticError, NoCertifiedResult):
    """Raising precision up to the cap did not settle the result."""


class _Undecided(Exception):
    # internal: the interval is too wide to decide a predicate; retry
    # with more precision
    pass


class Expr:
    __slots__ = ()


@record
class ConstPi(Expr):
    pass


@record
class ConstE(Expr):
    pass


@record
class IntLit(Expr):
    value: int

    def __post_init__(self) -> None:
        # a float would enter as its binary value, not the decimal it was written as
        if not isinstance(self.value, int):
            raise TypeError(f"IntLit takes an int, not {type(self.value).__name__}")


@record
class Add(Expr):
    left: Expr
    right: Expr


@record
class Sub(Expr):
    left: Expr
    right: Expr


@record
class Mul(Expr):
    left: Expr
    right: Expr


@record
class Div(Expr):
    left: Expr
    right: Expr


@record
class PowInt(Expr):
    base: Expr
    exponent: int

    def __post_init__(self) -> None:
        if not isinstance(self.exponent, int):
            raise TypeError(f"PowInt takes an int exponent, not {type(self.exponent).__name__}")


@record
class Root(Expr):
    arg: Expr
    k: int

    def __post_init__(self) -> None:
        if not isinstance(self.k, int):
            raise TypeError(f"Root takes an int index, not {type(self.k).__name__}")
        if self.k < 1:
            raise ValueError("root index must be >= 1")


@record
class Exp(Expr):
    arg: Expr


def Sqrt(arg: Expr) -> Root:
    """Sugar: Sqrt(x) is Root(x, 2)."""
    return Root(arg, 2)


def to_text(expr: Expr) -> str:
    """Render an AST in the grammar above; parse(to_text(x)) evaluates
    equal to x.  Parentheses appear only where precedence needs them."""
    return _render(expr, 1)


def _render(expr: Expr, ctx: int) -> str:
    # precedence: + - are 1, * / are 2, ^ is 3, atoms 4
    if isinstance(expr, ConstPi):
        return "pi"
    if isinstance(expr, ConstE):
        return "e"
    if isinstance(expr, IntLit):
        s = str(expr.value)
        return f"({s})" if expr.value < 0 else s
    if isinstance(expr, (Add, Sub)):
        op = "+" if isinstance(expr, Add) else "-"
        s = f"{_render(expr.left, 1)} {op} {_render(expr.right, 2)}"
        return f"({s})" if ctx > 1 else s
    if isinstance(expr, (Mul, Div)):
        op = "*" if isinstance(expr, Mul) else "/"
        s = f"{_render(expr.left, 2)}{op}{_render(expr.right, 3)}"
        return f"({s})" if ctx > 2 else s
    if isinstance(expr, PowInt):
        return f"{_render(expr.base, 4)}^{expr.exponent}"
    if isinstance(expr, Root):
        if expr.k == 2:
            return f"sqrt({_render(expr.arg, 1)})"
        return f"root({expr.k}, {_render(expr.arg, 1)})"
    if isinstance(expr, Exp):
        return f"exp({_render(expr.arg, 1)})"
    raise TypeError(f"not an Expr: {expr!r}")


def depth(expr: Expr) -> int:
    if isinstance(expr, (ConstPi, ConstE, IntLit)):
        return 1
    if isinstance(expr, (Add, Sub, Mul, Div)):
        return 1 + max(depth(expr.left), depth(expr.right))
    if isinstance(expr, (PowInt,)):
        return 1 + depth(expr.base)
    if isinstance(expr, (Root, Exp)):
        return 1 + depth(expr.arg)
    raise TypeError(f"not an Expr: {expr!r}")


# ---------------------------------------------------------------------------
# parsing

_WORDS = {"pi", "e", "sqrt", "root", "exp"}


def _tokenize(text: str) -> list[str]:
    """The tokens of text: runs of decimal digits (any script's), runs of
    a-z, and single characters of ()+-*/^, between any whitespace."""
    tokens = []
    pos, end = 0, len(text)
    while pos < end:
        start = pos  # a bad character is reported at the whitespace before it
        while pos < end and text[pos].isspace():
            pos += 1
        if pos == end:
            break
        c, stop = text[pos], pos + 1
        if c.isdecimal():
            while stop < end and text[stop].isdecimal():
                stop += 1
        elif "a" <= c <= "z":
            while stop < end and "a" <= text[stop] <= "z":
                stop += 1
            if text[pos:stop] not in _WORDS:
                raise ParseError(f"unknown name {text[pos:stop]!r}")
        elif c not in "()+-*/^,":
            raise ParseError(f"bad character at position {start}: {text[start:start+10]!r}")
        tokens.append(text[pos:stop])
        pos = stop
    return tokens


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r}")

    # each AST level costs at most five grammar-rule frames, so this
    # recursion ceiling never rejects a tree the depth invariant allows
    _RECURSION_LIMIT = 5 * MAX_DEPTH + 16

    def _guard(self, d: int) -> int:
        if d > self._RECURSION_LIMIT:
            raise ParseError(f"expression deeper than {MAX_DEPTH}")
        return d

    def parse_expr(self, d: int = 1) -> Expr:
        self._guard(d)
        node = self.parse_term(d + 1)
        while self.peek() in ("+", "-"):
            op = self.next()
            rhs = self.parse_term(d + 1)
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def parse_term(self, d: int) -> Expr:
        self._guard(d)
        node = self.parse_unary(d + 1)
        while self.peek() in ("*", "/"):
            op = self.next()
            rhs = self.parse_unary(d + 1)
            node = Mul(node, rhs) if op == "*" else Div(node, rhs)
        return node

    def parse_unary(self, d: int) -> Expr:
        self._guard(d)
        if self.peek() == "-":
            self.next()
            return Sub(IntLit(0), self.parse_unary(d + 1))
        return self.parse_power(d + 1)

    def parse_power(self, d: int) -> Expr:
        self._guard(d)
        node = self.parse_atom(d + 1)
        while self.peek() == "^":
            self.next()
            node = PowInt(node, self.parse_int())
        return node

    def parse_int(self) -> int:
        sign = 1
        if self.peek() == "-":
            self.next()
            sign = -1
        tok = self.next()
        if not tok.isdigit():
            raise ParseError(f"expected integer, got {tok!r}")
        return sign * int(tok)

    def parse_atom(self, d: int) -> Expr:
        self._guard(d)
        tok = self.next()
        if tok.isdigit():
            return IntLit(int(tok))
        if tok == "pi":
            return ConstPi()
        if tok == "e":
            return ConstE()
        if tok == "(":
            node = self.parse_expr(d + 1)
            self.expect(")")
            return node
        if tok in ("sqrt", "exp"):
            self.expect("(")
            arg = self.parse_expr(d + 1)
            self.expect(")")
            return Sqrt(arg) if tok == "sqrt" else Exp(arg)
        if tok == "root":
            self.expect("(")
            k = self.parse_int()
            if k < 1:
                raise ParseError("root index must be >= 1")
            self.expect(",")
            arg = self.parse_expr(d + 1)
            self.expect(")")
            return Root(arg, k)
        raise ParseError(f"unexpected token {tok!r}")


def parse(text: str) -> Expr:
    """Parse expression text into an AST; raises ParseError on bad input."""
    parser = _Parser(_tokenize(text))
    if parser.peek() is None:
        raise ParseError("empty expression")
    node = parser.parse_expr()
    if parser.peek() is not None:
        raise ParseError(f"trailing input at token {parser.pos}: {parser.peek()!r}")
    if depth(node) > MAX_DEPTH:
        raise ParseError(f"expression deeper than {MAX_DEPTH}")
    return node


# ---------------------------------------------------------------------------
# interval evaluation

#: bounds (lo, hi, den) on a value times den > 0; an exact value is a point
#: (p, p, q) in lowest terms
_IV = tuple[int, int, int]


def _out(lo: int, hi: int, den: int, w: int) -> _IV:
    """[lo/den, hi/den] rounded outward onto the 10**-w grid; when lo == hi,
    which exact operands, an exact zero factor or exp(0) give, the exact
    point reduced to lowest terms."""
    if lo == hi:
        g = math.gcd(lo, den)
        return lo // g, lo // g, den // g
    unit = 10**w
    if den == unit:
        return lo, hi, unit
    return floor_div(lo * unit, den), ceil_div(hi * unit, den), unit


def _recip(lo: int, hi: int, den: int) -> _IV:
    # [den/hi, den/lo] over the positive denominator lo*hi
    if lo <= 0 <= hi:
        if lo == hi:
            raise EvalDomainError("division by zero")
        raise _Undecided
    return den * lo, den * hi, lo * hi


def _eval(expr: Expr, w: int) -> _IV:
    """The exact point, or bounds rounded outward onto 10**-w (exp's: 10**-(w + 4))."""
    if isinstance(expr, (ConstPi, ConstE)):
        return _out(*(pi_interval if isinstance(expr, ConstPi) else e_interval)(w), w)
    if isinstance(expr, IntLit):
        return expr.value, expr.value, 1
    if isinstance(expr, (Add, Sub, Mul, Div)):
        alo, ahi, ad = _eval(expr.left, w)
        blo, bhi, bd = _eval(expr.right, w)
        if isinstance(expr, Div):
            blo, bhi, bd = _recip(blo, bhi, bd)
        elif isinstance(expr, Sub):
            blo, bhi = -bhi, -blo
        if isinstance(expr, (Mul, Div)):
            products = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
            return _out(min(products), max(products), ad * bd, w)
        if ad == bd:
            return _out(alo + blo, ahi + bhi, ad, w)
        return _out(alo * bd + blo * ad, ahi * bd + bhi * ad, ad * bd, w)
    if isinstance(expr, PowInt):
        lo, hi, den = _eval(expr.base, w)
        k = expr.exponent
        if k == 0:
            return 1, 1, 1
        if k < 0:
            (lo, hi, den), k = _recip(lo, hi, den), -k
        lo_k, hi_k = lo**k, hi**k
        if k % 2 == 0 and lo < 0:  # the least even power is at the end nearer 0, or is 0
            lo_k, hi_k = hi_k if hi <= 0 else 0, max(lo_k, hi_k)
        return _out(lo_k, hi_k, den**k, w)
    if isinstance(expr, Root):
        lo, hi, den = _eval(expr.arg, w)
        k = expr.k
        if k % 2 == 0:
            if hi < 0:
                raise EvalDomainError(f"root of a negative value (<= {_general(hi, den)})")
            if lo < 0:
                # might be a genuinely negative value seen too coarsely, or a
                # tiny true value straddled by the interval; retry either way
                raise _Undecided
        if lo == hi:
            # exact argument, in lowest terms: keep a perfect k-th power exact
            p, q = iroot(abs(lo), k), iroot(den, k)
            if p**k == abs(lo) and q**k == den:
                p = p if lo >= 0 else -p
                return p, p, q
        if lo >= 0:
            return root_interval(lo, hi, den, k, w)
        # odd k: the root is an odd function, so take it on the mirror image
        if hi <= 0:
            r_lo, r_hi, unit = root_interval(-hi, -lo, den, k, w)
            return -r_hi, -r_lo, unit
        return -root_interval(0, -lo, den, k, w)[1], *root_interval(0, hi, den, k, w)[1:]
    if isinstance(expr, Exp):
        lo, hi, den = _eval(expr.arg, w)
        limit = EXP_ARG_LIMIT * den
        # an interval wholly past the limit fails in exp_interval; one across it is undecided
        if lo <= limit < hi or lo < -limit <= hi:
            raise _Undecided
        e_lo, e_hi, unit = exp_interval(lo, den, w)
        if lo != hi:
            e_hi = exp_interval(hi, den, w)[1]
        return _out(e_lo, e_hi, unit, w + 4)
    raise TypeError(f"not an Expr: {expr!r}")


def eval_interval(expr: Expr, digits: int) -> _IV:
    """Certified enclosure of the expression: bounds (lo, hi, den) with
    lo <= value * den <= hi and (hi - lo)/den <= 10**-digits.

    An attempt that comes back too wide retries with the guard raised by
    the digits the width missed by, plus a margin, or doubled if that is
    more, so a value with many digits before the point costs two
    attempts; an undecided comparison misses by none, so doubles it.
    PrecisionCapError signals that the attempts ran out (for example
    when a subexpression is exactly zero where a nonzero value is
    needed).
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    if depth(expr) > MAX_DEPTH:
        raise ValueError(f"expression deeper than {MAX_DEPTH}")
    target = 10**digits
    guard = 10
    for _ in range(_MAX_ATTEMPTS):
        try:
            lo, hi, den = _eval(expr, digits + guard)
        except _Undecided:
            missed = 0
        else:
            if (hi - lo) * target <= den:
                return lo, hi, den
            # and one more for the rounding the estimate leaves out
            missed = ilog10_floor((hi - lo) * target, den) + 2
        # at least double, since the width of an odd root near zero
        # shrinks slower than 10**-guard
        guard += max(guard, missed)
    raise PrecisionCapError(f"interval did not narrow to 10^-{digits} "
                            f"within {_MAX_ATTEMPTS} attempts")


def eval_expr(expr: Expr, digits: int) -> tuple[int, int]:
    """Evaluate with a certified error bound: integers (value, error_bound) in
    units of 10**-(digits + 2) and 10**-(digits + 6), the exact value within
    error_bound of value, and error_bound <= 10**-digits.  The value is the
    enclosure's midpoint, the bound its half-width plus that rounding."""
    lo, hi, den = eval_interval(expr, digits + 1)
    scale = digits + 2
    mid = (lo + hi) * 10**scale  # the midpoint times 2 * den * 10**scale
    value = _div_nearest(mid, 2 * den)
    err = (hi - lo) * 10**scale + abs(2 * den * value - mid)  # over the same
    return value, ceil_div(err * 10**4, 2 * den)


# ---------------------------------------------------------------------------
# continued fractions


def _floor_cf(a: int, b: int, c: int, d: int, n_terms: int,
              out: list[int] | None = None) -> list[int] | None:
    # floor-algorithm continued fraction on the interval a/b <= c/d (b, d >
    # 0, in lowest terms or not), as integer Euclid on the endpoints; every
    # emitted quotient is certain because both endpoints agree on it.  None
    # means the interval is too wide to decide the next quotient; the
    # quotients certified before it are then left in out, if given.
    out = [] if out is None else out
    while len(out) < n_terms:
        q, a = divmod(a, b)
        if c // d != q:
            return None
        out.append(q)
        c -= q * d
        if c == 0:
            break
        if a == 0:
            # an endpoint terminates but the interval does not; only
            # more precision can tell a huge quotient from termination
            return None
        # the reciprocals of the remainders a/b <= c/d swap the ends
        a, b, c, d = d, c, b, a
    return out


def cfrac(expr: Expr, n_terms: int) -> list[int]:
    """Certified continued fraction [a0; a1, ...] of an expression tree.

    Quotients are emitted only while both endpoints of the certified
    interval produce the same partial quotient, so they do not depend on
    the precision they were found at.  The first attempt is at Lévy's
    estimate for n_terms quotients; after one that certified k
    quotients, the next aims at n_terms/k times its digits, with a
    margin, or doubles them if k = 0, up to CFRAC_MAX_DIGITS.  An exactly
    rational value terminates early with its full expansion; an
    expression that is rational but not syntactically so (pi - pi + 1)
    cannot certify its termination, and the error names the digits.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    # Lévy: the n-th convergent of almost every real is good to about
    # n pi^2/(6 ln 2 ln 10) = 1.0306 n digits; the margin covers its spread
    d = min(n_terms * 10306 // 10000 + n_terms // 32 + 10, CFRAC_MAX_DIGITS)
    while True:
        lo, hi, den = eval_interval(expr, d)
        terms: list[int] = []
        if _floor_cf(lo, den, hi, den, n_terms, terms) is not None:
            return terms
        if d >= CFRAC_MAX_DIGITS:
            raise PrecisionCapError(
                f"could not certify {n_terms} partial quotients at {d} digits (a value that is "
                "rational but not written as one, such as pi - pi or sqrt(2)^2, never certifies)")
        # an eighth more for quotients that grow, as e's do; a quarter at least
        k = len(terms)
        d = min(max(d * n_terms // k * 9 // 8 + 10, d * 5 // 4) if k else 2 * d, CFRAC_MAX_DIGITS)
