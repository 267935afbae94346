"""Derivations built on the certified evaluator: quadratic surd roots,
first-order binomial linearization, exact 2x2 linear solving, the
integer scan over n*pi + m*e, and certified continued fractions.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction

from ._record import record
from .bignum import Surd
from .oracle import _cached, _e_unit, _pi_unit

__all__ = [
    "solve_pi_quadratic",
    "binomial_linearize",
    "linearize_error_bound",
    "solve_linear_2x2",
    "ScanRow",
    "linear_combo_scan",
    "cfrac",
]

RationalLike = int | Fraction

#: cfrac doubles its precision up to this many digits before PrecisionCapError
CFRAC_MAX_DIGITS = 4096


def solve_pi_quadratic(b: RationalLike, c: RationalLike) -> Surd:
    """Larger root of x^2 + b*x = c as an exact Surd.

    The root is -b/2 + sqrt(c + b^2/4); the discriminant must be
    positive.  A rational discriminant p/q enters the surd as
    sqrt(p*q)/q, which Surd.make then canonicalizes.
    """
    b = Fraction(b)
    c = Fraction(c)
    disc = c + b * b / 4
    if disc <= 0:
        raise ValueError("discriminant c + b^2/4 must be positive")
    return Surd.make(-b / 2, Fraction(1, disc.denominator),
                     disc.numerator * disc.denominator)


def binomial_linearize(s: Surd, base: RationalLike) -> Fraction:
    """Replace sqrt(r) with base + (r - base^2)/(2*base) and evaluate.

    First-order binomial expansion of sqrt(base^2 + d) around the
    rational guess base > 0; exact rational arithmetic throughout.
    """
    base = Fraction(base)
    if base <= 0:
        raise ValueError("base must be positive")
    return s.a + s.b * (base + (s.r - base * base) / (2 * base))


def linearize_error_bound(s: Surd, base: RationalLike) -> Fraction:
    """Bound on |binomial_linearize(s, base) - exact value of s|.

    With d = r - base^2 >= 0 the binomial remainder gives
    |sqrt(r) - (base + d/(2*base))| <= d^2/(8*base^3), scaled here by
    |b|.  Requires base <= sqrt(r); the bound does not hold as stated
    for overestimating bases.
    """
    base = Fraction(base)
    if base <= 0:
        raise ValueError("base must be positive")
    d = s.r - base * base
    if d < 0:
        raise ValueError("bound requires base^2 <= r")
    return abs(s.b) * d * d / (8 * base**3)


def solve_linear_2x2(
    a11: RationalLike, a12: RationalLike, b1: RationalLike,
    a21: RationalLike, a22: RationalLike, b2: RationalLike,
) -> tuple[Fraction, Fraction]:
    """Exact solution (x, y) of {a11 x + a12 y = b1, a21 x + a22 y = b2}."""
    a11, a12, b1 = Fraction(a11), Fraction(a12), Fraction(b1)
    a21, a22, b2 = Fraction(a21), Fraction(a22), Fraction(b2)
    det = a11 * a22 - a12 * a21
    if det == 0:
        raise ValueError("singular system")
    return (b1 * a22 - b2 * a12) / det, (a11 * b2 - a21 * b1) / det


@record
class ScanRow:
    n: int
    m: int
    value: Fraction
    nearest: int
    residual: Fraction
    mod7: bool
    predicted: int | None
    flagged: bool


def _scan_units(max_coeff: int, digits: int, threshold: Fraction) -> tuple[int, Iterator[tuple]]:
    """linear_combo_scan's rows as tuples (n, m, total, nearest, residual,
    mod7, predicted, flagged), with total and residual the numerators of
    the value and the residual over the returned two_den.  The value is
    the midpoint of the enclosure of n*pi + m*e, (n*(plo + phi) +
    m*(elo + ehi))/2 whatever the signs of n and m; the oracle's units of
    pi and e share the denominator 10**work, so each field is an integer
    sum or floor division.  The rows are made as they are read, after the
    checks and the enclosures, so a bad argument raises before any output.
    """
    if max_coeff < 1:
        raise ValueError("max_coeff must be >= 1")
    threshold = Fraction(threshold)
    if threshold <= 0 or threshold > Fraction(1, 2):
        raise ValueError("threshold must be in (0, 1/2]")
    work, plo, phi = _cached(_pi_unit, digits)
    _, elo, ehi = _cached(_e_unit, digits)
    pi_sum, e_sum = plo + phi, elo + ehi
    den = 10**work
    two_den = 2 * den
    # |residual| < threshold, with the residual's numerator over 2*den
    limit = threshold.numerator * two_den
    def rows():
        for n in range(-max_coeff, max_coeff + 1):
            for m in range(-max_coeff, max_coeff + 1):
                if n == 0 and m == 0:
                    continue
                total = n * pi_sum + m * e_sum
                nearest = (total + den) // two_den
                residual = total - nearest * two_den
                mod7 = (n - 2 * m) % 7 == 0
                # 22n + 19m = 21n + 21m + (n - 2m), so 7 divides it too
                predicted = (22 * n + 19 * m) // 7 if mod7 else None
                yield (n, m, total, nearest, residual, mod7, predicted,
                       abs(residual) * threshold.denominator < limit)
    return two_den, rows()


def linear_combo_scan(max_coeff: int, digits: int = 30,
                      threshold: Fraction = Fraction(6, 100)) -> list[ScanRow]:
    """Scan n*pi + m*e for all |n|, |m| <= max_coeff, (n, m) != (0, 0).

    Each row records the midpoint value, the nearest integer, the signed
    residual, whether n - 2m is divisible by 7, and for such rows the
    predicted integer (22n + 19m)/7 (always exact when 7 | n - 2m).  A
    row is flagged when |residual| < threshold, judged on the midpoint.
    """
    two_den, rows = _scan_units(max_coeff, digits, threshold)
    return [ScanRow(n, m, Fraction(total, two_den), nearest, Fraction(residual, two_den), *rest)
            for n, m, total, nearest, residual, *rest in rows]


def _floor_cf(a: int, b: int, c: int, d: int, n_terms: int) -> list[int] | None:
    # floor-algorithm continued fraction on the interval a/b <= c/d (b, d >
    # 0, in lowest terms or not), as integer Euclid on the endpoints; every
    # emitted quotient is certain because both endpoints agree on it.  None
    # means the interval is too wide to decide the next quotient.
    out: list[int] = []
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


def cfrac(expr, n_terms: int, digits: int = 30) -> list[int]:
    """Certified continued fraction [a0; a1, ...] of an expression tree
    (an epilab.expr.Expr).

    Quotients are emitted only while both endpoints of the certified
    interval produce the same partial quotient; precision doubles on
    demand up to CFRAC_MAX_DIGITS.  An exactly rational value terminates
    early with its full (shorter) expansion.  Note an expression that is
    rational but not syntactically so (e.g. pi - pi + 1) cannot certify
    its termination and exhausts the cap instead.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    if digits < 1:
        raise ValueError("digits must be >= 1")
    # here, not at the top: the scan needs no expression evaluator
    from .expr import PrecisionCapError, _enclose
    d = digits
    while True:
        lo, hi, den = _enclose(expr, d)
        terms = _floor_cf(lo, den, hi, den, n_terms)
        if terms is not None:
            return terms
        if d >= CFRAC_MAX_DIGITS:
            raise PrecisionCapError(
                f"could not certify {n_terms} partial quotients at {CFRAC_MAX_DIGITS} digits"
            )
        d = min(2 * d, CFRAC_MAX_DIGITS)
