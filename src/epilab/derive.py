"""Exact rational derivations and the integer scan: quadratic surd
roots, first-order binomial linearization, exact 2x2 linear solving, and
the scan over n*pi + m*e on the oracle's bounds on pi and e.

The derivations take and return Fractions and Surds, and each imports
:mod:`fractions` itself; the scan works on integers, its threshold a
pair (p, q), q > 0, so it loads neither fractions nor decimal.
"""

from __future__ import annotations

from collections.abc import Iterator

from .bignum import Surd
from .oracle import e_interval, pi_interval

__all__ = [
    "solve_pi_quadratic",
    "binomial_linearize",
    "linearize_error_bound",
    "solve_linear_2x2",
    "scan_units",
]

def solve_pi_quadratic(b: int | Fraction, c: int | Fraction) -> Surd:
    """Larger root of x^2 + b*x = c as an exact Surd.

    The root is -b/2 + sqrt(c + b^2/4); the discriminant must be
    positive.  A rational discriminant p/q enters the surd as
    sqrt(p*q)/q, which Surd.make then canonicalizes.
    """
    from fractions import Fraction
    b = Fraction(b)
    c = Fraction(c)
    disc = c + b * b / 4
    if disc <= 0:
        raise ValueError("discriminant c + b^2/4 must be positive")
    return Surd.make(-b / 2, Fraction(1, disc.denominator),
                     disc.numerator * disc.denominator)


def binomial_linearize(s: Surd, base: int | Fraction) -> Fraction:
    """Replace sqrt(r) with base + (r - base^2)/(2*base) and evaluate.

    First-order binomial expansion of sqrt(base^2 + d) around the
    rational guess base > 0; exact rational arithmetic throughout.
    """
    from fractions import Fraction
    base = Fraction(base)
    if base <= 0:
        raise ValueError("base must be positive")
    return s.a + s.b * (base + (s.r - base * base) / (2 * base))


def linearize_error_bound(s: Surd, base: int | Fraction) -> Fraction:
    """Bound on |binomial_linearize(s, base) - exact value of s|.

    With d = r - base^2 >= 0 the binomial remainder gives
    |sqrt(r) - (base + d/(2*base))| <= d^2/(8*base^3), scaled here by
    |b|.  Requires base <= sqrt(r); the bound does not hold as stated
    for overestimating bases.
    """
    from fractions import Fraction
    base = Fraction(base)
    if base <= 0:
        raise ValueError("base must be positive")
    d = s.r - base * base
    if d < 0:
        raise ValueError("bound requires base^2 <= r")
    return abs(s.b) * d * d / (8 * base**3)


def solve_linear_2x2(
    a11: int | Fraction, a12: int | Fraction, b1: int | Fraction,
    a21: int | Fraction, a22: int | Fraction, b2: int | Fraction,
) -> tuple[Fraction, Fraction]:
    """Exact solution (x, y) of {a11 x + a12 y = b1, a21 x + a22 y = b2}."""
    from fractions import Fraction
    a11, a12, b1 = Fraction(a11), Fraction(a12), Fraction(b1)
    a21, a22, b2 = Fraction(a21), Fraction(a22), Fraction(b2)
    det = a11 * a22 - a12 * a21
    if det == 0:
        raise ValueError("singular system")
    return (b1 * a22 - b2 * a12) / det, (a11 * b2 - a21 * b1) / det


def scan_units(max_coeff: int, digits: int,
               threshold: tuple[int, int]) -> tuple[int, Iterator[tuple]]:
    """Scan n*pi + m*e for all |n|, |m| <= max_coeff, (n, m) != (0, 0).

    Returns two_den and the rows (n, m, total, nearest, residual, mod7,
    predicted, flagged): total and residual are numerators over two_den
    of the value, the midpoint (n*(plo + phi) + m*(elo + ehi))/2 of the
    enclosure, and of its signed residual; predicted is (22n + 19m)/7
    when mod7, 7 | n - 2m.  The oracle's bounds on pi and e share their
    denominator, so each field is an integer sum or floor division.  A
    row is flagged when |residual| < threshold, the pair (p, q), q > 0.
    The rows are made as they are read, after the checks and the
    enclosures, so a bad argument raises at the call, before any output.
    """
    if max_coeff < 1:
        raise ValueError("max_coeff must be >= 1")
    tp, tq = threshold  # tq > 0
    if tp <= 0 or 2 * tp > tq:
        raise ValueError("threshold must be in (0, 1/2]")
    plo, phi, den = pi_interval(digits)
    elo, ehi, _ = e_interval(digits)
    pi_sum, e_sum = plo + phi, elo + ehi
    two_den = 2 * den
    # |residual| < threshold, with the residual's numerator over 2*den
    limit = tp * two_den
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
                       abs(residual) * tq < limit)
    return two_den, rows()


def __getattr__(name: str):
    # cfrac moved to expr, the evaluator whose bounds it reads; the old name
    # still resolves, for bench/trace_cli.py, without loading expr for the scan
    if name == "cfrac":
        from .expr import cfrac
        return cfrac
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
