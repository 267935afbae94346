"""Stirling-series approximants that squeeze e out of factorials.

The asymptotic factor shared by everything here is

    S(n, k) = 1 + 1/(12n) + 1/(288 n^2) - 139/(51840 n^3) + ...

truncated before term k (so k <= 4 with the coefficients carried).
Three rearrangements of Stirling's formula are implemented:

* ``e_power_approx``   e^n  ~ sqrt(2 pi n) * n^n / n! * S(n, k)
* ``e_from_ratio``     e    ~ (1 + 1/n)^(n + 1/2) * S(n+1, k) / S(n, k)
  (no pi at all: it cancels between consecutive factorials)
* ``e_half_integer``   e^(n + 1/2) ~ sqrt(2) * (2n+1)^(n+1) / (2n+1)!!
  * (1 + 1/(6(2n+1)) for k = 2), an exact surd; at n = 0 its square is
  the curiosity e^2 ~ 49/18.

``stirling_e8_decomposition`` assembles the e^8 ~ 96 pi^3 coincidence:
e^8 = (e^1)^4 * (e^2)^2 ~ 64 pi^3 * (13/12)^4 * (25/24)^2, where the
exact correction 17850625/11943936 = 1.4945... sits close to 3/2.

Exact rationals are integer pairs (p, q), q > 0, as in
:mod:`epilab.series`; only ``e_half_integer``'s surd is built on
Fractions.  Each inexact value is built as an :mod:`epilab.expr` tree,
an exact rational part p/q as the quotient of two integer literals (the
evaluator reduces it to the exact point p/q in lowest terms), and
returned as its certified enclosure (lo, hi, den) at the digits the
caller names; the CLI rounds it for print.  So the guard digits that
pi, e and the square roots need are chosen by the evaluator's
``eval_interval``, the same way as for every other expression, also when
the value has many digits before the point.
"""

from __future__ import annotations

import math

from ._record import record
from .bignum import Surd
from .expr import ConstE, ConstPi, Div, IntLit, Mul, PowInt, Sqrt, eval_interval

__all__ = [
    "STIRLING_COEFFS",
    "double_factorial",
    "stirling_factor",
    "e_power_approx",
    "e_from_ratio",
    "e_half_integer",
    "stirling_e8_decomposition",
    "E8Decomposition",
]

#: coefficients of the asymptotic expansion in 1/n, as pairs (p, q)
STIRLING_COEFFS = ((1, 1), (1, 12), (1, 288), (-139, 51840))


def double_factorial(k: int) -> int:
    """k!! for k >= -1, with (-1)!! = 0!! = 1."""
    if k < -1:
        raise ValueError("k must be >= -1")
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def stirling_factor(n: int | Fraction, k: int) -> tuple[int, int]:
    """Partial sum of the Stirling factor: coefficients 0..k-1 at 1/n powers,
    as a pair (p, q) in lowest terms, q > 0.

    1 <= k <= len(STIRLING_COEFFS); n > 0, an int, a Fraction or any
    exact number with as_integer_ratio.
    """
    if not 1 <= k <= len(STIRLING_COEFFS):
        raise ValueError(f"k must be in 1..{len(STIRLING_COEFFS)}")
    a, b = n.as_integer_ratio()  # b > 0
    if a <= 0:
        raise ValueError("n must be positive")
    # c_j / n**j = c_j b**j / a**j, summed over the common denominator
    # a**(k-1) * 51840, which every coefficient's denominator divides
    den = a ** (k - 1) * 51840
    num = sum(cp * 51840 // cq * b**j * a ** (k - 1 - j)
              for j, (cp, cq) in enumerate(STIRLING_COEFFS[:k]))
    g = math.gcd(num, den)
    return num // g, den // g


def e_power_approx(n: int, k: int, digits: int) -> tuple[int, int, int]:
    """sqrt(2 pi n) * n^n / n! * S(n, k), enclosed as (lo, hi, den) to 10**-digits.

    Approximates e^n; the relative error decreases as n grows.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    sp, sq = stirling_factor(n, k)
    exact = Div(IntLit(n**n * sp), IntLit(math.factorial(n) * sq))
    return eval_interval(Mul(exact, Sqrt(Mul(IntLit(2 * n), ConstPi()))), digits)


def e_from_ratio(n: int, k: int, digits: int) -> tuple[int, int, int]:
    """(1 + 1/n)^(n + 1/2) * S(n+1, k) / S(n, k), enclosed as (lo, hi, den).

    Approximates e itself, with pi absent: it cancels in the ratio of
    consecutive Stirling approximations.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    (p1, q1), (p0, q0) = stirling_factor(n + 1, k), stirling_factor(n, k)
    # ((n + 1)/n)**n * (p1/q1) / (p0/q0); p0 > 0, since S(n, k) > 0 for n >= 1
    exact = Div(IntLit((n + 1) ** n * p1 * q0), IntLit(n**n * q1 * p0))
    return eval_interval(Mul(exact, Sqrt(Div(IntLit(n + 1), IntLit(n)))), digits)


def e_half_integer(n: int, k: int) -> Surd:
    """Exact surd approximant of e^(n + 1/2), n >= 0, k in {1, 2}.

    sqrt(2) * (2n+1)^(n+1) / (2n+1)!! times (1 + 1/(6(2n+1))) when the
    first correction term is kept (k = 2).  Squaring the n = 0, k = 2
    value gives exactly 49/18 as an e^1 approximation.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if k not in (1, 2):
        raise ValueError("k must be 1 or 2")
    from fractions import Fraction
    m = 2 * n + 1
    coef = Fraction(m ** (n + 1), double_factorial(m))
    if k == 2:
        coef *= 1 + Fraction(1, 6 * m)
    return Surd.make(Fraction(0), coef, 2)


@record
class E8Decomposition:
    """The pieces of e^8 ~ 96 pi^3, all independently certified."""

    base_64pi3: tuple[int, int, int]  # an enclosure (lo, hi, den), as are the other triples
    correction: tuple[int, int]  # (13/12)^4 * (25/24)^2, exact, a pair in lowest terms
    gap_from_3_2: tuple[int, int]  # correction - 3/2, exact, the same
    value_96pi3: tuple[int, int, int]
    e8: tuple[int, int, int]
    ratio: tuple[int, int, int]  # e^8 / (96 pi^3)


def stirling_e8_decomposition(digits: int) -> E8Decomposition:
    """Assemble e^8 = 64 pi^3 * correction ~ 96 pi^3 and compare to e^8.

    The correction is the exact rational (13/12)^4 * (25/24)^2 =
    17850625/11943936, which misses 3/2 by about -0.0055; replacing it
    with 3/2 gives the round form 96 pi^3.  Each enclosure is at most
    10**-digits wide.
    """
    pi3, e8 = PowInt(ConstPi(), 3), PowInt(ConstE(), 8)
    # 13 and 25 share no factor with 12 and 24: the pair is in lowest terms
    cp, cq = 13**4 * 25**2, 12**4 * 24**2
    gp, gq = 2 * cp - 3 * cq, 2 * cq
    g = math.gcd(gp, gq)
    return E8Decomposition(
        base_64pi3=eval_interval(Mul(IntLit(64), pi3), digits),
        correction=(cp, cq),
        gap_from_3_2=(gp // g, gq // g),
        value_96pi3=eval_interval(Mul(IntLit(96), pi3), digits),
        e8=eval_interval(e8, digits),
        ratio=eval_interval(Div(e8, Mul(IntLit(96), pi3)), digits),
    )
