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
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._record import record
from .bignum import BigFixed, Surd, ilog10_floor, sqrt_interval
from .oracle import e_interval, pi_interval

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

#: coefficients of the asymptotic expansion in 1/n
STIRLING_COEFFS = (Fraction(1), Fraction(1, 12), Fraction(1, 288), Fraction(-139, 51840))


def double_factorial(k: int) -> int:
    """k!! for k >= -1, with (-1)!! = 0!! = 1."""
    if k < -1:
        raise ValueError("k must be >= -1")
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def stirling_factor(n: Fraction, k: int) -> Fraction:
    """Partial sum of the Stirling factor: coefficients 0..k-1 at 1/n powers.

    1 <= k <= len(STIRLING_COEFFS); n > 0.
    """
    if not 1 <= k <= len(STIRLING_COEFFS):
        raise ValueError(f"k must be in 1..{len(STIRLING_COEFFS)}")
    n = Fraction(n)
    if n <= 0:
        raise ValueError("n must be positive")
    return sum((c / n**j for j, c in enumerate(STIRLING_COEFFS[:k])), Fraction(0))


def e_power_approx(n: int, k: int, scale: int = 10) -> BigFixed:
    """sqrt(2 pi n) * n^n / n! * S(n, k), rendered at `scale`.

    Approximates e^n; the relative error decreases as n grows.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    exact = Fraction(n**n, math.factorial(n)) * stirling_factor(Fraction(n), k)
    # the error of the root, taken to `guard` places, is multiplied by
    # `exact` (about e^n, and at least 1), so the guard also covers the
    # digits of `exact` before the point
    guard = scale + 16 + ilog10_floor(exact)
    p_lo, p_hi = pi_interval(guard)
    s_lo, s_hi = sqrt_interval(2 * n * p_lo, 2 * n * p_hi, guard)
    return BigFixed.from_fraction((s_lo + s_hi) / 2 * exact, scale)


def e_from_ratio(n: int, k: int, scale: int = 10) -> BigFixed:
    """(1 + 1/n)^(n + 1/2) * S(n+1, k) / S(n, k), rendered at `scale`.

    Approximates e itself, with pi absent: it cancels in the ratio of
    consecutive Stirling approximations.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    guard = scale + 15
    base = Fraction(n + 1, n)
    exact = base**n * stirling_factor(Fraction(n + 1), k) / stirling_factor(Fraction(n), k)
    s_lo, s_hi = sqrt_interval(base, base, guard)
    return BigFixed.from_fraction((s_lo + s_hi) / 2 * exact, scale)


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
    m = 2 * n + 1
    coef = Fraction(m ** (n + 1), double_factorial(m))
    if k == 2:
        coef *= 1 + Fraction(1, 6 * m)
    return Surd.make(Fraction(0), coef, 2)


@record
class E8Decomposition:
    """The pieces of e^8 ~ 96 pi^3, all independently certified."""

    base_64pi3: BigFixed
    correction: Fraction  # (13/12)^4 * (25/24)^2, exact
    gap_from_3_2: Fraction  # correction - 3/2, exact
    value_96pi3: BigFixed
    e8: BigFixed
    ratio: BigFixed  # e^8 / (96 pi^3)


def stirling_e8_decomposition(scale: int = 10) -> E8Decomposition:
    """Assemble e^8 = 64 pi^3 * correction ~ 96 pi^3 and compare to e^8.

    The correction is the exact rational (13/12)^4 * (25/24)^2 =
    17850625/11943936, which misses 3/2 by about -0.0055; replacing it
    with 3/2 gives the round form 96 pi^3.
    """
    guard = scale + 15
    p_lo, p_hi = pi_interval(guard)
    c_lo, c_hi = p_lo**3, p_hi**3
    e_lo, e_hi = e_interval(guard)
    e8_lo, e8_hi = e_lo**8, e_hi**8
    correction = Fraction(13, 12) ** 4 * Fraction(25, 24) ** 2
    ratio_lo = e8_lo / (96 * c_hi)
    ratio_hi = e8_hi / (96 * c_lo)
    return E8Decomposition(
        base_64pi3=BigFixed.from_fraction(32 * (c_lo + c_hi), scale),
        correction=correction,
        gap_from_3_2=correction - Fraction(3, 2),
        value_96pi3=BigFixed.from_fraction(48 * (c_lo + c_hi), scale),
        e8=BigFixed.from_fraction((e8_lo + e8_hi) / 2, scale),
        ratio=BigFixed.from_fraction((ratio_lo + ratio_hi) / 2, scale),
    )
