"""Certified reference values for pi, e, and exp.

Everything downstream that claims "N digits correct" is measured against
these oracles, so they are deliberately boring and fully certified.

Every series is summed on integers scaled by 10**work, a few guard
digits beyond the requested precision, with directed rounding: each term
is rounded down in a lower sum and up in an upper sum, and the remainder
bound is added to the bounds as a whole number of units.  The terms come
from a recurrence of exact floor divisions, so no sum ever pays for a
gcd of growing rationals (see Brent & Zimmermann, *Modern Computer
Arithmetic*, sections 4.4 and 4.9).

* pi comes from the Machin identity pi/4 = 4*arctan(1/5) - arctan(1/239),
  each arctangent an alternating series whose powers divide by q**2 at
  each step.  The first omitted term bounds the remainder.
* e is the factorial series sum(1/n!), each term the previous one
  divided by n, with remainder bound 2/(N+1)!.
* exp(x) splits x = k + f with integer k and 0 <= f < 1, raises the
  certified e enclosure to the k-th power on scaled integers, rounded
  outward, and evaluates exp(f) by Taylor with remainder bound
  2*f^(N+1)/(N+1)!.

The low-level ``*_interval`` functions return exact rational enclosures
[lo, hi], whose denominators divide a power of ten, and are what the
expression evaluator consumes; the public ``*_oracle`` functions wrap
the midpoint into an :class:`OracleValue`.

All functions are pure; the module-level caches only ever grow toward
higher precision and are guarded by a lock, so concurrent callers see
consistent values.  A cached enclosure finer than asked for comes back
rounded outward to the requested precision.
"""

from __future__ import annotations

import threading
from fractions import Fraction

from ._record import record
from .bignum import BigFixed, ceil_grid, floor_grid

__all__ = [
    "OracleValue",
    "ExpRangeError",
    "pi_oracle",
    "e_oracle",
    "exp_oracle",
    "pi_interval",
    "e_interval",
    "exp_interval",
    "constant_reference",
    "CONSTANTS",
]

#: constants a series in this package may describe
CONSTANTS = ("e", "pi", "two_pi", "pi6", "pi8")

EXP_ARG_LIMIT = 100


class ExpRangeError(ValueError):
    """exp() argument outside the supported range |x| <= 100."""


@record
class OracleValue:
    """A rendered reference value with |value - true| < 10**-certified_digits."""

    value: BigFixed
    certified_digits: int


def _guard(eps_digits: int) -> int:
    # Each summed term may be off by one unit of 10**-work and the sums
    # run to O(work) terms, so 10**guard >= 1000 * eps_digits units keep
    # the width contracts below with room to spare.
    return len(str(eps_digits)) + 3


def _arctan_inv(q: int, work: int) -> tuple[int, int]:
    """Integer bounds (lo, hi) with lo <= arctan(1/q) * 10**work <= hi, q >= 2.

    Alternating series sum (-1)^k / ((2k+1) q^(2k+1)).  ``power`` is
    floor(10**work / q^(2k+1)) exactly, since nested floor divisions by
    positive integers compose; so is each term's floor.  A term lies
    below its floor plus one, which rounds it up for the other sum.  The
    loop ends at the first k with power == 0: every omitted term, and so
    the remainder, is then under one unit and has the sign of term k.
    """
    qq = q * q
    power = 10**work // q
    lo = hi = 0
    k = 0
    while power:
        t = power // (2 * k + 1)
        if k % 2:
            lo -= t + 1
            hi -= t
        else:
            lo += t
            hi += t + 1
        power //= qq
        k += 1
    if k % 2:
        lo -= 1
    else:
        hi += 1
    return lo, hi


def _exp_unit(f: Fraction, work: int) -> tuple[int, int]:
    """Integer bounds (lo, hi) with lo <= exp(f) * 10**work <= hi, 0 <= f < 1.

    Taylor series on two term chains, one scaled by floor(f * 10**work)
    and floored at every step, one scaled by the ceiling and ceiled.  The
    remainder after the terms below n is at most 2 f^n/n! (f/(n+1) <= 1/2
    for f < 1), so twice the upper chain's n-th term bounds it.
    """
    unit = 10**work
    f_lo, f_hi = floor_grid(f, work), ceil_grid(f, work)
    lo = hi = t_lo = t_hi = unit
    n = 0
    while True:
        n += 1
        t_lo = t_lo * f_lo // (n * unit)
        t_hi = -(-t_hi * f_hi // (n * unit))
        if t_hi <= 1:
            return lo, hi + 2 * t_hi
        lo += t_lo
        hi += t_hi


def _e_unit(work: int) -> tuple[int, int]:
    """Integer bounds (lo, hi) with lo <= e * 10**work <= hi.

    ``term`` is floor(10**work / n!) exactly, by nested floor division.
    Each of the n summed terms below the first is under its floor plus
    one, and once a term's floor is 0 the remainder 2/(n+1)! is under
    one unit.
    """
    total = term = 10**work
    n = 0
    while term:
        n += 1
        term //= n
        total += term
    return total, total + n + 1


_lock = threading.Lock()
_pi_cache: tuple[int, Fraction, Fraction] | None = None  # (eps_digits, lo, hi)
_e_cache: tuple[int, Fraction, Fraction] | None = None


def _trimmed(cache, eps_digits: int) -> tuple[Fraction, Fraction]:
    """A cached enclosure at least as tight as asked for, rounded outward
    onto the grid a fresh one would have, so callers do not pay for the
    cache's extra digits.  Width < 2 * 10**-(eps_digits + 1) + 2 units of
    10**-(eps_digits + guard) < 2 * 10**-eps_digits."""
    _, lo, hi = cache
    work = eps_digits + _guard(eps_digits)
    unit = 10**work
    return Fraction(floor_grid(lo, work), unit), Fraction(ceil_grid(hi, work), unit)


def pi_interval(eps_digits: int) -> tuple[Fraction, Fraction]:
    """Exact rational enclosure of pi with width < 2 * 10**-eps_digits."""
    global _pi_cache
    with _lock:
        if _pi_cache is not None and _pi_cache[0] >= eps_digits:
            return _trimmed(_pi_cache, eps_digits)
    work = eps_digits + _guard(eps_digits)
    a5_lo, a5_hi = _arctan_inv(5, work)
    a239_lo, a239_hi = _arctan_inv(239, work)
    unit = 10**work
    lo = Fraction(16 * a5_lo - 4 * a239_hi, unit)
    hi = Fraction(16 * a5_hi - 4 * a239_lo, unit)
    with _lock:
        if _pi_cache is None or _pi_cache[0] < eps_digits:
            _pi_cache = (eps_digits, lo, hi)
    return lo, hi


def e_interval(eps_digits: int) -> tuple[Fraction, Fraction]:
    """Exact rational enclosure of e with width < 2 * 10**-eps_digits."""
    global _e_cache
    with _lock:
        if _e_cache is not None and _e_cache[0] >= eps_digits:
            return _trimmed(_e_cache, eps_digits)
    work = eps_digits + _guard(eps_digits)
    lo, hi = _e_unit(work)
    lo, hi = Fraction(lo, 10**work), Fraction(hi, 10**work)
    with _lock:
        if _e_cache is None or _e_cache[0] < eps_digits:
            _e_cache = (eps_digits, lo, hi)
    return lo, hi


def exp_interval(x: Fraction, eps_digits: int) -> tuple[Fraction, Fraction]:
    """Exact rational enclosure of exp(x), width <= 10**-eps_digits.

    Requires |x| <= EXP_ARG_LIMIT.
    """
    x = Fraction(x)
    if abs(x) > EXP_ARG_LIMIT:
        raise ExpRangeError(f"exp argument {float(x):g} outside |x| <= {EXP_ARG_LIMIT}")
    k = x.numerator // x.denominator
    f = x - k  # 0 <= f < 1
    # Integer digits of e^k, to translate relative precision into absolute.
    mag = (abs(k) * 4343) // 10000 + 2
    out = 10 ** (eps_digits + 4)
    extra = 15
    while True:
        work = eps_digits + mag + extra
        unit = 10**work
        e_lo, e_hi = e_interval(work)
        e_lo, e_hi = floor_grid(e_lo, work), ceil_grid(e_hi, work)
        # e^k in units of 10**-work, rounded outward
        if k >= 0:
            p_lo = e_lo**k * unit // unit**k
            p_hi = -(-e_hi**k * unit // unit**k)
        else:
            p_lo = unit ** (1 - k) // e_hi**-k
            p_hi = -(-unit ** (1 - k) // e_lo**-k)
        t_lo, t_hi = _exp_unit(f, work)
        # the product, rounded outward onto the 10**-(eps_digits + 4) grid
        shift = unit * (unit // out)
        lo = p_lo * t_lo // shift
        hi = -(-p_hi * t_hi // shift)
        if hi - lo <= 10**4:  # width <= 10**-eps_digits
            return Fraction(lo, out), Fraction(hi, out)
        extra *= 2


def pi_oracle(digits: int) -> OracleValue:
    """pi to at least `digits` certified decimal places."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    lo, hi = pi_interval(digits + 5)
    value = BigFixed.from_fraction((lo + hi) / 2, digits + 3)
    return OracleValue(value, digits + 2)


def e_oracle(digits: int) -> OracleValue:
    """e to at least `digits` certified decimal places."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    lo, hi = e_interval(digits + 5)
    value = BigFixed.from_fraction((lo + hi) / 2, digits + 3)
    return OracleValue(value, digits + 2)


def exp_oracle(x: BigFixed, digits: int) -> OracleValue:
    """exp(x) to at least `digits` certified decimal places, |x| <= 100."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    lo, hi = exp_interval(x.as_fraction(), digits + 4)
    value = BigFixed.from_fraction((lo + hi) / 2, digits + 2)
    return OracleValue(value, digits)


def constant_reference(constant: str, digits: int) -> OracleValue:
    """Certified reference for any constant a builtin series describes.

    Derived constants (two_pi, pi6, pi8) are produced from the pi
    enclosure by exact interval arithmetic, so their certificates remain
    rigorous.
    """
    if constant == "pi":
        return pi_oracle(digits)
    if constant == "e":
        return e_oracle(digits)
    if constant == "two_pi":
        lo, hi = pi_interval(digits + 6)
        return OracleValue(BigFixed.from_fraction(lo + hi, digits + 3), digits + 2)
    if constant in ("pi6", "pi8"):
        # pi > 0, so the power of each endpoint bounds the power of pi
        k = 6 if constant == "pi6" else 8
        lo, hi = pi_interval(digits + 10)
        return OracleValue(BigFixed.from_fraction((lo**k + hi**k) / 2, digits + 3), digits + 2)
    raise ValueError(f"unknown constant {constant!r}; expected one of {CONSTANTS}")
