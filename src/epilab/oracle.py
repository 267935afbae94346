"""Certified reference values for pi, e, and exp.

Everything downstream that claims "N digits correct" is measured against
these oracles, so they are deliberately boring and fully certified.

Each value comes from an integer kernel that returns bounds (lo, hi) on
the value times 10**work, a few guard digits beyond the requested
precision.  Every step rounds outward, down in the lower bound and up in
the upper, and every truncated series adds its remainder bound as a
whole number of units, so no bound ever pays for a gcd of growing
rationals (see Brent & Zimmermann, *Modern Computer Arithmetic*,
sections 4.4 and 4.9).

* pi comes from the Chudnovsky series (Chudnovsky & Chudnovsky, 1988),
  about 14 digits a term, summed exactly into one fraction T/Q by binary
  splitting (Haible & Papanikolaou, ANTS 1998).  One integer division
  by T, with sqrt(10005) from math.isqrt, gives pi within 3 units.
* e is the factorial series sum(1/n!), each term the previous one
  divided by n, with remainder bound 2/(N+1)!.
* exp(x), for 0 <= x <= EXP_ARG_LIMIT, comes from argument reduction
  alone: a Taylor series for exp(x/2**r), remainder bound twice the
  first omitted term, then r squarings on a binary grid, each rounded
  outward.  Every value squared is at least 1, so each rounding costs at
  most one unit of relative width and the kernel's width is proved, not
  retried.  exp(-x) is the reciprocal, rounded outward.

The package's own code reads these integer units: pi and e through
``_cached``, exp through ``_exp_units``.  :func:`constant_reference`
gives the same shape, bounds (lo, hi, den) on a decimal grid, for every
constant a series describes.  The ``*_interval`` functions are views of
the units as exact rational enclosures [lo, hi], for callers outside
the package, and are the only functions here that import
:mod:`fractions`.

All functions are pure.  The module-level cache keeps the units of the
last pi and the last e enclosure, keyed by the kernel's exact work
precision, and hands back only that enclosure: a warm call returns what
a cold call would, so no printed digit depends on the calls before it.
exp is not cached: its cost grows only with the digits of its result.
"""

from __future__ import annotations

import math

from .bignum import _div_nearest, ceil_div, floor_div

__all__ = [
    "ExpRangeError",
    "pi_interval",
    "e_interval",
    "exp_interval",
    "constant_reference",
    "CONSTANTS",
]

#: each constant as f * c**k, by (k, f): c is e for "e" and pi for the rest
_FORMS = {"e": (1, 1), "pi": (1, 1), "two_pi": (1, 2), "pi6": (6, 1), "pi8": (8, 1)}

#: constants a series in this package may describe
CONSTANTS = tuple(_FORMS)

EXP_ARG_LIMIT = 100


class NoCertifiedResult(Exception):
    """Base of the errors a well-formed request ends in when it has no
    certified result: ExpRangeError here, EvalDomainError and
    PrecisionCapError in expr, InfeasibleRequest in series.  The CLI
    exits 1 on any of them."""


class ExpRangeError(ValueError, NoCertifiedResult):
    """exp() argument outside the supported range |x| <= 100."""


def _guard(eps_digits: int) -> int:
    # Each summed term may be off by one unit of 10**-work and the sums
    # run to O(work) terms, so 10**guard >= 1000 * eps_digits units keep
    # the width contracts below with room to spare.
    return len(str(eps_digits)) + 3


_A, _B, _Q1 = 13591409, 545140134, 640320**3 // 24


def _chudnovsky(a: int, b: int) -> tuple[int, int, int]:
    """Binary splitting (P, Q, T) of the Chudnovsky terms a <= k < b.

    426880 sqrt(10005) / pi is the sum of the terms t_k = (-1)^k (6k)!
    (_A + _B k) / ((3k)! k!^3 640320^(3k)), and t_k / t_(k-1) is -p(k)/q(k)
    with p(k) = (6k-5)(2k-1)(6k-1) and q(k) = k^3 _Q1.  P and Q are the
    products of p and q over the range, and T/Q is the sum of its terms in
    units of term a-1 (of 1 for a = 0), exactly: the halves join as P1 P2,
    Q1 Q2 and T1 Q2 + P1 T2.
    """
    if b - a == 1:
        if a == 0:
            return 1, 1, _A
        p = (6 * a - 5) * (2 * a - 1) * (6 * a - 1)
        t = p * (_A + _B * a)
        return p, a * a * a * _Q1, -t if a % 2 else t
    m = (a + b) // 2
    p1, q1, t1 = _chudnovsky(a, m)
    p2, q2, t2 = _chudnovsky(m, b)
    return p1 * p2, q1 * q2, t1 * q2 + p1 * t2


def _pi_unit(work: int) -> tuple[int, int]:
    """Integer bounds (lo, hi) with lo <= pi * 10**work <= hi = lo + 3.

    pi = 426880 sqrt(10005) / S with S the Chudnovsky sum, whose terms
    obey |t_k| <= (_A + _B k) / 151931373056000**k: (6k)!/((3k)! k!^3) is
    C(6k, 3k) (3k)!/k!^3 <= 2^(6k) 3^(3k) = 1728^k, and 640320^3 is
    1728 * 151931373056000.  Successive bounds shrink by over 10**12, so
    the remainder after n terms is under twice the n-th bound; with
    151931373056000 > 2**47 and 10 < 2**3.33, the check below puts it
    under one unit of 10**-work.  So S = T/Q + rho with |rho| 10**work < 1,
    and S > 10**7.  With s = isqrt(10005 * 10**(2 work)) and
    y = floor(426880 s Q / T), pi * 10**work exceeds y - 10**-6 (rho moves
    the quotient by under 4 * 10**work rho / S units) and is below
    y + 1.04 (sqrt(10005) * 10**work < s + 1 adds under 426880/S units).
    """
    n = work // 14 + 2
    # closed-form term count, checked once without a big power
    if 47 * n < (333 * work + 99) // 100 + (2 * (_A + _B * n)).bit_length():
        raise RuntimeError(f"{n} Chudnovsky terms do not reach 10**-{work}")
    _, q, t = _chudnovsky(0, n)
    y = 426880 * math.isqrt(10005 * 100**work) * q // t
    return y - 1, y + 2


def _exp_unit(num: int, den: int, work: int) -> tuple[int, int]:
    """Integer bounds (lo, hi) with lo <= exp(x) * 10**work <= hi and
    hi - lo <= exp(x)/2 + 2, for x = num/den, den > 0 and 0 <= x <=
    EXP_ARG_LIMIT.  x enters only through floors of num * 2**j / den, so
    every representation of the same ratio gives the same bounds.

    Argument reduction on the binary grid of 2**-bits: exp(x) is
    exp(y)**(2**r) with y = x/2**r and r = isqrt(3 work) +
    bit_length(floor(x)), so y < 2**-isqrt(3 work) <= 1 and the squarings
    balance the Taylor terms.  exp(y) is summed on two term chains, one
    scaled by floor(y 2**bits) and floored at every step, one by the
    ceiling and ceiled; the remainder after the terms below n is at most
    2 y^n/n! (y/(n+1) <= 1/2), so twice the upper chain's n-th term bounds
    it.  The chains part by under 5 units a term, so the sum is W units
    wide, W under 5 units a term plus 2.  Then r squarings, the lower
    bound floored and the upper ceiled.  Every value squared lies in
    [1, exp(x)], so its floor or ceiling moves it by at most one unit of
    relative width: a squaring takes a relative width of d units to at
    most 2 d + 2 units, plus d**2 / 2**bits.  So r squarings leave under
    1.2 * 2**r (W + 2) units, the 1.2 covering the d**2 terms, which are
    largest at work = 0.  With 2**bits >= 10**work 2**r (work + 16)**2 /
    1.6, that is under 2 (W + 2)/(work + 16)**2 * 10**-work, below
    10**-work/2: W is under 60 at work = 0 and grows only as sqrt(work),
    with the number of terms.  The two roundings onto 10**-work add the 2.
    """
    r = math.isqrt(3 * work) + (num // den).bit_length()
    bits = 10 * work // 3 + r + 2 * (work + 16).bit_length()
    unit = 1 << bits
    y = num << (bits - r)
    y_lo, y_hi = y // den, -(-y // den)
    lo = hi = t_lo = t_hi = unit
    n = 0
    while True:
        n += 1
        t_lo = (t_lo * y_lo >> bits) // n
        t_hi = -((-t_hi * y_hi >> bits) // n)
        if t_hi <= 1:
            hi += 2 * t_hi
            break
        lo += t_lo
        hi += t_hi
    for _ in range(r):
        lo = lo * lo >> bits
        hi = -(-hi * hi >> bits)
    scale = 10**work
    return lo * scale >> bits, -(-hi * scale >> bits)


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


#: kernel -> (work, lo, hi), the units it gave last
_cache: dict = {}


def _cached(kernel, eps_digits: int) -> tuple[int, int, int]:
    """(work, lo, hi): the kernel's bounds in units of 10**-work, with
    work = eps_digits + guard.  An entry is returned only at its own
    work, so a warm call returns exactly what a cold one does.  A result
    depends on work alone, so with no lock a race only computes it twice;
    the entry is read once, into a local."""
    if eps_digits < 1:
        raise ValueError("digits must be >= 1")
    work = eps_digits + _guard(eps_digits)
    hit = _cache.get(kernel)
    if hit is None or hit[0] != work:
        hit = _cache[kernel] = (work, *kernel(work))
    return hit


def pi_interval(eps_digits: int) -> tuple[Fraction, Fraction]:
    """Exact rational enclosure of pi with width < 2 * 10**-eps_digits."""
    from fractions import Fraction
    work, lo, hi = _cached(_pi_unit, eps_digits)
    return Fraction(lo, 10**work), Fraction(hi, 10**work)


def e_interval(eps_digits: int) -> tuple[Fraction, Fraction]:
    """Exact rational enclosure of e with width < 2 * 10**-eps_digits."""
    from fractions import Fraction
    work, lo, hi = _cached(_e_unit, eps_digits)
    return Fraction(lo, 10**work), Fraction(hi, 10**work)


def _exp_units(num: int, den: int, eps_digits: int) -> tuple[int, int]:
    """Bounds (lo, hi) on exp(num/den) in units of 10**-(eps_digits + 4),
    hi - lo <= 10**4, for den > 0.

    Requires |num/den| <= EXP_ARG_LIMIT.  With mag = floor(0.4343 |x|) + 1,
    exp(|x|) < 10**mag, so at work = eps_digits + mag the kernel's width
    exp(|x|)/2 + 2 units of 10**-work is under 10**-eps_digits/2 +
    2 * 10**-(eps_digits + 1).  Its reciprocal, for x < 0, is no wider
    than 1/2 + 2/exp(|x|) + 2 units: the bounds' product is at least
    exp(|x|) 10**(2 work).  Rounding outward onto the 10**-(eps_digits + 4)
    grid, 10**mag units of 10**-work each, adds two units of that grid, so
    the width contract holds with no retry.
    """
    if eps_digits < 1:
        raise ValueError("digits must be >= 1")
    if abs(num) > EXP_ARG_LIMIT * den:
        raise ExpRangeError(f"exp argument outside |x| <= {EXP_ARG_LIMIT}")
    mag = abs(num) * 4343 // (10000 * den) + 1
    work = eps_digits + mag
    lo, hi = _exp_unit(abs(num), den, work)
    if num < 0:
        lo, hi = 100**work // hi, -(-100**work // lo)
    unit = 10**mag
    return floor_div(lo * 10**4, unit), ceil_div(hi * 10**4, unit)


def exp_interval(x: Fraction, eps_digits: int) -> tuple[Fraction, Fraction]:
    """Exact rational enclosure of exp(x), width <= 10**-eps_digits, for
    |x| <= EXP_ARG_LIMIT: a view of ``_exp_units``."""
    from fractions import Fraction
    x = Fraction(x)
    lo, hi = _exp_units(x.numerator, x.denominator, eps_digits)
    return Fraction(lo, 10 ** (eps_digits + 4)), Fraction(hi, 10 ** (eps_digits + 4))


def constant_reference(constant: str, digits: int) -> tuple[int, int, int]:
    """Certified bounds (lo, hi, den) with lo <= c * den <= hi for any
    constant c a builtin series describes: den = 10**(digits + 3) and
    hi - lo = 20, so the midpoint is within 10**-(digits + 2) of c.

    Derived constants (two_pi, pi6, pi8) are produced from the pi
    enclosure by exact interval arithmetic, so their certificates remain
    rigorous.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    if constant not in _FORMS:
        raise ValueError(f"unknown constant {constant!r}; expected one of {CONSTANTS}")
    # pi > 0, so the k-th power of each endpoint bounds pi**k; the
    # midpoint m is (lo**k + hi**k)/2 of the units, times f, rounded to
    # nearest, and lies within 10 units of the constant
    k, f = _FORMS[constant]
    extra = 10 if k > 1 else 4 + f  # doubling pi costs one digit
    work, lo, hi = _cached(_e_unit if constant == "e" else _pi_unit, digits + extra)
    den = 10 ** (digits + 3)
    m = _div_nearest((lo**k + hi**k) * f * den, 2 * 10 ** (work * k))
    return m - 10, m + 10, den
