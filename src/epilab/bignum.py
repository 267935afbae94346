"""Exact rational and decimal fixed-point arithmetic.

The package's results are exact: :class:`fractions.Fraction` or integer
pairs carry exact rationals, and an enclosure is carried as integer
bounds (lo, hi, den) on a decimal grid; only its public endpoints become
Fractions, and only the functions that build or compare a Fraction
import :mod:`fractions` (and the :mod:`decimal` it loads), so code that
works on integers pays for neither.  Nothing is ever evaluated in binary
floating point.
:class:`BigFixed`, the decimal fixed point ``mantissa * 10**-scale``,
renders a result for print.  Only the CLI names it or its body,
:func:`_fixed_to_string`: the CLI alone decides each printed rounding.

Rounding onto the decimal grid 10**-scale happens in two ways only.
:func:`_div_nearest`, and :meth:`BigFixed.from_fraction` through it,
rounds to nearest (error at most half an ulp, ties away from zero,
symmetrically for negative values); :func:`floor_div` and
:func:`ceil_div` round an integer quotient down and up, and are the one
directed rounding every enclosure in the package is built with: the
expression evaluator, the root kernels and the CLI's printed bounds
round their integer units with them.

:class:`Surd` represents quadratic irrationals ``a + b*sqrt(r)`` exactly,
with the square part of ``r`` factored into ``b`` so the radicand is
canonical.
"""

from __future__ import annotations

import math

from ._record import record

__all__ = [
    "BigFixed",
    "Surd",
    "floor_div",
    "ceil_div",
    "iroot",
    "root_units",
    "root_interval",
    "floor_neg_log10",
    "ilog10_floor",
]

#: CPython refuses int <-> str conversions longer than 4,300 digits by
#: default (sys.int_max_str_digits); longer numbers convert in pieces of
#: at most this many digits, so the process-wide limit stays untouched.
_STR_CHUNK = 2000


def _int_to_digits(n: int) -> str:
    """Decimal digits of n >= 0, split by divmod with a power of ten."""
    bits = n.bit_length()
    if bits <= 3 * _STR_CHUNK:  # under 0.91 * _STR_CHUNK digits
        return str(n)
    k = bits // 7  # about half the digits, and below the top one
    high, low = divmod(n, 10**k)
    return _int_to_digits(high) + _int_to_digits(low).zfill(k)


def _rational_to_digits(q: Fraction | int) -> str:
    """str(q) for an int or a Fraction, "n" or "n/d", with no cap on the
    digits (str() refuses ints past CPython's int->str limit)."""
    text = ("-" if q < 0 else "") + _int_to_digits(abs(q.numerator))
    return text if q.denominator == 1 else f"{text}/{_int_to_digits(q.denominator)}"


def _div_nearest(n: int, d: int) -> int:
    """Nearest integer to n/d with ties rounded away from zero.  d > 0."""
    if n >= 0:
        return (2 * n + d) // (2 * d)
    return -((2 * -n + d) // (2 * d))


def _fixed_to_string(mantissa: int, scale: int) -> str:
    """mantissa * 10**-scale as sign, integer part, '.', exactly `scale`
    fractional digits.  No exponent form ever.  At scale 0 the dot is omitted.
    """
    sign = "-" if mantissa < 0 else ""
    digits = _int_to_digits(abs(mantissa)).rjust(scale + 1, "0")
    if scale == 0:
        return f"{sign}{digits}"
    return f"{sign}{digits[:-scale]}.{digits[-scale:]}"


@record
class BigFixed:
    """Immutable decimal fixed point: value = mantissa * 10**-scale.

    Equality compares numeric values, so BigFixed(150, 2) == BigFixed(15, 1)
    even though the two keep different scales; ``to_decimal_string``
    renders the (mantissa, scale) pair itself, every digit of it.
    """

    mantissa: int
    scale: int

    def __post_init__(self) -> None:
        if self.scale < 0:
            raise ValueError("scale must be >= 0")

    @classmethod
    def from_fraction(cls, value: Fraction, scale: int) -> "BigFixed":
        """Round an exact rational to the given scale (nearest, <= 1/2 ulp)."""
        if scale < 0:
            raise ValueError("scale must be >= 0")
        if not hasattr(value, "denominator"):  # not an int or a Fraction: made one first
            from fractions import Fraction
            value = Fraction(value)
        return cls(_div_nearest(value.numerator * 10**scale, value.denominator), scale)

    def as_fraction(self) -> Fraction:
        from fractions import Fraction
        return Fraction(self.mantissa, 10**self.scale)

    def to_decimal_string(self) -> str:
        return _fixed_to_string(self.mantissa, self.scale)

    def __str__(self) -> str:
        return self.to_decimal_string()

    def __repr__(self) -> str:
        return f"BigFixed({self.to_decimal_string()!r})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BigFixed):
            return self.as_fraction() == other.as_fraction()
        from fractions import Fraction
        if isinstance(other, (int, Fraction)):
            return self.as_fraction() == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.as_fraction())


def floor_div(n: int, d: int) -> int:
    """floor(n / d) for integers, d != 0: the one rounding down."""
    return n // d


def ceil_div(n: int, d: int) -> int:
    """ceil(n / d) for integers, d != 0: the one rounding up."""
    return -(-n // d)


# ---------------------------------------------------------------------------
# integer k-th roots and rational root enclosures


def iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 0, k >= 1, by Newton iteration on ints."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < 0:
        raise ValueError("iroot of negative value")
    if n == 0:
        return 0
    if k == 1:
        return n
    if k == 2:
        return math.isqrt(n)
    # Initial guess from the bit length, then damped Newton; monotone
    # decreasing once above the root, so it terminates quickly.
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x**k > n:
        x -= 1
    while (x + 1) ** k <= n:
        x += 1
    return x


def root_interval(lo: Fraction, hi: Fraction, k: int, scale: int) -> tuple[Fraction, Fraction]:
    """Enclosure of the k-th root of [lo, hi] on the 10**-scale grid.

    Requires 0 <= lo <= hi.  The returned endpoints satisfy
    out_lo <= lo**(1/k) and hi**(1/k) <= out_hi.
    """
    from fractions import Fraction
    if lo < 0:
        raise ValueError("root of negative value")
    if hi < lo:
        raise ValueError("empty interval")
    r_lo, r_hi = root_units(lo.numerator * hi.denominator, hi.numerator * lo.denominator,
                            lo.denominator * hi.denominator, k, scale)
    return Fraction(r_lo, 10**scale), Fraction(r_hi, 10**scale)


def root_units(lo: int, hi: int, den: int, k: int, scale: int) -> tuple[int, int]:
    """Bounds (r_lo, r_hi), in units of 10**-scale, on the k-th roots of
    lo/den and hi/den: r_lo <= (lo/den)**(1/k) and (hi/den)**(1/k) <=
    r_hi.  Requires 0 <= lo and den > 0."""
    p = 10 ** (k * scale)
    return iroot(floor_div(lo * p, den), k), iroot(ceil_div(hi * p, den), k) + 1


# ---------------------------------------------------------------------------
# exact decimal logarithms


def _pow10_at_most(e: int, num: int, den: int) -> bool:
    """10**e <= num/den, on integers."""
    if e >= 0:
        return 10**e * den <= num
    return den <= num * 10**-e


def _ilog10_floor(num: int, den: int) -> int:
    """Largest e with 10**e <= num/den, for num/den > 0 in any sign or
    reduction.  Exact.

    The bit lengths of numerator and denominator put log10 within one of
    an estimate, which exact comparisons then correct, so the result
    depends on the ratio alone.
    """
    if num * den <= 0:
        raise ValueError("ilog10_floor needs a positive value")
    num, den = abs(num), abs(den)
    e = (num.bit_length() - den.bit_length()) * 30103 // 100000
    while not _pow10_at_most(e, num, den):
        e -= 1
    while _pow10_at_most(e + 1, num, den):
        e += 1
    return e


def ilog10_floor(x: Fraction) -> int:
    """Largest e with 10**e <= x, for x > 0 (an int or a Fraction).  Exact."""
    return _ilog10_floor(x.numerator, x.denominator)


def floor_neg_log10(x: Fraction) -> int:
    """floor(-log10(x)) for x > 0 (an int or a Fraction), computed exactly.

    floor_neg_log10(Fraction(1, 1000)) == 3; values just above a power
    of ten land one lower, e.g. 0.002 -> 2.  It is ilog10_floor(1/x).
    """
    return _ilog10_floor(x.denominator, x.numerator)


# ---------------------------------------------------------------------------
# quadratic irrationals


def _squarefree(r: int) -> tuple[int, int]:
    """r = s*s * rest with rest square-free; returns (s, rest)."""
    s, rest = 1, 1
    n = r
    p = 2
    while p * p <= n:
        if n % p == 0:
            count = 0
            while n % p == 0:
                n //= p
                count += 1
            if count % 2:
                rest *= p
            s *= p ** (count // 2)
        p += 1 if p == 2 else 2
    rest *= n
    return s, rest


@record
class Surd:
    """Exact quadratic irrational a + b*sqrt(r).

    Canonical form: r is square-free (square factors are pulled into b)
    and r > 1 whenever b != 0.  A rational value is represented with
    b == 0, r == 1.  Construct through :meth:`make` to get the canonical
    form; the raw constructor trusts its arguments.
    """

    a: Fraction
    b: Fraction
    r: int

    @classmethod
    def make(cls, a: Fraction, b: Fraction, r: int) -> "Surd":
        from fractions import Fraction
        if r <= 0:
            raise ValueError("radicand must be positive")
        a, b = Fraction(a), Fraction(b)
        if b == 0:
            return cls(a, Fraction(0), 1)
        s, rest = _squarefree(r)
        if rest == 1:
            return cls(a + b * s, Fraction(0), 1)
        return cls(a, b * s, rest)

    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("surd is irrational")
        return self.a

    def squared(self) -> "Surd":
        """Exact square: (a + b*sqrt(r))**2 = a*a + b*b*r + 2ab*sqrt(r)."""
        return Surd.make(self.a * self.a + self.b * self.b * self.r, 2 * self.a * self.b, self.r)

    def interval(self, scale: int) -> tuple[Fraction, Fraction]:
        """Rational enclosure of the value on the 10**-scale grid."""
        if self.b == 0:
            return self.a, self.a
        from fractions import Fraction
        s_lo, s_hi = (Fraction(u, 10**scale) for u in root_units(self.r, self.r, 1, 2, scale))
        if self.b > 0:
            return self.a + self.b * s_lo, self.a + self.b * s_hi
        return self.a + self.b * s_hi, self.a + self.b * s_lo

    def __str__(self) -> str:
        if self.b == 0:
            return _rational_to_digits(self.a)
        root = f"sqrt({self.r})"
        if self.b != 1:
            root = f"{root}*{_rational_to_digits(self.b)}"
        if self.a == 0:
            return root
        if self.a < 0:
            return f"{root} - {_rational_to_digits(-self.a)}"
        return f"{_rational_to_digits(self.a)} + {root}"
