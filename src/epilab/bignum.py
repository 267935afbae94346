"""Exact rational and decimal fixed-point arithmetic.

The package's results are exact: integer pairs (p, q), q > 0, carry
exact rationals, and an enclosure is carried as integer bounds
(lo, hi, den) on a decimal grid, as :func:`root_interval` returns it.  A
:class:`fractions.Fraction` is built only where a public function hands
one to its caller (a :class:`Surd`'s parts), and only the functions that
build or compare a Fraction import :mod:`fractions` (and the
:mod:`decimal` it loads), so code that works on integers pays for
neither.  Nothing is ever evaluated in binary floating point.
:func:`_fixed_to_string` writes ``mantissa * 10**-scale`` in plain
decimal; the CLI alone calls it, in the one function that rounds each
printed decimal.  No module uses :class:`BigFixed`, its fixed point.

Rounding onto the decimal grid 10**-scale happens in two ways only.
:func:`_div_nearest`, and :meth:`BigFixed.from_fraction` through it,
rounds to nearest (error at most half an ulp, ties away from zero,
symmetrically for negative values); :func:`floor_div` and
:func:`ceil_div` round an integer quotient down and up, and are the one
directed rounding every enclosure in the package is built with: the
expression evaluator, the root kernels and the CLI's printed bounds
round their integer units with them.

:func:`_binary_split`, the one (P, Q, T) splitter, sums Chudnovsky's pi
series for oracle and the factorial series' runs for series, exactly.

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
    "root_interval",
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


def _rational_to_digits(num: int, den: int = 1) -> str:
    """str(Fraction(num, den)) for a pair in lowest terms, den > 0: "n" or
    "n/d", with no cap on the digits (str() refuses ints past CPython's
    int->str limit)."""
    text = ("-" if num < 0 else "") + _int_to_digits(abs(num))
    return text if den == 1 else f"{text}/{_int_to_digits(den)}"


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


def _binary_split(leaf, a: int, b: int) -> tuple[int, int, int]:
    """(P, Q, T) of the sum of c(k) r(k), a <= k < b, with r(k) = r(k-1)
    p(k)/q(k) and leaf(k) = (p(k), q(k), c(k) p(k)): P, Q the products of
    p, q, and T/Q the sum in units of r(a-1); (1, 1, 0) for no terms."""
    if b - a < 2:
        return leaf(a) if b > a else (1, 1, 0)
    m = (a + b) // 2
    p1, q1, t1 = _binary_split(leaf, a, m)
    p2, q2, t2 = _binary_split(leaf, m, b)
    return p1 * p2, q1 * q2, t1 * q2 + p1 * t2


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


def root_interval(lo: int, hi: int, den: int, k: int, scale: int) -> tuple[int, int, int]:
    """Bounds (r_lo, r_hi, 10**scale) on the k-th roots of lo/den and
    hi/den: r_lo <= (lo/den)**(1/k) * 10**scale and (hi/den)**(1/k) *
    10**scale <= r_hi.  Requires 0 <= lo <= hi and den > 0."""
    if lo < 0:
        raise ValueError("root of negative value")
    if hi < lo:
        raise ValueError("empty interval")
    p = 10 ** (k * scale)
    return iroot(floor_div(lo * p, den), k), iroot(ceil_div(hi * p, den), k) + 1, 10**scale


# ---------------------------------------------------------------------------
# exact decimal logarithms


def _pow10_at_most(e: int, num: int, den: int) -> bool:
    """10**e <= num/den, on integers."""
    if e >= 0:
        return 10**e * den <= num
    return den <= num * 10**-e


def ilog10_floor(num: int, den: int = 1) -> int:
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


def _general(num: int, den: int) -> str:
    """num/den, den > 0, as f"{num / den:g}" prints it: six significant
    digits, ties to even, in fixed or exponent layout.  Exact, and for a
    value past float range too."""
    if num == 0:
        return "0"
    e = ilog10_floor(abs(num), den)
    shift = 5 - e  # the digits m = num/den * 10**shift, 10**5 <= m < 10**6
    n, d = abs(num) * 10**max(shift, 0), den * 10**max(-shift, 0)
    m, r = divmod(n, d)
    if 2 * r > d or (2 * r == d and m % 2):
        m += 1
    if m == 10**6:
        m, e = 10**5, e + 1
    fixed = -4 <= e < 6
    text = _fixed_to_string(m, 5 - e if fixed else 5)
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return ("-" if num < 0 else "") + (text if fixed else f"{text}e{e:+03d}")


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
        r_lo, r_hi, unit = root_interval(self.r, self.r, 1, 2, scale)
        s_lo, s_hi = Fraction(r_lo, unit), Fraction(r_hi, unit)
        if self.b > 0:
            return self.a + self.b * s_lo, self.a + self.b * s_hi
        return self.a + self.b * s_hi, self.a + self.b * s_lo

    def __str__(self) -> str:
        def text(q: Fraction) -> str:
            return _rational_to_digits(q.numerator, q.denominator)

        if self.b == 0:
            return text(self.a)
        root = f"sqrt({self.r})"
        if self.b != 1:
            root = f"{root}*{text(self.b)}"
        if self.a == 0:
            return root
        if self.a < 0:
            return f"{root} - {text(-self.a)}"
        return f"{text(self.a)} + {root}"
