"""Series definitions, certified partial sums, and convergence tables.

A :class:`SeriesSpec` bundles everything needed to evaluate and certify a
series: an exact offset, its terms, and a tail bound ``tail_bound(N)``
that dominates the true remainder after the term with index N.  Tail
bounds are the load-bearing part; each builtin documents its derivation
next to its definition.

Every exact rational here is an integer pair (p, q), q > 0, the value
p/q, not necessarily in lowest terms: a spec's offset, its tail bounds,
and the values, bounds and errors the sums and tables return.  A spec
states its terms once, as runs of such pairs ``pairs(a, b)``, so a run
can carry state from one term to the next (the factorial of the e series
is multiplied up, not rebuilt).  The sums read these runs: an exact
sum joins them over a common denominator, a fixed-point sum rounds each
pair inline.  A sum reads ``run_sum(a, b)`` instead, exactly at any
count, where a spec states it: e's runs and those of its scaled copies
and of the regrouped e series are summed by bignum's (P, Q, T) splitter,
as oracle's Chudnovsky series is.  ``term(n)`` is the run of one index as a
Fraction, a view for callers; it alone imports :mod:`fractions`.

Builtins (index ranges are inclusive of start_index):

* ``E_FACTORIAL``      e     = sum(1/n!, n >= 0)
* ``GREGORY_LEIBNIZ``  pi    = sum(4*(-1)^n/(2n+1), n >= 0)
* ``NILAKANTHA``       pi    = 3 + sum((-1)^(n+1)/(n(2n+1)(n+1)), n >= 1)
* ``NILAKANTHA_PAIRED`` 2pi  = 6 + 1/3 - sum(3/(n(n+1)(4n+1)(4n+3)), n >= 1)
* ``LAMBDA6``          pi^6  = 960 * sum(1/(2n+1)^6, n >= 0)
* ``ZETA8``            pi^8  = 9450 * sum(1/n^8, n >= 1)
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import cycle, islice

from ._record import record
from .bignum import _binary_split, ilog10_floor
from .oracle import CONSTANTS, NoCertifiedResult, constant_reference

__all__ = [
    "SeriesSpec",
    "SumResult",
    "ConvergenceRow",
    "InfeasibleRequest",
    "BoundViolation",
    "builtin",
    "builtin_names",
    "scale_series",
    "partial_sum",
    "terms_needed",
    "convergence_table",
    "DEFAULT_MAX_TERMS",
]

DEFAULT_MAX_TERMS = 10**8

#: past this many terms a series with no run_sum is summed in fixed point,
#: not exactly (exact arithmetic slows as denominators grow)
EXACT_TERM_LIMIT = 10**4

#: working scale of the fixed-point accumulation path
FIXED_ACC_SCALE = 40

#: _exact_sum adds runs of at most this many terms one by one
_LEAF_TERMS = 16


class InfeasibleRequest(ValueError, NoCertifiedResult):
    """The requested precision needs more terms than the allowed cap."""

    def __init__(self, name: str, digits: int, cap: int):
        super().__init__(
            f"{name}: tail bound cannot reach 10^-{digits} within {cap} terms"
        )
        self.name = name
        self.digits = digits
        self.cap = cap


class BoundViolation(AssertionError):
    """A certified tail bound failed to dominate the measured error."""


@record
class SeriesSpec:
    """Immutable description of a series and its error certificate.

    A spec is its pairs: pairs(a, b) yields the terms with indices a..b
    in order as integer pairs (p, q), q > 0, the term being p/q, not
    necessarily in lowest terms; nothing when a > b.  term(n) is derived
    from them.  offset is a pair of the same kind, and tail_bound(N) is
    one that bounds the absolute value of the sum of all terms with
    index > N.  alternating marks series whose terms strictly alternate
    in sign with non-increasing magnitude (which is what makes
    |term(N+1)| a valid tail bound); run_sum(a, b), if set, sums a run.
    """

    name: str
    constant: str
    offset: tuple[int, int]
    start_index: int
    pairs: Callable[[int, int], Iterable[tuple[int, int]]]
    tail_bound: Callable[[int], tuple[int, int]]
    alternating: bool = False
    run_sum: Callable[[int, int], tuple[int, int]] | None = None

    def __post_init__(self) -> None:
        if self.constant not in CONSTANTS:
            raise ValueError(f"unknown constant {self.constant!r}")

    def term(self, n: int) -> Fraction:
        """The exact n-th term as a Fraction: the run of index n alone."""
        from fractions import Fraction
        [(p, q)] = self.pairs(n, n)
        return Fraction(p, q)


@record
class SumResult:
    """Partial sum with certificate.

    value: the partial sum including the offset, a pair (p, q), q > 0:
    the exact sum of the terms, if the spec states run_sum or at most
    EXACT_TERM_LIMIT terms were asked for; else the exact value of the
    fixed-point sum (each term rounded inline), its rounding in `bound`.
    terms_used: index of the last term included.
    bound: certified bound on |true limit - value|, a pair as well.
    """

    value: tuple[int, int]
    terms_used: int
    bound: tuple[int, int]


@record
class ConvergenceRow:
    n: int
    value: tuple[int, int]  # the exact partial sum, a pair (p, q), q > 0
    abs_error: tuple[int, int]  # |value - reference|, a pair as well
    bound: tuple[int, int]
    digits_correct: int


def _pairs_e(a: int, b: int) -> Iterator[tuple[int, int]]:
    # 1/n!, with n! multiplied up from a! along the run
    q = math.factorial(a)
    for n in range(a, b + 1):
        yield 1, q
        q *= n + 1


def _run_e(a: int, b: int) -> tuple[int, int]:
    # sum(1/n!, a <= n <= b) = T/(Q (a-1)!) = T/b!: 1/n! is 1/(n-1)! over n, (-1)! is 1
    _, q, t = _binary_split(lambda n: (1, n or 1, 1), a, b + 1)
    return t, q * math.factorial(max(a - 1, 0))


def _tail_e(n: int) -> tuple[int, int]:
    # sum(1/m!, m > N) <= (1/(N+1)!) * sum (1/(N+2))^j <= 2/(N+1)!
    return 2, math.factorial(n + 1)


def _pairs_gl(a: int, b: int) -> Iterator[tuple[int, int]]:
    # 4 (-1)^n / (2n + 1): signs alternating from that of index a
    return zip(cycle((4, -4) if a % 2 == 0 else (-4, 4)), range(2 * a + 1, 2 * b + 2, 2))


def _pairs_nila(a: int, b: int) -> Iterator[tuple[int, int]]:
    return ((1 if n % 2 else -1, n * (2 * n + 1) * (n + 1)) for n in range(a, b + 1))


def _pairs_paired(a: int, b: int) -> Iterator[tuple[int, int]]:
    return ((-3, n * (n + 1) * (4 * n + 1) * (4 * n + 3)) for n in range(a, b + 1))


def _tail_paired(n: int) -> tuple[int, int]:
    # n(n+1)(4n+1)(4n+3) >= 16 n^4, and sum(1/m^4, m > N) <= integral
    # from N of x^-4 dx = 1/(3N^3), so the tail is at most
    # 3/(16 * 3 N^3) = 1/(16 N^3).
    return 1, 16 * n**3


def _pairs_lambda6(a: int, b: int) -> Iterator[tuple[int, int]]:
    return ((960, (2 * n + 1) ** 6) for n in range(a, b + 1))


def _tail_lambda6(n: int) -> tuple[int, int]:
    # sum(1/(2m+1)^6, m > N) <= integral from N of (2x+1)^-6 dx
    #                         = (2N+1)^-5 / 10
    return 96, (2 * n + 1) ** 5


def _pairs_zeta8(a: int, b: int) -> Iterator[tuple[int, int]]:
    return ((9450, n**8) for n in range(a, b + 1))


def _tail_zeta8(n: int) -> tuple[int, int]:
    # sum(1/m^8, m > N) <= integral from N of x^-8 dx = 1/(7 N^7)
    return 9450, 7 * n**7


E_FACTORIAL = SeriesSpec(
    name="e-factorial",
    constant="e",
    offset=(0, 1),
    start_index=0,
    pairs=_pairs_e,
    tail_bound=_tail_e,
    run_sum=_run_e,
)

GREGORY_LEIBNIZ = SeriesSpec(
    name="gregory-leibniz",
    constant="pi",
    offset=(0, 1),
    start_index=0,
    pairs=_pairs_gl,
    tail_bound=lambda n: (4, 2 * n + 3),
    alternating=True,
)

NILAKANTHA = SeriesSpec(
    name="nilakantha",
    constant="pi",
    offset=(3, 1),
    start_index=1,
    pairs=_pairs_nila,
    tail_bound=lambda n: (1, (n + 1) * (2 * n + 3) * (n + 2)),
    alternating=True,
)

NILAKANTHA_PAIRED = SeriesSpec(
    name="nilakantha-paired",
    constant="two_pi",
    offset=(19, 3),
    start_index=1,
    pairs=_pairs_paired,
    tail_bound=_tail_paired,
)

LAMBDA6 = SeriesSpec(
    name="lambda6",
    constant="pi6",
    offset=(0, 1),
    start_index=0,
    pairs=_pairs_lambda6,
    tail_bound=_tail_lambda6,
)

ZETA8 = SeriesSpec(
    name="zeta8",
    constant="pi8",
    offset=(0, 1),
    start_index=1,
    pairs=_pairs_zeta8,
    tail_bound=_tail_zeta8,
)

_BUILTINS = {
    s.name: s
    for s in (E_FACTORIAL, GREGORY_LEIBNIZ, NILAKANTHA, NILAKANTHA_PAIRED, LAMBDA6, ZETA8)
}


def builtin(name: str) -> SeriesSpec:
    """Look up a builtin series by its hyphenated name."""
    try:
        return _BUILTINS[name]
    except KeyError:
        raise ValueError(f"unknown series {name!r}; expected one of {sorted(_BUILTINS)}") from None


def builtin_names() -> tuple[str, ...]:
    return tuple(_BUILTINS)


def scale_series(spec: SeriesSpec, factor: int | Fraction, *, name: str | None = None,
                 constant: str | None = None) -> SeriesSpec:
    """Multiply a series by an exact constant factor: an int, a Fraction,
    or any exact number with as_integer_ratio.

    The caller must say what the scaled series describes (e.g. doubling
    a pi series gives a two_pi series); the label does not change by
    itself.
    """
    fn, fd = factor.as_integer_ratio()  # fd > 0
    if fn == 0:
        raise ValueError("factor must be nonzero")

    def scaled(pq: tuple[int, int]) -> tuple[int, int]:
        return fn * pq[0], fd * pq[1]

    def pairs(a: int, b: int, _p=spec.pairs) -> Iterator[tuple[int, int]]:
        return map(scaled, _p(a, b))

    def tail(n: int, _b=spec.tail_bound) -> tuple[int, int]:
        p, q = _b(n)
        return abs(fn) * p, fd * q

    return SeriesSpec(
        name=name or f"{spec.name}-scaled",
        constant=constant or spec.constant,
        offset=scaled(spec.offset),
        start_index=spec.start_index,
        pairs=pairs,
        tail_bound=tail,
        alternating=spec.alternating,
        run_sum=spec.run_sum and (lambda a, b, _r=spec.run_sum: scaled(_r(a, b))),
    )


def _join(p1: int, q1: int, p2: int, q2: int) -> tuple[int, int]:
    """p1/q1 + p2/q2 as a pair over lcm(q1, q2)."""
    g = math.gcd(q1, q2)
    return p1 * (q2 // g) + p2 * (q1 // g), q1 // g * q2


def _exact_sum(pairs: Iterator[tuple[int, int]], count: int) -> tuple[int, int]:
    """Exact sum of the next `count` terms of `pairs` as integers (P, Q),
    Q > 0, not in lowest terms; (0, 1) when count is 0.

    A leaf of up to _LEAF_TERMS terms joins over the product of their
    denominators with one gcd at its end.  Longer runs are halved
    recursively, so each join meets sums of similar size, and joined over
    the lcm; depth-first, so terms are drawn in order.
    """
    if count <= _LEAF_TERMS:
        p1, q1 = 0, 1
        for p, q in islice(pairs, count):
            p1, q1 = p1 * q + p * q1, q1 * q
        g = math.gcd(p1, q1)
        return p1 // g, q1 // g
    half = (count + 1) // 2
    return _join(*_exact_sum(pairs, half), *_exact_sum(pairs, count - half))


def partial_sum(spec: SeriesSpec, n: int) -> SumResult:
    """Offset plus terms start_index..n, with a certified bound.

    Exact by run_sum at any count, where the spec states it, or else up
    to EXACT_TERM_LIMIT terms (see _exact_sum), joined to the offset as
    a pair; the bound is then exactly tail_bound(n).  Beyond that each
    term p/q is rounded inline to the nearest multiple of
    10**-FIXED_ACC_SCALE (ties away from zero, as bignum._div_nearest),
    the integers are added, and the per-term rounding (at most half an
    ulp each) is added to the bound.
    """
    if n < spec.start_index:
        raise ValueError(f"n must be >= start_index ({spec.start_index})")
    count = n - spec.start_index + 1
    pairs = iter(spec.pairs(spec.start_index, n))
    if spec.run_sum or count <= EXACT_TERM_LIMIT:
        run = spec.run_sum(spec.start_index, n) if spec.run_sum else _exact_sum(pairs, count)
        return SumResult(_join(*spec.offset, *run), n, spec.tail_bound(n))
    unit = 10**FIXED_ACC_SCALE
    two_unit = 2 * unit
    acc = 0
    for p, q in pairs:
        if p >= 0:
            acc += (p * two_unit + q) // (2 * q)
        else:
            acc -= (q - p * two_unit) // (2 * q)
    return SumResult(_join(*spec.offset, acc, unit), n, _join(*spec.tail_bound(n), count, two_unit))


def terms_needed(spec: SeriesSpec, digits: int) -> int:
    """Smallest last-index N with tail_bound(N) < 10**-digits.

    Galloping search followed by bisection, so expensive tail bounds
    (factorials) are only evaluated O(log N) times.  N is at most
    DEFAULT_MAX_TERMS, the one ceiling: past it InfeasibleRequest is
    raised.
    """
    scale = 10**digits

    def below(n: int) -> bool:
        # tail_bound(n) = p/q < 10**-digits, cross-multiplied
        p, q = spec.tail_bound(n)
        return p * scale < q

    lo = spec.start_index
    if below(lo):
        return lo
    hi = max(lo * 2, lo + 1)
    while not below(hi):
        if hi >= DEFAULT_MAX_TERMS:
            raise InfeasibleRequest(spec.name, digits, DEFAULT_MAX_TERMS)
        lo, hi = hi, min(hi * 2, DEFAULT_MAX_TERMS)
    # invariant: not below(lo), and below(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if below(mid):
            hi = mid
        else:
            lo = mid
    return hi


def convergence_table(spec: SeriesSpec, checkpoints: Sequence[int]) -> list[ConvergenceRow]:
    """Error table at the given checkpoints, hard-checked for soundness.

    Every row asserts measured_error <= certified bound; a violation
    raises BoundViolation.  The reference is the oracle's, certified ten
    digits past the smallest tail bound; if an error still lies within
    ten times its certificate, ValueError is raised, since a fuzzy
    reference could mask a bound violation.

    digits_correct is the relative agreement with the reference:
    floor(-log10(|error| / |reference|)), clamped at zero.  Values,
    errors and bounds are pairs (p, q), q > 0, as in SumResult.
    """
    points = sorted(set(checkpoints))
    if not points:
        return []
    if points[0] < spec.start_index:
        raise ValueError(f"checkpoints must be >= start_index ({spec.start_index})")
    bounds = [spec.tail_bound(point) for point in points]
    # the reference must be finer than every error in the table; the
    # builtin errors sit within a small factor of their bounds, so ten
    # digits past the smallest bound suffice (and 60 digits cover every
    # table whose bounds stay above 10^-50); floor(-log10(p/q)) is
    # largest at the smallest bound
    digits = max(ilog10_floor(q, p) for p, q in bounds) + 10
    lo, hi, den = constant_reference(spec.constant, max(60, digits))
    # the reference is mid / two_den with certificate rad / two_den
    mid, rad, two_den = lo + hi, hi - lo, 2 * den
    rows = []
    pq = 0, 1  # the terms so far, carried as a pair between checkpoints
    pairs = iter(spec.pairs(spec.start_index, points[-1]))
    i = spec.start_index
    for point, (bp, bq) in zip(points, bounds):
        pq = _join(*pq, *(spec.run_sum(i, point) if spec.run_sum
                          else _exact_sum(pairs, point - i + 1)))
        tp, tq = _join(*spec.offset, *pq)
        i = point + 1
        # the error is err / (tq * two_den), the certificate eps over the same
        err, eps = abs(tp * two_den - mid * tq), rad * tq
        if 10 * eps > err:
            raise ValueError("reference oracle not precise enough for this table")
        if (err - eps) * bq > bp * tq * two_den:
            raise BoundViolation(
                f"{spec.name} at N={point}: measured error {err / (tq * two_den):g} "
                f"exceeds certified bound {bp / bq:g}"
            )
        rows.append(
            ConvergenceRow(
                n=point,
                value=(tp, tq),
                abs_error=(err, tq * two_den),
                bound=(bp, bq),
                # (err + eps) / |reference| = (err + eps) / (tq * |mid|)
                digits_correct=max(0, ilog10_floor(tq * abs(mid), err + eps)),
            )
        )
    return rows
