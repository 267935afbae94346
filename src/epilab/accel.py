"""Convergence acceleration by regrouping and pairing alternating series.

The slow alternating pi series can be rewritten without changing any
finite partial sum:

* Regrouping turns the Gregory-Leibniz tail into the Nilakantha form;
  ``gl_regroup_term`` returns the three algebraically equal shapes of
  the Nilakantha term,

      1/(n+1) + 1/n - 4/(2n+1)
    = 1/(n (2n+1) (n+1))
    = 4/((2n+1)^3 - (2n+1)).

* Pairing folds consecutive terms of an alternating series into
  single-signed terms that shrink one order faster.  Applied to the
  doubled Nilakantha series (keeping the first term 1/3 in the offset)
  it yields

      2*pi = 6 + 1/3 - 3/70 - 1/198 - 1/780 - ...

  with closed-form paired term -3/(n (n+1) (4n+1) (4n+3)).

``compare_expansions`` lines the regrouped e series up against the
paired 2*pi series term by term; their running sum starts at exactly 9
and drifts to e + 2*pi = 9.0014..., which is the whole joke of the
"e + 2*pi = 9" coincidence.

As in :mod:`epilab.series`, exact rationals are integer pairs (p, q),
q > 0; ``gl_regroup_term`` and ``paired_term_identity`` hand Fractions
to their callers and alone import :mod:`fractions`.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from itertools import chain

from ._record import record
from .series import E_FACTORIAL, NILAKANTHA, NILAKANTHA_PAIRED, SeriesSpec, _join, scale_series

__all__ = [
    "gl_regroup_term",
    "paired_term_identity",
    "pair_transform",
    "nilakantha_doubled",
    "e_regrouped",
    "compare_expansions",
    "CompareRow",
]


def gl_regroup_term(n: int) -> tuple[Fraction, Fraction, Fraction]:
    """The three equal forms of the regrouped term at index n >= 1.

    Returns term magnitudes without the alternating sign; all three are
    exactly equal for every n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    from fractions import Fraction
    a = Fraction(1, n + 1) + Fraction(1, n) - Fraction(4, 2 * n + 1)
    b = Fraction(1, n * (2 * n + 1) * (n + 1))
    c = Fraction(4, (2 * n + 1) ** 3 - (2 * n + 1))
    return a, b, c


def paired_term_identity(n: int) -> tuple[Fraction, Fraction]:
    """(grouped, closed) forms of the n-th paired term, n >= 1.

    grouped = 2*(t(2n) + t(2n+1)) built from the original Nilakantha
    terms; closed = -3/(n (n+1) (4n+1) (4n+3)).  They are equal for
    every n; n=1 gives -3/70 via 2*(-1/30 + 1/84).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    from fractions import Fraction
    grouped = 2 * (NILAKANTHA.term(2 * n) + NILAKANTHA.term(2 * n + 1))
    closed = Fraction(-3, n * (n + 1) * (4 * n + 1) * (4 * n + 3))
    return grouped, closed


def _check_alternating_prefix(spec: SeriesSpec, count: int = 50) -> None:
    prev = None
    for i, (p, q) in enumerate(spec.pairs(spec.start_index, spec.start_index + count - 1),
                               spec.start_index):
        if p == 0:
            raise ValueError(f"{spec.name}: zero term at {i}, cannot pair")
        if prev is not None:
            pp, pq = prev
            if (p > 0) == (pp > 0):
                raise ValueError(f"{spec.name}: terms {i-1},{i} do not alternate")
            if abs(p) * pq > abs(pp) * q:
                raise ValueError(f"{spec.name}: |term| increases at {i}")
        prev = p, q


def pair_transform(spec: SeriesSpec, fold_into_offset: int = 1) -> SeriesSpec:
    """Group consecutive terms of an alternating series in pairs.

    The first `fold_into_offset` terms are added to the offset; the
    remaining terms are grouped two at a time, so the new term k (k >= 1)
    is term(s + 2k - 2) + term(s + 2k - 1) with s = start_index +
    fold_into_offset.  Any finite partial sum of the result equals a
    partial sum of the original, so nothing about the limit changes.

    The new tail bound after K pairs is the alternating-series bound of
    the original at the first unconsumed index, |term(s + 2K)|.

    The default fold of one term matches the classic paired form of the
    doubled Nilakantha series, which keeps 2 * 1/6 = 1/3 unpaired.
    """
    if fold_into_offset < 0:
        raise ValueError("fold_into_offset must be >= 0")
    if not spec.alternating:
        raise ValueError(f"{spec.name} is not marked alternating")
    _check_alternating_prefix(spec)
    s = spec.start_index + fold_into_offset
    offset = spec.offset
    for p, q in spec.pairs(spec.start_index, s - 1):
        offset = _join(*offset, p, q)

    def pairs(a: int, b: int, _p=spec.pairs, _s=s) -> Iterator[tuple[int, int]]:
        # new terms a..b are the original terms s + 2a - 2 .. s + 2b - 1,
        # read as one run and added two at a time
        run = iter(_p(_s + 2 * a - 2, _s + 2 * b - 1))
        return ((p1 * q2 + p2 * q1, q1 * q2) for (p1, q1), (p2, q2) in zip(run, run))

    def tail(k: int, _p=spec.pairs, _s=s) -> tuple[int, int]:
        [(p, q)] = _p(_s + 2 * k, _s + 2 * k)
        return abs(p), q

    return SeriesSpec(
        name=f"{spec.name}-paired",
        constant=spec.constant,
        offset=offset,
        start_index=1,
        pairs=pairs,
        tail_bound=tail,
        alternating=False,
    )


def nilakantha_doubled() -> SeriesSpec:
    """The Nilakantha series scaled by 2, describing 2*pi."""
    return scale_series(NILAKANTHA, 2, name="nilakantha-doubled", constant="two_pi")


def _e_regrouped_pairs(a: int, b: int) -> Iterator[tuple[int, int]]:
    # 1 + 1 + 1/2 + 1/6 = 3 - 1/3, then the plain factorial terms: term
    # k >= 3 is 1/(k+1)!, term k + 1 of the factorial series
    return chain(((3, 1), (-1, 3))[a - 1:b], E_FACTORIAL.pairs(max(a, 3) + 1, b + 1))


def _e_regrouped_run(a: int, b: int) -> tuple[int, int]:
    # the heads 3 = 9/3 and -1/3 within a..b, then the factorial run shifted by one
    return _join(9 * (a <= 1 <= b) - (a <= 2 <= b), 3, *E_FACTORIAL.run_sum(max(a, 3) + 1, b + 1))


def _e_regrouped_tail(k: int) -> tuple[int, int]:
    if k == 1:
        return 1, 3  # |e - 3| < 1/3
    return 2, math.factorial(k + 2)  # 2/(k+2)!


def e_regrouped() -> SeriesSpec:
    """The display form of the factorial series: 3 - 1/3 + 1/24 + ...

    Term k >= 3 is 1/(k+1)!, so the partial sum through term k equals
    the factorial series through 1/(k+1)!.  Used by compare_expansions
    to line e up against the paired 2*pi series.
    """
    return SeriesSpec(
        name="e-factorial-regrouped",
        constant="e",
        offset=(0, 1),
        start_index=1,
        pairs=_e_regrouped_pairs,
        tail_bound=_e_regrouped_tail,
        run_sum=_e_regrouped_run,
    )


@record
class CompareRow:
    k: int
    e_term: tuple[int, int]  # exact, num/den with den > 0, in lowest terms
    two_pi_term: tuple[int, int]  # the same
    running: tuple[int, int]  # exact, num/den with den > 0, not in lowest terms
    distance_to_9: tuple[int, int]  # the same


def compare_expansions(rows: int) -> Iterator[CompareRow]:
    """Term-by-term table of the e and 2*pi expansions and their sum.

    Row 1 holds the integer heads (3 and 6, summing to 9 exactly); row 2
    the cancelling pair -1/3 and +1/3; afterwards both series creep
    toward their limits and the running sum drifts from 9 toward
    e + 2*pi = 9.0014...  The check runs at the call; each row is made as
    it is read, so a reader that renders each row in turn holds one row's
    exact sums at a time.
    """
    if rows < 1:
        raise ValueError("rows must be >= 1")
    # the 2*pi view splits the offset into display rows: 6, then +1/3
    terms = zip(e_regrouped().pairs(1, rows),
                chain(((6, 1), (1, 3)), NILAKANTHA_PAIRED.pairs(1, rows - 2)))
    def made():
        # The running sum is num/den with den = eq * pq: eq the last e
        # denominator, which each next one is a multiple of (1, 3, then
        # 4!, 5!, ...), and pq the product of the 2*pi denominators so
        # far.  So every row multiplies by small ints only, and pays no gcd
        # but the one that puts the 2*pi term in lowest terms (the e terms,
        # 3, -1/3 and 1/(k+1)!, are in lowest terms already).
        num, den, eq, pq = 0, 1, 1, 1
        for k, ((ep, q_e), (pp, q_p)) in enumerate(terms, 1):
            m = q_e // eq
            num = (num * m + ep * pq) * q_p + pp * den * m
            den *= m * q_p
            eq, pq = q_e, pq * q_p
            g = math.gcd(pp, q_p)
            yield CompareRow(
                k=k,
                e_term=(ep, q_e),
                two_pi_term=(pp // g, q_p // g),
                running=(num, den),
                distance_to_9=(abs(num - 9 * den), den),
            )
    return made()
