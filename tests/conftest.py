"""Shared fixtures."""

from __future__ import annotations

import sys
from fractions import Fraction

import pytest

from epilab import oracle

#: CPython's default cap on int <-> str conversions (CVE-2020-10735)
DEFAULT_INT_MAX_STR_DIGITS = 4300


@pytest.fixture
def default_int_str_limit():
    """Pin the int <-> str cap at its default, so an environment that raises
    it (PYTHONINTMAXSTRDIGITS) cannot hide a conversion that hits it."""
    if not hasattr(sys, "set_int_max_str_digits"):  # interpreters without the cap
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(DEFAULT_INT_MAX_STR_DIGITS)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


@pytest.fixture(autouse=True)
def cold_oracle_caches():
    """Start every test with an empty pi and e cache, as every CLI command
    starts, so that no test's result or cost depends on the tests run
    before it."""
    oracle._cache.clear()


def reference(constant: str, digits: int) -> Fraction:
    """The midpoint of the oracle's enclosure of a constant, within
    10**-(digits + 2) of it."""
    lo, hi, den = oracle.constant_reference(constant, digits)
    return Fraction(lo + hi, 2 * den)


def as_fractions(bounds: tuple[int, int, int]) -> tuple[Fraction, Fraction]:
    """Bounds (lo, hi, den) read back as the rational enclosure
    [lo/den, hi/den]."""
    lo, hi, den = bounds
    return Fraction(lo, den), Fraction(hi, den)


def as_bounds(lo: Fraction, hi: Fraction) -> tuple[int, int, int]:
    """The rational enclosure [lo, hi] as bounds (lo, hi, den) over one
    denominator."""
    return lo.numerator * hi.denominator, hi.numerator * lo.denominator, lo.denominator * hi.denominator
