"""Exact readings of an RInterval for the tests, taken from its exact_ends()."""

from decimal import MAX_EMAX, MIN_EMIN, ROUND_CEILING, ROUND_FLOOR, Context, Decimal
from fractions import Fraction


def encloses(iv, x) -> bool:
    """lo <= x <= hi, exactly, for an int or Fraction x."""
    lo, hi = iv.exact_ends()
    return lo <= x <= hi


def width(iv) -> Fraction:
    lo, hi = iv.exact_ends()
    return hi - lo


def mid(iv) -> Fraction:
    lo, hi = iv.exact_ends()
    return (lo + hi) / 2


def assert_printed_ends_directed(iv, lo: str, hi: str, digits: int) -> None:
    """The printed pair encloses iv, and each string is the nearest decimal
    of ``digits`` significant digits on its side of its end: the decimal
    module rounds a quotient correctly in every rounding mode."""
    lo_x, hi_x = iv.exact_ends()
    assert Fraction(lo) <= lo_x and hi_x <= Fraction(hi), (lo, hi)
    for s, x, rounding in ((lo, lo_x, ROUND_FLOOR), (hi, hi_x, ROUND_CEILING)):
        ctx = Context(digits, rounding, MIN_EMIN, MAX_EMAX)
        assert Decimal(s) == ctx.divide(Decimal(x.numerator), Decimal(x.denominator)), s
