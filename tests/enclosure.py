"""Exact readings of an RInterval for the tests, taken from its exact_ends()."""

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
