"""Primitive Pythagorean generator pairs and their 2-adic anatomy.

A coprime, opposite-parity pair (m, n) with m > n >= 1 generates the
primitive triple a = m^2 - n^2, b = 2mn, c = m^2 + n^2.  The analysis of
exceptional solutions needs a finer decomposition of the pair itself:
the even member is 2^alpha * i with i odd, and the odd member is
2^beta * j + e with j odd, beta >= 2, e = +/-1 chosen by the residue
mod 4.  This module also hosts the pair-level exclusion conditions and
the scan that locates the smallest hypotenuse compatible with them.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

from .numerics import is_prime_power, val_p

__all__ = [
    "PrimPair",
    "PythTriple",
    "triple_of",
    "TwoAdicProfile",
    "two_adic_profile",
    "exclusion_conditions",
    "min_c_scan",
    "iter_pairs",
]


@dataclass(frozen=True)
class PrimPair:
    """Generator pair, normalized so m > n >= 1; coprime, opposite parity."""

    m: int
    n: int

    def __post_init__(self):
        m, n = self.m, self.n
        if m < 1 or n < 1:
            raise ValueError("pair members must be positive")
        if n > m:
            # accept either order on input, store larger first
            object.__setattr__(self, "m", n)
            object.__setattr__(self, "n", m)
            m, n = n, m
        if m == n:
            raise ValueError("pair members must be distinct")
        if math.gcd(m, n) != 1:
            raise ValueError(f"({m},{n}) not coprime")
        if (m - n) % 2 == 0:
            raise ValueError(f"({m},{n}) must have opposite parity")

    @property
    def even_member(self) -> int:
        return self.m if self.m % 2 == 0 else self.n

    @property
    def odd_member(self) -> int:
        return self.m if self.m % 2 == 1 else self.n


@dataclass(frozen=True)
class PythTriple:
    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.a**2 + self.b**2 != self.c**2:
            raise ValueError("not a Pythagorean triple")


def triple_of(p: PrimPair) -> PythTriple:
    m, n = p.m, p.n
    return PythTriple(m * m - n * n, 2 * m * n, m * m + n * n)


@dataclass(frozen=True)
class TwoAdicProfile:
    """even member = 2^alpha * i, odd member = 2^beta * j + e.

    i, j odd; e in {+1, -1} picked so the odd member is e mod 4,
    which forces beta >= 2.
    """

    alpha: int
    i: int
    beta: int
    j: int
    e: int


def two_adic_profile(p: PrimPair) -> TwoAdicProfile:
    ev = p.even_member
    od = p.odd_member
    alpha = val_p(ev, 2)
    i = ev >> alpha
    e = 1 if od % 4 == 1 else -1
    rest = od - e
    if rest == 0:
        raise ValueError("odd member 1 has no 2-adic decomposition")
    beta = val_p(rest, 2)
    j = rest >> beta
    return TwoAdicProfile(alpha=alpha, i=i, beta=beta, j=j, e=e)


def exclusion_conditions(p: PrimPair) -> dict[str, bool | None]:
    """The five pair-level conditions an exceptional solution would force.

    A pair failing any one of them cannot carry an exceptional solution.
    A condition that cannot be decided is None: c_not_prime_power when
    the primality test cannot settle c.  None never counts as passing.
    """
    prof = two_adic_profile(p)
    c = p.m * p.m + p.n * p.n
    try:
        c_not_prime_power = not is_prime_power(c)
    except ValueError:  # a root of c at or above PSI_13 passed every base
        c_not_prime_power = None
    return {
        "alpha_ge_2": prof.alpha >= 2,
        "n_ge_4": p.n >= 4,
        "two_alpha_ne_beta_plus_1": 2 * prof.alpha != prof.beta + 1,
        "c_not_prime_power": c_not_prime_power,
        "m_minus_n_ge_3": p.m - p.n >= 3,
    }


def iter_pairs(m_max: int):
    """All primitive pairs with m <= m_max, ordered by (m, n)."""
    for m in range(2, m_max + 1):
        for n in range(1, m):
            if (m - n) % 2 == 1 and math.gcd(m, n) == 1:
                yield PrimPair(m, n)


def min_c_scan(c_limit: int) -> tuple[int | None, set[tuple[int, int]]]:
    """Smallest c = m^2 + n^2 <= c_limit passing every exclusion condition.

    Returns (c, pairs achieving it); (None, empty set) when no pair with
    c <= c_limit passes.
    """
    best: int | None = None
    winners: set[tuple[int, int]] = set()
    m = 2
    while m * m + 1 <= c_limit:
        for n in range(1, m):
            c = m * m + n * n
            if c > c_limit:
                break
            if (m - n) % 2 == 0 or math.gcd(m, n) != 1:
                continue
            pair = PrimPair(m, n)
            if pair.odd_member == 1:
                continue
            if all(exclusion_conditions(pair).values()):
                if best is None or c < best:
                    best = c
                    winners = {(m, n)}
                elif c == best:
                    winners.add((m, n))
        m += 1
    return best, winners
