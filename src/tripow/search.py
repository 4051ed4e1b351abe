"""Exact solvers for a^x + b^y = c^z, and gaussian_power_structure, the
divisibility and valuation checks on a Gaussian power (a1 + b1 i)^Z.

Two solver routes are kept deliberately separate: a dominant-term
solver, which for each z tests only the one power of a and the one
power of b that can be the larger term of c^z (at most two exact
lookups per z among the powers its walk has built), and a reference
solver that tries every (x, y, z) triple with exact big-integer
arithmetic.  Tests compare them on overlapping ranges.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

from .numerics import GaussianInt, g_pow, val_p
from .triples import PrimPair, iter_pairs, triple_of

__all__ = [
    "ExponentTriple",
    "SolutionRecord",
    "find_solutions",
    "find_solutions_unpruned",
    "scan_range",
    "gaussian_power_structure",
]


@dataclass(frozen=True, order=True)
class ExponentTriple:
    x: int
    y: int
    z: int

    def __post_init__(self):
        if min(self.x, self.y, self.z) < 1:
            raise ValueError("exponents must be positive")

    def all_even(self) -> bool:
        return self.x % 2 == 0 and self.y % 2 == 0 and self.z % 2 == 0

    def exceptional(self) -> bool:
        """All even and not the trivial (2, 2, 2)."""
        return self.all_even() and (self.x, self.y, self.z) != (2, 2, 2)


@dataclass(frozen=True)
class SolutionRecord:
    pair: PrimPair
    sol: ExponentTriple
    exceptional: bool

    def __post_init__(self):
        t = triple_of(self.pair)
        s = self.sol
        if t.a**s.x + t.b**s.y != t.c**s.z:
            raise ValueError("not a solution")
        if self.exceptional != s.exceptional():
            raise ValueError("exceptional flag inconsistent with exponents")


def _record(pair: PrimPair, x: int, y: int, z: int) -> SolutionRecord:
    sol = ExponentTriple(x, y, z)
    return SolutionRecord(pair, sol, sol.exceptional())


def _dominant_term_solutions(a: int, b: int, c: int, cap: int) -> list[tuple[int, int, int]]:
    """Sorted (x, y, z) with a^x + b^y = c^z and 1 <= x, y, z <= cap.

    Bases are integers >= 2.  A solution puts max(a^x, b^y) in
    [c^z / 2, c^z), and a window that narrow holds at most one power of
    a base >= 2: the largest one below c^z, when it is at least c^z / 2.
    Two pointers track those powers, A = a^x and B = b^y, as z grows,
    and record each power they reach: a^x -> x and b^y -> y.  So each z
    costs at most two exact lookups, C - A among the powers of b and
    C - B among the powers of a.

    The lookups miss nothing.  A hit b^e = C - A lies below C = c^z, and
    the y pointer stops only at cap or at the largest power of b below
    C, so every such b^e with 1 <= e <= cap is already recorded; the
    same holds with a and b swapped.  Only exponents >= 1 are recorded,
    so C - A = 1 = b^0 never hits; neither does a pointer still at
    exponent 0, since A = 1 and C - A <= A leave only C - A = 1.
    """
    found = set()
    a_pows, b_pows = {}, {}
    x, A, next_A = 0, 1, a
    y, B, next_B = 0, 1, b
    C = 1
    for z in range(1, cap + 1):
        C *= c
        while x < cap and next_A < C:
            x, A, next_A = x + 1, next_A, next_A * a
            a_pows[A] = x
        while y < cap and next_B < C:
            y, B, next_B = y + 1, next_B, next_B * b
            b_pows[B] = y
        D = C - A
        if D <= A:
            e = b_pows.get(D)
            if e:
                found.add((x, e, z))
        D = C - B
        if D <= B:
            e = a_pows.get(D)
            if e:
                found.add((e, y, z))
    return sorted(found)


def find_solutions(p: PrimPair, cap: int) -> list[SolutionRecord]:
    """All solutions with 1 <= x, y, z <= cap, by dominant-term search.

    At most two exact lookups per z among the powers the walk has built
    (see ``_dominant_term_solutions``); every record re-checks its
    identity.
    """
    if cap < 2:
        raise ValueError("cap must be >= 2")
    t = triple_of(p)
    sols = _dominant_term_solutions(t.a, t.b, t.c, cap)
    return [_record(p, x, y, z) for x, y, z in sols]


def find_solutions_unpruned(p: PrimPair, cap: int) -> list[SolutionRecord]:
    """Reference solver: plain triple loop, exact arithmetic, no filters."""
    if cap < 2:
        raise ValueError("cap must be >= 2")
    t = triple_of(p)
    a, b, c = t.a, t.b, t.c
    A = [None] + [a**x for x in range(1, cap + 1)]
    B = [None] + [b**y for y in range(1, cap + 1)]
    C = [None] + [c**z for z in range(1, cap + 1)]
    out = []
    for x in range(1, cap + 1):
        for y in range(1, cap + 1):
            s = A[x] + B[y]
            for z in range(1, cap + 1):
                if C[z] == s:
                    out.append(_record(p, x, y, z))
                elif C[z] > s:
                    break
    out.sort(key=lambda r: (r.sol.x, r.sol.y, r.sol.z))
    return out


def _scan_one(args) -> tuple[tuple[int, int], list[tuple[int, int, int]]]:
    (m, n), cap = args
    recs = find_solutions(PrimPair(m, n), cap)
    return (m, n), [(r.sol.x, r.sol.y, r.sol.z) for r in recs]


# Starting and feeding a worker process costs some 10-20 ms; one (pair, z)
# step of an in-process sweep costs about 1 us (0.85-1.2 us over
# scan_range(40, 40) and scan_range(150, 60) on a 2-core Xeon).  A worker
# is started only for at least this many steps, so a small sweep runs
# in-process.
_STEPS_PER_WORKER = 25_000


def scan_range(m_max: int, cap: int, jobs: int = 1) -> dict:
    """Run find_solutions over every primitive pair with m <= m_max.

    Uses up to ``jobs`` worker processes, at most one per
    ``_STEPS_PER_WORKER`` (pair, z) steps.  Results are merged in (m, n)
    order, so the report does not depend on the worker count.
    """
    if cap < 2:
        raise ValueError("cap must be >= 2")
    pairs = [(q.m, q.n) for q in iter_pairs(m_max)]
    work = [((m, n), cap) for (m, n) in pairs]
    workers = min(jobs, len(work) * cap // _STEPS_PER_WORKER)
    if workers > 1:
        # imported here: the process pool's modules take about 2 MB, and
        # most sweeps run in-process
        from concurrent.futures import ProcessPoolExecutor

        # about eight chunks per worker: few round trips, still balanced
        chunk = -(-len(work) // (8 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_scan_one, work, chunksize=chunk))
    else:
        results = [_scan_one(w) for w in work]
    results.sort(key=lambda item: item[0])
    solutions = []
    for (m, n), sols in results:
        for (x, y, z) in sols:
            solutions.append({"m": m, "n": n, "x": x, "y": y, "z": z})
    non_trivial = [s for s in solutions if (s["x"], s["y"], s["z"]) != (2, 2, 2)]
    exceptional = [
        s for s in non_trivial if ExponentTriple(s["x"], s["y"], s["z"]).exceptional()
    ]
    summary = {
        "m_max": m_max,
        "cap": cap,
        "pairs_scanned": len(pairs),
        "solutions": solutions,
        "non_trivial": non_trivial,
        "exceptional": exceptional,
    }
    if m_max < 2:
        summary["warning"] = "no primitive pairs with m <= 1"
    return summary


def gaussian_power_structure(a1: int, b1: int, Z: int) -> dict:
    """Divisibility and valuation checks on k + l i = (a1 + b1 i)^Z.

    Verifies: a1 | k and b1 | l with odd quotients; the even one of
    a1, b1 matches the 2-adic valuation of its component of the power;
    odd primes p | a1 satisfy val_p(k) = val_p(a1) + val_p(Z), and
    symmetrically for b1 and l (compared by gcds, without factoring).
    """
    if a1 == 0 or b1 == 0:
        raise ValueError("requires nonzero a1, b1")
    if math.gcd(a1, b1) != 1 or (a1 - b1) % 2 == 0:
        raise ValueError("requires coprime a1, b1 of opposite parity")
    if Z % 2 == 0 or Z < 1:
        raise ValueError("requires odd positive Z")
    g = g_pow(GaussianInt(a1, b1), Z)
    k, l = g.re, g.im
    checks = {}
    qk, rk = divmod(k, a1)
    ql, rl = divmod(l, b1)
    checks["a1_divides_k_odd_quotient"] = rk == 0 and qk % 2 == 1
    checks["b1_divides_l_odd_quotient"] = rl == 0 and ql % 2 == 1
    if a1 % 2 == 0:
        checks["two_adic_match"] = val_p(k, 2) == val_p(a1, 2)
    else:
        checks["two_adic_match"] = val_p(l, 2) == val_p(b1, 2)
    checks["odd_prime_valuations"] = all(
        _odd_prime_valuations_match(base, part, Z) for base, part in ((a1, k), (b1, l))
    )
    return {"k": k, "l": l, "checks": checks, "ok": all(checks.values())}


def _smooth_part(x: int, B: int) -> int:
    """The largest divisor of |x| whose prime factors all divide B >= 1."""
    if x == 0:
        raise ValueError("smooth part of zero undefined")
    s = 1
    g = math.gcd(x, B)
    while g > 1:
        x //= g
        s *= g
        g = math.gcd(x, B)
    return s


def _odd_prime_valuations_match(base: int, part: int, Z: int) -> bool:
    """val_p(part) = val_p(base) + val_p(Z) for every odd prime p | base.

    Needs no factoring: with B the odd part of |base|, the valuations at
    the primes of B are those of the B-smooth parts, so the statement
    reads smooth_B(part) = smooth_B(B Z).
    """
    B = abs(base) >> val_p(base, 2)
    return _smooth_part(part, B) == _smooth_part(B * Z, B)
