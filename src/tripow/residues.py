"""Quadratic and quartic residue machinery and the parity engine.

The parity engine answers one question for a generator pair whose even
member is m, with 4 | m: must every solution of a^x + b^y = c^z in the
exceptional-candidate sense have x, y, z all even?  Each applicable rule
is verified live on the pair (Jacobi characters, residue cycle
exhaustion, quartic symbols over Z[i]); the verdict records the full
rule chain and whether the y > 1 hypothesis was consumed.

Both residue symbols are computed without factoring, by Euclid-style
loops: jacobi by quadratic reciprocity, quartic_symbol by biquadratic
reciprocity and its supplementary laws, which its docstring states.
"""

from __future__ import annotations

from dataclasses import dataclass

from .numerics import GaussianInt, UNITS, g_divmod, val_p
from .triples import PrimPair, triple_of

__all__ = [
    "jacobi",
    "QuarticValue",
    "quartic_symbol",
    "ParityConstraint",
    "ParityVerdict",
    "quadratic_sieve",
    "parity_feasible",
    "parity_engine",
]


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1."""
    if n < 1 or n % 2 == 0:
        raise ValueError("jacobi requires odd positive n")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


# ---------------------------------------------------------------------------
# Quartic residue symbol over Z[i]


@dataclass(frozen=True)
class QuarticValue:
    """A fourth root of unity i^k, k mod 4."""

    k: int

    def __post_init__(self):
        object.__setattr__(self, "k", self.k % 4)

    def __str__(self):
        return ("1", "i", "-1", "-i")[self.k]


def _primary(g: GaussianInt) -> tuple[GaussianInt, int]:
    """(u, k) with u = i^-k g primary, i.e. (u.re, u.im) = (1, 0) or (3, 2) mod 4.

    Exactly one associate of an odd-norm g is primary.
    """
    for k in range(4):
        u = UNITS[-k] * g
        if (u.re % 4, u.im % 4) in ((1, 0), (3, 2)):
            return u, k
    raise ValueError("only an odd-norm Gaussian integer has a primary associate")


def quartic_symbol(a, modulus: GaussianInt) -> QuarticValue:
    """Biquadratic residue symbol (a/modulus)_4 = i^k.

    For a Gaussian prime pi of odd norm it is the i^k congruent to
    a^((N pi - 1)/4) mod pi; for composite odd modulus it is the product
    over the Gaussian prime factors, so it depends only on the ideal.
    The loop reduces a modulo the primary associate mu of the modulus,
    strips a's factors 1 + i and its unit, and swaps a and mu, using
    three laws for coprime primary non-units mu = x + y i and alpha,
    where primary means (x, y) = (1, 0) or (3, 2) mod 4 (K. Ireland and
    M. Rosen, A Classical Introduction to Modern Number Theory, 2nd ed.,
    ch. 9; F. Lemmermeyer, Reciprocity Laws, ch. 6):

    * (i/mu)_4 = i^((1 - x)/2),
    * ((1 + i)/mu)_4 = i^((x - y - y^2 - 1)/4),
    * (alpha/mu)_4 = (mu/alpha)_4 (-1)^(((N alpha - 1)/4)((N mu - 1)/4)).
    """
    if isinstance(a, int):
        a = GaussianInt(a, 0)
    n = modulus.norm()
    if n % 2 == 0:
        raise ValueError("modulus must have odd norm")
    if n == 1:
        raise ValueError("modulus must not be a unit")
    mu, _ = _primary(modulus)
    k = 0
    while True:
        a = g_divmod(a, mu)[1]
        if a.is_zero():
            raise ValueError("arguments not coprime")
        x, y = mu.re, mu.im
        while (a.re + a.im) % 2 == 0:  # (1 + i) | a: divide by it
            a = GaussianInt((a.re + a.im) // 2, (a.im - a.re) // 2)
            k += (x - y - y * y - 1) // 4
        a, units = _primary(a)
        k += units * (1 - x) // 2
        if a.is_unit():
            return QuarticValue(k)
        na = a.norm()
        if (na - 1) // 4 * ((n - 1) // 4) % 2:
            k += 2
        a, mu, n = mu, a, na


# ---------------------------------------------------------------------------
# Parity constraints


# Each constraint kind equates the parities of two symbols among x, y, z
# and "even" (parity 0).
_KIND_PARITIES = {
    "x-even": ("x", "even"),
    "y-even": ("y", "even"),
    "z-even": ("z", "even"),
    "y-eq-z": ("y", "z"),
    "x-eq-y": ("x", "y"),
}


@dataclass(frozen=True)
class ParityConstraint:
    """One congruence-derived restriction on exponent parities."""

    kind: str  # a key of _KIND_PARITIES
    source: str  # rule id
    note: str = ""

    KINDS = tuple(_KIND_PARITIES)

    def __post_init__(self):
        if self.kind not in _KIND_PARITIES:
            raise ValueError(f"unknown constraint kind {self.kind!r}")

    def satisfied_by(self, x: int, y: int, z: int) -> bool:
        parity = {"x": x % 2, "y": y % 2, "z": z % 2, "even": 0}
        u, v = _KIND_PARITIES[self.kind]
        return parity[u] == parity[v]


@dataclass(frozen=True)
class ParityVerdict:
    applicable: bool
    all_even: bool = False
    constraints: tuple[ParityConstraint, ...] = ()
    assumed_y_gt_1: bool = False
    case: str | None = None
    note: str | None = None  # why a declined pair is outside the engine

    @property
    def rule_ids(self) -> tuple[str, ...]:
        seen: list[str] = []
        for c in self.constraints:
            if c.source not in seen:
                seen.append(c.source)
        return tuple(seen)


def _forces_all_even(constraints) -> bool:
    """Propositional closure: do the constraints force x, y, z all even?"""
    parent = {"x": "x", "y": "y", "z": "z", "even": "even"}

    def find(u):
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    def union(u, v):
        parent[find(u)] = find(v)

    for c in constraints:
        union(*_KIND_PARITIES[c.kind])
    root = find("even")
    return all(find(v) == root for v in ("x", "y", "z"))


def _mod4_rule(a: int, c: int) -> ParityConstraint | None:
    """x-even when a^x = c^z (mod 4) admits only even x, else None."""
    feas = parity_feasible(a % 4, c % 4, 4)
    if feas and all(px == "even" for px, _ in feas):
        return ParityConstraint(
            "x-even",
            "mod4-x-even",
            f"{a % 4}^x = {c % 4}^z (mod 4) admits only even x",
        )
    return None


# (b/q), (c/q) -> the kind they force and its note; (1, 1) forces nothing
_JACOBI_PAIR_KINDS = {
    (-1, 1): ("y-even", "(b/{q}) = -1 and (c/{q}) = 1 force (-1)^y = 1"),
    (1, -1): ("z-even", "(b/{q}) = 1 and (c/{q}) = -1 force (-1)^z = 1"),
    (-1, -1): ("y-eq-z", "(b/{q}) = (c/{q}) = -1 force (-1)^y = (-1)^z"),
}


def _jacobi_pair_rule(
    q_signed: int, b: int, c: int, name: str
) -> ParityConstraint | None:
    """Constraint from b^y = c^z (mod |q|) when q | a, by Jacobi characters.

    The rule id is f"{name}-mod8-{q_signed % 8}-{kind}", so the residue
    in it is that of the signed q.  Callers pass q = e + o as "sum" and
    q = e - o as "diff", where e is the even member of the pair and o
    the odd one.  Returns None when |q| < 3 or is even, when a symbol
    is 0, or when both characters are +1 (no information).
    """
    q = abs(q_signed)
    if q < 3 or q % 2 == 0:
        return None
    rule = _JACOBI_PAIR_KINDS.get((jacobi(b % q, q), jacobi(c % q, q)))
    if rule is None:
        return None
    kind, note = rule
    return ParityConstraint(kind, f"{name}-mod8-{q_signed % 8}-{kind}", note.format(q=q))


def quadratic_sieve(p: PrimPair) -> frozenset[ParityConstraint]:
    """Unconditional parity constraints from quadratic residues.

    Works on the triple (a, b, c) as stored (m > n): the mod-4 rule on
    a^x = c^z, and the Jacobi rules modulo e + o and e - o, which both
    divide a (e is the even member, o the odd one).  Their ids carry the
    signed residue mod 8, even member minus odd: (m, n) = (7, 4) gives
    "diff-mod8-5-y-eq-z" because 4 - 7 = 5 (mod 8).  On the pairs
    parity_engine applies to (even member m, 4 | m) it calls the same
    rules with the same a, b, c and q, so a rule id names one fact in
    both.  Every rule is a necessary condition on any solution with
    x, y, z >= 1; none can exclude (2,2,2).
    """
    e, o = p.even_member, p.odd_member
    t = triple_of(p)
    rules = (
        _mod4_rule(t.a, t.c),
        _jacobi_pair_rule(e + o, t.b, t.c, "sum"),
        _jacobi_pair_rule(e - o, t.b, t.c, "diff"),
    )
    return frozenset(c for c in rules if c is not None)


def parity_feasible(a_res: int, c_res: int, M: int) -> set[tuple[str, str]]:
    """Which (x mod 2, z mod 2) admit a_res^x = c_res^z (mod M).

    Exhausts the residue cycles of both bases; the caller is responsible
    for the middle term vanishing mod M.
    """
    if M < 2:
        raise ValueError("modulus must be >= 2")
    a_res %= M
    c_res %= M
    A = {"even": set(), "odd": set()}
    C = {"even": set(), "odd": set()}
    va = vc = 1
    # 2M+2 steps visit the whole eventual orbit of (value, exponent parity)
    for x in range(1, 2 * M + 3):
        va = va * a_res % M
        vc = vc * c_res % M
        par = "odd" if x % 2 else "even"
        A[par].add(va)
        C[par].add(vc)
    return {
        (px, pz)
        for px in ("even", "odd")
        for pz in ("even", "odd")
        if A[px] & C[pz]
    }


# ---------------------------------------------------------------------------
# The parity engine


def parity_engine(p: PrimPair) -> ParityVerdict:
    """Full parity dispatch for a pair whose even generator is m, 4 | m.

    Any other valid pair gets a declined verdict whose note names the
    missing hypothesis.  Notation inside: e = m is the even generator,
    o = n the odd one, and every rule is evaluated on the stored triple
    (a, b, c), as quadratic_sieve does, with the same arguments for the
    mod-4 and Jacobi rules.  Every congruence premise is checked live on
    the pair rather than assumed from the case label.
    """
    e, o = p.even_member, p.odd_member
    alpha = val_p(e, 2)
    if alpha < 2:
        return ParityVerdict(False, note="requires 4 | even member")
    if e < o:
        return ParityVerdict(False, note="requires the even member to be m")
    t = triple_of(p)
    res8 = o % 8
    constraints: list[ParityConstraint] = []
    assumed = False
    case = None

    def mod16_rule(y_ge_2_reason: str):
        feas = parity_feasible(t.a % 16, t.c % 16, 16)
        if feas == {("even", "even")}:
            note = (
                f"{t.a % 16}^x = {t.c % 16}^z (mod 16) admits only even x, z"
                f" ({y_ge_2_reason})"
            )
            constraints.append(ParityConstraint("x-even", "mod16-x-z-even", note))
            constraints.append(ParityConstraint("z-even", "mod16-x-z-even", note))

    def add(c: ParityConstraint | None) -> None:
        if c is not None:
            constraints.append(c)

    if res8 == 1 and alpha == 2:
        case = "odd=1(8), even=4(8)"
        add(_mod4_rule(t.a, t.c))
        pi = GaussianInt(o, -e)
        s1 = quartic_symbol(GaussianInt(2 * o * o, 0), pi)
        s2 = quartic_symbol(GaussianInt(0, 2 * e * e), pi)
        if s1 == s2 == QuarticValue(2):
            constraints.append(
                ParityConstraint(
                    "x-eq-y",
                    "quartic-chain-x-eq-y",
                    "(2o^2/o-ei)_4 = (2e^2 i/o-ei)_4 = -1 force (-1)^x = (-1)^y",
                )
            )
        add(_jacobi_pair_rule(e + o, t.b, t.c, "sum"))
    elif res8 == 3:
        if e % 8 == 4:
            case = "odd=3(8), even=4(8)"
            add(_jacobi_pair_rule(e + o, t.b, t.c, "sum"))  # sum = 7 mod 8: y even
            mod16_rule("y even makes y >= 2, so 16 divides b^y")
        else:
            case = "odd=3(8), even=0(8)"
            add(_mod4_rule(t.a, t.c))
            add(_jacobi_pair_rule(e + o, t.b, t.c, "sum"))  # sum = 3 mod 8: z even
            add(_jacobi_pair_rule(e - o, t.b, t.c, "diff"))  # diff = 5 mod 8: y = z
    elif res8 == 5:
        case = "odd=5(8)"
        assumed = True
        mod16_rule("y > 1 assumed, so 16 divides b^y")
        constraints.append(
            ParityConstraint(
                "y-even",
                "power-split-y-even",
                "split c^Z -+ a^X = 2(m1 n1)^y * (power of 2): residues mod 8 "
                "force 5^y = 1 (mod 8), so y is even (uses y > 1)",
            )
        )
    elif res8 == 7 and alpha == 2:
        case = "odd=7(8), even=4(8)"
        add(_mod4_rule(t.a, t.c))
        add(_jacobi_pair_rule(e + o, t.b, t.c, "sum"))  # sum = 3 mod 8: z even
        add(_jacobi_pair_rule(e - o, t.b, t.c, "diff"))  # diff = 5 mod 8: y = z
    else:
        return ParityVerdict(False)

    ctuple = tuple(constraints)
    return ParityVerdict(
        applicable=True,
        all_even=_forces_all_even(ctuple),
        constraints=ctuple,
        assumed_y_gt_1=assumed,
        case=case,
    )
