"""Jacobi and quartic symbols against independent oracles, and the parity engine."""

import itertools
import math
import random
from math import isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st
from sympy import factorint, isprime

from tripow.numerics import GaussianInt, I, UNITS, g_pow
from tripow.residues import (
    ParityConstraint,
    _forces_all_even,
    QuarticValue,
    jacobi,
    parity_engine,
    parity_feasible,
    quadratic_sieve,
    quartic_symbol,
)
from tripow.triples import PrimPair, iter_pairs, triple_of


# -- oracles -----------------------------------------------------------------


def legendre_oracle(a: int, p: int) -> int:
    """Euler's criterion for odd prime p."""
    a %= p
    if a == 0:
        return 0
    v = pow(a, (p - 1) // 2, p)
    return 1 if v == 1 else -1


def jacobi_oracle(a: int, factors: dict[int, int]) -> int:
    """(a/n) from n's factorization, sympy's factorint(n), by Euler's criterion."""
    out = 1
    for p, e in factors.items():
        out *= legendre_oracle(a, p) ** e
    return out


def _split_prime_parts(p: int) -> tuple[int, int]:
    """p = s^2 + t^2 by brute search, independent of the library."""
    for s in range(1, isqrt(p) + 1):
        t2 = p - s * s
        t = isqrt(t2)
        if t * t == t2:
            return s, t
    raise AssertionError(f"{p} is not a sum of two squares")


def _make_primary(g: GaussianInt) -> GaussianInt:
    for u in (GaussianInt(1, 0), GaussianInt(0, 1), GaussianInt(-1, 0), GaussianInt(0, -1)):
        cand = u * g
        if (cand.re % 4, cand.im % 4) in ((1, 0), (3, 2)):
            return cand
    raise AssertionError("no primary associate")


def definitional_quartic(a: GaussianInt, pi: GaussianInt) -> int:
    """k with a^((N-1)/4) = i^k mod pi, by plain integer arithmetic.

    Split primes use the field isomorphism Z[i]/pi = F_p with i -> r;
    inert primes use inline pair arithmetic in F_{p^2}.
    """
    norm = pi.norm()
    if isprime(norm):  # split prime, norm = p = 1 mod 4
        p = norm
        s, t = pi.re % p, pi.im % p
        r = (-s * pow(t, -1, p)) % p
        x = (a.re + a.im * r) % p
        w = pow(x, (p - 1) // 4, p)
        table = {1: 0, r: 1, p - 1: 2, (p - r) % p: 3}
        return table[w]
    # inert: pi is a unit multiple of a rational prime q = 3 mod 4
    q = isqrt(norm)
    assert q * q == norm and isprime(q)
    e = (q * q - 1) // 4
    ru, rv = 1, 0
    bu, bv = a.re % q, a.im % q
    while e:
        if e & 1:
            ru, rv = (ru * bu - rv * bv) % q, (ru * bv + rv * bu) % q
        bu, bv = (bu * bu - bv * bv) % q, (2 * bu * bv) % q
        e >>= 1
    table = {(1, 0): 0, (0, 1): 1, (q - 1, 0): 2, (0, q - 1): 3}
    return table[(ru, rv)]


# -- jacobi ------------------------------------------------------------------


def test_jacobi_examples():
    assert jacobi(2, 7) == 1
    assert jacobi(3, 7) == -1
    assert all(jacobi(1, n) == 1 for n in range(3, 100, 2))
    assert jacobi(3, 9) == 0


def test_jacobi_rejects_even_modulus():
    with pytest.raises(ValueError):
        jacobi(3, 8)


def test_jacobi_matches_oracle_small_moduli():
    for n in range(3, 500, 2):
        factors = factorint(n)
        for a in range(n):
            assert jacobi(a, n) == jacobi_oracle(a, factors), (a, n)


@given(st.integers(min_value=-(10**9), max_value=10**9),
       st.integers(min_value=1, max_value=10**4))
def test_jacobi_periodic_and_multiplicative(a, k):
    n = 2 * k + 1
    if n < 3:
        return
    assert jacobi(a, n) == jacobi(a % n, n)
    assert jacobi(a, n) * jacobi(a + 1, n) == jacobi(a * (a + 1), n)


# -- quartic values and primary form -----------------------------------------


def test_quartic_value_algebra():
    assert QuarticValue(4) == QuarticValue(0) and QuarticValue(-2) == QuarticValue(2)
    # equality and hashing agree: a value equals only a value, never an int
    assert QuarticValue(4) in {QuarticValue(0)} and len({QuarticValue(k) for k in range(8)}) == 4
    assert QuarticValue(0) != 1 and QuarticValue(0) not in {1}
    assert str(QuarticValue(1)) == "i" and str(QuarticValue(2)) == "-1"
    assert str(QuarticValue(3)) == "-i"


# -- quartic symbol ----------------------------------------------------------


def test_quartic_symbol_chain_values_mod_9_minus_4i():
    mod = GaussianInt(9, -4)
    assert quartic_symbol(I, mod) == QuarticValue(0)
    assert quartic_symbol(GaussianInt(-1, 0), mod) == QuarticValue(0)
    assert quartic_symbol(2, mod) == QuarticValue(2)


def test_quartic_symbol_against_definitional_oracle():
    rng = random.Random(41)
    split = [p for p in range(5, 10**6, 4) if isprime(p)]
    inert = [q for q in range(3, 1000, 4) if isprime(q)]
    for _ in range(60):
        p = rng.choice(split)
        s, t = _split_prime_parts(p)
        pi = _make_primary(GaussianInt(s, t))
        a = GaussianInt(rng.randrange(-30, 31), rng.randrange(-30, 31))
        if a.is_zero() or math.gcd(a.norm(), p) != 1:
            continue
        assert quartic_symbol(a, pi) == QuarticValue(definitional_quartic(a, pi))
    for _ in range(40):
        q = rng.choice(inert)
        pi = _make_primary(GaussianInt(q, 0))
        a = GaussianInt(rng.randrange(-30, 31), rng.randrange(-30, 31))
        if a.is_zero() or a.norm() % q == 0:
            continue
        assert quartic_symbol(a, pi) == QuarticValue(definitional_quartic(a, pi))


def test_quartic_symbol_multiplicative():
    rng = random.Random(5)
    mod = GaussianInt(9, -4)
    for _ in range(60):
        a = GaussianInt(rng.randrange(-20, 21), rng.randrange(-20, 21))
        b = GaussianInt(rng.randrange(-20, 21), rng.randrange(-20, 21))
        if a.is_zero() or b.is_zero():
            continue
        if math.gcd(a.norm(), 97) != 1 or math.gcd(b.norm(), 97) != 1:
            continue
        want = QuarticValue(quartic_symbol(a, mod).k + quartic_symbol(b, mod).k)
        assert quartic_symbol(a * b, mod) == want


def test_quartic_symbol_composite_modulus():
    # (9-4i)(3+2i) has norm 97*13; symbol must equal the product of parts
    m1, m2 = GaussianInt(9, -4), GaussianInt(3, 2)
    comp = m1 * m2
    for a in (GaussianInt(2, 0), GaussianInt(0, 1), GaussianInt(2, 3)):
        if math.gcd(a.norm(), comp.norm()) != 1:
            continue
        want = QuarticValue(quartic_symbol(a, m1).k + quartic_symbol(a, m2).k)
        assert quartic_symbol(a, comp) == want


def _divides(d: GaussianInt, x: GaussianInt) -> bool:
    t = x * d.conj()
    return t.re % d.norm() == 0 and t.im % d.norm() == 0


def test_quartic_symbol_matches_oracle_on_composite_moduli():
    """A unit times primary Gaussian primes to powers 1-3: the symbol is the
    product of the definitional symbols of the factors, and a shared factor
    raises.  Split primes come in as one factor or, through a rational
    p = 1 (mod 4), as both conjugates; inert ones as (q, 0)."""
    rng = random.Random(23)
    split = [p for p in range(5, 2000, 4) if isprime(p)]
    inert = [q for q in range(3, 200, 4) if isprime(q)]
    coprime = shared = 0
    for trial in range(400):
        factors = []
        if trial % 5 == 0:  # the whole modulus is a rational prime p = 1 (mod 4)
            pi = _make_primary(GaussianInt(*_split_prime_parts(rng.choice(split))))
            factors = [(pi, 1), (pi.conj(), 1)]
        else:
            for _ in range(rng.randint(1, 3)):
                e = rng.randint(1, 3)
                kind = rng.random()
                if kind < 0.5:
                    pi = _make_primary(GaussianInt(*_split_prime_parts(rng.choice(split))))
                    factors.append((pi.conj() if rng.random() < 0.5 else pi, e))
                elif kind < 0.75:
                    factors.append((_make_primary(GaussianInt(rng.choice(inert), 0)), e))
                else:
                    pi = _make_primary(GaussianInt(*_split_prime_parts(rng.choice(split))))
                    factors += [(pi, e), (pi.conj(), e)]
        modulus = rng.choice(UNITS)
        for pi, e in factors:
            modulus = modulus * g_pow(pi, e)
        a = GaussianInt(rng.randrange(-10**6, 10**6), rng.randrange(-10**6, 10**6))
        if rng.random() < 0.2:
            a = a * rng.choice(factors)[0]
        if a.is_zero():
            continue
        if any(_divides(pi, a) for pi, _ in factors):
            shared += 1
            with pytest.raises(ValueError, match="not coprime"):
                quartic_symbol(a, modulus)
            continue
        coprime += 1
        want = QuarticValue(sum(e * definitional_quartic(a, pi) for pi, e in factors))
        assert quartic_symbol(a, modulus) == want, (a, modulus, factors)
    assert coprime > 250 and shared > 40, (coprime, shared)


def test_quartic_symbol_of_rational_prime_modulus_is_over_both_factors():
    # p = 1 (mod 4) is not a Gaussian prime: (a/p)_4 multiplies the symbols
    # of its two conjugate factors, which is 1 for every rational a prime to p
    assert quartic_symbol(2, GaussianInt(5, 0)) == QuarticValue(0)
    assert quartic_symbol(GaussianInt(3, 2), GaussianInt(0, 5)) == QuarticValue(3)
    for p in (13, 17, 29, 197):
        pi = _make_primary(GaussianInt(*_split_prime_parts(p)))
        for mod in (GaussianInt(p, 0), GaussianInt(0, -p)):
            for a in (GaussianInt(2, 0), GaussianInt(-7, 0), GaussianInt(3, 2), GaussianInt(-5, 11)):
                if a.norm() % p == 0:
                    continue
                want = definitional_quartic(a, pi) + definitional_quartic(a, pi.conj())
                assert quartic_symbol(a, mod) == QuarticValue(want), (a, mod)


def test_quartic_symbol_rejects_non_coprime():
    with pytest.raises(ValueError):
        quartic_symbol(GaussianInt(9, -4), GaussianInt(9, -4))


def test_quartic_symbol_rejects_even_modulus():
    with pytest.raises(ValueError):
        quartic_symbol(GaussianInt(2, 0), GaussianInt(1, 1))


# -- parity building blocks ----------------------------------------------------


def test_parity_feasible_mod16_case():
    assert parity_feasible(7, 9, 16) == {("even", "even")}


def test_parity_feasible_trivial():
    out = parity_feasible(1, 1, 16)
    assert out == {("even", "even"), ("even", "odd"), ("odd", "even"), ("odd", "odd")}


@given(st.integers(min_value=1, max_value=99).filter(lambda n: n % 2 == 1))
def test_parity_feasible_mod4_forces_x_even(n):
    out = parity_feasible(-(n * n), n * n, 4)
    assert out and all(px == "even" for px, _ in out)


def test_quadratic_sieve_examples():
    cases = {
        (4, 3): {"mod4-x-even", "sum-mod8-7-y-even"},
        # mod 3: 15^x + 8^y = 17^z reads 2^y = 2^z, so y = z (mod 2)
        (4, 1): {"mod4-x-even", "sum-mod8-5-y-eq-z", "diff-mod8-3-y-eq-z"},
        (8, 3): {"mod4-x-even", "sum-mod8-3-z-even", "diff-mod8-5-y-eq-z"},
        (5, 2): {"sum-mod8-7-y-even", "diff-mod8-5-y-eq-z"},
        (7, 4): {"sum-mod8-3-z-even", "diff-mod8-5-y-eq-z"},
        (13, 4): set(),
    }
    for mn, want in cases.items():
        got = {c.source for c in quadratic_sieve(PrimPair(*mn))}
        assert got == want, (mn, got)


@given(st.sampled_from([(m, n) for m in range(2, 40) for n in range(1, 40)
                        if n < m and (m - n) % 2 == 1 and math.gcd(m, n) == 1]))
def test_sieve_never_excludes_trivial_solution(mn):
    for c in quadratic_sieve(PrimPair(*mn)):
        assert c.satisfied_by(2, 2, 2)


def _feasible_yz(b: int, c: int, q: int) -> set[tuple[int, int]]:
    return {
        (int(py == "odd"), int(pz == "odd"))
        for py, pz in parity_feasible(b % q, c % q, q)
    }


def test_sieve_rules_sound_by_cycle_exhaustion():
    """Each sum/diff rule holds on every (y, z) parity the residue cycles admit."""
    checked = 0
    for p in iter_pairs(60):
        t = triple_of(p)
        rules = quadratic_sieve(p)
        moduli = {"sum": p.m + p.n, "diff": p.m - p.n}
        for c in rules:
            name = c.source.split("-mod8-")[0]
            if name not in moduli:
                continue
            q = moduli[name]
            assert q >= 3, (p, c)
            for y, z in _feasible_yz(t.b, t.c, q):
                assert c.satisfied_by(0, y, z), (p.m, p.n, c, y, z)
            checked += 1
        mod4 = parity_feasible(t.a % 4, t.c % 4, 4)
        only_even_x = bool(mod4) and all(px == "even" for px, _ in mod4)
        assert ("mod4-x-even" in {c.source for c in rules}) == only_even_x, (p.m, p.n)
    assert checked > 900, checked


def test_sieve_agrees_with_engine_on_shared_rule_ids():
    shared = 0
    for p in iter_pairs(120):
        if p.even_member % 4:
            continue
        engine = {c.source: c for c in parity_engine(p).constraints}
        for c in quadratic_sieve(p):
            if c.source in engine:
                assert c == engine[c.source], (p.m, p.n, c, engine[c.source])
                shared += 1
    assert shared > 0


def test_forces_all_even_is_the_propositional_closure():
    vectors = list(itertools.product((0, 1), repeat=3))
    for r in range(len(ParityConstraint.KINDS) + 1):
        for kinds in itertools.combinations(ParityConstraint.KINDS, r):
            cs = [ParityConstraint(k, "t") for k in kinds]
            models = [v for v in vectors if all(c.satisfied_by(*v) for c in cs)]
            assert _forces_all_even(cs) == (models == [(0, 0, 0)]), kinds


def test_parity_constraint_satisfaction():
    c = ParityConstraint("y-eq-z", "r", "")
    assert c.satisfied_by(1, 2, 2) and not c.satisfied_by(1, 2, 3)
    c = ParityConstraint("x-even", "r", "")
    assert c.satisfied_by(2, 1, 1) and not c.satisfied_by(3, 1, 1)


# -- the engine ----------------------------------------------------------------


def test_engine_case_examples():
    expect = {
        (12, 1): ("odd=1(8), even=4(8)", False,
                 ("mod4-x-even", "quartic-chain-x-eq-y", "sum-mod8-5-y-eq-z")),
        (4, 3): ("odd=3(8), even=4(8)", False,
                 ("sum-mod8-7-y-even", "mod16-x-z-even")),
        (12, 7): ("odd=7(8), even=4(8)", False,
                 ("mod4-x-even", "sum-mod8-3-z-even", "diff-mod8-5-y-eq-z")),
        (8, 3): ("odd=3(8), even=0(8)", False,
                 ("mod4-x-even", "sum-mod8-3-z-even", "diff-mod8-5-y-eq-z")),
        (12, 5): ("odd=5(8)", True,
                  ("mod16-x-z-even", "power-split-y-even")),
    }
    for mn, (case, assumed, rules) in expect.items():
        v = parity_engine(PrimPair(*mn))
        assert v.applicable and v.all_even
        assert v.case == case
        assert v.assumed_y_gt_1 == assumed
        assert v.rule_ids == rules


def test_engine_inapplicable_cases():
    # residue cases the engine does not cover, with the even member m
    for mn in [(8, 1), (8, 7), (16, 9)]:
        v = parity_engine(PrimPair(*mn))
        assert not v.applicable and not v.all_even
        assert v.case is None and v.note is None
    # the even member is n: declined before any rule is evaluated
    for mn in [(7, 4), (13, 4)]:
        v = parity_engine(PrimPair(*mn))
        assert not v.applicable and not v.all_even and not v.constraints
        assert v.note == "requires the even member to be m"


def test_engine_requires_divisibility_by_four():
    for mn in [(2, 1), (6, 1), (7, 2)]:
        v = parity_engine(PrimPair(*mn))
        assert not v.applicable and not v.constraints
        assert v.note == "requires 4 | even member"


def test_engine_constraints_always_allow_trivial_solution():
    for m in range(4, 121, 4):
        for n in range(1, m):
            if (m - n) % 2 == 0 or math.gcd(m, n) != 1:
                continue
            v = parity_engine(PrimPair(m, n))
            for c in v.constraints:
                assert c.satisfied_by(2, 2, 2), (m, n, c)


def _orbit_by_parity(u: int, M: int) -> tuple[set[int], set[int]]:
    """Residues of u^k mod M for even and for odd k >= 1; u a unit mod M."""
    orbit = (set(), set())
    v, k = 1, 0
    while True:
        v, k = v * u % M, k + 1
        orbit[k % 2].add(v)
        if v == 1 and k % 2 == 0:
            return orbit


def _parities(u: int, v: int, M: int, sign: int = 1) -> set[tuple[int, int]]:
    """(k mod 2, l mod 2) for which u^k = sign * v^l (mod M) has a solution."""
    U, V = _orbit_by_parity(u, M), _orbit_by_parity(v, M)
    return {
        (i, j)
        for i in (0, 1)
        for j in (0, 1)
        if U[i] & {sign * w % M for w in V[j]}
    }


def test_engine_rules_sound_by_residue_exhaustion():
    """Each engine rule holds on every parity vector its congruence admits.

    The congruences are exhausted over the residue cycles of the stored
    legs (a, b, c), with no engine code: mod 4 and mod 16 drop b^y
    (8 | b and the rule's y >= 2), the Jacobi rules drop a^x modulo
    q = m +- n, which divides a, and the quartic chain reads
    a^x = -b^y modulo c, since Z[i]/(o - e i) = Z/c for coprime
    generators.  power-split-y-even is not modular and must carry the
    y > 1 assumption.
    """
    rng = random.Random(8)
    wide = [p for p in iter_pairs(300) if p.m > 60 and p.even_member % 4 == 0]
    pairs = [p for p in iter_pairs(60) if p.even_member % 4 == 0]
    pairs += rng.sample(wide, 150)
    checked = set()
    for p in pairs:
        v = parity_engine(p)
        if not v.applicable:
            continue
        t = triple_of(p)
        for c in v.constraints:
            rule = c.source
            if rule == "power-split-y-even":
                assert v.assumed_y_gt_1, (p.m, p.n)
                continue
            if rule in ("mod4-x-even", "mod16-x-z-even"):
                M = 4 if rule == "mod4-x-even" else 16
                assert t.b * t.b % M == 0
                vectors = {(x, 0, z) for x, z in _parities(t.a, t.c, M)}
            elif rule.startswith(("sum-", "diff-")):
                q = p.m + p.n if rule.startswith("sum-") else p.m - p.n
                assert q >= 3 and t.a % q == 0, (p.m, p.n, rule)
                vectors = {(0, y, z) for y, z in _parities(t.b, t.c, q)}
            elif rule == "quartic-chain-x-eq-y":
                vectors = {(x, y, 0) for x, y in _parities(t.a, t.b, t.c, sign=-1)}
            else:
                raise AssertionError(f"no residue check for rule {rule}")
            for vec in vectors:
                assert c.satisfied_by(*vec), (p.m, p.n, rule, c.note, vec)
            checked.add(rule.split("-mod8-")[0])
    assert checked == {"mod4-x-even", "mod16-x-z-even", "sum", "diff",
                       "quartic-chain-x-eq-y"}, checked
