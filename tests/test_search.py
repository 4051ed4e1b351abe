"""Both solver routes against each other and a brute oracle, plus the
Gaussian power structure checks."""

import concurrent.futures
import math
import random
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import factorint

from tripow import numerics, search
from tripow.numerics import GaussianInt, g_pow
from tripow.search import (
    ExponentTriple,
    _dominant_term_solutions,
    SolutionRecord,
    find_solutions,
    find_solutions_unpruned,
    gaussian_power_structure,
    scan_range,
)
from tripow.triples import PrimPair, iter_pairs, triple_of


def oracle_solutions(p, cap):
    """Independent reference: dictionary lookup over all exact powers."""
    t = triple_of(p)
    A = {x: t.a**x for x in range(1, cap + 1)}
    B = {y: t.b**y for y in range(1, cap + 1)}
    C = {t.c**z: z for z in range(1, cap + 1)}
    out = []
    for x, y in product(A, B):
        z = C.get(A[x] + B[y])
        if z is not None:
            out.append((x, y, z))
    return sorted(out)


def as_tuples(records):
    return [(r.sol.x, r.sol.y, r.sol.z) for r in records]


# -- solvers -------------------------------------------------------------------


@pytest.mark.parametrize("mn", [(2, 1), (3, 2), (4, 3), (5, 4), (6, 5)])
def test_small_pairs_have_only_the_trivial_solution(mn):
    recs = find_solutions(PrimPair(*mn), 40)
    assert as_tuples(recs) == [(2, 2, 2)]
    assert not recs[0].exceptional


def test_pruned_matches_reference_route():
    for p in iter_pairs(14):
        assert as_tuples(find_solutions(p, 14)) == as_tuples(
            find_solutions_unpruned(p, 14)
        ), (p.m, p.n)


def test_both_routes_match_brute_oracle():
    for p in iter_pairs(9):
        want = oracle_solutions(p, 12)
        assert as_tuples(find_solutions(p, 12)) == want
        assert as_tuples(find_solutions_unpruned(p, 12)) == want


@given(st.integers(min_value=2, max_value=10**4).flatmap(
           lambda m: st.tuples(st.just(m), st.integers(min_value=1, max_value=m - 1))),
       st.integers(min_value=2, max_value=40))
@settings(max_examples=80, deadline=None)
def test_fast_route_matches_reference_on_random_pairs(mn, cap):
    m, n = mn
    assume((m - n) % 2 == 1 and math.gcd(m, n) == 1)
    p = PrimPair(m, n)
    assert as_tuples(find_solutions(p, cap)) == as_tuples(find_solutions_unpruned(p, cap))


def test_dominant_term_core_matches_brute_on_general_bases():
    # pair-only checks see nothing but (2, 2, 2); general bases have
    # instances with several solutions, and with none
    cap = 12
    where = {}  # c^z -> [(c, z)]
    for c in range(2, 61):
        for z in range(1, cap + 1):
            where.setdefault(c**z, []).append((c, z))
    with_solutions = 0
    for a in range(2, 41):
        for b in range(2, 41):
            want = {}
            for x, y in product(range(1, cap + 1), repeat=2):
                for c, z in where.get(a**x + b**y, ()):
                    want.setdefault(c, []).append((x, y, z))
            for c in range(2, 61):
                expect = sorted(want.get(c, []))
                assert _dominant_term_solutions(a, b, c, cap) == expect, (a, b, c)
                with_solutions += bool(expect)
    assert with_solutions > 2000
    assert _dominant_term_solutions(3, 5, 2, cap) == [(1, 1, 3), (1, 3, 7), (3, 1, 5)]
    assert _dominant_term_solutions(2, 3, 5, cap) == [(1, 1, 1), (4, 2, 2)]


def test_candidates_are_decided_without_perfect_power_tests(monkeypatch):
    # the walk looks each candidate up among the powers it has built
    assert not hasattr(search, "perfect_power_exponent")

    def refuse(N, base):
        raise AssertionError("perfect-power test called")

    monkeypatch.setattr(numerics, "perfect_power_exponent", refuse)
    for cap in (12, 40):
        for p in iter_pairs(40):
            assert as_tuples(find_solutions(p, cap)) == oracle_solutions(p, cap), (p.m, p.n, cap)


def test_scan_range_matches_oracle_on_m_up_to_40_at_cap_40():
    # the range that ``scan --m-max 40 --cap 40`` sweeps; iter_pairs runs
    # in (m, n) order, the order of the report
    want = []
    for p in iter_pairs(40):
        sols = oracle_solutions(p, 40)
        assert as_tuples(find_solutions(p, 40)) == sols, (p.m, p.n)
        want += [{"m": p.m, "n": p.n, "x": x, "y": y, "z": z} for x, y, z in sols]
    assert scan_range(40, 40)["solutions"] == want


def test_cap_validation():
    p = PrimPair(2, 1)
    with pytest.raises(ValueError):
        find_solutions(p, 1)
    with pytest.raises(ValueError):
        find_solutions_unpruned(p, 0)
    with pytest.raises(ValueError):
        scan_range(5, 1)
    with pytest.raises(ValueError):
        scan_range(1, 1)


def test_exponent_triple_and_record_validation():
    with pytest.raises(ValueError):
        ExponentTriple(0, 1, 1)
    assert ExponentTriple(2, 2, 2).all_even()
    assert not ExponentTriple(2, 3, 2).all_even()
    p = PrimPair(2, 1)
    with pytest.raises(ValueError, match="not a solution"):
        SolutionRecord(p, ExponentTriple(1, 1, 1), False)
    with pytest.raises(ValueError, match="flag"):
        SolutionRecord(p, ExponentTriple(2, 2, 2), True)


def test_scan_range_small():
    rep = scan_range(6, 10)
    assert rep["pairs_scanned"] == len(list(iter_pairs(6)))
    assert rep["non_trivial"] == [] and rep["exceptional"] == []
    assert all((s["x"], s["y"], s["z"]) == (2, 2, 2) for s in rep["solutions"])
    assert len(rep["solutions"]) == rep["pairs_scanned"]


def test_scan_range_worker_count_invisible():
    assert scan_range(15, 10, jobs=1) == scan_range(15, 10, jobs=2)


def test_small_sweep_starts_no_workers(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("worker pool started for a small sweep")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert scan_range(15, 10, jobs=2) == scan_range(15, 10, jobs=1)


def test_scan_range_workers_match_in_process(monkeypatch):
    started = []
    real_pool = concurrent.futures.ProcessPoolExecutor

    def counting_pool(max_workers):
        started.append(max_workers)
        return real_pool(max_workers=max_workers)

    monkeypatch.setattr(search, "_STEPS_PER_WORKER", 1)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counting_pool)
    assert scan_range(15, 10, jobs=2) == scan_range(15, 10, jobs=1)
    assert started == [2]


def test_scan_range_degenerate_limit():
    rep = scan_range(1, 10)
    assert rep["pairs_scanned"] == 0 and "warning" in rep


# -- Gaussian power structure ---------------------------------------------------


def test_power_structure_examples():
    for a1, b1, Z in [(2, 1, 3), (3, 2, 3), (1, 2, 5)]:
        rep = gaussian_power_structure(a1, b1, Z)
        assert rep["ok"], rep
        g = g_pow(GaussianInt(a1, b1), Z)
        assert (rep["k"], rep["l"]) == (g.re, g.im)


def test_power_structure_random_instances():
    rng = random.Random(12)
    done = 0
    while done < 80:
        a1 = rng.randrange(-999, 1000)
        b1 = rng.randrange(-999, 1000)
        if a1 == 0 or b1 == 0 or math.gcd(a1, b1) != 1 or (a1 - b1) % 2 == 0:
            continue
        if a1 * a1 + b1 * b1 > 10**6:
            continue
        Z = rng.choice([1, 3, 5, 7, 9, 11, 13, 15])
        rep = gaussian_power_structure(a1, b1, Z)
        assert rep["ok"], (a1, b1, Z, rep)
        done += 1


def test_power_structure_rejections():
    with pytest.raises(ValueError):
        gaussian_power_structure(0, 1, 3)
    with pytest.raises(ValueError):
        gaussian_power_structure(2, 4, 3)
    with pytest.raises(ValueError):
        gaussian_power_structure(2, 1, 2)


def _valuations_match_by_factoring(base: int, part: int, Z: int) -> bool:
    """The valuation statement read off sympy's factorizations."""
    fp, fz = factorint(abs(part)), factorint(Z)
    return all(
        fp.get(p, 0) == e + fz.get(p, 0) for p, e in factorint(abs(base)).items() if p > 2
    )


def test_power_structure_valuation_check_against_factorint():
    rng = random.Random(31)
    primes = (3, 5, 7, 11, 13, 101, 9973)

    def draw():
        v = rng.choice((-1, 1)) * rng.randrange(1, 10 ** rng.randint(1, 8))
        for _ in range(rng.randint(0, 3)):
            v *= rng.choice(primes) ** rng.randint(1, 3)
        return v

    outcomes = []
    for _ in range(2000):
        base, Z = draw(), abs(draw())
        part = rng.choice((draw(), base * Z, base * Z * draw(), base * Z * rng.choice(primes)))
        want = _valuations_match_by_factoring(base, part, Z)
        assert search._odd_prime_valuations_match(base, part, Z) == want, (base, part, Z)
        outcomes.append(want)
    # both outcomes are common, so the check is seen to fail as well as pass
    assert 300 < sum(outcomes) < 1700, sum(outcomes)


@pytest.mark.parametrize("base, part, Z", [(0, 5, 3), (15, 0, 3), (15, 45, 0), (4, 0, 3)])
def test_power_structure_valuation_check_rejects_zero(base, part, Z):
    with pytest.raises(ValueError):
        search._odd_prime_valuations_match(base, part, Z)
