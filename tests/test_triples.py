"""Pair normalization, triples, 2-adic profiles, and the c = 185 scan."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tripow.triples import (
    PrimPair,
    exclusion_conditions,
    iter_pairs,
    min_c_scan,
    triple_of,
    two_adic_profile,
)


# -- oracle: valid generator pairs -------------------------------------------


def brute_pairs(m_max):
    out = []
    for m in range(2, m_max + 1):
        for n in range(1, m):
            if (m - n) % 2 == 1 and math.gcd(m, n) == 1:
                out.append((m, n))
    return out


valid_pair = st.sampled_from(brute_pairs(500))


# -- construction ------------------------------------------------------------


def test_pair_normalizes_order():
    p = PrimPair(4, 13)
    assert (p.m, p.n) == (13, 4)
    assert p.even_member == 4 and p.odd_member == 13


@pytest.mark.parametrize(
    "m, n, msg",
    [
        (9, 3, "coprime"),
        (7, 3, "parity"),
        (5, 5, "distinct"),
        (5, 0, "positive"),
        (-4, 3, "positive"),
    ],
)
def test_pair_rejections(m, n, msg):
    with pytest.raises(ValueError, match=msg):
        PrimPair(m, n)


@given(valid_pair)
def test_triple_identity_and_coprimality(mn):
    t = triple_of(PrimPair(*mn))
    assert t.a**2 + t.b**2 == t.c**2
    assert math.gcd(t.a, t.b) == math.gcd(t.a, t.c) == math.gcd(t.b, t.c) == 1


def test_triple_examples():
    t = triple_of(PrimPair(2, 1))
    assert (t.a, t.b, t.c) == (3, 4, 5)
    t = triple_of(PrimPair(13, 4))
    assert (t.a, t.b, t.c) == (153, 104, 185)


# -- 2-adic profile ----------------------------------------------------------


@pytest.mark.parametrize(
    "m, n, alpha, i, beta, j, e",
    [
        (13, 4, 2, 1, 2, 3, 1),
        (11, 8, 3, 1, 2, 3, -1),
        (12, 7, 2, 3, 3, 1, -1),
    ],
)
def test_profile_examples(m, n, alpha, i, beta, j, e):
    prof = two_adic_profile(PrimPair(m, n))
    assert (prof.alpha, prof.i, prof.beta, prof.j, prof.e) == (alpha, i, beta, j, e)


@given(valid_pair.filter(lambda mn: min(mn) > 1 or max(mn) % 2 == 0))
def test_profile_round_trip(mn):
    p = PrimPair(*mn)
    if p.odd_member == 1:
        return
    prof = two_adic_profile(p)
    assert (1 << prof.alpha) * prof.i == p.even_member
    assert (1 << prof.beta) * prof.j + prof.e == p.odd_member
    assert prof.beta >= 2 and prof.i % 2 == 1 and prof.j % 2 == 1
    assert prof.e in (-1, 1)


def test_profile_odd_member_one_rejected():
    with pytest.raises(ValueError, match="odd member 1"):
        two_adic_profile(PrimPair(2, 1))


# -- exclusion conditions and the scan ---------------------------------------


def test_exclusion_conditions_for_185_pairs():
    for m, n in [(13, 4), (11, 8)]:
        conds = exclusion_conditions(PrimPair(m, n))
        assert all(conds.values()), conds
        assert set(conds) == {
            "alpha_ge_2",
            "n_ge_4",
            "two_alpha_ne_beta_plus_1",
            "c_not_prime_power",
            "m_minus_n_ge_3",
        }


def test_min_c_scan_reproduces_185():
    best, winners = min_c_scan(1000)
    assert best == 185
    assert winners == {(13, 4), (11, 8)}


def test_min_c_scan_matches_brute_force_oracle():
    """Independent filter over brute-enumerated pairs."""
    limit = 2000
    best, winners = None, set()
    for m, n in brute_pairs(50):
        p = PrimPair(m, n)
        c = m * m + n * n
        if c > limit or p.odd_member == 1:
            continue
        if all(exclusion_conditions(p).values()):
            if best is None or c < best:
                best, winners = c, {(m, n)}
            elif c == best:
                winners.add((m, n))
    assert min_c_scan(limit) == (best, winners)
    assert best == 185


def test_min_c_scan_below_threshold_is_empty():
    best, winners = min_c_scan(184)
    assert best is None and winners == set()


# -- pair enumeration --------------------------------------------------------


def test_iter_pairs_matches_brute_force():
    got = [(p.m, p.n) for p in iter_pairs(60)]
    assert got == brute_pairs(60)
    assert len(got) == len(set(got))


def test_iter_pairs_ordering():
    got = [(p.m, p.n) for p in iter_pairs(25)]
    assert got == sorted(got)
