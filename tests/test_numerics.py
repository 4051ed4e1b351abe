"""Exact integer helpers, Gaussian arithmetic, and interval containment."""

import functools
import random
import sys
import threading
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import factorint, isprime, nextprime

from tripow.numerics import (
    DEFAULT_PRECISION,
    GaussianInt,
    I,
    ONE,
    PSI_13,
    RInterval,
    SUPERFACTORIAL_BLOCK,
    UNITS,
    g_divmod,
    g_pow,
    integer_nth_root,
    is_prime,
    is_prime_power,
    ln_superfactorial,
    perfect_power_exponent,
    primes_up_to,
    superfactorial_anchor,
    val_p,
)
from tripow import numerics

from enclosure import encloses, width


# -- oracles -----------------------------------------------------------------


def brute_val(n: int, p: int) -> int:
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# -- val_p -------------------------------------------------------------------


def test_val_p_examples():
    assert val_p(48, 2) == 4
    assert val_p(54, 3) == 3
    assert val_p(7, 2) == 0
    assert val_p(-40, 2) == 3


def test_val_p_zero_rejected():
    with pytest.raises(ValueError, match="zero"):
        val_p(0, 2)


@given(st.integers(min_value=-(10**12), max_value=10**12).filter(lambda n: n != 0),
       st.sampled_from([2, 3, 5, 7, 11, 13]))
def test_val_p_matches_brute_force(n, p):
    v = val_p(n, p)
    assert v == brute_val(n, p)
    assert n % p**v == 0
    assert (n // p**v) % p != 0


# -- perfect powers and roots ------------------------------------------------


def test_perfect_power_examples():
    assert perfect_power_exponent(729, 3) == 6
    assert perfect_power_exponent(1024, 2) == 10
    assert perfect_power_exponent(1, 5) is None
    assert perfect_power_exponent(10, 3) is None


@given(st.integers(min_value=2, max_value=10**6), st.integers(min_value=1, max_value=40))
def test_perfect_power_round_trip(base, k):
    assert perfect_power_exponent(base**k, base) == k


@given(st.integers(min_value=2, max_value=10**4), st.integers(min_value=1, max_value=400))
def test_perfect_power_exact_at_and_next_to_powers(base, k):
    N = base**k
    assert perfect_power_exponent(N, base) == k
    assert perfect_power_exponent(N + 1, base) is None
    assert perfect_power_exponent(N - 1, base) is None


@given(st.integers(min_value=0, max_value=10**30), st.integers(min_value=2, max_value=9))
def test_integer_nth_root_bracket(N, n):
    root, exact = integer_nth_root(N, n)
    assert root**n <= N < (root + 1) ** n
    assert exact == (root**n == N)


# -- primes and factoring, against sympy ---------------------------------------


def test_primes_up_to_matches_isprime():
    assert primes_up_to(1) == [] and primes_up_to(2) == [2]
    assert primes_up_to(10**5) == [n for n in range(10**5 + 1) if isprime(n)]


def test_is_prime_matches_sympy_below_a_million():
    assert [n for n in range(10**6) if is_prime(n)] == [n for n in range(10**6) if isprime(n)]


@pytest.mark.parametrize("bits", [64, 80])
def test_is_prime_matches_sympy_on_random_wide_integers(bits):
    rng = random.Random(bits)
    ns = [rng.getrandbits(bits) | 1 for _ in range(2000)]
    ns += [nextprime(rng.getrandbits(bits)) for _ in range(50)]
    assert [is_prime(n) for n in ns] == [isprime(n) for n in ns]


@pytest.mark.parametrize(
    "n",
    [
        3215031751,  # strong pseudoprime to the bases 2, 3, 5, 7
        3825123056546413051,  # strong pseudoprime to the bases 2, ..., 23
        318665857834031151167461,  # psi_12: strong pseudoprime to the bases 2, ..., 37
    ],
)
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not isprime(n)
    assert not is_prime(n)


def test_is_prime_raises_where_thirteen_bases_do_not_decide():
    assert not isprime(PSI_13)
    with pytest.raises(ValueError, match="PSI_13"):
        is_prime(PSI_13)
    # a small factor or a witness base still proves compositeness above PSI_13
    for n in (PSI_13 + 1, PSI_13 + 30):
        assert is_prime(n) == isprime(n) == False


def test_is_prime_power_matches_factorint():
    assert [n for n in range(10**5) if is_prime_power(n)] == [
        n for n in range(2, 10**5) if len(factorint(n)) == 1
    ]
    rng = random.Random(20)
    for _ in range(40):
        k = rng.randint(1, 6)
        p = nextprime(rng.randrange(2, int(10 ** (20 / k))))
        assert is_prime_power(p**k)
        assert not is_prime_power(p**k * 211) and not is_prime_power(p**k * nextprime(p))


# -- Gaussian integers -------------------------------------------------------

gauss = st.builds(
    GaussianInt,
    st.integers(min_value=-200, max_value=200),
    st.integers(min_value=-200, max_value=200),
)


@given(gauss, gauss)
def test_norm_multiplicative(a, b):
    assert (a * b).norm() == a.norm() * b.norm()


@given(gauss.filter(lambda g: not g.is_zero()), gauss.filter(lambda g: not g.is_zero()))
def test_divmod_small_remainder(a, b):
    q, r = g_divmod(a, b)
    assert q * b + r == a
    assert r.norm() * 2 <= b.norm()


@given(gauss, st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=12))
def test_pow_additive(a, j, k):
    assert g_pow(a, j) * g_pow(a, k) == g_pow(a, j + k)


def test_units_and_constants():
    assert ONE == GaussianInt(1, 0) and I == GaussianInt(0, 1)
    assert set(UNITS) == {GaussianInt(1, 0), GaussianInt(0, 1),
                          GaussianInt(-1, 0), GaussianInt(0, -1)}


# -- intervals ---------------------------------------------------------------


def test_interval_contains_exact_rational_arithmetic():
    """Exact Fractions are the ground truth for +,-,*,/ containment."""
    rng = random.Random(2024)
    for _ in range(2000):
        vals = [Fraction(rng.randrange(-10**6, 10**6), rng.randrange(1, 10**4))
                for _ in range(4)]
        exact = vals[0]
        iv = RInterval(vals[0], precision=64)
        for v, op in zip(vals[1:], rng.choices("+-*/", k=3)):
            if op == "+":
                exact, iv = exact + v, iv + RInterval(v, precision=64)
            elif op == "-":
                exact, iv = exact - v, iv - RInterval(v, precision=64)
            elif op == "*":
                exact, iv = exact * v, iv * RInterval(v, precision=64)
            elif v != 0:
                exact, iv = exact / v, iv / RInterval(v, precision=64)
        assert encloses(iv, exact)


def test_interval_transcendental_contains_high_precision_point():
    """ln and sqrt intervals must contain a 4x-precision point estimate
    (exp: test_interval_core checks it, and ln and sqrt again, against decimal)."""
    rng = random.Random(99)
    for _ in range(300):
        q = Fraction(rng.randrange(1, 10**9), rng.randrange(1, 10**6))
        iv = RInterval(q, precision=80)
        with mpmath.workprec(320):
            x = mpmath.mpf(q.numerator) / q.denominator
            assert encloses(iv.ln(), Fraction(str(mpmath.nstr(mpmath.log(x), 40))))
            assert encloses(iv.sqrt(), Fraction(str(mpmath.nstr(mpmath.sqrt(x), 40))))


def test_interval_precision_refines_width():
    v = RInterval(2, precision=64).ln()
    w = RInterval(2, precision=256).ln()
    assert width(w) < width(v)
    assert v.lo <= w.lo and w.hi <= v.hi  # refinement nests


def test_interval_big_integer_round_outward():
    n = 10**60 + 1
    iv = RInterval(n, precision=64)
    assert width(iv) > 0  # cannot be represented in 64 bits, so it widened
    assert encloses(iv, n)
    assert encloses(RInterval(n, precision=300), n)


def test_strict_comparisons():
    a = RInterval(1, 2)
    b = RInterval(3, 4)
    assert a.strictly_less(b) and not b.strictly_less(a)
    assert not a.strictly_less(RInterval(Fraction(3, 2)))
    assert b.strictly_positive() and (-b).exact_ends()[1] < 0


def test_ln_requires_positive_lower_endpoint():
    with pytest.raises(ValueError):
        RInterval(0, 1).ln()


def test_pow_frac_encloses_rational_power():
    t = RInterval(5, precision=128)
    v = t.pow_frac(Fraction(3, 5))
    with mpmath.workprec(512):
        ref = mpmath.power(5, mpmath.mpf(3) / 5)
        assert v.lo <= ref <= v.hi


def test_interval_endpoint_order_enforced():
    with pytest.raises(ValueError):
        RInterval(2, 1)


def test_interval_endpoints_from_ints_and_fractions_only():
    # a decimal string or float would need its own rounding rule, and an mpf
    # point its own precision; nothing builds one
    for x in ("0.1", 0.1, mpmath.mpf("0.1"), mpmath.mpf("nan")):
        with pytest.raises(TypeError):
            RInterval(x, precision=64)


@pytest.mark.parametrize("precision", (64, 512))
def test_exact_ends_is_the_libmp_decode(precision):
    rng = random.Random(precision)
    for _ in range(200):
        q = Fraction(rng.randrange(-10**12, 10**12), rng.randrange(1, 10**9))
        for iv in (RInterval(q, precision=precision), RInterval(abs(q) + 1, precision=precision).ln()):
            decoded = tuple(
                Fraction(*mpmath.libmp.to_rational(end._mpf_)) for end in (iv.lo, iv.hi)
            )
            assert iv.exact_ends() == decoded


def test_floor_of_a_decided_interval():
    assert RInterval(Fraction(7, 2), precision=64).floor() == 3
    assert RInterval(Fraction(-7, 2), precision=64).floor() == -4
    assert RInterval(5, precision=64).floor() == 5
    assert RInterval(10, precision=256).ln().floor() == 2
    assert RInterval(Fraction(1, 3), Fraction(2, 3), precision=64).floor() == 0


def test_floor_straddling_an_integer_asks_for_precision():
    with pytest.raises(ValueError, match="raise precision"):
        RInterval(Fraction(1, 2), Fraction(3, 2), precision=64).floor()
    # a point just below an integer, which 64 bits round up to it
    with pytest.raises(ValueError, match="raise precision"):
        RInterval(1 - Fraction(1, 2**80), precision=64).floor()
    assert RInterval(1 - Fraction(1, 2**80), precision=128).floor() == 0


def test_min_encloses_pointwise_min():
    rng = random.Random(7)
    pairs = [
        ((0, 2), (1, 3)),  # overlapping
        ((0, 10), (2, 3)),  # nested
        ((-5, -4), (1, 2)),  # disjoint, first below
        ((6, 7), (-3, 1)),  # disjoint, second below
        ((Fraction(1, 3), Fraction(1, 3)), (Fraction(1, 3), 1)),  # shared end
    ]
    for (a_lo, a_hi), (b_lo, b_hi) in pairs:
        for pa, pb in ((64, 64), (64, 512), (512, 64)):
            x = RInterval(a_lo, a_hi, precision=pa)
            y = RInterval(b_lo, b_hi, precision=pb)
            m = x.min(y)
            assert m.precision == max(pa, pb)
            for _ in range(50):
                u = Fraction(a_lo) + (Fraction(a_hi) - Fraction(a_lo)) * Fraction(rng.randrange(101), 100)
                v = Fraction(b_lo) + (Fraction(b_hi) - Fraction(b_lo)) * Fraction(rng.randrange(101), 100)
                assert encloses(m, min(u, v))
            # and it is no wider than the two operands allow
            assert m.exact_ends() == (
                min(x.exact_ends()[0], y.exact_ends()[0]),
                min(x.exact_ends()[1], y.exact_ends()[1]),
            )

def _ln_endpoints(precision):
    return [(v.lo, v.hi) for v in (RInterval(k, precision=precision).ln() for k in range(2, 3000))]


def test_interval_precision_is_per_value_across_threads():
    expected = {p: _ln_endpoints(p) for p in (64, 512)}
    got = {}
    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=lambda p=p: got.__setitem__(p, _ln_endpoints(p)))
            for p in expected
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(saved)
    assert got == expected


def test_interval_ignores_mpmath_global_precision():
    iv = RInterval(1, Fraction(4, 3), precision=256)
    ends, lo, hi, ln_ends = iv.exact_ends(), iv.lo, iv.hi, iv.ln().exact_ends()
    saved = mpmath.iv.prec
    try:
        mpmath.iv.prec = 20
        with mpmath.workprec(12):
            assert iv.exact_ends() == ends
            assert (iv.lo, iv.hi) == (lo, hi)
            assert RInterval(1, Fraction(4, 3), precision=256).ln().exact_ends() == ln_ends
    finally:
        mpmath.iv.prec = saved

    def exact(x):
        return Fraction(*mpmath.libmp.to_rational(x._mpf_))

    assert (exact(lo), exact(hi)) == ends


def _superfactorial_reference(n):
    """sum_{j=2}^{n} (n + 1 - j) ln j, one log per term at 400 bits."""
    with mpmath.workprec(400):
        return mpmath.fsum((n + 1 - j) * mpmath.log(j) for j in range(2, n + 1))


B = SUPERFACTORIAL_BLOCK


@pytest.mark.parametrize("n", [2, B - 1, B, B + 1, 2 * B + 1, 12999, 22677, 33551])
def test_ln_superfactorial_contains_high_precision_value(n):
    ref = _superfactorial_reference(n)
    for precision in (64, 128, 256):
        iv = ln_superfactorial(n, precision)
        assert iv.precision == precision
        assert iv.lo <= ref <= iv.hi


def test_ln_superfactorial_of_one_is_exact_zero():
    for n in (0, 1):
        iv = ln_superfactorial(n, 128)
        assert iv.lo == 0 and iv.hi == 0 and iv.exact_ends() == (0, 0)
    with pytest.raises(ValueError):
        ln_superfactorial(-1, 128)


def test_ln_superfactorial_no_wider_than_per_term_sum():
    # the worked laurent instance: K = 22678, so n = K - 1
    n, precision = 22677, 128
    per_term = RInterval(0, precision=precision)
    for j in range(2, n + 1):
        per_term = per_term + RInterval(j, precision=precision).ln() * (n + 1 - j)
    iv = ln_superfactorial(n, precision)
    assert iv.lo <= per_term.hi and per_term.lo <= iv.hi
    assert width(iv) <= width(per_term)


@functools.cache
def _barnes_g_reference(n):
    """ln G(n + 2) = sum_{k=1}^{n} ln k!, from mpmath's Barnes G at 800 bits.

    800 rather than 400 bits: a 512-bit enclosure is about 2^-490 wide,
    finer than a 400-bit value of a sum near 5e9 can resolve.
    """
    with mpmath.workprec(800):
        return mpmath.log(mpmath.barnesg(n + 2))


@pytest.mark.parametrize("precision", [64, 96, 128, 192, 256, 512])
def test_ln_superfactorial_contains_barnes_g_across_the_anchor(precision):
    n0 = superfactorial_anchor(precision)
    for n in (n0 - 1, n0, n0 + 1, 12999, 22677, 33551):
        iv = ln_superfactorial(n, precision)
        assert iv.precision == precision
        assert iv.lo <= _barnes_g_reference(n) <= iv.hi, n


@pytest.mark.parametrize("precision", [64, 128, 256])
def test_ln_superfactorial_no_wider_than_block_sum(precision):
    # n = K - 1 for the benchmark's three laurent strata
    for n in (13245, 24429, 33551):
        # ln_superfactorial first: it loads the endpoint functions, which the private helper assumes
        iv = ln_superfactorial(n, precision)
        block_sum = RInterval._wrap(numerics._weighted_log_blocks(n, n, precision), precision)
        assert width(iv) <= width(block_sum)


def test_ln_superfactorial_refuses_to_widen(monkeypatch):
    # from a = 2 the Euler-Maclaurin terms grow long before 2^-64
    monkeypatch.setattr(numerics, "superfactorial_anchor", lambda precision: 1)
    with pytest.raises(ValueError, match="stop shrinking"):
        ln_superfactorial(1000, 64)


def test_bernoulli_numbers_match_mpmath():
    for k in range(61):
        assert numerics._bernoulli(k) == Fraction(*mpmath.bernfrac(k))
