"""Exact integer, Gaussian-integer, and certified interval arithmetic.

Everything else in the package sits on these three layers:

* plain Python ints for all exact work (no silent overflow exists here),
* ``GaussianInt`` for Z[i] with exact Euclidean division,
* ``RInterval`` for real quantities where an inequality must be *certified*:
  every operation returns an enclosure of the exact image, so ``hi < lo``
  comparisons between intervals are proofs, not estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import functools
import math

__all__ = [
    "val_p",
    "perfect_power_exponent",
    "integer_nth_root",
    "primes_up_to",
    "PSI_13",
    "is_prime",
    "is_prime_power",
    "GaussianInt",
    "g_pow",
    "g_divmod",
    "RInterval",
    "ln_constant",
    "ln_superfactorial",
    "DEFAULT_PRECISION",
]

DEFAULT_PRECISION = 128


def val_p(n: int, p: int) -> int:
    """Largest e with p^e dividing n. The valuation of 0 is undefined."""
    if n == 0:
        raise ValueError("valuation of zero undefined")
    if p < 2:
        raise ValueError("p must be a prime >= 2")
    n = abs(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def perfect_power_exponent(N: int, base: int):
    """Return y >= 1 with base^y == N, or None.

    N == 1 is treated as absent: exponents are positive by convention.
    """
    if N < 1 or base < 2:
        raise ValueError("requires N >= 1 and base >= 2")
    if N == 1 or N % base:
        return None
    # A float log only picks the starting exponent; exact steps from
    # base^y down, then up, decide, so a bad estimate costs time only.
    y = int(math.log(N) / math.log(base))
    acc = base**y
    while acc > N:
        acc //= base
        y -= 1
    while acc < N:
        acc *= base
        y += 1
    return y if acc == N else None


def integer_nth_root(N: int, n: int) -> tuple[int, bool]:
    """(floor(N^(1/n)), exact) for N >= 0, n >= 1, by Newton/bisection on ints."""
    if N < 0 or n < 1:
        raise ValueError("requires N >= 0 and n >= 1")
    if n == 1 or N in (0, 1):
        return N, True
    if n == 2:
        r = math.isqrt(N)
        return r, r * r == N
    hi = 1 << (-(-N.bit_length() // n) + 1)
    lo = 0
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**n <= N:
            lo = mid
        else:
            hi = mid - 1
    return lo, lo**n == N


# ---------------------------------------------------------------------------
# Primes


def primes_up_to(limit: int) -> list[int]:
    """All primes p <= limit, by the sieve of Eratosthenes."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return [p for p, flag in enumerate(sieve) if flag]


# Trial division stops below 200: a longer table costs more on the small
# numbers tripow meets than it saves on the rare larger ones.
_TRIAL_BOUND = 200
_SMALL_PRIMES = tuple(primes_up_to(_TRIAL_BOUND))
# The first 13 primes are a deterministic Miller-Rabin base set below
# PSI_13, the least strong pseudoprime to all of them (J. Sorenson and
# J. Webster, Strong pseudoprimes to twelve prime bases, Math. Comp. 86,
# 2017).
_MR_BASES = _SMALL_PRIMES[:13]
PSI_13 = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact primality test.

    Trial division by the primes below 200, then strong probable-prime
    tests to the bases 2, 3, ..., 41.  A base that witnesses
    compositeness is a proof at any size; passing all of them proves n
    prime only below PSI_13, so at or above it a ValueError is raised
    instead of an answer.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < _TRIAL_BOUND * _TRIAL_BOUND:  # a composite has a factor <= its square root
        return True
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= PSI_13:
        raise ValueError(f"primality of {n} >= PSI_13 is not decided by 13 bases")
    return True


def is_prime_power(n: int) -> bool:
    """True iff n = p^k for a single prime p, k >= 1.

    Needs no factorization: a prime below 200 that divides n settles it,
    and otherwise some exact k-th root of n must be prime.  Larger k are
    tried first, so a proper prime power answers without testing n itself.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p ** val_p(n, p)
    # every prime factor now exceeds 2^7, so n = q^k forces 7k < n.bit_length()
    for k in range(n.bit_length() // 7, 0, -1):
        root, exact = integer_nth_root(n, k)
        if exact and is_prime(root):
            return True
    return False


# ---------------------------------------------------------------------------
# Gaussian integers


@dataclass(frozen=True)
class GaussianInt:
    re: int
    im: int

    def __add__(self, other: "GaussianInt") -> "GaussianInt":
        return GaussianInt(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianInt") -> "GaussianInt":
        return GaussianInt(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "GaussianInt") -> "GaussianInt":
        a, b, c, d = self.re, self.im, other.re, other.im
        return GaussianInt(a * c - b * d, a * d + b * c)

    def conj(self) -> "GaussianInt":
        return GaussianInt(self.re, -self.im)

    def norm(self) -> int:
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_unit(self) -> bool:
        return self.norm() == 1


ONE = GaussianInt(1, 0)
I = GaussianInt(0, 1)
UNITS = (ONE, I, GaussianInt(-1, 0), GaussianInt(0, -1))


def g_pow(g: GaussianInt, e: int) -> GaussianInt:
    """Exact e-th power in Z[i], e >= 0."""
    if e < 0:
        raise ValueError("negative exponent")
    result = ONE
    base = g
    while e:
        if e & 1:
            result = result * base
        base = base * base
        e >>= 1
    return result


def g_divmod(x: GaussianInt, m: GaussianInt) -> tuple[GaussianInt, GaussianInt]:
    """Euclidean division: x = q*m + r with norm(r) <= norm(m)/2.

    Quotient components are rounded to the nearest integer, which keeps
    |r/m|^2 <= 1/2 and makes the Euclidean algorithm terminate.
    """
    if m.is_zero():
        raise ZeroDivisionError("division by zero Gaussian integer")
    nm = m.norm()
    t = x * m.conj()

    def nearest(a: int, b: int) -> int:
        # round half toward +inf; any consistent nearest rounding works
        return (2 * a + b) // (2 * b)

    q = GaussianInt(nearest(t.re, nm), nearest(t.im, nm))
    r = x - q * m
    return q, r


# ---------------------------------------------------------------------------
# Certified real intervals.
#
# An RInterval holds its ends as exact binary numbers, with the precision it
# rounds them to; the arithmetic on them lives in .endpoints (see there), so
# no result depends on process-global state, on other threads or on mpmath.
# Only RInterval decodes the ends: other modules ask it for exact rationals,
# floors or decimal strings.
#
# .endpoints is imported on the first interval, not with this module: the
# exact paths (scan, symbols) never build one.  The entry points that make
# an interval from nothing (RInterval(), RInterval.pi, RInterval.e_const,
# ln_superfactorial) call _load_endpoints; every other path starts from an
# interval that exists.

endpoints = None


def _load_endpoints() -> None:
    """Bind the endpoint functions below, once."""
    global end_str, exact_end, floor_end, int_iv, iv_add, iv_div, iv_exp
    global iv_ln, iv_mul, iv_pow, iv_sub, lt, pi_iv, sqrt_end, endpoints
    from .endpoints import (
        end_str,
        exact_end,
        floor_end,
        int_iv,
        iv_add,
        iv_div,
        iv_exp,
        iv_ln,
        iv_mul,
        iv_pow,
        iv_sub,
        lt,
        pi_iv,
        sqrt_end,
    )
    from . import endpoints  # bound last: a thread that sees it set finds every name above


def _to_iv(x, prec: int) -> tuple:
    """Endpoints enclosing x at prec bits.  A Fraction's numerator and
    denominator are rounded outward first, then divided."""
    if isinstance(x, RInterval):
        return x._v
    if isinstance(x, Fraction):
        return iv_div(int_iv(x.numerator, prec), int_iv(x.denominator, prec), prec)
    if isinstance(x, int):
        return int_iv(x, prec)
    raise TypeError(f"cannot build interval from {type(x).__name__}")


class RInterval:
    """Real interval [lo, hi] with outward rounding at a stated precision.

    Containment guarantee: the result of any operation encloses the exact
    image of the operand intervals.  A strict inequality between two
    intervals (hi of one < lo of the other) is therefore a certificate.
    """

    __slots__ = ("_v", "precision")

    def __init__(self, lo, hi=None, precision: int = DEFAULT_PRECISION):
        if precision < 8:
            raise ValueError("precision too small")
        if endpoints is None:
            _load_endpoints()
        v = _to_iv(lo, precision)
        if hi is not None:
            v = v[:2] + _to_iv(hi, precision)[2:]
            if lt(v[2], v[3], v[0], v[1]):
                raise ValueError("interval endpoints out of order")
        self._v = v
        self.precision = precision

    @classmethod
    def _wrap(cls, v: tuple, precision: int) -> "RInterval":
        out = object.__new__(cls)
        out._v = v
        out.precision = precision
        return out

    # -- endpoints ---------------------------------------------------------

    @property
    def lo(self):
        """lo, exactly, as an mpmath.mpf (this imports mpmath)."""
        from mpmath import make_mpf
        from mpmath.libmp import from_man_exp

        return make_mpf(from_man_exp(*self._v[:2]))

    @property
    def hi(self):
        """hi, exactly, as an mpmath.mpf (this imports mpmath)."""
        from mpmath import make_mpf
        from mpmath.libmp import from_man_exp

        return make_mpf(from_man_exp(*self._v[2:]))

    def exact_ends(self) -> tuple[Fraction, Fraction]:
        """(lo, hi) as exact rationals."""
        v = self._v
        return exact_end(v[0], v[1]), exact_end(v[2], v[3])

    def decimal_ends(self, digits: int) -> tuple[str, str]:
        """(lo, hi) as decimal strings of at most ``digits`` significant
        digits, lo rounded down and hi up, so the printed pair encloses
        the interval."""
        v = self._v
        return end_str(v[0], v[1], digits, False), end_str(v[2], v[3], digits, True)

    # -- queries -----------------------------------------------------------

    def floor(self) -> int:
        """The floor of every point; ValueError if the endpoints' floors differ."""
        lm, le, hm, he = self._v
        lo = floor_end(lm, le)
        if lo != floor_end(hm, he):
            raise ValueError("floor undetermined at this precision; raise precision")
        return lo

    def min(self, other: "RInterval") -> "RInterval":
        """Enclosure of min(x, y) for x in self and y in other."""
        a, b = self._v, other._v
        lo = b[:2] if lt(b[0], b[1], a[0], a[1]) else a[:2]
        hi = b[2:] if lt(b[2], b[3], a[2], a[3]) else a[2:]
        return RInterval._wrap(lo + hi, max(self.precision, other.precision))

    def strictly_less(self, other: "RInterval") -> bool:
        _, _, hm, he = self._v
        lm, le = other._v[:2]
        return lt(hm, he, lm, le)

    def strictly_positive(self) -> bool:
        return self._v[0] > 0

    # -- arithmetic --------------------------------------------------------

    def _binop(self, other, op, reflected=False) -> "RInterval":
        if not isinstance(other, RInterval):
            other = RInterval(other, precision=self.precision)
        prec = max(self.precision, other.precision)
        a, b = (other._v, self._v) if reflected else (self._v, other._v)
        return RInterval._wrap(op(a, b, prec), prec)

    def __add__(self, other):
        return self._binop(other, iv_add)

    def __radd__(self, other):
        return self._binop(other, iv_add, reflected=True)

    def __sub__(self, other):
        return self._binop(other, iv_sub)

    def __rsub__(self, other):
        return self._binop(other, iv_sub, reflected=True)

    def __mul__(self, other):
        return self._binop(other, iv_mul)

    def __rmul__(self, other):
        return self._binop(other, iv_mul, reflected=True)

    def __truediv__(self, other):
        return self._binop(other, iv_div)

    def __rtruediv__(self, other):
        return self._binop(other, iv_div, reflected=True)

    def __neg__(self):
        lm, le, hm, he = self._v
        return RInterval._wrap((-hm, he, -lm, le), self.precision)

    def __pow__(self, e: int):
        if not isinstance(e, int):
            raise TypeError("integer exponents only; use pow_frac for t^q")
        return RInterval._wrap(iv_pow(self._v, e, self.precision), self.precision)

    # -- transcendental ----------------------------------------------------

    def ln(self) -> "RInterval":
        if not self.strictly_positive():
            raise ValueError("ln requires a strictly positive interval")
        return RInterval._wrap(iv_ln(self._v, self.precision), self.precision)

    def exp(self) -> "RInterval":
        return RInterval._wrap(iv_exp(self._v, self.precision), self.precision)

    def sqrt(self) -> "RInterval":
        lm, le, hm, he = self._v
        if lm < 0:
            raise ValueError("sqrt requires a nonnegative interval")
        prec = self.precision
        return RInterval._wrap(sqrt_end(lm, le, prec, False) + sqrt_end(hm, he, prec, True), prec)

    def pow_frac(self, q) -> "RInterval":
        """t^q for positive t and rational/interval q, via exp(q ln t)."""
        if not self.strictly_positive():
            raise ValueError("pow_frac requires a strictly positive base")
        if not isinstance(q, RInterval):
            q = RInterval(q, precision=self.precision)
        prec = max(self.precision, q.precision)
        return RInterval._wrap(iv_exp(iv_mul(q._v, iv_ln(self._v, prec), prec), prec), prec)

    @staticmethod
    def pi(precision: int = DEFAULT_PRECISION) -> "RInterval":
        if endpoints is None:
            _load_endpoints()
        return RInterval._wrap(pi_iv(precision), precision)

    @staticmethod
    def e_const(precision: int = DEFAULT_PRECISION) -> "RInterval":
        if endpoints is None:
            _load_endpoints()
        return RInterval._wrap(iv_exp((1, 0, 1, 0), precision), precision)


@functools.cache
def ln_constant(n: int, precision: int) -> RInterval:
    """ln n for n in 2, 3 and 10, built once per precision and shared:
    bit for bit RInterval(n, precision=precision).ln()."""
    if n not in (2, 3, 10):
        raise ValueError("ln_constant keeps ln 2, ln 3 and ln 10 only")
    return RInterval(n, precision=precision).ln()


# j per block of ln_superfactorial's exact anchor: each block costs two
# interval logs, and its exact products grow as the block's square.  Timed
# at K from 13k to 34k, 128 and 256 bits, when every j was summed this way:
# 24 and 32 tie, 16 pays for more logs, 40 and 64 for the products.
SUPERFACTORIAL_BLOCK = 32


def superfactorial_anchor(precision: int) -> int:
    """n0, the last j that ln_superfactorial sums exactly at this precision.

    The Euler-Maclaurin terms from a = n0 + 1 shrink while 2k < 2 pi a and
    bottom out near exp(-2 pi a), about 2^(-9a); a > precision / 2 leaves
    more than four times the bits asked for.  The floor of 64 keeps the
    term count low at small precisions.
    """
    return max(64, precision // 2)


@functools.cache
def _bernoulli(k: int) -> Fraction:
    """B_k, with B_1 = -1/2, by the recurrence sum_{j<=k} C(k+1, j) B_j = 0."""
    if k < 2:
        return Fraction(1) if k == 0 else Fraction(-1, 2)
    if k % 2:
        return Fraction(0)
    return -sum(math.comb(k + 1, j) * _bernoulli(j) for j in range(k)) / (k + 1)


def _weighted_log_blocks(n: int, last: int, precision: int) -> tuple:
    """Enclosure of sum_{j=1}^{last} (n + 1 - j) ln j, two logs per block."""
    total = (0, 0, 0, 0)
    for start in range(1, last + 1, SUPERFACTORIAL_BLOCK):
        end = min(start + SUPERFACTORIAL_BLOCK - 1, last)
        p = q = 1
        for j in range(start, end):
            p *= j
            q *= p  # the prefix product through j, so j enters q end - j times
        p *= end
        weighted = iv_mul(
            int_iv(n + 1 - end, precision), iv_ln(int_iv(p, precision), precision), precision
        )
        block = iv_add(weighted, iv_ln(int_iv(q, precision), precision), precision)
        total = iv_add(total, block, precision)
    return total


def _euler_maclaurin_tail(n: int, a: int, precision: int) -> tuple:
    """Enclosure of sum_{j=a}^{n} (n + 1 - j) ln j for 2 <= a <= n.

    See ln_superfactorial.  Everything is carried times 12, so the ln a and
    ln b coefficients are integers.
    """
    b, c = n, n + 1

    def odd_derivative_term(k, x):
        # B_2k / (2k)! * g^(2k-1)(x), times 12, for k >= 2
        return 12 * _bernoulli(2 * k) * (c * (2 * k - 2) + x) / (
            2 * k * (2 * k - 1) * (2 * k - 2) * x ** (2 * k - 1)
        )

    # 12 [int_a^b g + (g(a) + g(b))/2 + B_2/2! (g'(b) - g'(a))], with
    # int g = ln x (c x - x^2/2) - c x + x^2/4 and g'(x) = -ln x + c/x - 1
    coef_a = 6 * a * a - 12 * c * a + 6 * (c - a) + 1
    coef_b = 12 * c * b - 6 * b * b + 6 * (c - b) - 1
    rational = 3 * (b * b - a * a) - 12 * c * (b - a) + Fraction(c, b) - Fraction(c, a)
    target = Fraction(12 * n * n, 1 << precision)
    previous = None
    k = 2
    while True:
        term = odd_derivative_term(k, b) - odd_derivative_term(k, a)
        # |R_k| <= 2 |B_2k| / (2k)! |g^(2k-1)(b) - g^(2k-1)(a)| = 2 |term|
        radius = 2 * abs(term)
        if radius <= target:
            break
        if previous is not None and abs(term) >= previous:
            raise ValueError(
                f"Euler-Maclaurin terms for n = {n} from a = {a} stop shrinking "
                f"before {precision} bits"
            )
        rational += term
        previous = abs(term)
        k += 1
    p = precision
    logs = iv_add(
        iv_mul(int_iv(coef_a, p), iv_ln(int_iv(a, p), p), p),
        iv_mul(int_iv(coef_b, p), iv_ln(int_iv(b, p), p), p),
        p,
    )
    r_m, r_e = _to_iv(radius, p)[2:]
    total = iv_add(iv_add(logs, _to_iv(rational, p), p), (-r_m, r_e, r_m, r_e), p)
    return iv_div(total, int_iv(12, p), p)


def ln_superfactorial(n: int, precision: int) -> RInterval:
    """Enclosure of sum_{k=1}^{n} ln(k!) = sum_{j=2}^{n} (n + 1 - j) ln j.

    An exact anchor plus an analytic tail, so the cost does not grow with n.

    Anchor: j <= n0 = superfactorial_anchor(precision) run in blocks of
    SUPERFACTORIAL_BLOCK.  A block ending at ``end`` adds
    (n + 1 - end) ln P + ln Q, where P = prod j and Q = prod j^(end - j)
    are exact integers, so it costs two outward-rounded logs.

    Tail: j from a = n0 + 1 to b = n, by the Euler-Maclaurin formula
    (DLMF 2.10.1) for g(x) = (n + 1 - x) ln x:

        sum_{j=a}^{b} g(j) = int_a^b g + (g(a) + g(b)) / 2
            + sum_{k=1}^{m-1} B_2k / (2k)! (g^(2k-1)(b) - g^(2k-1)(a)) + R_m.

    Every term but ln a and ln b is an exact rational in n, a and b, so the
    tail costs two interval logs.  For k >= 2,
    g^(k)(x) = (-1)^(k-1) [(n + 1) (k-1)! / x^k + (k-2)! / x^(k-1)], which
    has one sign on x > 0.  As the periodic Bernoulli function never
    exceeds |B_2m| in absolute value (DLMF 24.9), that one sign gives

        |R_m| <= 2 |B_2m| / (2m)! |g^(2m-1)(b) - g^(2m-1)(a)|,

    twice the first omitted term; it is added as an exact rational radius.
    m is the first k >= 2 whose radius is at most n^2 / 2^precision, about
    the rounding of the sum itself.  If the terms stop shrinking first, a
    ValueError is raised rather than a wider enclosure returned.

    n <= n0 leaves the tail empty, and n <= 1 gives an exact 0.
    """
    if n < 0:
        raise ValueError("requires n >= 0")
    if endpoints is None:
        _load_endpoints()
    n0 = superfactorial_anchor(precision)
    total = _weighted_log_blocks(n, min(n, n0), precision)
    if n > n0:
        total = iv_add(total, _euler_maclaurin_tail(n, n0 + 1, precision), precision)
    return RInterval._wrap(total, precision)
