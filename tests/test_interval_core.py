"""numerics' own interval core against two independent oracles.

* The standard library's decimal rounds exp, ln and sqrt correctly by
  contract, so at D digits the true value lies within half a unit in the
  last place of its result.  Each end of an interval must lie on the right
  side of that band, and the next prec-bit number past it on the other:
  every end is then the true directed rounding, not just an enclosure.
* mpmath's libmp interval functions round +, -, *, /, integer powers and
  the conversions the same way, so their bits must match.  decimal_ends
  rounds lo down and hi up, checked against decimal's directed roundings;
  mpmath.nstr rounds to nearest, so it must print one of an end's two
  directed strings, in the same layout.
"""

import random
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import libmp, nstr

from tripow import bounds, endpoints
from tripow.numerics import RInterval, ln_constant

from enclosure import assert_printed_ends_directed

PRECISIONS = (64, 80, 128, 192, 256, 384, 512, 1024)


# -- decimal -------------------------------------------------------------------


def _pi(digits: int) -> Decimal:
    """pi to the context's precision, by the decimal module's documented recipe."""
    with localcontext() as ctx:
        ctx.prec = digits + 2
        three = Decimal(3)
        lasts, t, s, n, na, d, da = 0, three, 3, 1, 0, 0, 24
        while s != lasts:
            lasts = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            s += t
    with localcontext() as ctx:
        ctx.prec = digits
        return +s


def _band(value: Decimal, digits: int) -> tuple[Fraction, Fraction]:
    """(center, radius) with the true value within radius of center, for a
    result correctly rounded at ``digits`` digits."""
    ulp = Decimal(1).scaleb(value.adjusted() - digits + 1)
    return Fraction(value), Fraction(ulp)


def _decimal(x: Fraction) -> Decimal:
    return Decimal(x.numerator) / Decimal(x.denominator)


def _step(end: Fraction, precision: int) -> Fraction:
    """The gap from a nonzero prec-bit number to its neighbour away from
    zero (the one toward zero is half as far at a power of two)."""
    n, d = abs(end).numerator, abs(end).denominator
    k = n.bit_length() - d.bit_length()  # floor(log2 |end|), or one more
    if Fraction(n, d) < Fraction(2) ** k:
        k -= 1
    return Fraction(2) ** (k - precision + 1)


def assert_true_rounding(iv: RInterval, center: Fraction, radius: Fraction):
    """lo <= true <= hi, and neither end could move one step inward."""
    lo, hi = iv.exact_ends()
    assert lo <= center - radius and center + radius <= hi
    assert lo + _step(lo, iv.precision) > center + radius
    assert hi - _step(hi, iv.precision) < center - radius


def _digits(precision: int) -> int:
    # far more digits than bits: the band is tiny beside an ulp, and an
    # input rounded to this many digits moves ln or exp by less than it
    return precision // 2 + 60


def _point(rng: random.Random, precision: int, lo_exp: int, hi_exp: int) -> Fraction:
    """A point with a full prec-bit mantissa, magnitude 2^lo_exp to 2^hi_exp."""
    m = rng.getrandbits(precision) | (1 << (precision - 1))
    e = rng.randrange(lo_exp, hi_exp) - precision
    return Fraction(m) * Fraction(2) ** e


@pytest.mark.parametrize("precision", (64, 128, 256, 512, 1024))
def test_exp_ln_sqrt_pow_frac_are_true_roundings(precision):
    rng = random.Random(precision)
    digits = _digits(precision)
    q = Fraction(3, 5)
    for _ in range(40):
        x = _point(rng, precision, -8, 13) * rng.choice((1, -1))
        t = abs(x)
        with localcontext() as ctx:
            ctx.prec = digits
            exp_x = _decimal(x).exp()
            ln_t = _decimal(t).ln()
            sqrt_t = _decimal(t).sqrt()
            pow_t = (_decimal(Fraction(q)) * ln_t).exp()
        xi, ti = RInterval(x, precision=precision), RInterval(t, precision=precision)
        assert xi.exact_ends() == (x, x)
        assert_true_rounding(xi.exp(), *_band(exp_x, digits))
        assert_true_rounding(ti.ln(), *_band(ln_t, digits))
        assert_true_rounding(ti.sqrt(), *_band(sqrt_t, digits))
        # pow_frac rounds twice, so it encloses without being a true rounding
        lo, hi = ti.pow_frac(q).exact_ends()
        center, radius = _band(pow_t, digits - 10)
        assert lo <= center - radius and center + radius <= hi


@pytest.mark.parametrize("precision", (64, 65, 128, 200, 256, 512, 1000, 1024))
def test_pi_and_e_are_true_roundings(precision):
    digits = _digits(precision)
    assert_true_rounding(RInterval.pi(precision), *_band(_pi(digits), digits))
    with localcontext() as ctx:
        ctx.prec = digits
        e = Decimal(1).exp()
    assert_true_rounding(RInterval.e_const(precision), *_band(e, digits))


@pytest.mark.parametrize(
    "x, precision",
    [
        # the two points that the audit of mpmath 1.3.0's exp recorded
        (Fraction(-8547782828423032721, 2**57), 64),
        (Fraction(-37769034164093616570911869813492154903, 2**121), 128),
        # small multiples of an ulp of 1, where e^x lies just past a
        # prec-bit number and mpmath's rounded-up exp returned that number
        (Fraction(3, 2**63), 64),
        (Fraction(-12345, 2**128), 128),
        (Fraction(345423, 2**254), 256),
    ],
)
def test_exp_upper_end_regressions(x, precision):
    digits = _digits(precision)
    with localcontext() as ctx:
        ctx.prec = digits
        value = _decimal(x).exp()
    assert_true_rounding(RInterval(x, precision=precision).exp(), *_band(value, digits))


@pytest.mark.parametrize("precision", (64, 128, 256))
def test_exp_and_ln_near_one_and_far_from_it(precision):
    # tiny arguments of exp, arguments of ln within a few ulp of 1, and ln
    # of a number near 2^-1882000, the size of laurent's lower bound
    rng = random.Random(7 * precision)
    digits = _digits(precision)
    for _ in range(20):
        tiny = _point(rng, precision, -precision - 12, -precision // 2) * rng.choice((1, -1))
        with localcontext() as ctx:
            ctx.prec = digits + precision // 3
            value = _decimal(tiny).exp()
        assert_true_rounding(RInterval(tiny, precision=precision).exp(), *_band(value, digits))
        k = rng.randrange(-8, 9) or 1  # a prec-bit point a few ulp from 1
        near = 1 + Fraction(k, 2 ** (precision - (k > 0)))
        with localcontext() as ctx:
            ctx.prec = digits + precision // 3
            value = _decimal(near).ln()
        assert_true_rounding(RInterval(near, precision=precision).ln(), *_band(value, digits))
        m = rng.getrandbits(precision) | (1 << (precision - 1))
        e = -1882000 - rng.randrange(1000)
        with localcontext() as ctx:
            ctx.prec = digits + 20
            value = Decimal(m).ln() + e * Decimal(2).ln()  # ln(m 2^e), to far more than digits
        iv = RInterval(Fraction(m) * Fraction(2) ** e, precision=precision).ln()
        assert_true_rounding(iv, *_band(value, digits))


def test_ln_of_a_tiny_end_builds_no_number_as_long_as_its_exponent():
    # x = 1 is recognised from the mantissa's bit length, not by building
    # 2^-e: laurent takes the ln of rho^(-mu K L), an end whose exponent is
    # about -3.7e8 at a2 = 1e6 and past -2^63 at a2 = 1e20
    precision, e = 128, -(10**8)
    tracemalloc.start()
    try:
        ends = {m: [endpoints.ln_end(m, e, precision, up)[0] for up in (False, True)] for m in (1, 3)}
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # 2^(10^8) alone takes 12.5 MB
    digits = _digits(precision)
    RInterval(1, precision=precision)  # loads the endpoint functions an interval reads with
    for m, (lo, hi) in ends.items():
        with localcontext() as ctx:
            ctx.prec = digits + 20
            value = Decimal(m).ln() + e * Decimal(2).ln()
        assert_true_rounding(RInterval._wrap(lo + hi, precision), *_band(value, digits))
    assert endpoints.ln_end(1 << 70, -70, 64, True) == ((0, 0), None)


# -- mpmath ----------------------------------------------------------------------


def _raw_ends(iv: RInterval) -> tuple:
    """The ends as raw libmp numbers."""
    v = iv._v
    return libmp.from_man_exp(v[0], v[1]), libmp.from_man_exp(v[2], v[3])


def _holds_zero(lo, hi) -> bool:
    return lo <= 0 <= hi


def _libmp_int(n: int, precision: int) -> tuple:
    return libmp.from_int(n, precision, "f"), libmp.from_int(n, precision, "c")


def _libmp_of(x, precision: int) -> tuple:
    """x as a libmp interval built as RInterval builds it: a Fraction's
    numerator and denominator rounded outward, then divided."""
    if isinstance(x, Fraction):
        return libmp.mpi_div(
            _libmp_int(x.numerator, precision), _libmp_int(x.denominator, precision), precision
        )
    return _libmp_int(x, precision)


@st.composite
def exact_points(draw, precision):
    """A Fraction m 2^e with |m| < 2^precision, so an interval holds it exactly."""
    bits = draw(st.integers(1, precision))
    m = draw(st.integers(0, 2**bits - 1)) | (1 << (bits - 1))
    m *= draw(st.sampled_from((1, -1)))
    e = draw(st.integers(-precision - 60, 60))
    return Fraction(m) * Fraction(2) ** e


@st.composite
def intervals(draw):
    precision = draw(st.sampled_from(PRECISIONS))
    a, b = draw(exact_points(precision)), draw(exact_points(precision))
    if draw(st.booleans()):
        a = b = draw(st.sampled_from((a, 0)))
    return precision, min(a, b), max(a, b)


@settings(max_examples=400, deadline=None)
@given(intervals(), intervals())
def test_arithmetic_matches_libmp_bits(first, second):
    precision, a_lo, a_hi = first
    _, b_lo, b_hi = second
    a = RInterval(a_lo, a_hi, precision=precision)
    b = RInterval(b_lo, b_hi, precision=precision)
    ra, rb = _raw_ends(a), _raw_ends(b)
    assert _raw_ends(a + b) == libmp.mpi_add(ra, rb, precision)
    assert _raw_ends(a - b) == libmp.mpi_sub(ra, rb, precision)
    assert _raw_ends(a * b) == libmp.mpi_mul(ra, rb, precision)
    if _holds_zero(b_lo, b_hi):
        with pytest.raises(ValueError, match="holds 0"):
            a / b
    else:
        assert _raw_ends(a / b) == libmp.mpi_div(ra, rb, precision)
    assert _raw_ends(-a) == libmp.mpi_neg(ra, precision)


@settings(max_examples=300, deadline=None)
@given(
    intervals(),
    st.one_of(st.integers(-6, 40), st.sampled_from((64, 333, 334, 1000, 13245, 33081))),
)
def test_integer_powers_match_libmp_bits(first, n):
    precision, lo, hi = first
    a = RInterval(lo, hi, precision=precision)
    if n < 0 and _holds_zero(lo, hi):
        with pytest.raises(ValueError, match="holds 0"):
            a**n
        return
    n_mpi = (libmp.from_int(n), libmp.from_int(n))
    assert _raw_ends(a**n) == libmp.mpi_pow(_raw_ends(a), n_mpi, precision)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(PRECISIONS),
    st.integers(-(2**2000), 2**2000),
    st.integers(1, 2**2000),
)
def test_conversions_match_libmp_bits(precision, p, q):
    assert _raw_ends(RInterval(p, precision=precision)) == _libmp_of(p, precision)
    x = Fraction(p, q)
    assert _raw_ends(RInterval(x, precision=precision)) == _libmp_of(x, precision)


@st.composite
def printable_ends(draw):
    """Ends whose digit strings test the rounding and the layout: any size,
    binary exponents past 3,500 either way, and digits ending in ...4999
    or ...9999 just past the 24th."""
    precision = draw(st.sampled_from(PRECISIONS))
    kind = draw(st.sampled_from(("any", "huge", "boundary")))
    sign = draw(st.sampled_from((1, -1)))
    if kind == "boundary":
        head = draw(st.integers(10**23, 10**24 - 1))
        tail = draw(st.sampled_from(("4999", "49999999", "9999", "99999999", "5000", "0001")))
        scale = draw(st.integers(-40, 40))
        x = Fraction(int(f"{head}{tail}")) * Fraction(10) ** (scale - len(tail) - 23)
        return RInterval(sign * x, precision=max(precision, 128))
    m = draw(st.integers(1, 2**precision - 1))
    if kind == "huge":
        e = draw(st.integers(3400, 9000)) * draw(st.sampled_from((1, -1)))
    else:
        e = draw(st.integers(-precision - 200, 200))
    return RInterval(sign * Fraction(m) * Fraction(2) ** e, precision=precision)


@settings(max_examples=500, deadline=None)
@given(printable_ends())
def test_decimal_ends_round_outward(iv):
    for digits in (20, 24):
        lo, hi = iv.decimal_ends(digits)
        assert_printed_ends_directed(iv, lo, hi, digits)
        # nstr rounds to nearest, which is one of the two directed roundings
        for (m, e), mp in ((iv._v[:2], iv.lo), (iv._v[2:], iv.hi)):
            down, up = endpoints.end_str(m, e, digits, False), endpoints.end_str(m, e, digits, True)
            assert nstr(mp, digits) in (down, up)


def test_decimal_ends_of_zero_ends():
    zero = RInterval(0, precision=64)
    assert zero.decimal_ends(24) == ("0.0", "0.0") == (nstr(zero.lo, 24), nstr(zero.hi, 24))


def test_float_of_an_end_is_mpmath_float():
    # bounds reads failing_point and tail_from as the double nearest an end
    rng = random.Random(11)
    for _ in range(300):
        precision = rng.choice(PRECISIONS)
        m = rng.getrandbits(precision) | 1
        e = rng.randrange(-900, 900) - precision  # inside the range of doubles
        scale = Fraction(2) ** e
        iv = RInterval(m * scale, (m + 2) * scale, precision=precision)
        lo, hi = iv.exact_ends()
        assert float(lo) == float(iv.lo)
        mid = libmp.mpf_shift(libmp.mpf_add(iv.lo._mpf_, iv.hi._mpf_), -1)  # exact
        assert float((lo + hi) / 2) == libmp.to_float(mid, rnd=libmp.round_nearest)


def test_ln_2_and_ln_10_at_a_few_bits_are_libmp_truncations():
    # the decimal oracle's precisions start at 64 bits; ln_end rounds down
    # below that too
    for p in range(6, 80):
        assert libmp.from_man_exp(*endpoints.ln_end(1, 1, p, False)[0]) == libmp.mpf_ln2(p, "d")
        assert libmp.from_man_exp(*endpoints.ln_end(5, 1, p, False)[0]) == libmp.mpf_ln10(p, "d")


# -- cached values -------------------------------------------------------------------


@pytest.mark.parametrize("precision", (64, 128, 256, 1024))
def test_cached_constants_are_bit_equal_to_fresh_ones(precision):
    for n in (2, 3, 10):
        cached = ln_constant(n, precision)
        assert ln_constant(n, precision) is cached
        assert cached.precision == precision
        assert cached.exact_ends() == RInterval(n, precision=precision).ln().exact_ends()
    assert RInterval.pi(precision)._v == endpoints.pi_iv.__wrapped__(precision)
    for form, w in bounds.TAIL_START.items():
        tail = bounds._tail_start(form, precision)
        if tail is not None:
            assert tail.exact_ends() == RInterval(w, precision=precision).exp().exact_ends()
    with pytest.raises(ValueError):
        ln_constant(5, precision)


def test_division_by_an_interval_that_holds_zero_raises():
    # every end is finite: a divisor that holds 0 is invalid input
    for divisor in ((0, 1), (-1, 1), (-1, 0)):
        d = RInterval(*divisor, precision=64)
        for num in (1, -1, 0):
            with pytest.raises(ValueError, match="holds 0"):
                RInterval(num, precision=64) / d
            with pytest.raises(ValueError, match="holds 0"):
                num / d
