"""Exact binary endpoints and their outward rounding: the arithmetic
under numerics.RInterval.

An endpoint is an exact binary number m 2^e, kept as the integer pair
(m, e); an interval is the flat tuple (lo_m, lo_e, hi_m, hi_e).  Every
function here rounds lo down and hi up to the precision it is given, so a
mantissa keeps at most that many bits (one more when rounding up carries
into a power of two).  Nothing here keeps process-global state that a
result depends on: the tables below only cache values.

+, -, *, / and the conversions from int round their exact results, which
are unique; so do ln, exp, sqrt and pi.  Those four are enclosed in integer
fixed point with a proved error bound, and computed again with more guard
bits until both ends of the enclosure round to the same number, so each end
is the true directed rounding (Ziv's strategy).  The method follows
Johansson, "Arb: efficient arbitrary-precision midpoint-radius interval
arithmetic", IEEE Trans. Computers 66(8), 2017, and Moore, Kearfott and
Cloud, "Introduction to Interval Analysis", SIAM 2009.  Integer powers
follow mpmath's mpf_pow_int step for step, so they give its bits; each of
its steps rounds in one direction, so it encloses.

Every end is finite: a division by an interval that holds 0 raises
ValueError.

This module needs no mpmath.  numerics imports it on the first interval.
"""

from __future__ import annotations

from fractions import Fraction
import functools
import math

__all__ = [
    "end_str",
    "exact_end",
    "floor_end",
    "int_iv",
    "iv_add",
    "iv_div",
    "iv_exp",
    "iv_ln",
    "iv_mul",
    "iv_pow",
    "iv_sub",
    "ln_end",
    "lt",
    "pi_iv",
    "sqrt_end",
]

_GUARD = 24  # first try's guard bits for ln, exp and pi; doubled on a retry


def _round(m: int, e: int, prec: int, up: bool) -> tuple:
    """m 2^e rounded to prec significant bits: toward +inf if up, else -inf."""
    n = m.bit_length() - prec
    if n > 0:
        m = -(-m >> n) if up else m >> n
        e += n
    return m, e


def _settle(v: int, err: int, e: int, prec: int, up: bool) -> tuple | None:
    """The rounding of a real known to lie within err 2^e of v 2^e, or None
    when the two ends of that range round apart."""
    end = _round(v - err, e, prec, up)
    return end if end == _round(v + err, e, prec, up) else None


def lt(m1: int, e1: int, m2: int, e2: int) -> bool:
    """m1 2^e1 < m2 2^e2, exactly."""
    if (m1 > 0) is not (m2 > 0) or not m1 or not m2:
        return m1 < m2
    d = e1 - e2
    if d >= 0:
        if d >= m2.bit_length():  # |first| >= 2^e1 > |second|
            return m1 < 0
        return (m1 << d) < m2
    if -d >= m1.bit_length():
        return m2 > 0
    return m1 < (m2 << -d)


def _add(m1: int, e1: int, m2: int, e2: int, prec: int, up: bool) -> tuple:
    """m1 2^e1 + m2 2^e2, rounded as _round."""
    if not m2:
        return _round(m1, e1, prec, up)
    if not m1:
        return _round(m2, e2, prec, up)
    if e1 < e2:
        m1, e1, m2, e2 = m2, e2, m1, e1
    d = e1 - e2
    if d > prec + 3:
        # A second term below one unit of M = m1 2^g, with M at least prec + 3
        # bits long and g >= 3, rounds like a unit: the sum has rounding steps
        # of 4 units or more, and M + 1 and M - 1 are odd, so no step falls
        # between the sum and M plus or minus one unit.
        g = max(3, prec + 3 - m1.bit_length())
        if d >= g + m2.bit_length():
            return _round((m1 << g) + (1 if m2 > 0 else -1), e1 - g, prec, up)
    return _round((m1 << d) + m2, e2, prec, up)


def _div(m1: int, e1: int, m2: int, e2: int, prec: int, up: bool) -> tuple:
    """m1 2^e1 / (m2 2^e2) for m2 != 0, rounded as _round.

    The integer quotient is floored (ceiled if up) with at least prec + 2
    bits, so rounding it again to prec bits, on a grid of integers, gives
    the rounding of the exact quotient."""
    if not m1:
        return 0, 0
    k = max(0, prec + 2 + m2.bit_length() - m1.bit_length())
    q = -((-m1 << k) // m2) if up else (m1 << k) // m2
    return _round(q, e1 - e2 - k, prec, up)


def iv_add(a: tuple, b: tuple, prec: int) -> tuple:
    return _add(a[0], a[1], b[0], b[1], prec, False) + _add(a[2], a[3], b[2], b[3], prec, True)


def iv_sub(a: tuple, b: tuple, prec: int) -> tuple:
    return _add(a[0], a[1], -b[2], b[3], prec, False) + _add(a[2], a[3], -b[0], b[1], prec, True)


def iv_mul(a: tuple, b: tuple, prec: int) -> tuple:
    """The product's ends are the least and greatest of the ends' products,
    chosen by the operands' signs."""
    alm, ale, ahm, ahe = a
    blm, ble, bhm, bhe = b
    if alm >= 0 and blm >= 0:
        return _round(alm * blm, ale + ble, prec, False) + _round(ahm * bhm, ahe + bhe, prec, True)
    A, B = (alm, ale), (ahm, ahe)  # a's lo and hi
    C, D = (blm, ble), (bhm, bhe)  # b's lo and hi
    if alm >= 0:
        lo, hi = ((B, C), (A, D)) if bhm <= 0 else ((B, C), (B, D))
    elif ahm <= 0:
        if blm >= 0:
            lo, hi = (A, D), (B, C)
        else:
            lo, hi = ((B, D), (A, C)) if bhm <= 0 else ((A, D), (A, C))
    elif blm >= 0:
        lo, hi = (A, D), (B, D)
    elif bhm <= 0:
        lo, hi = (B, C), (A, C)
    else:
        lo = (A, D) if lt(alm * bhm, ale + bhe, ahm * blm, ahe + ble) else (B, C)
        hi = (B, D) if lt(alm * blm, ale + ble, ahm * bhm, ahe + bhe) else (A, C)
    (p, q), (r, s) = lo, hi
    return _round(p[0] * q[0], p[1] + q[1], prec, False) + _round(
        r[0] * s[0], r[1] + s[1], prec, True
    )


def iv_div(a: tuple, b: tuple, prec: int) -> tuple:
    alm, ale, ahm, ahe = a
    blm, ble, bhm, bhe = b
    if bhm < 0 or (blm < 0 and not bhm):  # b <= 0: divide -a by -b
        alm, ale, ahm, ahe = -ahm, ahe, -alm, ale
        blm, ble, bhm, bhe = -bhm, bhe, -blm, ble
    if blm > 0:
        if alm >= 0:
            return _div(alm, ale, bhm, bhe, prec, False) + _div(ahm, ahe, blm, ble, prec, True)
        if ahm <= 0:
            return _div(alm, ale, blm, ble, prec, False) + _div(ahm, ahe, bhm, bhe, prec, True)
        return _div(alm, ale, blm, ble, prec, False) + _div(ahm, ahe, blm, ble, prec, True)
    raise ValueError("division by an interval that holds 0")


def int_iv(n: int, prec: int) -> tuple:
    return _round(n, 0, prec, False) + _round(n, 0, prec, True)


def _pow_end(m: int, e: int, n: int, prec: int, up: bool) -> tuple:
    """(m 2^e)^n for n >= 3, by mpmath's mpf_pow_int, rounded as _round.

    A power of at most about 1000 bits is exact before it is rounded.  A
    longer one is built by binary powering at prec + 4 bitlen(n) + 4 bits,
    each product cut toward the final rounding's side, so it encloses the
    exact power; it is not always the nearest such number."""
    if not m:
        return 0, 0
    neg = m < 0 and n & 1
    man = abs(m)
    tz = (man & -man).bit_length() - 1
    man >>= tz
    e += tz
    away = up != bool(neg)  # round the magnitude up
    if man == 1:
        return (-1 if neg else 1), e * n
    if man.bit_length() * n < 1000:
        pm, pe = man**n, e * n
    else:
        work = prec + 4 * n.bit_length() + 4
        pm, pe = 1, 0
        while True:
            if n & 1:
                pm *= man
                pe += e
                cut = pm.bit_length() - work
                if cut > 0:
                    pm = -(-pm >> cut) if away else pm >> cut
                    pe += cut
                n -= 1
                if not n:
                    break
            man *= man
            e += e
            cut = man.bit_length() - work
            if cut > 0:
                man = -(-man >> cut) if away else man >> cut
                e += cut
            n //= 2
    m, e = _round(pm, pe, prec, away)
    return (-m if neg else m), e


def iv_pow(v: tuple, n: int, prec: int) -> tuple:
    """v^n for an integer n, as mpmath's mpi_pow_int gives it; a negative n
    on a v that holds 0 raises ValueError, as its division does."""
    if n < 0:
        return iv_div((1, 0, 1, 0), iv_pow(v, -n, prec + 20), prec)
    if n < 2:
        return v if n else (1, 0, 1, 0)
    lm, le, hm, he = v
    if n & 1 or lm >= 0:
        if n == 2:
            return _round(lm * lm, 2 * le, prec, False) + _round(hm * hm, 2 * he, prec, True)
        return _pow_end(lm, le, n, prec, False) + _pow_end(hm, he, n, prec, True)
    if hm <= 0:
        if n == 2:
            return _round(hm * hm, 2 * he, prec, False) + _round(lm * lm, 2 * le, prec, True)
        return _pow_end(hm, he, n, prec, False) + _pow_end(lm, le, n, prec, True)
    m, e = (hm, he) if lt(-lm, le, hm, he) else (-lm, le)
    return (0, 0) + (_round(m * m, 2 * e, prec, True) if n == 2 else _pow_end(m, e, n, prec, True))


def sqrt_end(m: int, e: int, prec: int, up: bool) -> tuple:
    """sqrt(m 2^e) for m >= 0, rounded as _round, through math.isqrt."""
    if not m:
        return 0, 0
    if e & 1:
        m <<= 1
        e -= 1
    k = max(0, prec + 3 - m.bit_length() // 2)  # the root gets >= prec + 2 bits
    m <<= 2 * k
    r = math.isqrt(m)
    if up and r * r != m:
        r += 1
    return _round(r, (e >> 1) - k, prec, up)


# -- ln, exp and pi in integer fixed point -----------------------------------
#
# A fixed-point number v at wp bits stands for v 2^-wp.  Each function below
# returns its value with a bound err on |v - true value 2^wp|, in units of
# 2^-wp, derived in its docstring; _settle turns that into a rounded end.


def _machin(terms: tuple, wp: int, hyperbolic: bool) -> int:
    """sum of c acot(k), or c acoth(k), over (c, k) in terms, times 2^wp,
    within 2.

    The series sum_j (+-1)^j / ((2j + 1) k^(2j + 1)) runs at W = wp + g bits.
    Its powers floor(2^W / k^(2j + 1)) are exact (nested floors by integers),
    each term's floor errs by less than 2, and the tail after the first
    power below one unit is less than 1; so a series of J terms errs by at
    most 2 J + 1 < j + 2 (j = 2J + 1, its last divisor), and the sum by at
    most sum |c| (j + 2) < 2^g, which leaves at most 2 after the shift."""
    g = 20 + wp.bit_length()
    W = wp + g
    total = err = 0
    for c, k in terms:
        p = s = (1 << W) // k
        k2 = k * k
        j = 1
        while p:
            p //= k2
            j += 2
            s += p // j if hyperbolic or j & 2 == 0 else -(p // j)
        total += c * s
        err += abs(c) * (j + 2)
    if err >> g:
        raise AssertionError("machin guard bits too few")
    return total >> g


# ln 2 = 18 acoth 26 - 2 acoth 4801 + 8 acoth 8749, pi = 16 acot 5 - 4 acot 239
_MACHIN = {"ln2": (((18, 26), (-2, 4801), (8, 8749)), True), "pi": (((16, 5), (-4, 239)), False)}
_CONSTANTS: dict = {}  # name -> (W, the constant times 2^W within 2)


def _const_fixed(name: str, wp: int) -> int:
    """ln 2 or pi times 2^wp, within 3.  One value per name is kept, at the
    highest precision asked for so far (plus 32 bits), and shifted down."""
    have = _CONSTANTS.get(name)
    if have is None or have[0] < wp:
        terms, hyperbolic = _MACHIN[name]
        have = _CONSTANTS[name] = (wp + 32, _machin(terms, wp + 32, hyperbolic))
    return have[1] >> (have[0] - wp)


def _atanh_fixed(z: int, wp: int) -> tuple:
    """(s, err): atanh(z 2^-wp) 2^wp within err, for 0 <= z <= 2^(wp - 1).

    With Z = z 2^-wp <= 1/2, the floored powers z^(2j+1) stay within 2 of
    their true values (each step adds at most 1.5 and shrinks the old error
    by Z^2 <= 1/4), so each floored term is within 3.  Once a power floors
    to 0 the rest of the series is below 3.  A z that is itself a floor
    costs less than 4/3 more (atanh' <= 4/3 on [0, 1/2]).  So after J terms
    the error is at most 3 J + 5 <= 3 j + 6, j = 2 J + 1."""
    z2 = z * z >> wp
    s = p = z
    j = 1
    while p:
        p = p * z2 >> wp
        j += 2
        s += p // j
    return s, 3 * j + 6


_LN_TABLE: dict = {}  # n -> (W, ln(n / 256) times 2^W within 2), 256 <= n < 512


def _ln_table(n: int, wp: int) -> int:
    """ln(n / 256) times 2^wp within 3, for 256 <= n < 512: the argument
    reduction's table, kept per entry at the highest precision asked for
    (plus 32 bits), and shifted down.

    An entry is 2 atanh((n - 256) / (n + 256)) at W + g bits, within
    2 (3 j + 6) <= 2^g there, so within 2 once shifted to W."""
    have = _LN_TABLE.get(n)
    if have is None or have[0] < wp:
        W = wp + 32
        g = W.bit_length() + 4
        s, err = _atanh_fixed(((n - 256) << (W + g)) // (n + 256), W + g)
        if 2 * err >> g:
            raise AssertionError("ln table guard bits too few")
        have = _LN_TABLE[n] = (W, s >> (g - 1))
    return have[1] >> (have[0] - wp)


def _ln_fixed(m: int, e: int, wp: int) -> tuple:
    """(v, err): ln(m 2^e) 2^wp within err, for m > 0.

    x = m 2^e = 2^k y with y in [1, 2); a = n / 256 with n = floor(256 y),
    so ln x = k ln 2 + ln a + 2 atanh(z), z = (y - a) / (y + a) in
    [0, 2^-9).  The errors add up: 3 for the table, 2 (3 j + 6) for the
    series (z is a floor), and 4 for k ln 2 (ln 2 taken at wp + bitlen(k)
    bits, within 3, times k, then floored back)."""
    bl = m.bit_length()
    k = e + bl - 1
    n = m >> (bl - 9) if bl > 9 else m << (9 - bl)
    u, w = m << 8, n << (bl - 1)  # 256 y and 256 a, times 2^(bl - 1)
    s, err = _atanh_fixed(((u - w) << wp) // (u + w), wp)
    v = _ln_table(n, wp) + 2 * s
    err = 2 * err + 3
    if k:
        kb = abs(k).bit_length()
        v += k * _const_fixed("ln2", wp + kb) >> kb
        err += 4
    return v, err


def ln_end(m: int, e: int, prec: int, up: bool) -> tuple:
    """(end, (v, err, wp)): ln(m 2^e) rounded as _round for m 2^e > 0,
    and the fixed-point enclosure it was settled from (None for ln 1)."""
    if m.bit_length() == 1 - e and m & (m - 1) == 0:  # x = 1, without building 2^-e
        return (0, 0), None
    bl = m.bit_length()
    k = e + bl - 1
    # bits that x shares with 1 are lost to cancellation in ln x ~ x - 1
    if k == 0:
        lost = bl - 1 - (m - (1 << (bl - 1))).bit_length()
    elif k == -1:
        lost = bl - ((1 << bl) - m).bit_length()
    else:
        lost = 0
    guard = _GUARD
    while True:
        wp = prec + guard + lost
        v, err = _ln_fixed(m, e, wp)
        end = _settle(v, err, -wp, prec, up)
        if end is not None:
            return end, (v, err, wp)
        guard *= 2


def _gap(v: tuple) -> tuple | None:
    """(hi - lo, hi + lo) as integers at a common exponent f, with f, when
    the ends' exponents are close enough to align cheaply; else None."""
    lm, le, hm, he = v
    f = min(le, he)
    if abs(le - he) > 4096:
        return None
    lo, hi = lm << (le - f), hm << (he - f)
    return hi - lo, hi + lo, f


def iv_ln(v: tuple, prec: int) -> tuple:
    """ln over a positive interval.  hi is settled from lo's enclosure when
    the interval is narrow: ln hi = ln lo + 2 atanh((hi - lo) / (hi + lo))."""
    lm, le, hm, he = v
    lo, fixed = ln_end(lm, le, prec, False)
    if fixed is not None and (lm, le) == (hm, he):
        hi = _settle(*fixed[:2], -fixed[2], prec, True)
        if hi is not None:
            return lo + hi
    elif fixed is not None:
        gap = _gap(v)
        if gap is not None and gap[0] << 9 <= gap[1]:
            x, err, wp = fixed
            s, serr = _atanh_fixed((gap[0] << wp) // gap[1], wp)
            hi = _settle(x + 2 * s, err + 2 * serr, -wp, prec, True)
            if hi is not None:
                return lo + hi
    return lo + ln_end(hm, he, prec, True)[0]


def _exp_series(t: int, w: int) -> tuple:
    """(s, err): e^(t 2^-w) 2^w within err, for |t| <= 2^(w - 1).

    The terms t^k / k! are built as floor(floor(a t 2^-w) / k); with
    |t 2^-w| <= 1/2 each stays within 2 of its true value.  The first term
    that floors to 0 leaves a tail below 2.5.  So after k terms the sum is
    within 2 k + 1 <= 4 k + 6."""
    s = (1 << w) + t
    a = t
    k = 1
    while a:
        k += 1
        a = (a * t >> w) // k
        s += a
    return s, 4 * k + 6


def _exp_fixed(m: int, e: int, wp: int) -> tuple:
    """(c, err, n, w): e^x within err 2^(n - w) of c 2^(n - w), for x = m 2^e.

    Reduction: n = round(x / ln 2) and r = x - n ln 2, |r| <= 0.35, found at
    W = wp + max(bitlen x, 0) + 2 bits, so that r 2^wp is within 4 (x is
    floored, and ln 2's error of 3 grows by |n| <= 1.45 2^(W - wp - 2) + 1).
    Then e^r = (e^(r / 2^s))^(2^s): the series runs at w = wp + s bits on
    the same integer r, which there stands for r / 2^s; r's error adds 6
    (4 e^|r / 2^s|).  Each squaring c -> floor(c^2 2^-w) turns an error
    err into at most floor(err (2 c + err) 2^-w) + 2, computed as it goes.
    Finally e^x = 2^n e^r."""
    mag = e + m.bit_length()
    kb = max(mag, 0) + 2
    W = wp + kb
    sh = e + W
    x = m << sh if sh >= 0 else m >> -sh
    ln2 = _const_fixed("ln2", W)
    n = (x + (ln2 >> 1)) // ln2
    r = (x - n * ln2) >> kb
    s = math.isqrt(wp) >> 1
    w = wp + s
    c, err = _exp_series(r, w)
    err += 6
    for _ in range(s):
        err = (err * (2 * c + err) >> w) + 2
        c = c * c >> w
    return c, err, n, w


def _exp_end(m: int, e: int, prec: int, up: bool) -> tuple:
    """(end, (c, err, n, w)): e^(m 2^e) rounded as _round, and the
    enclosure it was settled from (None where none was needed)."""
    if not m:
        return (1, 0), None
    if e + m.bit_length() < -prec - 2:
        # 0 < |x| < 2^-(prec + 2) puts e^x strictly between 1 and the
        # neighbouring prec-bit number on x's side
        if m > 0:
            return (((1 << (prec - 1)) + 1, 1 - prec) if up else (1, 0)), None
        return ((1, 0) if up else ((1 << prec) - 1, -prec)), None
    guard = _GUARD
    while True:
        fixed = _exp_fixed(m, e, prec + guard)
        c, err, n, w = fixed
        end = _settle(c, err, n - w, prec, up)
        if end is not None:
            return end, fixed
        guard *= 2


def iv_exp(v: tuple, prec: int) -> tuple:
    """exp over an interval.  hi is settled from lo's enclosure when the
    interval is narrow: e^hi = e^lo e^d with d = hi - lo < 2^-8, and
    |C Ce - c ce| <= err (ce + cerr) + c cerr for the two enclosures."""
    lm, le, hm, he = v
    lo, fixed = _exp_end(lm, le, prec, False)
    if fixed is not None:
        c, err, n, w = fixed
        hi = None
        if (lm, le) == (hm, he):
            hi = _settle(c, err, n - w, prec, True)
        else:
            gap = _gap(v)
            if gap is not None and gap[0].bit_length() + gap[2] <= -8:
                d, sh = gap[0], gap[2] + w
                ce, cerr = _exp_series(d << sh if sh >= 0 else d >> -sh, w)
                cerr += 2  # d 2^w was floored
                hi = _settle(
                    c * ce >> w, ((err * (ce + cerr) + c * cerr) >> w) + 2, n - w, prec, True
                )
        if hi is not None:
            return lo + hi
    return lo + _exp_end(hm, he, prec, True)[0]


@functools.cache
def pi_iv(prec: int) -> tuple:
    """pi rounded outward at prec bits, from _const_fixed's value within 3."""
    guard = _GUARD
    while True:
        wp = prec + guard
        v = _const_fixed("pi", wp)
        lo, hi = _settle(v, 3, -wp, prec, False), _settle(v, 3, -wp, prec, True)
        if lo is not None and hi is not None:
            return lo + hi
        guard *= 2


# -- decimal strings ---------------------------------------------------------


def end_str(m: int, e: int, dps: int, up: bool) -> str:
    """m 2^e rounded to dps >= 1 significant digits, toward +inf if up,
    else -inf: a lo printed down and a hi printed up enclose the interval.

    With |m| 2^e = d 10^k, 1 <= d < 10, the digits are q =
    floor(|m| 2^e 10^(dps - 1 - k)) from one exact division, with k
    estimated in floats and corrected until q has dps digits; only q is
    ever printed.  The layout is mpmath.nstr's: fixed notation when k is
    in (min(-dps // 3, -5), dps), trailing zeros stripped."""
    if not m:
        return "0.0"
    a = abs(m)
    k = math.floor(math.log10(a) + e * math.log10(2))
    top = 10**dps
    num, den = (a << e, 1) if e > 0 else (a, 1 << -e)
    while True:
        s = dps - 1 - k
        q, r = divmod(num * 10**s, den) if s > 0 else divmod(num, den * 10**-s)
        if q >= top:
            k += 1
        elif q * 10 < top:
            k -= 1
        else:
            break
    if r and up == (m > 0):  # round the magnitude up
        q += 1
        if q == top:
            q //= 10
            k += 1
    digits, split = str(q), 1
    if min(-(dps // 3), -5) < k < dps:
        digits, split, k = "0" * -k + digits, max(k, 0) + 1, 0
    sign = "-" if m < 0 else ""
    body = digits[:split] + "." + (digits[split:].rstrip("0") or "0")
    return sign + body + (f"e{k:+d}" if k else "")


def exact_end(m: int, e: int) -> Fraction:
    """An end as an exact rational."""
    return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)


def floor_end(m: int, e: int) -> int:
    return m << e if e >= 0 else m >> -e
