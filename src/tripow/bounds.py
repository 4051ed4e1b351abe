"""Certified analytic bounds: exponent ordering, two-logarithm lower
bounds, and threshold certification.

All real arithmetic here runs through RInterval, so every "<" reported
by this module is an interval-certified strict inequality.  The heavy
pieces are:

* a full condition checker for the classical two-logarithm theorem of
  Laurent (interpolation-determinant form, degree-one case),
* its specialized corollary giving an explicit lower bound for
  |y ln a - z ln c| style forms, with the published numeric constants
  recomputed rather than trusted,
* a threshold certifier proving t^q dominates the final inequality's
  right-hand side for every t beyond a stated point: a strict check at
  the point, interval derivative positivity over a geometric grid (the
  whole grid at once, bisected only where that fails), and an analytic
  tail where the exponential wins over the squared log.  The tail starts
  at a stated w = ln ln(2m) per form (tail_from = e^w ~ 268,337 for
  theorem 1.2, 59,874 for 1.3), certified, not trusted, once per
  (form, precision) in a process.

Every function that takes an RInterval works at that interval's precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import functools
import math
from typing import NamedTuple

from .numerics import DEFAULT_PRECISION, RInterval, ln_constant, ln_superfactorial
from .triples import PrimPair, triple_of, two_adic_profile

__all__ = [
    "HypothesisError",
    "y_upper_bound",
    "ordering_predicates",
    "laurent_epsilon",
    "LaurentInstance",
    "laurent_check",
    "lemma_parameter_rechecks",
    "two_log_instance",
    "TwoLogInputs",
    "TwoLogBound",
    "two_log_lower_bound",
    "threshold_rhs",
    "ThresholdCert",
    "THEOREM_FORMS",
    "certify_threshold",
    "crossover",
]

THRESHOLD_PRECISION = 256

# fixed parameters of the specialized two-logarithm bound
RHO_LOG = Fraction(31, 10)  # rho = e^3.1
MU = Fraction(2, 3)
KAPPA = Fraction(4927, 100000)
L_SLOPE = Fraction(45, 62)

# exponent q of t^q in the final inequality, by the theorem it proves
THEOREM_FORMS = {"1.2": Fraction(3, 5), "1.3": Fraction(2, 3)}
# by form, w = ln ln(2m) where certify_threshold's analytic tail starts
TAIL_START = {Fraction(3, 5): Fraction(25, 2), Fraction(2, 3): Fraction(11)}
# ratio of certify_threshold's geometric grid up to the tail start
GRID_RATIO = Fraction(51, 50)

# coefficients of the final inequality's right-hand side (threshold_rhs),
#   7.482 (F + 2.139)^2 (1 + 70/ln(2m)) + (31/15) L'/t
#     + (ln(6.29 L') + 0.7 L'^2 (t + 70)) / t,  L' = (45/62) ln ln(2m) + 1.56;
# the RHS, its derivative and the analytic tail all read them from here
RHS_LEAD = Fraction(7482, 1000)
RHS_G_SHIFT = Fraction(2139, 1000)
RHS_SHIFT = 70
RHS_L_COEFF = Fraction(31, 15)
RHS_LOG_COEFF = Fraction(629, 100)
RHS_SQ_COEFF = Fraction(7, 10)
RHS_L_SHIFT = Fraction(156, 100)


class HypothesisError(ValueError):
    """A stated hypothesis of a bound does not hold for the inputs."""

    def __init__(self, hypothesis: str, detail: str = ""):
        super().__init__(f"hypothesis fails: {hypothesis}" + (f" ({detail})" if detail else ""))
        self.hypothesis = hypothesis


def y_upper_bound(p: PrimPair, precision: int = DEFAULT_PRECISION) -> RInterval:
    """Enclosure of min(ln n / ln 3, ln(2(m-1)) / ((alpha+1) ln 2)).

    Any exceptional solution's half-exponent Y = y/2 must fall strictly
    below this; callers use ceil(hi) as an exclusive bound.
    """
    prof = two_adic_profile(p)
    m, n = p.m, p.n
    first = RInterval(n, precision=precision).ln() / ln_constant(3, precision)
    second = RInterval(2 * (m - 1), precision=precision).ln() / (
        RInterval(prof.alpha + 1, precision=precision) * ln_constant(2, precision)
    )
    return first.min(second)


def ordering_predicates(p: PrimPair, t, precision: int = DEFAULT_PRECISION) -> dict:
    """Evaluate the exponent-ordering requirements on an all-even candidate.

    Every predicate is a necessary condition for an exceptional solution;
    a single certified failure excludes the candidate.  An ExponentTriple
    t that is not exceptional, (2,2,2) included, is marked so and skipped.
    """
    if not t.exceptional():
        return {
            "exceptional_candidate": False,
            "skipped": True,
            "predicates": {},
            "excluded": False,
            "failures": [],
        }
    x, y, z = t.x, t.y, t.z
    tr = triple_of(p)
    ln_c = RInterval(tr.c, precision=precision).ln()
    ln_b = RInterval(tr.b, precision=precision).ln()
    lhs = RInterval(z, precision=precision) * ln_c
    rhs = ln_constant(2, precision) + RInterval(y, precision=precision) * ln_b
    preds = {
        "z_lt_2x": z < 2 * x,
        "z_lt_2y": z < 2 * y,
        "gap_ge_4": abs(x - z) >= 4,
        "wide_pair_x_lt_z": not (50 * p.m > 61 * p.n) or x < z,
        "z_lt_y": z < y,
        "c_pow_z_lt_2_b_pow_y": not rhs.strictly_less(lhs),
    }
    failures = [k for k, v in preds.items() if not v]
    return {
        "exceptional_candidate": True,
        "skipped": False,
        "predicates": preds,
        "excluded": bool(failures),
        "failures": failures,
    }


# ---------------------------------------------------------------------------
# epsilon(N)


def laurent_epsilon(N: int, precision: int = DEFAULT_PRECISION) -> RInterval:
    """Enclosure of epsilon(N) = (2/N) ln(N! N^(1-N) (e^N + (e-1)^N)).

    Stirling's two-sided bound ln N! = (N + 1/2) ln N - N + (1/2) ln 2pi + r
    with 0 < r < 1/(12N) gives
    epsilon(N) = (2/N)((3/2) ln N + (1/2) ln 2pi + r + ln(1 + ((e-1)/e)^N)).
    The enclosure takes r in [0, 1/(12N)], so its upper end is the
    published majorant, which decreases in N.
    """
    if N < 2:
        raise ValueError("requires N >= 2")
    e = RInterval.e_const(precision)
    tail = (RInterval(1, precision=precision) + ((e - 1) / e) ** N).ln()
    lnN = RInterval(N, precision=precision).ln()
    ln2pi = (RInterval(2, precision=precision) * RInterval.pi(precision)).ln()
    base = RInterval(Fraction(3, 2), precision=precision) * lnN + ln2pi / 2 + tail
    r = RInterval(0, Fraction(1, 12 * N), precision=precision)
    return RInterval(2, precision=precision) / N * (base + r)


# ---------------------------------------------------------------------------
# Laurent's interpolation-determinant condition checker


@dataclass(frozen=True)
class LaurentInstance:
    """Parameters of the degree-one two-logarithm theorem.

    The caller attests the two cardinality conditions on the multiplier
    sets (covered here by taking alpha1 = -1 and alpha2 not a root of
    unity, with R1 = 2 picking up the sign values); this checker owns
    the numeric main condition and the epsilon(N) comparison.
    """

    K: int
    L: int
    R1: int
    R2: int
    S1: int
    S2: int
    rho: RInterval
    mu: RInterval
    b1: int
    b2: int
    a1: RInterval
    a2: RInterval

    def __post_init__(self):
        if self.K < 2 or self.L < 2:
            raise ValueError("requires K >= 2 and L >= 2")
        if min(self.R1, self.R2, self.S1, self.S2) < 1:
            raise ValueError("R1, R2, S1, S2 must be positive")

    @property
    def R(self) -> int:
        return self.R1 + self.R2 - 1

    @property
    def S(self) -> int:
        return self.S1 + self.S2 - 1

    @property
    def N(self) -> int:
        return self.K * self.L

    @property
    def g(self) -> Fraction:
        return Fraction(1, 4) - Fraction(self.N, 12 * self.R * self.S)

    @property
    def precision(self) -> int:
        return max(self.rho.precision, self.mu.precision, self.a1.precision, self.a2.precision)

    def sigma(self) -> RInterval:
        one = RInterval(1, precision=self.mu.precision)
        return (one + 2 * self.mu - self.mu * self.mu) / 2

    def g_term(self) -> RInterval:
        """g L (R a1 + S a2), the main term's last summand."""
        g = RInterval(self.g, precision=self.precision)
        return g * self.L * (self.R * self.a1 + self.S * self.a2)

    @functools.cached_property
    def _ln_superfactorial(self) -> RInterval:
        # nearly all of ln_b's time, and a laurent run asks for ln_b three times
        return ln_superfactorial(self.K - 1, self.precision)

    def ln_b(self) -> RInterval:
        """ln of the height combination b, with the exact superfactorial term."""
        lead = Fraction((self.R - 1) * self.b2 + (self.S - 1) * self.b1, 2)
        if lead <= 0:
            raise ValueError("b must be positive")
        ln_lead = RInterval(lead, precision=self.precision).ln()
        return ln_lead - self._ln_superfactorial * Fraction(2, self.K * self.K - self.K)


def laurent_check(inst: LaurentInstance):
    """Certify the main numeric condition of the two-logarithm theorem.

    The degree-one main term is
    K (sigma L - 1) ln rho - 2 ln N - (K - 1) ln b - g L (R a1 + S a2).
    Returns (ok, margin, bound): ok is an interval-strict verdict on
    main > epsilon(N); bound encloses rho^(-mu K L), the lower bound the
    theorem then gives for the linear form.
    """
    prec = inst.precision
    mu_lo, mu_hi = inst.mu.exact_ends()
    if not (mu_lo >= Fraction(1, 3) and mu_hi <= 1):
        raise ValueError("requires 1/3 <= mu <= 1")
    if not inst.rho.exact_ends()[0] > 1:
        raise ValueError("requires rho > 1")
    ln_rho = inst.rho.ln()
    sigma = inst.sigma()
    K, L = inst.K, inst.L
    main = (
        RInterval(K, precision=prec) * (sigma * L - 1) * ln_rho
        - 2 * RInterval(inst.N, precision=prec).ln()
        - (K - 1) * inst.ln_b()
        - inst.g_term()
    )
    eps = laurent_epsilon(inst.N, prec)
    ok = eps.strictly_less(main)
    margin = main - eps
    bound = (-(inst.mu * K * L) * ln_rho).exp()
    return ok, margin, bound


@dataclass(frozen=True)
class TwoLogInputs:
    """The corollary's operands a2 and bprime, with what its steps share:
    rho = e^3.1, a1 = rho pi, ln bprime and L, each built on first use and
    kept on this object, at the larger of the two operands' precisions.
    A caller builds one per pair of operands, so nothing is kept across
    calls.
    """

    a2: RInterval
    bprime: RInterval

    @property
    def precision(self) -> int:
        return max(self.a2.precision, self.bprime.precision)

    @functools.cached_property
    def rho(self) -> RInterval:
        return RInterval(RHO_LOG, precision=self.precision).exp()

    @functools.cached_property
    def a1(self) -> RInterval:
        """a1 = e^3.1 pi, the fixed first-logarithm weight (its one definition)."""
        return self.rho * RInterval.pi(self.precision)

    @functools.cached_property
    def ln_bprime(self) -> RInterval:
        return self.bprime.ln()

    @functools.cached_property
    def length(self) -> tuple[int, bool]:
        """(L, floored), by corollary_L."""
        return corollary_L(self.ln_bprime)


def two_log_instance(inputs: TwoLogInputs) -> LaurentInstance:
    """Instantiate the theorem the way the specialized corollary's proof does.

    L comes from bprime, K = 1 + floor(kappa L a1 a2), R2 and S2 balance
    the two logarithm weights, mu = 2/3 and rho = e^3.1 are fixed, and
    b1 = b2 are the equal coefficients reproducing bprime.  Works at the
    larger of the two operands' precisions.
    """
    precision = inputs.precision
    a1, a2, bprime = inputs.a1, inputs.a2, inputs.bprime
    L, _ = inputs.length
    kla = RInterval(KAPPA, precision=precision) * L * a1 * a2
    K = 1 + kla.floor()
    R2 = 1 + ((K - 1) * L * a2 / a1).sqrt().floor()
    S2 = 1 + ((K - 1) * L * a1 / a2).sqrt().floor()
    weight = 1 / (1 / a2 + 1 / a1)
    b = max(1, (bprime * weight).floor())
    return LaurentInstance(
        K=K,
        L=L,
        R1=2,
        R2=R2,
        S1=(L + 1) // 2,
        S2=S2,
        rho=inputs.rho,
        mu=RInterval(MU, precision=precision),
        b1=b,
        b2=b,
        a1=a1,
        a2=a2,
    )


def lemma_parameter_rechecks(inst: LaurentInstance, ln_bprime: RInterval) -> dict[str, bool]:
    """Numeric rechecks of the two closed-form bounds the corollary uses."""
    prec = max(inst.precision, ln_bprime.precision)
    rhs = RInterval(inst.K, precision=prec) * (
        RInterval(Fraction(31, 20), precision=prec) * inst.L
        + RInterval(Fraction(612, 10000), precision=prec)
    )
    gl_ok = inst.g_term().strictly_less(rhs)
    lnb_ok = not (ln_bprime + RInterval(Fraction(23264, 10000), precision=prec)).strictly_less(
        inst.ln_b()
    )
    return {"gL_term_below_closed_form": gl_ok, "ln_b_below_closed_form": lnb_ok}


def corollary_L(ln_bprime: RInterval) -> tuple[int, bool]:
    """(L, floored): L = floor((45/62)(ln bprime + 5.49)) + 1, floored at 3,
    and whether that floor at 3 applied."""
    raw = 1 + (L_SLOPE * (ln_bprime + Fraction(549, 100))).floor()
    return max(3, raw), raw < 3


@dataclass(frozen=True)
class TwoLogBound:
    log_lambda_lower: RInterval
    L: int
    L_floored: bool


def two_log_lower_bound(inputs: TwoLogInputs) -> TwoLogBound:
    """Specialized lower bound for the logarithm of the two-log linear form.

    ln|form| > -3.741 (ln b' + 6.87)^2 a2 - 31 L / 15 - ln L
               - ln(2 + 0.222 L a2)
    under the hypotheses a2 >= 1000 + a1 and b' > 0.056.  Works at the
    larger of the two operands' precisions.
    """
    precision = inputs.precision
    a2, bprime = inputs.a2, inputs.bprime
    floor_a2 = RInterval(1000, precision=precision) + inputs.a1
    if not a2.exact_ends()[0] >= floor_a2.exact_ends()[1]:
        raise HypothesisError("a2 >= 1000 + a1")
    if not bprime.exact_ends()[0] > Fraction(56, 1000):
        raise HypothesisError("bprime > 0.056")
    L, floored = inputs.length
    c1 = RInterval(Fraction(3741, 1000), precision=precision)
    c2 = RInterval(Fraction(687, 100), precision=precision)
    c3 = RInterval(Fraction(222, 1000), precision=precision)
    term = inputs.ln_bprime + c2
    bound = (
        -(c1 * term * term * a2)
        - RInterval(Fraction(31 * L, 15), precision=precision)
        - RInterval(L, precision=precision).ln()
        - (RInterval(2, precision=precision) + c3 * L * a2).ln()
    )
    return TwoLogBound(bound, L, L_floored=floored)


# ---------------------------------------------------------------------------
# Final-inequality right-hand side and threshold certification


class _RhsConsts(NamedTuple):
    """The right-hand side's constants in one number type, RInterval or float."""

    lead: object
    g_shift: object
    shift: object
    l_coeff: object
    log_coeff: object
    sq_coeff: object
    l_shift: object
    slope: object
    one: object
    two: object
    ln2: object


# exact values of _RhsConsts' fields in order; ln2 is the ln of the last
_RHS_EXACT = (
    RHS_LEAD, RHS_G_SHIFT, RHS_SHIFT, RHS_L_COEFF, RHS_LOG_COEFF,
    RHS_SQ_COEFF, RHS_L_SHIFT, L_SLOPE, 1, 2,
)


@functools.cache
def _rhs_consts(precision: int) -> _RhsConsts:
    """The constants as intervals at this precision, built on first use."""
    exact = [RInterval(c, precision=precision) for c in _RHS_EXACT]
    return _RhsConsts(*exact, ln_constant(2, precision))


# the same constants in floats, for locating the crossover only
_RHS_FLOATS = _RhsConsts(*(float(c) for c in _RHS_EXACT), math.log(2))


def _ln(x):
    # looked up on the operand at each call, so a tracer that patches
    # RInterval.ln by name sees every interval log
    return x.ln() if isinstance(x, RInterval) else math.log(x)


def _rhs_pieces(t, k: _RhsConsts):
    s = t + k.ln2  # ln(2m) with t = ln m
    ln_s = _ln(s)
    G = ln_s + k.g_shift
    Lp = k.slope * ln_s + k.l_shift
    return s, G, Lp


def _rhs(t, k: _RhsConsts):
    """The right-hand side at t, over the number type of t and k."""
    s, G, Lp = _rhs_pieces(t, k)
    term1 = k.lead * G * G * (k.one + k.shift / s)
    term2 = k.l_coeff * Lp / t
    term3 = (_ln(k.log_coeff * Lp) + k.sq_coeff * Lp * Lp * (t + k.shift)) / t
    return term1 + term2 + term3


def threshold_rhs(t: RInterval) -> RInterval:
    """Right-hand side of the final inequality, in t = ln m.

    7.482 (F + 2.139)^2 (1 + 70/ln(2m)) + (31/15) L'/t
      + (ln(6.29 L') + 0.7 L'^2 (t + 70)) / t
    with L' = (45/62) ln ln(2m) + 1.56 and the corrected F = ln ln(2m),
    matching the derivation through ln b'.

    _locate_crossover evaluates the same formula (_rhs) in floats.  That
    value only picks which grid cell crossover certifies; every sign and
    verdict rests on this interval enclosure.
    """
    if not t.exact_ends()[0] > 1000:
        raise ValueError("requires t = ln m > 1000")
    return _rhs(t, _rhs_consts(t.precision))


def _rhs_derivative(t: RInterval) -> RInterval:
    """Enclosure of d/dt of the right-hand side on the interval t."""
    k = _rhs_consts(t.precision)
    s, G, Lp = _rhs_pieces(t, k)
    Lp_t = k.slope / s
    d1 = k.lead * (k.two * G * (k.one + k.shift / s) / s - k.shift * G * G / (s * s))
    d2 = k.l_coeff * (Lp_t / t - Lp / (t * t))
    d3 = (Lp_t / Lp) / t - (k.log_coeff * Lp).ln() / (t * t)
    d4 = k.sq_coeff * (
        k.two * Lp * Lp_t * (k.one + k.shift / t) - k.shift * Lp * Lp / (t * t)
    )
    return d1 + d2 + d3 + d4


@dataclass
class ThresholdCert:
    t0: RInterval
    verdict: bool = False
    tail_from: float | None = None
    failing_point: float | None = None
    segments: int = 0


def _threshold_sign(form: Fraction, t: RInterval) -> int:
    """+1 if t^form > RHS(t) is certified at t, -1 if t^form < RHS(t) is,
    and 0 if the intervals overlap (undecided at this precision).  The RHS
    comes first, so a t outside its domain gets the RHS's own message."""
    rhs = threshold_rhs(t)
    lhs = t.pow_frac(form)
    if rhs.strictly_less(lhs):
        return 1
    if lhs.strictly_less(rhs):
        return -1
    return 0


# The tail's majorant 8.3 (w + 2.2)^2 >= 7.482 (w + 2.139)^2 + 0.7 L'(w)^2
# for w >= 0, compared coefficient by coefficient; every input is exact.
TAIL_SQ = Fraction(83, 10)
TAIL_SHIFT = Fraction(22, 10)
_TAIL_MAJORANT_HOLDS = (
    RHS_LEAD + RHS_SQ_COEFF * L_SLOPE**2 < TAIL_SQ
    and 2 * (RHS_LEAD * RHS_G_SHIFT + RHS_SQ_COEFF * L_SLOPE * RHS_L_SHIFT)
    < 2 * TAIL_SQ * TAIL_SHIFT
    and RHS_LEAD * RHS_G_SHIFT**2 + RHS_SQ_COEFF * RHS_L_SHIFT**2 < TAIL_SQ * TAIL_SHIFT**2
)


def _tail_h(form: Fraction, w_t: Fraction, precision: int) -> tuple[RInterval, RInterval] | None:
    """Enclosures of h(w) and h'(w) at w = w_t = ln ln(2m), or None when
    1 - 2 ln2 e^-w is not certified positive.

    The squared-log terms of the RHS are bounded by the majorant above;
    every remaining term carries a factor e^-w and decreases for w >= 10,
    so its value at w_t bounds it beyond.  The left side loses at most a
    factor (1 - 2 ln2 e^-w) when moving from ln t to w.  What remains is
    h(w) = form*w - ln(C/factor) - 2 ln(w + 2.2), increasing once
    h'(w) = form - 2/(w + 2.2) > 0.
    """
    k = _rhs_consts(precision)
    c_sq = RInterval(TAIL_SQ, precision=precision)
    c_shift = RInterval(TAIL_SHIFT, precision=precision)
    form_iv = RInterval(form, precision=precision)
    w = RInterval(w_t, precision=precision)
    expw = (-w).exp()
    factor = k.one - k.two * k.ln2 * expw
    if not factor.strictly_positive():
        return None
    inv_t = k.one / (k.one - k.ln2 * expw)  # e^-w * inv_t = 1/t, and both are positive
    Lp = k.slope * w + k.l_shift
    k1 = k.lead * k.shift * (w + k.g_shift) ** 2 * expw
    k2 = k.l_coeff * Lp * inv_t * expw
    k3 = (k.log_coeff * Lp).ln() * inv_t * expw
    k4 = k.sq_coeff * k.shift * inv_t * Lp * Lp * expw
    ktail = k1 + k2 + k3 + k4
    C = c_sq + ktail / ((w + c_shift) * (w + c_shift))
    h = form_iv * w - (C / factor).ln() - k.two * (w + c_shift).ln()
    return h, form_iv - k.two / (w + c_shift)


@functools.cache
def _tail_start(form: Fraction, precision: int) -> RInterval | None:
    """e^w for w = TAIL_START[form] once h and h' certify positive there,
    else None: then t^form > RHS(t) for every t with ln(t + ln 2) >= w,
    and e^w is the tail_from of a certificate.

    The starts, w = 25/2 for 3/5 (tail_from = e^w ~ 268,337) and 11 for
    2/3 (59,874), are the least w in 10, 10.5, ... with h(w) > 0.  They
    are certified all the same, once per (form, precision) in a process,
    at that precision: a certificate holds at the caller's precision only
    if each of its steps was decided there, so an h that this precision
    cannot decide fails the certificate.
    """
    w_t = TAIL_START[form]
    tail = _tail_h(form, w_t, precision) if _TAIL_MAJORANT_HOLDS else None
    if tail and tail[0].strictly_positive() and tail[1].strictly_positive():
        return RInterval(w_t, precision=precision).exp()
    return None


def _mid_float(t: RInterval) -> float:
    """The double nearest the exact midpoint of t."""
    return float(sum(t.exact_ends()) / 2)


def certify_threshold(form, t0: RInterval) -> ThresholdCert:
    """Certify t^form > RHS(t) for every t >= t0, at t0's precision.

    Strict interval comparison at t0, then interval positivity of the
    derivative of t^form - RHS(t) on [t0, tail start], then the analytic
    tail of _tail_start.

    The derivative step works over a geometric grid (ratio GRID_RATIO)
    from t0 to the tail start.  It first encloses the derivative once
    over the whole grid; where an enclosure is not strictly positive it
    halves that run of cells, leftmost half first, down to single cells.
    Each positive enclosure proves its whole union, so the proof covers
    every cell, and the first single cell that fails gives failing_point,
    its left end.  segments is the grid's cell count, len(points) - 1,
    however few enclosures it took.
    """
    form = Fraction(form)
    if form not in THEOREM_FORMS.values():
        raise ValueError("form must be 3/5 or 2/3")
    precision = t0.precision
    cert = ThresholdCert(t0=t0)
    if _threshold_sign(form, t0) != 1:
        cert.failing_point = _mid_float(t0)
        return cert

    tail_start = _tail_start(form, precision)
    if tail_start is None:
        cert.failing_point = _mid_float(t0)
        return cert
    tail_lo, end = tail_start.exact_ends()
    cert.tail_from = float(tail_lo)

    lo = t0.exact_ends()[0]
    if lo < end:
        form_iv = RInterval(form, precision=precision)
        slope_exp = RInterval(form - 1, precision=precision)
        # geometric grid [t0, tail start]; derivative must stay positive
        points = [lo]
        while points[-1] < end:
            points.append(points[-1] * GRID_RATIO)
        todo = [(0, len(points) - 1)]  # index ranges; the leftmost is on top
        while todo:
            i, j = todo.pop()
            seg = RInterval(points[i], points[j], precision=precision)
            deriv = form_iv * seg.pow_frac(slope_exp) - _rhs_derivative(seg)
            if deriv.strictly_positive():
                continue
            if j - i == 1:
                cert.failing_point = float(points[i])
                return cert
            mid = (i + j) // 2
            todo += [(mid, j), (i, mid)]
        cert.segments = len(points) - 1
    cert.verdict = True
    return cert


CROSSOVER_START = 1100


def _locate_crossover(form: Fraction) -> float:
    """Float estimate of the t > 1000 where t^form meets the corrected RHS.

    The secant method on g(u) = form*u - ln RHS(e^u), with RHS from
    threshold_rhs's own body (_rhs) over floats, so the formula has one
    source.  It starts from u0 = ln 1100 and the fixed-point step
    u1 = u0 - g(u0)/form: the RHS grows like a squared log, so g' stays
    close to form and g is nearly linear in u.  A root outside
    u in [ln 1100, ln(1100 * 2^80)] raises: the RHS of the theorems'
    forms meets t^form well inside it.

    The estimate only picks which grid cell crossover certifies; it
    decides no sign and no verdict, so a rounding error here can cost a
    certified evaluation, never a wrong bracket.
    """
    q = float(form)

    def g(u: float) -> float:
        return q * u - math.log(_rhs(math.exp(u), _RHS_FLOATS))

    start = math.log(CROSSOVER_START)
    u0, g0 = start, g(start)
    if g0 >= 0:
        raise AssertionError("expected the RHS to dominate at t = 1100")
    u1 = u0 - g0 / q
    for _ in range(20):  # five steps reach the tolerance for both forms
        g1 = g(u1)
        # g' is close to form, so |g| / form bounds the error in u = ln t
        if abs(g1) < 1e-10:
            if not start < u1 < start + 80 * math.log(2):
                raise AssertionError("no sign change located")
            return math.exp(u1)
        u0, g0, u1 = u1, g1, u1 - g1 * (u1 - u0) / (g1 - g0)
    raise AssertionError("crossover estimate did not converge")


def crossover(form, precision: int = THRESHOLD_PRECISION) -> RInterval:
    """Bracket the unique t > 1000 where t^form meets the corrected RHS.

    Assumes, as every caller does, that t^form - RHS(t) changes sign once
    for t > 1000: negative below the root, positive above it.

    The bracket is a cell of a fixed grid.  k is the least integer with
    t^form > RHS(t) certified at t = 1100 * 2^k; W = 1100 (2^k - 1); r is
    the least integer with W / 2^r <= 1 and w = W / 2^r.  The bracket is
    [1100 + j w, 1100 + (j + 1) w] for the cell j that holds the root:
    the cell that bisecting [1100, 1100 * 2^k] down to width <= 1 ends on.

    The root is first located in floats (_locate_crossover), which picks
    k and j.  Then three signs are certified at the requested precision:
    negative at 1100 * 2^(k-1), negative at the cell's lower end and
    positive at its upper end.  An endpoint with the wrong sign moves the
    cell, or k, by one and is certified again.  A sign that the interval
    cannot decide raises ValueError: the bracket is never widened or
    moved off the grid to get past it.

    The bracket is certified once per (form, precision) in a process, at
    that precision, and then shared; an undecided sign raises, so it is
    never kept.
    """
    form = Fraction(form)
    if form not in THEOREM_FORMS.values():
        raise ValueError("form must be 3/5 or 2/3")
    return _crossover_bracket(form, precision)


@functools.cache
def _crossover_bracket(form: Fraction, precision: int) -> RInterval:
    """crossover's bracket for a validated form; see crossover."""

    def sign_at(t: Fraction) -> int:
        sign = _threshold_sign(form, RInterval(t, precision=precision))
        if sign == 0:
            raise ValueError("crossover undecided at this precision; raise precision")
        return sign

    start = CROSSOVER_START
    t_est = _locate_crossover(form)
    k = max(1, math.ceil(math.log2(t_est / start)))
    while True:
        if sign_at(Fraction(start * 2 ** (k - 1))) > 0:
            k -= 1
            continue
        span = start * (2**k - 1)
        cells = 1 << (span - 1).bit_length()
        width = Fraction(span, cells)
        j = min(max(math.floor((t_est - start) / width), 0), cells - 1)
        while j < cells:
            lo = start + j * width
            if sign_at(lo) > 0:
                j -= 1
            elif sign_at(lo + width) > 0:
                return RInterval(lo, lo + width, precision=precision)
            else:
                j += 1
        k += 1
