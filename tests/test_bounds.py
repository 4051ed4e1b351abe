"""Certified-bounds layer: recomputed constants, the two-logarithm
condition checker on a frozen worked instance, epsilon enclosures,
and the threshold certifier."""

from fractions import Fraction
import math

import mpmath
import pytest

from tripow import bounds, cli
from tripow.bounds import (
    THEOREM_FORMS,
    HypothesisError,
    KAPPA,
    L_SLOPE,
    LaurentInstance,
    MU,
    RHO_LOG,
    TwoLogInputs,
    certify_threshold,
    corollary_L,
    crossover,
    laurent_check,
    laurent_epsilon,
    lemma_parameter_rechecks,
    ordering_predicates,
    threshold_rhs,
    two_log_instance,
    two_log_lower_bound,
    y_upper_bound,
)
from tripow.numerics import RInterval
from tripow.search import ExponentTriple
from tripow.triples import PrimPair, triple_of

from enclosure import encloses, mid, width

PREC = 128


def riv(q, precision=PREC):
    return RInterval(Fraction(q) if isinstance(q, str) else q, precision=precision)


def alpha1(precision=PREC) -> RInterval:
    """a1 = e^3.1 pi, read from TwoLogInputs, where it is defined; the
    operands do not enter it."""
    return TwoLogInputs(riv(1100, precision), riv(10, precision)).a1


def assert_within(iv: RInterval, center: Fraction, radius: Fraction):
    """Certified |iv - center| < radius."""
    assert riv(center - radius, iv.precision).strictly_less(iv)
    assert iv.strictly_less(riv(center + radius, iv.precision))


# -- published constants, recomputed -------------------------------------------


def test_leading_constant_is_certified():
    # 3.741 rounds mu * ln(rho) * kappa * a1 * (45/62)^2 up in the last digit
    a1 = alpha1()
    exact_part = MU * RHO_LOG * KAPPA * L_SLOPE * L_SLOPE
    value = riv(exact_part) * a1
    assert_within(value, Fraction(3741, 1000), Fraction(1, 1000))
    assert value.strictly_less(riv(Fraction(3741, 1000)))


def test_middle_constant_is_certified():
    # 0.222 rounds sqrt(kappa) up within 5e-4
    s = riv(KAPPA).sqrt()
    assert_within(s, Fraction(222, 1000), Fraction(5, 10000))
    assert s.strictly_less(riv(Fraction(222, 1000)))


def test_shift_constant_decomposes():
    # 6.87 = 5.49 + 62/45 up to 1/450
    gap = Fraction(687, 100) - (Fraction(549, 100) + Fraction(62, 45))
    assert gap == Fraction(1, 450)
    assert abs(gap) < Fraction(1, 400)


def test_fixed_weights():
    a1 = alpha1()
    assert_within(a1, Fraction(697369, 10000), Fraction(1, 10000))
    rho = two_log_instance(TwoLogInputs(riv(1100), riv(10))).rho  # e^3.1
    assert_within(rho, Fraction(221979513, 10**7), Fraction(1, 10**6))


@pytest.mark.parametrize("precision", (64, 128, 200, 512, 1024))
def test_two_log_inputs_share_rho_and_keep_a1_bit_equal(precision):
    inputs = TwoLogInputs(riv(1100, precision), riv(10, precision))
    assert inputs.rho.exact_ends() == riv(RHO_LOG, precision).exp().exact_ends()
    a1 = riv(RHO_LOG, precision).exp() * RInterval.pi(precision)
    assert inputs.a1.exact_ends() == a1.exact_ends()
    assert two_log_instance(inputs).rho is inputs.rho


# -- epsilon(N) ------------------------------------------------------------------


def eps_oracle(N: int) -> mpmath.mpf:
    with mpmath.workdps(60):
        e = mpmath.e
        return (2 / mpmath.mpf(N)) * (
            mpmath.loggamma(N + 1)
            + (1 - N) * mpmath.log(N)
            + N
            + mpmath.log(1 + ((e - 1) / e) ** N)
        )


def majorant(N: int, precision: int) -> RInterval:
    """The published majorant (2/N)((3/2) ln N + (1/2) ln 2pi + 1/(12N)
    + ln(1 + ((e-1)/e)^N)), built here term by term."""
    e = RInterval.e_const(precision)
    tail = (riv(1, precision) + ((e - 1) / e) ** N).ln()
    ln2pi = (riv(2, precision) * RInterval.pi(precision)).ln()
    body = riv(Fraction(3, 2), precision) * riv(N, precision).ln() + ln2pi / 2 + tail
    return riv(2, precision) / N * (body + riv(Fraction(1, 12 * N), precision))


EPS_SAMPLE = (2, 3, 9, 10, 50, 299, 300, 301, 33081)


# Stirling's two-sided bound holds for every N >= 1, small N included
@pytest.mark.parametrize("N", [3, 10, 50, 299, 300])
def test_epsilon_exact_path_contains_oracle(N):
    iv = laurent_epsilon(N, PREC)
    val = eps_oracle(N)
    assert iv.lo <= val <= iv.hi


def test_epsilon_stirling_path_contains_oracle():
    for N in (301, 350, 1000, 33081):
        iv = laurent_epsilon(N, PREC)
        val = eps_oracle(N)
        assert iv.lo <= val <= iv.hi, N


def test_epsilon_below_majorant():
    # Stirling's remainder is strictly below 1/(12N), so epsilon is too
    for N in EPS_SAMPLE:
        assert eps_oracle(N) < majorant(N, PREC).lo, N


@pytest.mark.parametrize("precision", [64, 128, 512, 1024])
def test_epsilon_upper_end_is_the_majorant(precision):
    for N in EPS_SAMPLE:
        eps = laurent_epsilon(N, precision)
        assert eps.precision == precision
        assert eps.hi == majorant(N, precision).hi, N


def test_epsilon_decreasing_on_grid():
    grid = [3, 10, 100, 10**4, 33091]
    vals = [laurent_epsilon(N, PREC) for N in grid]
    for small, large in zip(vals[1:], vals):
        assert small.strictly_less(large)


def test_epsilon_majorant_certifies_target():
    bar = riv(Fraction(11, 10000))
    # the upper end is the majorant, which decreases in N
    assert laurent_epsilon(33091, PREC).strictly_less(bar)
    assert laurent_epsilon(33081, PREC).strictly_less(bar)


def test_epsilon_rejects_tiny_n():
    for N in (0, 1):
        with pytest.raises(ValueError):
            laurent_epsilon(N)


# -- the worked two-logarithm instance -------------------------------------------


@pytest.fixture(scope="module")
def worked():
    return two_log_instance(TwoLogInputs(riv(1100), riv(10)))


def test_worked_instance_parameters(worked):
    assert (worked.K, worked.L) == (22678, 6)
    assert (worked.R1, worked.R2, worked.S1, worked.S2) == (2, 1465, 3, 93)
    assert (worked.R, worked.S, worked.N) == (1466, 95, 136068)
    assert worked.b1 == worked.b2 == 655
    assert worked.g == Fraction(46957, 278540)
    assert encloses(worked.sigma(), Fraction(17, 18))


def test_worked_instance_ln_b_against_loggamma_sum(worked):
    K, R, S, b1 = worked.K, worked.R, worked.S, worked.b1
    with mpmath.workdps(40):
        total = mpmath.mpf(0)
        for k in range(1, K):
            total += mpmath.loggamma(k + 1)
        lead = mpmath.mpf((R - 1) * b1 + (S - 1) * b1) / 2
        val = mpmath.log(lead) - 2 * total / (K * K - K)
    iv = worked.ln_b()
    assert iv.lo <= val <= iv.hi
    assert_within(iv, Fraction(46137, 10000), Fraction(1, 1000))


def test_worked_instance_main_condition(worked):
    ok, margin, bound = laurent_check(worked)
    assert ok
    assert_within(margin, Fraction(143161, 10), Fraction(1, 1))
    # bound = rho^(-mu K L): its log is -(2/3) * 136068 * 3.1
    assert encloses(bound.ln(), -MU * worked.N * RHO_LOG)


def test_worked_instance_rechecks(worked):
    checks = lemma_parameter_rechecks(worked, riv(10).ln())
    assert checks == {
        "gL_term_below_closed_form": True,
        "ln_b_below_closed_form": True,
    }


def test_instance_validation():
    kw = dict(
        rho=riv(RHO_LOG).exp(),
        mu=riv(MU),
        b1=2,
        b2=2,
        a1=alpha1(),
        a2=riv(1100),
    )
    with pytest.raises(ValueError):
        LaurentInstance(K=1, L=3, R1=1, R2=2, S1=1, S2=2, **kw)
    with pytest.raises(ValueError):
        LaurentInstance(K=3, L=3, R1=0, R2=2, S1=1, S2=2, **kw)
    degenerate = LaurentInstance(K=3, L=3, R1=1, R2=1, S1=1, S2=1, **kw)
    with pytest.raises(ValueError, match="positive"):
        degenerate.ln_b()


def test_small_instance_fails_main_condition():
    inst = LaurentInstance(
        K=3,
        L=3,
        R1=1,
        R2=2,
        S1=1,
        S2=2,
        rho=riv(RHO_LOG).exp(),
        mu=riv(MU),
        b1=2,
        b2=2,
        a1=alpha1(),
        a2=riv(1100),
    )
    ok, margin, _ = laurent_check(inst)
    assert not ok
    assert margin.strictly_less(riv(0))


def test_mu_and_rho_validation():
    base = dict(K=3, L=3, R1=1, R2=2, S1=1, S2=2, b1=2, b2=2,
                a1=alpha1(), a2=riv(1100))
    bad_mu = LaurentInstance(rho=riv(RHO_LOG).exp(), mu=riv(Fraction(1, 4)), **base)
    with pytest.raises(ValueError, match="mu"):
        laurent_check(bad_mu)
    bad_rho = LaurentInstance(rho=riv(1), mu=riv(MU), **base)
    with pytest.raises(ValueError, match="rho"):
        laurent_check(bad_rho)


@pytest.mark.parametrize("precision", [200, 512])
def test_laurent_functions_work_at_operand_precision(precision):
    a2, bprime = riv(1100, precision), riv(10, precision)
    bound = two_log_lower_bound(TwoLogInputs(a2, bprime))
    assert bound.log_lambda_lower.precision == precision
    inst = two_log_instance(TwoLogInputs(a2, bprime))
    assert inst.precision == precision
    assert {iv.precision for iv in (inst.rho, inst.mu, inst.a1, inst.a2)} == {precision}
    assert inst.ln_b().precision == precision
    ok, margin, lam = laurent_check(inst)
    assert ok and margin.precision == lam.precision == precision
    assert all(lemma_parameter_rechecks(inst, bprime.ln()).values())
    # the same instance as at 128 bits, with a narrower margin
    ref = two_log_instance(TwoLogInputs(riv(1100), riv(10)))
    assert (inst.K, inst.L, inst.R2, inst.S2, inst.b1) == (ref.K, ref.L, ref.R2, ref.S2, ref.b1)
    assert width(margin) < width(laurent_check(ref)[1])
    # mixed operands work at the larger precision
    assert two_log_instance(TwoLogInputs(a2, riv(10))).precision == precision
    assert two_log_lower_bound(TwoLogInputs(riv(1100), bprime)).log_lambda_lower.precision == precision


# -- the specialized lower bound --------------------------------------------------


def test_corollary_length_parameter():
    assert corollary_L(riv(10).ln()) == (6, False)
    assert corollary_L(riv(Fraction(6, 100)).ln()) == (3, True)


def test_lower_bound_worked_value():
    res = two_log_lower_bound(TwoLogInputs(riv(1100), riv(10)))
    assert res.L == 6 and not res.L_floored
    assert_within(res.log_lambda_lower, Fraction(-3462508, 10), Fraction(1, 1))
    # second oracle input, far above the hypothesis floor: m = 2^1443, n = 3,
    # z = 100, a2 = ln c + a1 (about 2070), b' = z (1/69.73 + 1/a2) (about 1.48)
    c = triple_of(PrimPair(2**1443, 3)).c
    a2 = riv(c).ln() + alpha1()
    bprime = 100 * (1 / riv(Fraction(6973, 100)) + 1 / a2)
    far = two_log_lower_bound(TwoLogInputs(a2, bprime))
    with mpmath.workdps(40):
        a2_far = mpmath.log(c) + mpmath.exp(mpmath.mpf("3.1")) * mpmath.pi
        bprime_far = 100 * (1 / mpmath.mpf("69.73") + 1 / a2_far)
        for got, a2_o, bp_o in [
            (res, mpmath.mpf(1100), mpmath.mpf(10)),
            (far, a2_far, bprime_far),
        ]:
            lnbp = mpmath.log(bp_o)
            L = max(3, int(mpmath.floor(mpmath.mpf(45) / 62 * (lnbp + mpmath.mpf("5.49")))) + 1)
            val = (
                -mpmath.mpf("3.741") * (lnbp + mpmath.mpf("6.87")) ** 2 * a2_o
                - mpmath.mpf(31 * L) / 15
                - mpmath.log(L)
                - mpmath.log(2 + mpmath.mpf("0.222") * L * a2_o)
            )
            assert got.L == L
            assert abs(mpmath.mpf(str(float(mid(got.log_lambda_lower)))) - val) < mpmath.mpf("1e-6")


def test_lower_bound_floors_short_lengths():
    res = two_log_lower_bound(TwoLogInputs(riv(1100), riv(Fraction(6, 100))))
    assert res.L == 3 and res.L_floored


def test_lower_bound_hypotheses():
    with pytest.raises(HypothesisError) as err:
        two_log_lower_bound(TwoLogInputs(riv(1000), riv(10)))
    assert err.value.hypothesis == "a2 >= 1000 + a1"
    with pytest.raises(HypothesisError) as err:
        two_log_lower_bound(TwoLogInputs(riv(1100), riv(Fraction(5, 100))))
    assert err.value.hypothesis == "bprime > 0.056"
    assert str(err.value).startswith("hypothesis fails")


def test_minor_parameter_counts_at_the_hypothesis_floor():
    # the interesting regime: L = 3 and a2 at its smallest admissible value
    a2 = RInterval(1000, precision=200) + alpha1(200)
    inst = two_log_instance(TwoLogInputs(a2, riv(Fraction(6, 100), 200)))
    assert inst.L == 3
    assert inst.K == 11027
    assert inst.N == 33081
    assert laurent_epsilon(inst.N, 200).strictly_less(riv(Fraction(11, 10000), 200))


# -- small-pair exclusion helpers ---------------------------------------------------


def test_y_upper_bound_examples():
    assert_within(y_upper_bound(PrimPair(13, 4), PREC), Fraction(1261860, 1000000), Fraction(1, 100000))
    assert_within(y_upper_bound(PrimPair(11, 8), PREC), Fraction(1080482, 1000000), Fraction(1, 100000))


def test_ordering_predicates_skips_non_candidates():
    p = PrimPair(13, 4)
    for t in [ExponentTriple(2, 2, 2), ExponentTriple(3, 4, 6), ExponentTriple(2, 4, 5)]:
        out = ordering_predicates(p, t, PREC)
        assert out["skipped"] and not out["excluded"]
        assert not out["exceptional_candidate"]


def test_ordering_predicates_failure_modes():
    p = PrimPair(13, 4)
    out = ordering_predicates(p, ExponentTriple(4, 6, 6), PREC)
    assert out["excluded"] and "gap_ge_4" in out["failures"]
    out = ordering_predicates(p, ExponentTriple(4, 6, 14), PREC)
    assert "z_lt_2y" in out["failures"]
    out = ordering_predicates(p, ExponentTriple(10, 8, 6), PREC)
    assert "wide_pair_x_lt_z" in out["failures"]


# -- threshold RHS and certification ---------------------------------------------


def rhs_oracle(t, corrected=True):
    with mpmath.workdps(40):
        t = mpmath.mpf(t)
        s = t + mpmath.log(2)
        F = mpmath.log(s) if corrected else s
        G = F + mpmath.mpf("2.139")
        Lp = mpmath.mpf(45) / 62 * mpmath.log(s) + mpmath.mpf("1.56")
        return (
            mpmath.mpf("7.482") * G * G * (1 + 70 / s)
            + mpmath.mpf(31) / 15 * Lp / t
            + (mpmath.log(mpmath.mpf("6.29") * Lp) + mpmath.mpf("0.7") * Lp * Lp * (t + 70)) / t
        )


def test_threshold_rhs_values():
    t1 = Fraction(25316463, 100)
    iv = threshold_rhs(riv(t1, 256))
    assert abs(float(mid(iv)) - float(rhs_oracle("253164.63"))) < 1e-9
    assert_within(iv, Fraction(16696410, 10000), Fraction(1, 1000))
    # t^(3/5) already clears it at this point
    lhs = RInterval(t1, precision=256).pow_frac(Fraction(3, 5))
    assert iv.strictly_less(lhs)

    t2 = Fraction(5280520, 100)
    iv2 = threshold_rhs(riv(t2, 256))
    assert_within(iv2, Fraction(13313722, 10000), Fraction(1, 1000))
    lhs2 = RInterval(t2, precision=256).pow_frac(Fraction(2, 3))
    assert iv2.strictly_less(lhs2)


def test_threshold_rhs_uncorrected_form_explodes():
    # the literal form F = ln(2m), which no report uses, written out in mpmath
    val = rhs_oracle("253164.6", corrected=False)
    assert abs(val - 4.7968e11) < 1e8
    # and no power t^q with q < 1 can ever clear it at this scale
    lhs = RInterval(Fraction(2531646, 10), precision=256).pow_frac(Fraction(2, 3))
    assert lhs.hi < val


def test_threshold_rhs_requires_large_argument():
    with pytest.raises(ValueError, match="1000"):
        threshold_rhs(riv(1000, 256))


def ln_pow10(exp10: int) -> RInterval:
    return RInterval(exp10, precision=256) * RInterval(10, precision=256).ln()


def test_certify_threshold_main_cases():
    cert = certify_threshold(Fraction(3, 5), ln_pow10(109948))
    assert cert.verdict and cert.failing_point is None
    assert cert.segments == 3
    assert cert.tail_from is not None and 2.6e5 < cert.tail_from < 2.7e5

    cert2 = certify_threshold(Fraction(2, 3), ln_pow10(22933))
    assert cert2.verdict
    assert cert2.segments == 7
    assert 5.9e4 < cert2.tail_from < 6.0e4


def test_certify_threshold_above_the_stated_point():
    t0 = ln_pow10(109948) * RInterval(Fraction(11, 10), precision=256)
    assert certify_threshold(Fraction(3, 5), t0).verdict


def test_certify_threshold_refuses_below_crossover():
    cert = certify_threshold(Fraction(3, 5), ln_pow10(50000))
    assert not cert.verdict
    assert cert.failing_point == pytest.approx(115129.2546, abs=0.01)
    assert cert.segments == 0


def test_certify_threshold_fails_where_t0_is_undecided(monkeypatch):
    # an RHS too wide to compare with t0^form is a failed certificate, not a pass
    t0 = ln_pow10(109948)
    real = bounds.threshold_rhs

    def blurred(t):
        out = real(t)
        return out + RInterval(-10**6, 10**6, precision=out.precision)

    monkeypatch.setattr(bounds, "threshold_rhs", blurred)
    assert bounds._threshold_sign(Fraction(3, 5), t0) == 0
    cert = certify_threshold(Fraction(3, 5), t0)
    assert not cert.verdict and cert.segments == 0
    assert cert.failing_point == pytest.approx(253164.6258, abs=0.01)


# -- the analytic tail ------------------------------------------------------------


@pytest.mark.parametrize("form", sorted(THEOREM_FORMS.values()))
@pytest.mark.parametrize("precision", (64, 1024))
def test_tail_start_is_the_least_half_step_from_ten(form, precision):
    w = bounds.TAIL_START[form]
    assert w >= 10 and (2 * w).denominator == 1
    h, h_slope = bounds._tail_h(form, w, precision)
    assert h.strictly_positive() and h_slope.strictly_positive()
    below, _ = bounds._tail_h(form, w - Fraction(1, 2), precision)
    assert below.exact_ends()[1] < 0
    tail_from = bounds._tail_start(form, precision)
    assert tail_from.exact_ends() == RInterval(w, precision=precision).exp().exact_ends()


def test_tail_starts_stated_in_the_docs():
    # tail_from = e^w, as the module docstring and the README state it
    assert round(math.exp(bounds.TAIL_START[Fraction(3, 5)])) == 268337
    assert round(math.exp(bounds.TAIL_START[Fraction(2, 3)])) == 59874


def test_tail_majorant_coefficients():
    # 7.482 (w + 2.139)^2 + 0.7 L'(w)^2 <= 8.3 (w + 2.2)^2, checked in exact arithmetic
    assert bounds._TAIL_MAJORANT_HOLDS is True
    with mpmath.workdps(40):
        for w in (0, 1, 10, 12.5, 100, 1e6):
            w = mpmath.mpf(w)
            Lp = mpmath.mpf(45) / 62 * w + mpmath.mpf("1.56")
            lhs = mpmath.mpf("7.482") * (w + mpmath.mpf("2.139")) ** 2 + mpmath.mpf("0.7") * Lp**2
            assert lhs < mpmath.mpf("8.3") * (w + mpmath.mpf("2.2")) ** 2


@pytest.mark.parametrize("form", sorted(THEOREM_FORMS.values()))
def test_tail_start_makes_two_interval_exps(monkeypatch, form):
    # e^-w inside h, and e^w, the tail_from it returns
    calls = []
    real = RInterval.exp

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(RInterval, "exp", counted)
    assert bounds._tail_start(form, 256).exact_ends() == real(
        RInterval(bounds.TAIL_START[form], precision=256)
    ).exact_ends()
    assert len(calls) == 2


def _grid(form, t0: RInterval) -> list[Fraction]:
    """certify_threshold's geometric grid from t0 to the tail start."""
    precision = t0.precision
    end = RInterval(bounds.TAIL_START[form], precision=precision).exp().exact_ends()[1]
    points = [t0.exact_ends()[0]]
    while points[-1] < end:
        points.append(points[-1] * bounds.GRID_RATIO)
    return points


def _certify_by_cells(form, t0: RInterval) -> bounds.ThresholdCert:
    """The reference route: the sign at t0, the tail, then the derivative
    on every grid cell in turn, stopping at the first that fails."""
    form = Fraction(form)
    precision = t0.precision
    cert = bounds.ThresholdCert(t0=t0)
    if bounds._threshold_sign(form, t0) != 1:
        cert.failing_point = float(mid(t0))
        return cert
    tail_from = bounds._tail_start(form, precision)
    if tail_from is None:
        cert.failing_point = float(mid(t0))
        return cert
    cert.tail_from = float(tail_from.lo)
    points = _grid(form, t0)
    if len(points) > 1:
        form_iv = RInterval(form, precision=precision)
        slope_exp = RInterval(form - 1, precision=precision)
        for a, b in zip(points, points[1:]):
            seg = RInterval(a, b, precision=precision)
            deriv = form_iv * seg.pow_frac(slope_exp) - bounds._rhs_derivative(seg)
            if not deriv.strictly_positive():
                cert.failing_point = float(a)
                return cert
        cert.segments = len(points) - 1
    cert.verdict = True
    return cert


def _cert_fields(cert: bounds.ThresholdCert) -> tuple:
    return cert.verdict, cert.segments, cert.failing_point, cert.tail_from


def _threshold_start(form, precision: int, where: str) -> RInterval:
    """A t0 just above the crossover bracket, mid-grid, just below the
    tail start, or beyond it."""
    above = crossover(form, precision).exact_ends()[1] + Fraction(1, 100)
    tail_lo, tail_hi = RInterval(bounds.TAIL_START[form], precision=precision).exp().exact_ends()
    t = {
        "above_crossover": above,
        "mid_grid": (above + tail_lo) / 2,
        "below_tail": tail_lo - 1,
        "beyond_tail": tail_hi + 1,
    }[where]
    return RInterval(t, precision=precision)


THRESHOLD_STARTS = ("above_crossover", "mid_grid", "below_tail", "beyond_tail")
CERT_PRECISIONS = (64, 128, 256, 512, 1024)


@pytest.mark.parametrize("form", sorted(THEOREM_FORMS.values()))
@pytest.mark.parametrize("precision", CERT_PRECISIONS)
@pytest.mark.parametrize("where", THRESHOLD_STARTS)
def test_certify_threshold_matches_cells(form, precision, where):
    t0 = _threshold_start(form, precision, where)
    cert = certify_threshold(form, t0)
    assert cert.verdict
    assert _cert_fields(cert) == _cert_fields(_certify_by_cells(form, t0))
    assert cert.segments == len(_grid(form, t0)) - 1


@pytest.mark.parametrize("form", sorted(THEOREM_FORMS.values()))
@pytest.mark.parametrize("precision", CERT_PRECISIONS)
@pytest.mark.parametrize("cells", ("first", "middle", "last", "middle_and_last"))
def test_certify_threshold_fails_on_the_blurred_cell(monkeypatch, form, precision, cells):
    # widen the derivative on every segment that holds a chosen cell, so
    # every union over it fails and only that single cell can report it;
    # with two chosen cells the left one is reported
    t0 = _threshold_start(form, precision, "above_crossover")
    points = _grid(form, t0)
    n = len(points) - 1
    assert n >= 3
    chosen = {"first": [0], "middle": [n // 2], "last": [n - 1], "middle_and_last": [n // 2, n - 1]}
    insides = [(points[k] + points[k + 1]) / 2 for k in chosen[cells]]
    real = bounds._rhs_derivative

    def blurred(t):
        out = real(t)
        if any(encloses(t, x) for x in insides):
            out = out + RInterval(-1, 1, precision=out.precision)
        return out

    monkeypatch.setattr(bounds, "_rhs_derivative", blurred)
    cert = certify_threshold(form, t0)
    assert not cert.verdict and cert.segments == 0
    assert cert.failing_point == float(points[chosen[cells][0]])
    assert _cert_fields(cert) == _cert_fields(_certify_by_cells(form, t0))


def test_certify_threshold_rejects_other_forms():
    with pytest.raises(ValueError, match="form"):
        certify_threshold(Fraction(1, 2), ln_pow10(109948))


def test_crossover_brackets():
    ln10 = RInterval(10, precision=256).ln()
    iv = crossover(Fraction(3, 5))
    assert float(iv.hi) - float(iv.lo) <= 1.0
    log10m = iv / ln10
    assert 95000 < float(log10m.lo) and float(log10m.hi) < 109948
    assert abs(float(mid(log10m)) - 99819.6) < 1.0

    iv2 = crossover(Fraction(2, 3))
    log10m2 = iv2 / ln10
    assert 19000 < float(log10m2.lo) and float(log10m2.hi) < 22933
    assert abs(float(mid(log10m2)) - 20580.3) < 1.0


def test_crossover_rejects_other_forms():
    with pytest.raises(ValueError):
        crossover(Fraction(1, 2))


def _crossover_by_bisection(form, precision: int = 256) -> RInterval:
    """The reference route: doubling from t = 1100, then bisection."""
    form = Fraction(form)
    if form not in THEOREM_FORMS.values():
        raise ValueError("form must be 3/5 or 2/3")

    def sign_at(t: Fraction) -> int:
        x = RInterval(t, precision=precision)
        lhs = x.pow_frac(form)
        rhs = threshold_rhs(x)
        if rhs.strictly_less(lhs):
            return 1
        if lhs.strictly_less(rhs):
            return -1
        return 0

    lo = Fraction(1100)
    if sign_at(lo) >= 0:
        raise AssertionError("expected the RHS to dominate at t = 1100")
    hi = lo
    while sign_at(hi) <= 0:
        hi *= 2
        if hi > 2**80:
            raise AssertionError("no sign change located")
    while hi - lo > 1:
        mid = (lo + hi) / 2
        s = sign_at(mid)
        if s == 0:
            mid += (hi - lo) / 128
            s = sign_at(mid)
            if s == 0:
                break
        if s < 0:
            lo = mid
        else:
            hi = mid
    return RInterval(lo, hi, precision=precision)


CROSSOVER_PRECISIONS = (64, 96, 128, 192, 256, 384, 512)


@pytest.mark.parametrize("form", sorted(THEOREM_FORMS.values()))
@pytest.mark.parametrize("precision", CROSSOVER_PRECISIONS)
def test_crossover_matches_bisection(form, precision):
    assert crossover(form, precision).exact_ends() == (
        _crossover_by_bisection(form, precision).exact_ends()
    )


@pytest.mark.parametrize("form", sorted(THEOREM_FORMS.values()))
@pytest.mark.parametrize("precision", (64, 256))
def test_crossover_bracket_signs_certified(form, precision):
    lo, hi = crossover(form, precision).exact_ends()
    assert 0 < hi - lo <= 1
    for t, below in ((lo, True), (hi, False)):
        x = RInterval(t, precision=precision)
        lhs, rhs = x.pow_frac(form), threshold_rhs(x)
        assert (lhs.strictly_less(rhs) if below else rhs.strictly_less(lhs))
        # and the mpmath oracle agrees on the side
        with mpmath.workdps(60):
            q = mpmath.mpf(form.numerator) / form.denominator
            t_mp = mpmath.mpf(t.numerator) / t.denominator
            assert (t_mp**q < rhs_oracle(t_mp)) == below


def test_crossover_never_nudges(monkeypatch, capsys):
    # widen the RHS at the bracket's upper end, where the bisection also lands
    _, hi = _crossover_by_bisection(Fraction(3, 5), 256).exact_ends()
    real = bounds.threshold_rhs

    def blurred(t):
        out = real(t)
        if isinstance(t, RInterval) and encloses(t, hi):
            out = out + RInterval(-1, 1, precision=out.precision)
        return out

    monkeypatch.setattr(bounds, "threshold_rhs", blurred)
    with pytest.raises(ValueError, match="precision"):
        crossover(Fraction(3, 5), 256)
    assert cli.main(["threshold", "--theorem", "1.2", "--format", "json"]) == 2
    assert "precision" in capsys.readouterr().err


def test_crossover_keeps_no_undecided_bracket(monkeypatch):
    # a raised ValueError is not cached, so once the RHS is sharp again the
    # next call certifies the bracket
    _, hi = _crossover_by_bisection(Fraction(2, 3), 128).exact_ends()
    real = bounds.threshold_rhs

    def blurred(t):
        out = real(t)
        if encloses(t, hi):
            out = out + RInterval(-1, 1, precision=out.precision)
        return out

    monkeypatch.setattr(bounds, "threshold_rhs", blurred)
    with pytest.raises(ValueError, match="precision"):
        crossover(Fraction(2, 3), 128)
    monkeypatch.undo()
    assert crossover(Fraction(2, 3), precision=128).exact_ends() == (
        _crossover_by_bisection(Fraction(2, 3), 128).exact_ends()
    )


def test_crossover_shares_one_bracket_per_form_and_precision(monkeypatch):
    # the key is (Fraction(form), precision), however the caller spells them
    first = crossover(Fraction(3, 5), 256)
    monkeypatch.setattr(bounds, "threshold_rhs", None)  # no further RHS call
    assert crossover("3/5", precision=256) is first
    assert crossover(Fraction(6, 10), 256) is first
    with pytest.raises(ValueError, match="form"):
        crossover(Fraction(1, 2), 256)


# -- one RHS body over two number types, and crossover's cost ---------------------

TABLE_PRECISIONS = (64, 80, 96, 128, 192, 256, 384, 512, 768, 1024)


@pytest.mark.parametrize("form", sorted(THEOREM_FORMS.values()))
@pytest.mark.parametrize("precision", TABLE_PRECISIONS)
def test_crossover_makes_three_rhs_calls(monkeypatch, form, precision):
    calls = []
    real = bounds.threshold_rhs

    def counted(t):
        calls.append(t)
        return real(t)

    monkeypatch.setattr(bounds, "threshold_rhs", counted)
    crossover(form, precision)
    assert len(calls) == 3


@pytest.mark.parametrize("form", sorted(THEOREM_FORMS.values()))
def test_locate_crossover_builds_no_interval(monkeypatch, form):
    def refuse(*args, **kwargs):
        raise AssertionError("RInterval constructed")

    monkeypatch.setattr(RInterval, "__init__", refuse)
    t = bounds._locate_crossover(form)
    monkeypatch.undo()
    # the estimate lies in the cell crossover certifies
    assert encloses(crossover(form, 256), Fraction(t))


# the ids keep the "-True" of the corrected-form parameter this test once had,
# so its results line up with earlier runs
@pytest.mark.parametrize(
    "t", ("1100", "5000", "47387.68", "229843.5", "1e6", "1e15"), ids=lambda t: f"{t}-True"
)
def test_float_rhs_matches_interval_rhs(t):
    exact = Fraction(t)
    approx = bounds._rhs(float(exact), bounds._RHS_FLOATS)
    mid_rhs = float(mid(threshold_rhs(riv(exact, 256))))
    assert abs(approx - mid_rhs) <= 1e-12 * mid_rhs


@pytest.mark.parametrize("precision", TABLE_PRECISIONS)
def test_rhs_constants_table_is_bit_equal_to_fresh_intervals(precision):
    table = bounds._rhs_consts(precision)
    fresh = {
        "lead": bounds.RHS_LEAD,
        "g_shift": bounds.RHS_G_SHIFT,
        "shift": bounds.RHS_SHIFT,
        "l_coeff": bounds.RHS_L_COEFF,
        "log_coeff": bounds.RHS_LOG_COEFF,
        "sq_coeff": bounds.RHS_SQ_COEFF,
        "l_shift": bounds.RHS_L_SHIFT,
        "slope": L_SLOPE,
        "one": 1,
        "two": 2,
    }
    expected = {name: RInterval(c, precision=precision) for name, c in fresh.items()}
    expected["ln2"] = RInterval(2, precision=precision).ln()
    assert sorted(expected) == sorted(table._fields)
    for name, iv in expected.items():
        got = getattr(table, name)
        assert got.precision == precision
        assert got.exact_ends() == iv.exact_ends(), name
