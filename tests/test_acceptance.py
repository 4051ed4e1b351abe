"""Acceptance gate: every stated criterion, one test and one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Criterion 7 checks the minor parameter counts against their own formula
and certifies an erratum in the stated ones.  At the hypothesis floor
(L = 3, a2 = 1000 + a1, a1 = e^3.1 pi) the formula K = 1 + floor(kappa L
a1 a2) with kappa = 0.04927 gives K = 11027 and N = K L = 33081, not the
stated K >= 11030 and N > 33090.  No admissible kappa reaches those: the
leading constant 3.741 is a valid bound only while mu ln(rho) kappa
(45/62)^2 a1 <= 3.741, and at the largest such kappa the formula gives
K <= 11028.  What the counts must deliver, epsilon(N) < 0.0011, holds at
N = 33081, and epsilon's majorant is decreasing, so it holds for every
larger a2 or L as well.
"""

import math
import random
import time
from fractions import Fraction

from mpmath.ctx_iv import MPIntervalContext
from mpmath.libmp import to_rational
from test_residues import definitional_quartic, jacobi_oracle, _make_primary, _split_prime_parts

from sympy import factorint, isprime

from tripow.bounds import (
    KAPPA,
    L_SLOPE,
    MU,
    RHO_LOG,
    TwoLogInputs,
    certify_threshold,
    crossover,
    laurent_epsilon,
    ordering_predicates,
    two_log_instance,
)
from tripow.numerics import GaussianInt, RInterval, g_pow
from tripow.residues import QuarticValue, jacobi, parity_engine, parity_feasible, quartic_symbol
from tripow.search import (
    ExponentTriple,
    find_solutions,
    find_solutions_unpruned,
    gaussian_power_structure,
    scan_range,
)
from tripow.triples import PrimPair, iter_pairs, min_c_scan, triple_of


def verdict(num: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num}: {status} - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_smallest_pairs():
    start = time.monotonic()
    bad = []
    for mn in [(2, 1), (3, 2), (4, 3), (5, 4), (6, 5)]:
        sols = [(r.sol.x, r.sol.y, r.sol.z) for r in find_solutions(PrimPair(*mn), 40)]
        if sols != [(2, 2, 2)]:
            bad.append((mn, sols))
    elapsed = time.monotonic() - start
    verdict(
        1,
        not bad and elapsed < 10,
        f"five smallest pairs, cap 40: only (2,2,2) found in {elapsed:.2f}s"
        + (f"; deviations {bad}" if bad else ""),
    )


def test_criterion_2_range_scan_and_route_agreement():
    start = time.monotonic()
    rep = scan_range(60, 40, jobs=4)
    mismatch = []
    for p in iter_pairs(20):
        a = [(r.sol.x, r.sol.y, r.sol.z) for r in find_solutions(p, 20)]
        b = [(r.sol.x, r.sol.y, r.sol.z) for r in find_solutions_unpruned(p, 20)]
        if a != b:
            mismatch.append((p.m, p.n))
    elapsed = time.monotonic() - start
    ok = not rep["non_trivial"] and not mismatch and elapsed < 300
    verdict(
        2,
        ok,
        f"{rep['pairs_scanned']} pairs m<=60 cap 40: zero non-trivial solutions; "
        f"pruned and reference routes agree on all pairs m<=20 cap 20 ({elapsed:.1f}s)",
    )


def test_criterion_3_smallest_surviving_hypotenuse():
    got = min_c_scan(1000)
    want = (185, {(13, 4), (11, 8)})
    verdict(3, got == want, f"min_c_scan(1000) == {got}")


def test_criterion_4_symbol_oracles():
    jac_bad = 0
    for n in range(3, 2000, 2):
        factors = factorint(n)
        for a in range(n):
            if jacobi(a, n) != jacobi_oracle(a, factors):
                jac_bad += 1

    rng = random.Random(404)
    split = [p for p in range(5, 10**6, 4) if isprime(p)]
    inert = [q for q in range(3, 1000, 4) if isprime(q)]
    quartic_bad = 0
    checked = 0
    while checked < 100:
        if rng.random() < 0.7:
            p = rng.choice(split)
            s, t = _split_prime_parts(p)
            pi = _make_primary(GaussianInt(s, t))
        else:
            pi = _make_primary(GaussianInt(rng.choice(inert), 0))
        a = GaussianInt(rng.randrange(-50, 51), rng.randrange(-50, 51))
        if a.is_zero() or math.gcd(a.norm(), pi.norm()) != 1:
            continue
        if quartic_symbol(a, pi).k != definitional_quartic(a, pi):
            quartic_bad += 1
        checked += 1

    chain_bad = 0
    pairs = 0
    minus_one = GaussianInt(-1, 0)
    for m in range(4, 201, 8):
        for n in range(1, 201, 8):
            if math.gcd(m, n) != 1:
                continue
            pairs += 1
            mod = GaussianInt(n, -m)
            if not (
                quartic_symbol(GaussianInt(0, 1), mod) == QuarticValue(0)
                and quartic_symbol(minus_one, mod) == QuarticValue(0)
                and quartic_symbol(2, mod) == QuarticValue(2)
            ):
                chain_bad += 1

    ok = jac_bad == 0 and quartic_bad == 0 and chain_bad == 0
    verdict(
        4,
        ok,
        f"jacobi matches factored Euler oracle on all odd n < 2000 ({jac_bad} bad); "
        f"quartic matches definitional character on {checked} primary primes "
        f"({quartic_bad} bad); unit/2 symbol values hold on {pairs} pair moduli "
        f"({chain_bad} bad)",
    )


def test_criterion_5_parity_engine():
    expected = {
        "odd=1(8), even=4(8)": ("mod4-x-even", "quartic-chain-x-eq-y", "sum-mod8-5-y-eq-z"),
        "odd=3(8), even=4(8)": ("sum-mod8-7-y-even", "mod16-x-z-even"),
        "odd=3(8), even=0(8)": ("mod4-x-even", "sum-mod8-3-z-even", "diff-mod8-5-y-eq-z"),
        "odd=5(8)": ("mod16-x-z-even", "power-split-y-even"),
        "odd=7(8), even=4(8)": ("mod4-x-even", "sum-mod8-3-z-even", "diff-mod8-5-y-eq-z"),
    }
    applicable = 0
    bad = []
    soundness_checks = 0
    for p in iter_pairs(120):
        v = parity_engine(p)
        if not v.applicable:
            continue
        applicable += 1
        if p.even_member != p.m:
            bad.append((p.m, p.n, "applicable with the even member n"))
        if not v.all_even or v.rule_ids != expected.get(v.case):
            bad.append((p.m, p.n, v.case, v.rule_ids))
            continue
        for rec in find_solutions(p, 30):
            if rec.sol.y > 1:
                soundness_checks += 1
                if not all(
                    c.satisfied_by(rec.sol.x, rec.sol.y, rec.sol.z)
                    for c in v.constraints
                ):
                    bad.append((p.m, p.n, "solution violates constraints"))
    feas = parity_feasible(7, 9, 16)
    ok = not bad and applicable > 0 and feas == {("even", "even")} and soundness_checks > 0
    verdict(
        5,
        ok,
        f"{applicable} applicable pairs m<=120: all-even verdicts with the expected "
        f"rule chains; {soundness_checks} found solutions satisfy every constraint; "
        f"7^x = 9^z (mod 16) admits only even exponents"
        + (f"; deviations {bad[:3]}" if bad else ""),
    )


def test_criterion_6_gaussian_power_structure():
    rng = random.Random(606)
    done = 0
    failures = 0
    while done < 500:
        a1 = rng.randrange(-999, 1000)
        b1 = rng.randrange(-999, 1000)
        if a1 == 0 or b1 == 0 or math.gcd(a1, b1) != 1 or (a1 - b1) % 2 == 0:
            continue
        if a1 * a1 + b1 * b1 > 10**6:
            continue
        Z = rng.choice([1, 3, 5, 7, 9, 11, 13, 15])
        if not gaussian_power_structure(a1, b1, Z)["ok"]:
            failures += 1
        done += 1
    verdict(6, failures == 0, f"500 random odd powers: {failures} structure failures")


def _decided_floor(x) -> int:
    """Floor of an mpmath interval, which both endpoints must agree on."""
    lo, hi = (math.floor(Fraction(*to_rational(e))) for e in x._mpi_)
    assert lo == hi, f"floor undecided on {x}"
    return lo


def test_criterion_7_corollary_constants_and_parameter_counts():
    prec = 200
    a1 = TwoLogInputs(RInterval(1100, precision=prec), RInterval(10, precision=prec)).a1

    lead = RInterval(MU * RHO_LOG * KAPPA * L_SLOPE * L_SLOPE, precision=prec) * a1
    lead_ok = RInterval(Fraction(3740, 1000), precision=prec).strictly_less(
        lead
    ) and lead.strictly_less(RInterval(Fraction(3742, 1000), precision=prec))

    mid = RInterval(KAPPA, precision=prec).sqrt()
    mid_ok = RInterval(Fraction(2215, 10000), precision=prec).strictly_less(
        mid
    ) and mid.strictly_less(RInterval(Fraction(2225, 10000), precision=prec))

    # K = 1 + floor(kappa L a1 a2) at the hypothesis floor L = 3,
    # a2 = 1000 + a1, derived from the stated constants on a private
    # interval context, apart from two_log_instance and RInterval.
    iv = MPIntervalContext()
    iv.prec = prec
    a1_iv = iv.exp(iv.mpf(31) / 10) * iv.pi

    def k_at_floor(kappa) -> int:
        return 1 + _decided_floor(kappa * 3 * a1_iv * (1000 + a1_iv))

    k_derived = k_at_floor(iv.mpf(4927) / 100000)
    # 3.741 bounds mu ln(rho) kappa (45/62)^2 a1 only up to this kappa, and
    # K grows with kappa, so no kappa that keeps 3.741 valid exceeds k_ceiling.
    kappa_max = iv.mpf(3741) / 1000 / (
        iv.mpf(2) / 3 * iv.mpf(31) / 10 * (iv.mpf(45) / 62) ** 2 * a1_iv
    )
    k_ceiling = k_at_floor(kappa_max)
    erratum_ok = k_derived <= k_ceiling <= 11028

    inst = two_log_instance(TwoLogInputs(
        RInterval(1000, precision=prec) + a1, RInterval(Fraction(6, 100), precision=prec)
    ))
    counts_ok = inst.L == 3 and inst.K == k_derived and inst.N == 3 * k_derived

    # epsilon's upper end is the majorant, which decreases in N, so this
    # also covers every larger a2 or L
    eps_ok = laurent_epsilon(inst.N, prec).strictly_less(
        RInterval(Fraction(11, 10000), precision=prec)
    )

    ok = lead_ok and mid_ok and counts_ok and eps_ok and erratum_ok
    verdict(
        7,
        ok,
        "3.741 and 0.222 certified within stated tolerances: "
        f"{lead_ok and mid_ok}; at the hypothesis floor L = {inst.L}, "
        f"K = {inst.K}, N = {inst.N}, derived from 1 + floor(kappa L a1 a2): "
        f"K = {k_derived}, N = {3 * k_derived}: {counts_ok}; "
        f"epsilon({inst.N}) < 0.0011: {eps_ok}; erratum: the stated "
        f"K >= 11030, N > 33090 are unreachable, since 3.741 caps "
        f"K <= {k_ceiling}: {erratum_ok}",
    )


def test_criterion_8_threshold_certificates():
    start = time.monotonic()
    ln10 = RInterval(10, precision=256).ln()

    cert1 = certify_threshold(Fraction(3, 5), RInterval(109948, precision=256) * ln10)
    cert2 = certify_threshold(Fraction(2, 3), RInterval(22933, precision=256) * ln10)

    x1 = crossover(Fraction(3, 5)) / ln10
    x2 = crossover(Fraction(2, 3)) / ln10
    band1 = 95000 < float(x1.lo) and float(x1.hi) < 109948
    band2 = 19000 < float(x2.lo) and float(x2.hi) < 22933
    elapsed = time.monotonic() - start
    ok = cert1.verdict and cert2.verdict and band1 and band2 and elapsed < 60
    verdict(
        8,
        ok,
        f"both final-inequality certificates verified at 256 bits; crossovers at "
        f"log10 m in [{float(x1.lo):.1f}, {float(x1.hi):.1f}] and "
        f"[{float(x2.lo):.1f}, {float(x2.hi):.1f}] inside the stated bands "
        f"({elapsed:.2f}s)",
    )


def test_criterion_9_identities_and_trivial_solution_safety():
    rng = random.Random(909)
    done = 0
    id_bad = 0
    while done < 100:
        m = rng.randrange(2, 500)
        n = rng.randrange(1, m)
        if math.gcd(m, n) != 1 or (m - n) % 2 == 0:
            continue
        t = triple_of(PrimPair(m, n))
        if t.c**2 - t.a**2 != t.b**2:
            id_bad += 1
        mod = t.b * t.b
        if any(pow(t.a, x, mod) != pow(t.c, x, mod) for x in (2, 4, 6)):
            id_bad += 1
        done += 1

    trivial = ExponentTriple(2, 2, 2)
    excluded = [
        (p.m, p.n)
        for p in iter_pairs(40)
        if ordering_predicates(p, trivial)["excluded"]
    ]
    ok = id_bad == 0 and not excluded
    verdict(
        9,
        ok,
        f"100 random pairs: c^2 - a^2 = b^2 and a^x = c^x (mod b^2) for even x "
        f"({id_bad} bad); ordering predicates exclude (2,2,2) on none of the "
        f"scanned pairs",
    )
