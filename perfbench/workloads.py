"""The benchmark's workloads: seeded argv streams and the independent
checks every output must pass.

A workload yields *rounds*: lists of ``tripow`` argv whose strata are
the same for every seed and whose values the seed jitters.  An untraced
run times ``pass_rounds`` rounds, fixed by the seed, in whole passes, so
every argv is timed equally often whatever the host speed.

Checks run after timing, never inside a timed call, and compare each
output with a route that does not go through the code being timed:
the unpruned reference solver, the benchmark's own pair enumeration,
the crossover bracket re-checked against the right-hand side written
out again in mpmath, and K, L and ln b recomputed from their formulas.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath


@dataclass
class Op:
    argv: list
    work: int = 1  # work units: pairs for scan, calls otherwise
    info: dict = field(default_factory=dict)


class Workload:
    name = ""
    work_unit = "calls"
    pass_rounds = 1  # rounds in the fixed list every pass of an untraced run makes
    trace_rounds = 1  # rounds in the fixed list a traced run measures
    jobs = 1  # processes the program runs per timed call

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self.check_rng = random.Random(f"{self.name}:check:{seed}")

    def reference_solutions(self, m: int, n: int, cap: int) -> list:
        """(x, y, z) of every solution with exponents <= cap, by the unpruned solver."""
        from tripow.search import find_solutions_unpruned
        from tripow.triples import PrimPair

        recs = find_solutions_unpruned(PrimPair(m, n), cap)
        return [(r.sol.x, r.sol.y, r.sol.z) for r in recs]

    def rounds(self):
        while True:
            yield self.make_round()

    def make_round(self) -> list:
        raise NotImplementedError

    def extra_ops(self) -> list:
        """Untimed calls that only serve a cross-check."""
        return []

    def _ops(self, n_rounds: int) -> list:
        rounds = self.rounds()
        return [op for _ in range(n_rounds) for op in next(rounds)]

    def pass_ops(self) -> list:
        """The fixed, seed-determined list of calls an untraced run times."""
        return self._ops(self.pass_rounds)

    def trace_ops(self) -> list:
        """The fixed, seed-determined list of calls a traced run measures."""
        return self._ops(self.trace_rounds)

    def parallel_ops(self) -> list:
        """Untraced calls a traced run compares with trace_ops for parallel speed-up."""
        return []

    def check(self, op: Op, code, out: str) -> str | None:
        """None when the output is correct, else what is wrong with it."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# scan: one fixed range sweep at a large cap


SCAN_M_MAX = 40
SCAN_CAP = 40
SCAN_SAMPLE = 40


def primitive_pairs(m_max: int) -> list:
    return [
        (m, n)
        for m in range(2, m_max + 1)
        for n in range(1, m)
        if (m - n) % 2 == 1 and math.gcd(m, n) == 1
    ]


class Scan(Workload):
    """``scan --m-max 40 --cap 40``: search.find_solutions and exact checks."""

    name = "scan"
    work_unit = "pairs"
    pass_rounds = 4
    trace_rounds = 3

    def __init__(self, seed):
        super().__init__(seed)
        self.pairs = primitive_pairs(SCAN_M_MAX)
        self._first = None
        self._verdicts: dict = {}

    def op(self, jobs: int) -> Op:
        argv = ["scan", "--m-max", str(SCAN_M_MAX), "--cap", str(SCAN_CAP),
                "--jobs", str(jobs), "--format", "json"]
        return Op(argv, work=len(self.pairs))

    def make_round(self):
        return [self.op(self.jobs)]

    def extra_ops(self):
        return [self.op(2 if self.jobs == 1 else 1)]

    def trace_ops(self):
        # forked --jobs 2 workers would take their spans with them
        return [self.op(1)] * self.trace_rounds

    def parallel_ops(self):
        return [self.op(2)] * self.trace_rounds

    def check(self, op, code, out):
        # the report must not depend on the worker count or the repeat
        if self._first is None:
            self._first = out
        elif out != self._first:
            return "scan report differs between calls (jobs or repeat)"
        if out not in self._verdicts:
            self._verdicts[out] = self._validate(out)
        err, want_code = self._verdicts[out]
        if err is None and code != want_code:
            err = f"exit code {code}, expected {want_code}"
        return err

    def _validate(self, out):
        rep = json.loads(out)
        res = rep["results"]
        if rep["inputs"] != {"m_max": SCAN_M_MAX, "cap": SCAN_CAP}:
            return "inputs echoed wrongly", None
        if res["pairs_scanned"] != len(self.pairs):
            return f"pairs_scanned {res['pairs_scanned']} != {len(self.pairs)}", None
        found = {}
        for s in res["non_trivial"]:
            found.setdefault((s["m"], s["n"]), []).append((s["x"], s["y"], s["z"]))
        # (2, 2, 2) solves every pair, so the total is fixed by the non-trivial list
        if res["solutions_found"] != len(self.pairs) + len(res["non_trivial"]):
            return "solutions_found disagrees with non_trivial", None
        want_exc = [s for s in res["non_trivial"]
                    if s["x"] % 2 == 0 and s["y"] % 2 == 0 and s["z"] % 2 == 0]
        if res["exceptional"] != want_exc:
            return "exceptional list is not the all-even non-trivial solutions", None
        for m, n in self.check_rng.sample(self.pairs, SCAN_SAMPLE):
            ref = [s for s in self.reference_solutions(m, n, SCAN_CAP) if s != (2, 2, 2)]
            if found.get((m, n), []) != ref:
                return f"non_trivial for ({m},{n}) differs from the reference solver", None
        return None, (1 if res["non_trivial"] else 0)


class ScanJobs2(Scan):
    """The same sweep with ``--jobs 2``."""

    name = "scan-jobs2"
    jobs = 2


# ---------------------------------------------------------------------------
# dossier: verify over random primitive pairs


DOSSIER_M_MAX = 2000
DOSSIER_CAP = 30  # the CLI default
DOSSIER_STRATA = 16


class Dossier(Workload):
    """``verify --m M --n N``: residues, triples and per-pair solver setup."""

    name = "dossier"
    pass_rounds = 40
    trace_rounds = 50

    def _pair(self, lo: int, hi: int) -> tuple:
        rng = self.rng
        while True:
            m = rng.randint(lo, hi)
            n = rng.randint(1, m - 1)
            if (m - n) % 2 == 1 and math.gcd(m, n) == 1:
                return m, n

    def make_round(self):
        width = (DOSSIER_M_MAX - 3) // DOSSIER_STRATA
        ops = []
        for k in range(DOSSIER_STRATA):
            m, n = self._pair(3 + k * width, 3 + (k + 1) * width)
            argv = ["verify", "--m", str(m), "--n", str(n), "--format", "json"]
            ops.append(Op(argv, info={"m": m, "n": n}))
        return ops

    def check(self, op, code, out):
        m, n = op.info["m"], op.info["n"]
        res = json.loads(out)["results"]
        if res["triple"] != {"a": m * m - n * n, "b": 2 * m * n, "c": m * m + n * n}:
            return "wrong triple"
        ref = self.reference_solutions(m, n, DOSSIER_CAP)
        want = [
            {"x": x, "y": y, "z": z,
             "exceptional": x % 2 == 0 and y % 2 == 0 and z % 2 == 0 and (x, y, z) != (2, 2, 2)}
            for x, y, z in ref
        ]
        if res["solutions"] != want:
            return f"solutions for ({m},{n}) differ from the reference solver"
        trivial_only = ref == [(2, 2, 2)]
        if res["only_trivial"] != trivial_only:
            return "only_trivial is wrong"
        if code != (0 if trivial_only else 1):
            return f"exit code {code}"
        return None


# ---------------------------------------------------------------------------
# threshold: certify or refute t^q > RHS beyond a point


# theorem -> (form, log10 m near the crossover, default exponent of --at)
THEOREMS = {
    "1.2": (Fraction(3, 5), 99820, 109948),
    "1.3": (Fraction(2, 3), 20580, 22933),
}
PRECISIONS = (128, 256, 384)


def _rhs_reference(t):
    """The final inequality's corrected right-hand side, written out in mpmath."""
    s = t + mpmath.log(2)
    ln_s = mpmath.log(s)
    G = ln_s + mpmath.mpf("2.139")
    Lp = mpmath.mpf(45) / 62 * ln_s + mpmath.mpf("1.56")
    return (
        mpmath.mpf("7.482") * G**2 * (1 + 70 / s)
        + mpmath.mpf(31) / 15 * Lp / t
        + (mpmath.log(mpmath.mpf("6.29") * Lp) + mpmath.mpf("0.7") * Lp**2 * (t + 70)) / t
    )


class Threshold(Workload):
    """``threshold --theorem T --precision-bits P --at X``: RInterval and bounds."""

    name = "threshold"
    pass_rounds = 6
    trace_rounds = 6

    def __init__(self, seed):
        super().__init__(seed)
        self._brackets: dict = {}

    def make_round(self):
        rng = self.rng
        ops = []
        for theorem, (form, cross, default) in THEOREMS.items():
            mid = (cross + default) // 2
            # two certifying strata above the crossover, one refuted stratum below
            ranges = ((cross + 3, mid), (mid, default + 3), (cross // 2, cross * 9 // 10))
            for prec in PRECISIONS:
                for lo, hi in ranges:
                    mant, exp10 = rng.randint(1, 9), rng.randint(lo, hi)
                    argv = ["threshold", "--theorem", theorem, "--precision-bits", str(prec),
                            "--at", f"{mant}e{exp10}", "--format", "json"]
                    ops.append(Op(argv, info={"theorem": theorem, "prec": prec,
                                              "mant": mant, "exp10": exp10}))
        return ops

    def _bracket(self, theorem: str, prec: int):
        key = (theorem, prec)
        if key not in self._brackets:
            from tripow.bounds import crossover

            form = THEOREMS[theorem][0]
            b = crossover(form, precision=prec)
            lo, hi = b.lo, b.hi
            with mpmath.workdps(60):
                q = mpmath.mpf(form.numerator) / form.denominator
                ok = lo**q < _rhs_reference(lo) and hi**q > _rhs_reference(hi)
            self._brackets[key] = (lo, hi, ok)
        return self._brackets[key]

    def check(self, op, code, out):
        info = op.info
        lo, hi, ok = self._bracket(info["theorem"], info["prec"])
        if not ok:
            return "crossover bracket disagrees with the reference right-hand side"
        with mpmath.workdps(60):
            t = info["exp10"] * mpmath.log(10) + mpmath.log(info["mant"])
            above = t > hi
            if not above and not t < lo:
                return "point falls inside the crossover bracket"
        res = json.loads(out)["results"]
        if res["certificate"]["verdict"] != above:
            return f"verdict {res['certificate']['verdict']} on the {'upper' if above else 'lower'} side"
        if code != (0 if above else 1):
            return f"exit code {code}"
        return None


# ---------------------------------------------------------------------------
# laurent: the two-logarithm condition check


# (bprime range, a2 range): L = 3, 6 and 9 with K near 13k, 24k and 33k.
# A call's cost grows with K, which is proportional to a2; the narrow a2
# ranges keep each stratum's K within 3%, so that the seed moves the
# median and slowest of a run's three calls little.
LAURENT_STRATA = (
    ((0.10, 0.25), (1270, 1300)),
    ((4.1, 16.0), (1170, 1200)),
    ((260.0, 990.0), (1070, 1100)),
)


def laurent_reference(a2: str, bprime: str) -> tuple:
    """(L, K) of the corollary's instance, from their formulas in mpmath."""
    mpf = mpmath.mpf
    with mpmath.workdps(60):
        L = max(3, int(mpmath.floor(mpf(45) / 62 * (mpmath.log(mpf(bprime)) + mpf("5.49")))) + 1)
        a1 = mpmath.exp(mpf("3.1")) * mpmath.pi
        K = 1 + int(mpmath.floor(mpf("0.04927") * L * a1 * mpf(a2)))
    return L, K


def ln_b_reference(inst: dict) -> float:
    """ln b from the instance's fields, with sum_{k<K} ln k! from math.lgamma."""
    K, R, S = inst["K"], inst["R"], inst["S"]
    lead = ((R - 1) * inst["b2"] + (S - 1) * inst["b1"]) / 2
    total = math.fsum(math.lgamma(k + 1) for k in range(1, K))
    return math.log(lead) - total * 2 / (K * K - K)


class Laurent(Workload):
    """``laurent --a2 A --bprime B``: the K-term ln b sum and its callers."""

    name = "laurent"
    trace_rounds = 1

    def make_round(self):
        rng = self.rng
        ops = []
        for (b_lo, b_hi), (a_lo, a_hi) in LAURENT_STRATA:
            a2 = f"{rng.uniform(a_lo, a_hi):.2f}"
            bprime = f"{rng.uniform(b_lo, b_hi):.3f}"
            argv = ["laurent", "--a2", a2, "--bprime", bprime, "--format", "json"]
            ops.append(Op(argv, info={"a2": a2, "bprime": bprime}))
        return ops

    def check(self, op, code, out):
        res = json.loads(out)["results"]
        L, K = laurent_reference(op.info["a2"], op.info["bprime"])
        inst = res["instance"]
        if res["L"] != L or inst["L"] != L or inst["K"] != K:
            return f"L, K = {inst['L']}, {inst['K']}; expected {L}, {K}"
        ref = ln_b_reference(inst)
        tol = 1e-9 * max(1.0, abs(ref))
        if not float(inst["ln_b"]["lo"]) - tol <= ref <= float(inst["ln_b"]["hi"]) + tol:
            return "ln_b interval misses the lgamma reference"
        if not res["condition_holds"] or not all(res["rechecks"].values()) or code != 0:
            return f"condition or rechecks failed (exit code {code})"
        return None


WORKLOADS = {w.name: w for w in (Scan, ScanJobs2, Dossier, Threshold, Laurent)}
