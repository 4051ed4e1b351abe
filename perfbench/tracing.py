"""Span tracing around tripow's public functions, installed from outside.

Nothing inside ``src/`` is instrumented.  ``Tracer.install`` replaces
each traced function with a wrapper in its defining module and in
every ``tripow`` module that imported it by name (``from .x import y``
copies the binding, so patching only the defining module would let
calls through ``cli`` bypass the wrapper).  Methods are patched on
their class.  ``Tracer.uninstall`` puts every original back.

A span is (name id, start, end, parent span index, CLI call id).  All
spans stay in memory; ``Tracer.summary`` folds them into per-layer
call counts and self times (span time minus the time covered by child
spans), and ``Tracer.dump`` writes them out when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import Counter
from fractions import Fraction

# (module, attribute, span name)
FUNCTIONS = (
    ("search", "find_solutions", "search.find_solutions"),
    ("numerics", "perfect_power_exponent", "numerics.perfect_power_exponent"),
    ("residues", "quadratic_sieve", "residues.quadratic_sieve"),
    ("residues", "parity_engine", "residues.parity_engine"),
    ("residues", "quartic_symbol", "residues.quartic_symbol"),
    ("residues", "jacobi", "residues.jacobi"),
    ("triples", "exclusion_conditions", "triples.exclusion_conditions"),
    ("triples", "two_adic_profile", "triples.two_adic_profile"),
    ("bounds", "certify_threshold", "bounds.certify_threshold"),
    ("bounds", "crossover", "bounds.crossover"),
    ("bounds", "threshold_rhs", "bounds.threshold_rhs"),
    ("bounds", "y_upper_bound", "bounds.y_upper_bound"),
    ("bounds", "laurent_check", "bounds.laurent_check"),
    ("bounds", "two_log_instance", "bounds.two_log_instance"),
    ("bounds", "lemma_parameter_rechecks", "bounds.lemma_parameter_rechecks"),
    ("cli", "_emit", "cli.emit"),
)

# Every RInterval operation shares one span name.
RINTERVAL_METHODS = (
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
    "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__pow__",
    "ln", "exp", "sqrt", "pow_frac", "pi", "e_const",
)

ROOT = "cli"

# Layer metrics reported by a traced run: metric name -> span name.
CALL_METRICS = {
    "search.find_solutions.calls": "search.find_solutions",
    "numerics.perfect_power_exponent.calls": "numerics.perfect_power_exponent",
    "numerics.rinterval.ops": "numerics.rinterval",
    "residues.quadratic_sieve.calls": "residues.quadratic_sieve",
    "residues.parity_engine.calls": "residues.parity_engine",
    "residues.quartic_symbol.calls": "residues.quartic_symbol",
    "residues.jacobi.calls": "residues.jacobi",
    "triples.exclusion_conditions.calls": "triples.exclusion_conditions",
    "bounds.certify_threshold.calls": "bounds.certify_threshold",
    "bounds.threshold_rhs.calls": "bounds.threshold_rhs",
    "bounds.ln_b.calls": "bounds.ln_b",
    "cli.calls": ROOT,
}
SELF_METRICS = {
    "search.find_solutions.self_s": "search.find_solutions",
    "numerics.perfect_power_exponent.self_s": "numerics.perfect_power_exponent",
    "numerics.rinterval.self_s": "numerics.rinterval",
    "residues.quadratic_sieve.self_s": "residues.quadratic_sieve",
    "residues.parity_engine.self_s": "residues.parity_engine",
    "residues.quartic_symbol.self_s": "residues.quartic_symbol",
    "residues.jacobi.self_s": "residues.jacobi",
    "triples.exclusion_conditions.self_s": "triples.exclusion_conditions",
    "triples.two_adic_profile.self_s": "triples.two_adic_profile",
    "bounds.certify_threshold.self_s": "bounds.certify_threshold",
    "bounds.crossover.self_s": "bounds.crossover",
    "bounds.y_upper_bound.self_s": "bounds.y_upper_bound",
    "bounds.ln_b.self_s": "bounds.ln_b",
    "bounds.laurent_check.self_s": "bounds.laurent_check",
    "bounds.two_log_instance.self_s": "bounds.two_log_instance",
    "bounds.lemma_parameter_rechecks.self_s": "bounds.lemma_parameter_rechecks",
    "cli.emit_self_s": "cli.emit",
    "cli.other_self_s": ROOT,
}
# Counts that must repeat exactly for a given seed.
EXACT_COUNTS = (
    "search.exact_checks",
    "bounds.ln_b.calls",
    "bounds.threshold.segments",
    "numerics.rinterval.ops",
    "residues.quadratic_sieve.calls",
    "residues.parity_engine.calls",
    "residues.quartic_symbol.calls",
    "residues.jacobi.calls",
)


def _count_solutions(tracer, args, result):
    tracer.counters["search.solutions"] += len(result)


def _count_applicable(tracer, args, result):
    tracer.counters["residues.parity_engine.applicable"] += bool(result.applicable)


def _count_segments(tracer, args, result):
    tracer.counters["bounds.threshold.segments"] += result.segments


def _count_terms(tracer, args, result):
    tracer.counters["bounds.ln_b.terms"] += args[0].K - 2


def _count_from_fraction(tracer, args, result):
    if any(isinstance(a, Fraction) for a in args[1:3]):
        tracer.counters["numerics.rinterval.from_fraction.calls"] += 1


def _count_exact_check(tracer, args, result):
    tracer.counters["search.exact_checks"] += 1


AFTER = {
    "search.find_solutions": _count_solutions,
    "residues.parity_engine": _count_applicable,
    "bounds.certify_threshold": _count_segments,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.calls = 0
        self._undo: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, after=None):
        nid = self._id(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, self.calls)
            if after is not None:
                after(self, args, result)
            return result

        wrapper.__perfbench_wrapper__ = True
        return wrapper

    def traced(self, main):
        """main wrapped in the root span of one CLI call."""
        root = self.wrap(main, ROOT)

        def call(argv):
            self.calls += 1
            return root(argv)

        return call

    # -- install / uninstall ------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        mods = _tripow_modules()
        for mod_name, attr, name in FUNCTIONS:
            orig = getattr(mods[mod_name], attr)
            wrapper = self.wrap(orig, name, AFTER.get(name))
            for mod in mods.values():
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        if mod_name == "numerics" and mod is mods["search"]:
                            # calls from search are its exact big-int checks
                            self._set(mod, key, self.wrap(orig, name, _count_exact_check))
                        else:
                            self._set(mod, key, wrapper)
        inst = mods["bounds"].LaurentInstance
        self._set(inst, "ln_b", self.wrap(inst.__dict__["ln_b"], "bounds.ln_b", _count_terms))
        rint = mods["numerics"].RInterval
        for meth in RINTERVAL_METHODS:
            raw = rint.__dict__[meth]
            after = _count_from_fraction if meth == "__init__" else None
            if isinstance(raw, staticmethod):
                self._set(rint, meth, staticmethod(self.wrap(raw.__func__, "numerics.rinterval")))
            else:
                self._set(rint, meth, self.wrap(raw, "numerics.rinterval", after))

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- results ------------------------------------------------------------

    def summary(self, slowdown: dict) -> dict:
        """Per-layer calls, self times and counters from the recorded spans.

        Times are divided by the host slowdown of the CLI call they belong
        to (``slowdown`` maps call id to factor), like the end-to-end times.
        """
        n = len(self.names)
        child = [0.0] * len(self.spans)
        self_s = [0.0] * n
        calls = [0] * n
        root_s = 0.0
        for i in range(len(self.spans) - 1, -1, -1):
            nid, t0, t1, parent, call = self.spans[i]
            dur = (t1 - t0) / slowdown[call]
            if parent >= 0:
                child[parent] += dur
            else:
                root_s += dur
            self_s[nid] += dur - child[i]
            calls[nid] += 1
        by_name_self = {self.names[i]: self_s[i] for i in range(n)}
        by_name_calls = {self.names[i]: calls[i] for i in range(n)}
        out = {m: by_name_calls.get(s, 0) for m, s in CALL_METRICS.items()}
        out.update({m: by_name_self.get(s, 0.0) for m, s in SELF_METRICS.items()})
        c = self.counters
        for key in (
            "search.exact_checks",
            "numerics.rinterval.from_fraction.calls",
            "bounds.threshold.segments",
            "bounds.ln_b.terms",
        ):
            out[key] = c[key]
        out["search.exact_check_yield"] = _ratio(c["search.solutions"], c["search.exact_checks"])
        out["residues.parity_engine.applicable_ratio"] = _ratio(
            c["residues.parity_engine.applicable"], out["residues.parity_engine.calls"]
        )
        out["trace.total_s"] = root_s
        out["trace.self_sum_s"] = sum(self_s)
        return out

    def dump(self, path):
        base = self.spans[0][1] if self.spans else 0.0
        doc = {
            "fields": ["name", "start_s", "end_s", "parent", "call"],
            "names": self.names,
            "spans": [
                [nid, round(t0 - base, 9), round(t1 - base, 9), parent, call]
                for nid, t0, t1, parent, call in self.spans
            ],
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _tripow_modules() -> dict:
    import tripow.cli  # noqa: F401  (loads every module)

    return {
        name.split(".", 1)[1]: mod
        for name, mod in sys.modules.items()
        if name.startswith("tripow.")
    }


def installed_wrappers() -> list[str]:
    """Names of tripow bindings that are still tracing wrappers."""
    found = []
    for mod_name, mod in _tripow_modules().items():
        for key, val in vars(mod).items():
            if getattr(val, "__perfbench_wrapper__", False):
                found.append(f"{mod_name}.{key}")
            if isinstance(val, type):
                for attr, raw in vars(val).items():
                    fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                    if getattr(fn, "__perfbench_wrapper__", False):
                        found.append(f"{mod_name}.{key}.{attr}")
    return found
