"""The benchmark's span tracer still finds every name it wraps.

``perfbench/tracing.py`` patches tripow from outside, by name: module
functions, ``LaurentInstance.ln_b`` and ``RInterval``'s operator methods,
and its ln_b hook reads the instance's ``K``.  A renamed or removed name
makes a traced benchmark run crash.  The tracer is loaded here from its
file, unchanged, and three CLI calls run through it.

The tracer patches names when it is installed, so a table that keeps a
patched object from before that would bypass it without a crash; a test
guards the threshold RHS constants table against that.  crossover's
bracket and the tail start are kept per (form, precision), so the tests
that count their RHS calls clear those caches before the traced run.
"""

import contextlib
import importlib.util
import io
from collections import Counter
from pathlib import Path

from tripow import bounds, cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

ARGV = (
    ["laurent", "--a2", "1100", "--bprime", "10", "--format", "json"],
    ["threshold", "--theorem", "1.3", "--format", "json"],
    ["verify", "--m", "13", "--n", "4", "--format", "json"],
)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(main, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def test_traced_calls_match_untraced_and_record_ln_b(threshold_caches):
    tracing = _load_tracing()
    untraced = [_run(cli.main, argv) for argv in ARGV]
    tracer = tracing.Tracer()
    call = tracer.traced(cli.main)
    threshold_caches()
    try:
        tracer.install()
        traced = [_run(call, argv) for argv in ARGV]
    finally:
        tracer.uninstall()
    assert tracing.installed_wrappers() == []
    assert [code for code, _ in untraced] == [0, 0, 0]
    assert traced == untraced
    ln_b = tracer.names.index("bounds.ln_b")
    assert any(span[0] == ln_b for span in tracer.spans)
    # crossover calls threshold_rhs through the module global, so the tracer sees it
    crossover = tracer.names.index("bounds.crossover")
    rhs = tracer.names.index("bounds.threshold_rhs")
    assert any(
        span[0] == rhs and tracer.spans[span[3]][0] == crossover
        for span in tracer.spans
        if span[3] >= 0
    )


def _rhs_child_ops(tracer) -> list[int]:
    """Interval operations recorded under each threshold_rhs span, in call order."""
    rhs = tracer.names.index("bounds.threshold_rhs")
    rint = tracer.names.index("numerics.rinterval")
    children = Counter(span[3] for span in tracer.spans if span[0] == rint)
    return [children[i] for i, span in enumerate(tracer.spans) if span[0] == rhs]


def _traced_rhs_ops(tracing, argv, build_table_traced: bool, clear_caches) -> list[int]:
    tracer = tracing.Tracer()
    call = tracer.traced(cli.main)
    clear_caches()
    try:
        tracer.install()
        if build_table_traced:
            bounds._rhs_consts.cache_clear()
        _run(call, argv)
    finally:
        tracer.uninstall()
    return _rhs_child_ops(tracer)


def test_rhs_table_built_before_tracing_hides_no_interval_op(threshold_caches):
    # the RHS constants are cached per precision; a table built before the
    # tracer was installed must not bypass its RInterval.ln wrapper
    tracing = _load_tracing()
    argv = ["threshold", "--theorem", "1.2", "--format", "json"]
    try:
        _run(cli.main, argv)  # warms the 256-bit table untraced
        warm = _traced_rhs_ops(tracing, argv, False, threshold_caches)
        cold = _traced_rhs_ops(tracing, argv, True, threshold_caches)
    finally:
        bounds._rhs_consts.cache_clear()
    assert len(warm) == len(cold) == 4 and all(warm)
    # the first call builds the cold table; the later ones must count the same ops
    assert warm[1:] == cold[1:]


def test_warm_threshold_call_certifies_only_its_own_point(monkeypatch):
    # a repeat (form, precision) reuses crossover's bracket and the tail
    # start, so its one RHS call is the sign at t0 and it evaluates no h
    tracing = _load_tracing()
    argv = ["threshold", "--theorem", "1.2", "--format", "json"]
    cold = _run(cli.main, argv)
    tail_calls = []
    real_tail_h = bounds._tail_h

    def counted_tail_h(*args):
        tail_calls.append(args)
        return real_tail_h(*args)

    monkeypatch.setattr(bounds, "_tail_h", counted_tail_h)
    tracer = tracing.Tracer()
    call = tracer.traced(cli.main)
    try:
        tracer.install()
        warm = _run(call, argv)
    finally:
        tracer.uninstall()
    assert warm == cold
    assert len(_rhs_child_ops(tracer)) == 1
    assert tail_calls == []
