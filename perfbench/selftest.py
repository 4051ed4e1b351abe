"""Tests of the benchmark itself, kept out of the package's test suite.

Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import tracing
from workloads import WORKLOADS, Dossier, Laurent, Op, Scan, Threshold

sys.path.insert(0, str(run.SRC))
import tripow.cli  # noqa: E402


def _argvs(wl, rounds=3):
    it = wl.rounds()
    return [op.argv for _ in range(rounds) for op in next(it)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_argv(name):
    cls = WORKLOADS[name]
    assert _argvs(cls(7)) == _argvs(cls(7))
    if name not in ("scan", "scan-jobs2"):  # the sweep's input is fixed on purpose
        assert _argvs(cls(7)) != _argvs(cls(8))


def _small(cls, seed, n):
    """A workload whose traced list is cut to its first n calls."""
    wl = cls(seed)
    ops = wl.trace_ops()[:n]
    wl.trace_ops = lambda: ops
    wl.parallel_ops = lambda: []
    return wl


def _check_layer_sum(details):
    # the layer self times add up to the traced calls as timed from outside
    assert details["layer_self_sum_s"] == pytest.approx(details["traced_s"], rel=0.1)


@pytest.mark.parametrize("cls, n", [(Dossier, 24), (Threshold, 6), (Laurent, 1)])
def test_exact_counts_repeat(cls, n):
    counts = []
    for _ in range(2):
        wl = _small(cls, 3, n)
        metrics, failures, _, _, details, _ = run.run_traced(wl, tripow.cli.main)
        assert failures == []
        counts.append({k: metrics[k] for k in tracing.EXACT_COUNTS})
        _check_layer_sum(details)
        assert metrics["cli.calls"] == n
        if cls is Laurent:
            assert metrics["bounds.ln_b.self_s"] > 0.5 * details["traced_s"]
    assert counts[0] == counts[1]
    if cls is Laurent:
        assert counts[0]["bounds.ln_b.calls"] == 3 * n


def test_scan_is_mostly_find_solutions():
    metrics, failures, _, _, details, _ = run.run_traced(_small(Scan, 1, 1), tripow.cli.main)
    assert failures == []
    _check_layer_sum(details)
    assert metrics["search.find_solutions.self_s"] > 0.5 * details["traced_s"]


def test_no_wrapper_left_after_traced_run():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert "cli.find_solutions" in tracing.installed_wrappers()
        assert "numerics.RInterval.__add__" in tracing.installed_wrappers()
    finally:
        tracer.uninstall()
    assert tracing.installed_wrappers() == []
    wl = _small(Threshold, 1, 2)
    run.run_traced(wl, tripow.cli.main)
    assert tracing.installed_wrappers() == []


def test_traced_output_must_match_untraced(monkeypatch):
    traced = tracing.Tracer.traced

    def noisy(self, main):
        call = traced(self, main)

        def wrapped(argv):
            print(" ", end="")  # still valid JSON, so only the byte comparison sees it
            return call(argv)

        return wrapped

    monkeypatch.setattr(tracing.Tracer, "traced", noisy)
    _, failures, _, _, _, _ = run.run_traced(_small(Threshold, 1, 2), tripow.cli.main)
    assert len(failures) == 2
    assert all("differs from an earlier call" in f for f in failures)


def test_wrong_reference_is_caught():
    def wrong(m, n, cap):
        return [(2, 2, 2), (4, 4, 4)]

    for reference, want_failed in ((None, False), (wrong, True)):
        wl = Dossier(5)
        if reference is not None:
            wl.reference_solutions = reference
        ops = wl.make_round()[:4]
        records = [(op, run.invoke(tripow.cli.main, op.argv), None) for op in ops]
        failed = len(run.check_all(wl, records))
        assert (failed / len(records) > 0) is want_failed


def test_op_time_is_median_of_its_calls():
    ops = [Op([], work=2), Op([], work=2)]
    groups = [[{"t": 0.003}, {"t": 0.001}, {"t": 0.002}], [{"t": 0.004}, {"t": 0.005}]]
    got = run._timings(ops, groups, "t")
    assert (got["p50_ms"], got["tail_ms"], got["n"]) == (pytest.approx(3.25), pytest.approx(4.5), 2)
    assert got["work_per_s"] == pytest.approx(4 / 0.0065)


def test_repeat_that_differs_is_caught(monkeypatch):
    seen = []

    def flaky(argv):
        seen.append(argv)
        if seen.count(argv) == 2:
            print(" ", end="")  # the second call of each argv only
        return tripow.cli.main(argv)

    monkeypatch.setattr(run, "setup_probe",
                        lambda argv: dict(run.invoke(tripow.cli.main, argv), scaled=1.0))
    _, failures, _, _, details, _ = run.run_untraced(Threshold(1), flaky, 0.01)
    assert details["passes"] == run.MIN_PASSES
    assert len(failures) == details["ops_timed"] > 0
    assert all("repeat differs from the first call" in f for f in failures)


def test_tail_has_ten_samples_beyond():
    value, pct, n = run.tail([float(i) for i in range(1, 31)])
    assert (value, n) == (20.0, 30)
    assert pct == pytest.approx(100 * 20 / 30)


def test_fails_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    lines = proc.stdout.strip().splitlines()
    with pytest.raises((IndexError, ValueError)):
        json.loads(lines[-1])
