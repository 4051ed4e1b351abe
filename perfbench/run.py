"""Benchmark of the tripow command line, run in-process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 12 --trace 0

Workloads: scan, scan-jobs2, dossier, threshold, laurent (see
perfbench/README.md).  Every call goes through ``tripow.cli.main(argv)``
with stdout captured, one caller in a closed loop, so import cost is
paid once and shows only in ``setup_s``.  Each output is checked against
an independent route outside the timed calls.  Timings are scaled to a
reference host speed (see hostspeed.py); raw times go to the result file.

``--trace 0`` measures the end-to-end metrics named in BENCHMARK.json;
``--trace 1`` runs a fixed, seed-determined list of calls once untraced
and once with spans around tripow's public functions, and reports the
per-layer metrics.  Human-readable lines come first; the last line of
stdout is one JSON object.  A result file with provenance goes to
perfbench/results/.  The exit code is 1 if any output was wrong, 2 if
the tripow sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hostspeed import HostSpeed
from tracing import EXACT_COUNTS, Tracer, installed_wrappers
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_REPEATS = 7
# an op's time is the median of at least three calls, so one slowed call never sets it
MIN_PASSES = 3
PROBE_TIMEOUT_S = 150


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def invoke(main, argv) -> dict:
    """One CLI call with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed op, not a benchmark crash
        code, error = None, f"raised {exc!r}"
    return {"dt": time.perf_counter() - t0, "code": code, "out": out.getvalue(), "error": error}


def setup_probe(argv) -> dict:
    """import tripow.cli plus one warm-up call, in a fresh interpreter.

    The probe scales itself by the host speed seen in that interpreter.
    """
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), json.dumps(argv)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    doc = json.loads(proc.stdout)
    return {"dt": doc["setup_s"], "slowdown": doc["slowdown"],
            "scaled": doc["setup_s"] / doc["slowdown"],
            "code": doc["code"], "out": doc["stdout"], "error": None}


def tail(times: list) -> tuple:
    """(value, percentile, n): the highest percentile with ten samples beyond it.

    A run with at most ten calls has no such percentile; it reports its
    slowest call (percentile 100).
    """
    xs = sorted(times)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def judge(wl, op, rec) -> str | None:
    if rec["error"]:
        return rec["error"]
    if rec["code"] == 2:
        return "exit code 2 (invalid input)"
    try:
        return wl.check(op, rec["code"], rec["out"])
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"


def check_all(wl, records) -> list:
    """Failure messages, one per failed op; records are (op, rec, same_as)."""
    failures = []
    for op, rec, same_as in records:
        err = judge(wl, op, rec)
        if err is None and same_as is not None and rec["out"] != same_as:
            err = "output differs from an earlier call of the same argv"
        if err is not None:
            failures.append(f"{' '.join(op.argv)}: {err}")
    return failures


def _outcome(rec) -> tuple:
    return rec["code"], hashlib.sha256(rec["out"].encode()).hexdigest(), rec["error"]


def _timings(ops: list, groups: list, key: str) -> dict:
    """p50, tail and throughput over ops; an op's time is the median of its calls."""
    times = [statistics.median(r[key] for r in group) for group in groups]
    tail_s, pct, n = tail(times)
    return {"p50_ms": 1000 * statistics.median(times), "tail_ms": 1000 * tail_s,
            "work_per_s": sum(op.work for op in ops) / sum(times),
            "tail_percentile": pct, "n": n}


# ---------------------------------------------------------------------------
# runs


def run_untraced(wl, main, seconds: float):
    """Returns metrics, failures, ops attempted, argv run, details, None."""
    warm_op = wl.make_round()[0]
    ops = wl.pass_ops()
    passes, failures, first = [], [], []
    measured = 0.0
    probes = [setup_probe(warm_op.argv) for _ in range(SETUP_REPEATS)]
    with HostSpeed() as hs:
        warm = invoke(main, warm_op.argv)
        # a one-shot CLI process never re-scans its import-time objects;
        # keep the loop's rare full collections from doing so either
        gc.collect()
        gc.freeze()
        # whole passes over one fixed list, so an op's calls lie a pass apart and
        # load that slows one pass leaves the others; stop when the next pass
        # would end over half a pass late, but not before MIN_PASSES
        while len(passes) < MIN_PASSES or measured + measured / len(passes) / 2 < seconds:
            t0 = time.perf_counter()
            recs = [hs.run(invoke, main, op.argv, pause=wl.jobs > 1) for op in ops]
            measured += time.perf_counter() - t0
            # checked between passes and dropped, so stored outputs do not grow RSS;
            # a later call must give the first call's exit code and output byte for byte
            outcomes = [_outcome(rec) for rec in recs]
            if not passes:
                failures += check_all(wl, [(op, rec, None) for op, rec in zip(ops, recs)])
                first = outcomes
            failures += [f"{' '.join(op.argv)}: repeat differs from the first call"
                         for op, got, want in zip(ops, outcomes, first) if got != want]
            for rec in recs:
                del rec["out"]
            passes.append(recs)
    groups = [list(group) for group in zip(*passes)]
    recs = hs.scale([rec for group in groups for rec in group])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    extras = [(op, invoke(main, op.argv), None) for op in wl.extra_ops()]
    failures += check_all(wl, [(warm_op, p, warm["out"]) for p in probes])
    failures += check_all(wl, [(warm_op, warm, None)] + extras)
    attempted = len(probes) + 1 + len(recs) + len(extras)

    scaled, raw = _timings(ops, groups, "scaled"), _timings(ops, groups, "dt")
    metrics = {
        "setup_s": statistics.median(p["scaled"] for p in probes),
        "peak_rss_mb": peak_rss_mb,
        "p50_ms": scaled["p50_ms"],
        "tail_ms": scaled["tail_ms"],
        "work_per_s": scaled["work_per_s"],
    }
    details = {
        "ops_timed": scaled["n"],
        "passes": len(passes),
        "calls_timed": len(recs),
        "tail_percentile": scaled["tail_percentile"],
        "work_unit": wl.work_unit,
        "host_slowdown_median": statistics.median(r["slowdown"] for r in recs),
        "kernel_samples": len(hs.kernels),
        "raw_setup_s": statistics.median(p["dt"] for p in probes),
        "raw_p50_ms": raw["p50_ms"],
        "raw_tail_ms": raw["tail_ms"],
        "raw_work_per_s": raw["work_per_s"],
        # near 1 plus noise; far above it, later calls of an argv are cheaper than the first
        "first_over_fastest_median": statistics.median(
            group[0]["scaled"] / min(r["scaled"] for r in group) for group in groups),
        "measured_s": sum(r["dt"] for r in recs),
    }
    return metrics, failures, attempted, [op.argv for op in ops], details, None


def run_traced(wl, main):
    """Returns metrics, failures, ops attempted, argv run, details, tracer."""
    warm_op = wl.make_round()[0]
    ops = wl.trace_ops()
    par_ops = wl.parallel_ops()
    tracer = Tracer()
    call = tracer.traced(main)
    with HostSpeed() as hs:
        warm = invoke(main, warm_op.argv)
        untraced = [hs.run(invoke, main, op.argv) for op in ops]
        parallel = [hs.run(invoke, main, op.argv, pause=True) for op in par_ops]
        tracer.install()
        try:
            traced = [hs.run(invoke, call, op.argv) for op in ops]
        finally:
            tracer.uninstall()
    if installed_wrappers():
        raise RuntimeError(f"tracing wrappers left installed: {installed_wrappers()}")
    for recs in (untraced, parallel, traced):
        hs.scale(recs)

    records = [(warm_op, warm, None)]
    for op_list, recs in ((ops, untraced), (par_ops, parallel)):
        records += [(op, rec, None) for op, rec in zip(op_list, recs)]
    # the wrappers must not change a single byte of any output
    records += [(op, t, u["out"]) for op, u, t in zip(ops, untraced, traced)]
    failures = check_all(wl, records)

    # tracer call ids run 1..n in the order of the traced calls
    metrics = tracer.summary({i + 1: r["slowdown"] for i, r in enumerate(traced)})
    untraced_s = sum(r["scaled"] for r in untraced)
    traced_s = sum(r["scaled"] for r in traced)
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    efficiency = 0.0
    if parallel:
        # raw times of adjacent passes: the slowdown is sampled during a
        # --jobs 1 call but only around a --jobs 2 call, so scaled times
        # of the two passes are not on quite the same footing
        rate1 = sum(op.work for op in ops) / sum(r["dt"] for r in untraced)
        rate2 = sum(op.work for op in par_ops) / sum(r["dt"] for r in parallel)
        efficiency = rate2 / (2 * rate1)
    metrics["search.parallel_efficiency"] = efficiency
    details = {
        "calls_traced": len(ops),
        "spans": len(tracer.spans),
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "traced_span_total_s": metrics.pop("trace.total_s"),
        "layer_self_sum_s": metrics.pop("trace.self_sum_s"),
        "host_slowdown_median": statistics.median(r["slowdown"] for r in traced),
    }
    return metrics, failures, len(records), [op.argv for op in ops], details, tracer


# ---------------------------------------------------------------------------
# provenance


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def provenance(args, argvs) -> dict:
    import mpmath
    import mpmath.libmp
    import sympy

    sources = sorted((SRC / "tripow").rglob("*.py"))
    src_hash = hashlib.sha256()
    for path in sources:
        src_hash.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "sympy": sympy.__version__,
        "git_commit": _git_commit(),
        "source_sha256": src_hash.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "argv_count": len(argvs),
        "argv_sha256": _digest(argvs),
    }


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tripow" / "cli.py").is_file():
        print(f"error: tripow sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("TRIPOW_PRECISION_BITS", None)  # outputs must depend on argv only
    import tripow.cli

    if not Path(tripow.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: tripow imported from outside {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    wl = WORKLOADS[args.workload](args.seed)
    if args.trace:
        outcome = run_traced(wl, tripow.cli.main)
    else:
        outcome = run_untraced(wl, tripow.cli.main, args.seconds)
    metrics, failures, attempted, argvs, details, tracer = outcome

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    out_metrics = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    failed = len(failures)

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {
        "provenance": provenance(args, argvs),
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "failures": failures[:50],
        "metrics": out_metrics,
        "details": details,
    }
    if tracer is not None:
        result["exact_counts"] = {k: metrics[k] for k in EXACT_COUNTS}
        tracer.dump(RESULTS / f"{stem}-spans.json.gz")
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, m in out_metrics.items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_ratio':44s} {failed / attempted:.6g} ({failed}/{attempted} ops)")
    for key, val in details.items():
        print(f"  {key:44s} {val}")
    for msg in failures[:10]:
        print(f"  FAILED {msg}")
    print(f"  result file {RESULTS.relative_to(ROOT) / (stem + '.json')}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": out_metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
