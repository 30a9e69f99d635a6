"""One benchmark process: set up a workload, then run and check its operations.

Started by run.py in a fresh interpreter.  It prints ``ready`` once set-up is
done; with ``--setup-only`` it then exits, otherwise its last stdout line is
a JSON object with the run's operation times, failures and check results.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import latentvar  # noqa: E402

from tracer import NullTracer, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Spans whose median time is reported as a per-layer metric.
LAYER_METRICS = {
    "simulate.simulate_s": "simulate.simulate",
    "estimate.select_lag_s": "estimate.select_lag",
    "estimate.fit_coefficients_s": "estimate.fit_coefficients",
    "recover.nm_s": "recover.nm",
    "cli.startup_s": "cli.startup",
    "cli.read_panel_csv_s": "cli.read_panel_csv",
    "cli.write_panel_csv_s": "cli.write_panel_csv",
}


def blas_threads() -> int | None:
    """Threads the bundled OpenBLAS will use, read from the loaded library."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for lib in sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line}):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(lib), sym)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def machine() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def measure(wl, seconds: float) -> dict:
    """Untraced run: whole rounds of the fixed list until `seconds` have passed."""
    times, failures, problems = [], [], []
    start = time.perf_counter()
    while True:
        for i in range(wl.count):
            t0 = time.perf_counter()
            try:
                out = wl.run_op(i)
            except Exception:  # an operation that raises counts as failed
                failures.append(f"op {i}: {traceback.format_exc(limit=3)}")
                continue
            times.append(time.perf_counter() - t0)
            problems += [f"op {i}: {p}" for p in wl.check(i, out)]
        if time.perf_counter() - start >= seconds:
            break
    return {
        "attempted": len(times) + len(failures),
        "failed": len(failures),
        "failures": failures,
        "problems": problems,
        "op_times_s": times,
        "peak_rss_mb": peak_rss_mb(children=wl.work_in_children),
    }


def measure_traced(wl, tracer: Tracer, seconds: float, companions: list) -> dict:
    """Traced run: each operation once untraced and once traced, in process."""
    null = NullTracer()
    plain, traced, coverage, problems, failures = [], [], [], [], []
    start = time.perf_counter()
    while True:
        for i in range(wl.count):
            try:
                wl.tr = null
                t0 = time.perf_counter()
                wl.run_op(i)
                plain.append(time.perf_counter() - t0)
                wl.tr = tracer
                with tracer.span(f"op.{wl.name}") as op:
                    out = wl.run_op(i)
            except Exception:  # an operation that raises counts as failed
                failures.append(f"op {i}: {traceback.format_exc(limit=3)}")
                continue
            traced.append(op.duration)
            coverage.append(sum(s.duration for s in tracer.children(op.sid)) / op.duration)
            problems += [f"op {i}: {p}" for p in wl.check(i, out)]
        if time.perf_counter() - start >= seconds:
            break
    own_spans = list(tracer.spans)
    for other in companions:  # layers this workload never calls
        with tracer.span(f"companion.{other.name}"):
            other.prepare()
            with tracer.span(f"op.{other.name}"):
                out = other.run_op(0)
        problems += [f"{other.name} op 0: {p}" for p in other.check(0, out)]

    metrics = {}
    for metric, span in LAYER_METRICS.items():
        durs = [s.duration for s in own_spans if s.name == span]
        if not durs:
            durs = [s.duration for s in tracer.spans if s.name == span]
        metrics[metric] = statistics.median(durs)
    p_plain, p_traced = statistics.median(plain), statistics.median(traced)
    metrics["trace.overhead_pct"] = 100.0 * (p_traced - p_plain) / p_plain
    metrics["trace.coverage_pct"] = 100.0 * statistics.median(coverage)

    ops = [s for s in own_spans if s.name == f"op.{wl.name}"]
    total = sum(s.duration for s in ops)
    shares = {}
    for op in ops:
        for s in tracer.children(op.sid):
            shares[s.name] = shares.get(s.name, 0.0) + s.duration / total
    return {
        "attempted": len(traced) + len(failures),
        "failed": len(failures),
        "failures": failures,
        "problems": problems,
        "metrics": metrics,
        "op_times_s": traced,
        "untraced_op_times_s": plain,
        "layer_share_of_op": shares,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--count", type=int, help="operations in the list (default: the workload's)")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    if Path(latentvar.__file__).resolve().parent != ROOT / "src" / "latentvar":
        print(f"latentvar imported from {latentvar.__file__}, not from this checkout", file=sys.stderr)
        return 2
    tracer = Tracer() if args.trace else NullTracer()
    workdir = Path(args.workdir)
    wl = WORKLOADS[args.workload](args.seed, tracer, args.count, workdir)
    with tracer.span("setup"):
        wl.prepare()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        companions = [
            cls(args.seed, tracer, 1, Path(tempfile.mkdtemp(dir=workdir)))
            for name, cls in sorted(WORKLOADS.items())
            if name != args.workload
        ]
        result = measure_traced(wl, tracer, args.seconds, companions)
        result["spans"] = tracer.as_records()
    else:
        result = measure(wl, args.seconds)
    result["machine"] = machine()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
