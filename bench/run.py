"""Benchmark entry point.

    python3 bench/run.py --workload {mc-estimate,nm-search,cli-pipeline}
                         --seed N --seconds S --trace {0,1}

Each workload is a closed loop with one client: a fixed list of operations
run in a fixed order, repeated as whole rounds until S seconds have passed.
Every output is checked.  The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  A fuller record (machine,
every operation time, spans) goes to bench/results/.

The work runs in worker processes with the numeric library pinned to one
thread.  setup_s is the median over SETUP_RUNS fresh processes of the time
from spawn to the end of set-up (imports, inputs, warm-up).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
WORK = BENCH / ".work"

WORKLOADS = ("mc-estimate", "nm-search", "cli-pipeline")
SETUP_RUNS = 3
#: The numeric library's thread count is fixed: with OpenBLAS's default of
#: one thread per core, 400 products X^T X of a 20000x40 X had a 2.1 ms median
#: but the first stalled for 422 ms; with one thread the worst took 8.6 ms.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: Children of a run fail rather than hang past this.
CHILD_TIMEOUT_S = 170


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args: list[str], workdir: Path) -> tuple[float, subprocess.Popen]:
    """Start a worker and wait for its `ready` line; return (set-up seconds, process)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), *args, "--workdir", str(workdir)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.wait(timeout=CHILD_TIMEOUT_S)
        raise RuntimeError(f"worker ended during set-up (exit code {proc.returncode})")
    return setup, proc


def finish(proc: subprocess.Popen) -> str:
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exit code {proc.returncode}")
    return out


def run(workload: str, seed: int, seconds: float, trace: int, count: int | None = None) -> dict:
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if count is not None:
        base += ["--count", str(count)]
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        setups = []
        if not trace:
            for _ in range(SETUP_RUNS - 1):
                probe_dir = Path(tempfile.mkdtemp(dir=workdir))
                setup, proc = spawn([*base, "--setup-only"], probe_dir)
                finish(proc)
                shutil.rmtree(probe_dir)
                setups.append(setup)
        setup, proc = spawn(base, workdir)
        setups.append(setup)
        record = json.loads(finish(proc).strip().splitlines()[-1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["setup_samples_s"] = setups
    return record


def end_to_end(record: dict) -> dict:
    times = record["op_times_s"]
    return {
        "setup_s": {"value": statistics.median(record["setup_samples_s"]), "unit": "s"},
        "ops_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
        "op_p50_s": {"value": statistics.median(times), "unit": "s"},
        "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(record: dict) -> dict:
    units = {"trace.overhead_pct": "%", "trace.coverage_pct": "%"}
    return {k: {"value": v, "unit": units.get(k, "s")} for k, v in record["metrics"].items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--count", type=int, help=argparse.SUPPRESS)  # shorter lists, for the tests
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")
    if not (ROOT / "src" / "latentvar" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'latentvar'}", file=sys.stderr)
        return 2

    record = run(args.workload, args.seed, args.seconds, args.trace, args.count)
    metrics = per_layer(record) if args.trace else end_to_end(record)
    result = {
        "correct": not record["problems"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps({**record, "result": result}, indent=1) + "\n")
    for line in record["problems"] + record["failures"]:
        print(line, file=sys.stderr)
    print(json.dumps({"machine": record["machine"], "record": f"bench/results/{name}"}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
