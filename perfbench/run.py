"""quasidom benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Workloads: dp_extract_warm, pattern_wide, cli_roundtrip
(see perfbench/README.md).  Each run starts fresh worker processes that
import the package from this checkout's src/, so the module-level caches start
empty every time.

--trace 0 starts fresh worker processes that each run every op once (see
PROCESSES) and prints the end-to-end metrics: setup_s (median over fresh
set-ups, SETUP_SAMPLES), wall_s (sum over ops of each op's median time over
the workers), op_p50_ms and op_p90_ms (over the same per-op times) and
peak_rss_mb (median over workers).  Times are scaled to a reference speed of
the host (calibration.py): each op by the probes just before and after it,
and each stretch of set-up by the probes at its two ends; the unscaled
figures are printed on the line before the result.  --trace 1 runs the
workload once untraced and once with spans around the package's public
functions, and prints the per-layer metrics (span times, unscaled) plus the
tracing overhead.  Every output is checked by perfbench/checker.py; the last
line of stdout is {"correct", "attempted", "failed", "metrics"}.  Exits 2
without a result when the checkout holds no package source, 1 when a worker
fails or runs out of time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("dp_extract_warm", "pattern_wide", "cli_roundtrip")

# Worker processes per run, each one timed pass over the same ops.  The
# pattern workload needs a fresh process per pass to start from a cold
# region cache; an op's time is its median over the passes.
PROCESSES = {"dp_extract_warm": 1, "pattern_wide": 3, "cli_roundtrip": 1}

# Fresh set-ups per run (every worker process is one); setup_s is their median.
# This process probes the host's speed just before it spawns each worker.
SETUP_PROBES = 5
SETUP_SAMPLES = {"dp_extract_warm": 3, "pattern_wide": 5, "cli_roundtrip": 5}

# A run must end within this many seconds, set-ups and traced passes included.
RUN_BUDGET_S = 170.0

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MB"}


class WorkerError(RuntimeError):
    pass


def layer_unit(name: str) -> str:
    if name.endswith("_us") or "_us." in name:
        return "us"
    if "_bytes" in name:
        return "bytes"
    for suffix, unit in (("_ms", "ms"), ("_mb", "MB"), ("_per_s", "1/s"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"


def run_worker(args, deadline: float, trace: int, setup_only: bool = False) -> dict:
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    probes = [calibration.probe() for _ in range(SETUP_PROBES)]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"{args.workload} worker ran past the {RUN_BUDGET_S:.0f} s budget")
    if proc.returncode != 0 or not stdout.strip():
        raise WorkerError(f"{args.workload} worker exited with code {proc.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])
    result["setup_raw_s"] = result["ready"] - started
    result["setup_s"] = scaled_setup([[started, probes]] + result["setup_points"])
    return result


def scaled_setup(points: list[list]) -> float:
    """Set-up time, each stretch between two marks scaled by the probes at its ends.

    The first mark is the worker's spawn, probed by this process just
    before; the worker marks its start, the warm workload's table build
    width by width, and the instant it is ready.
    """
    total = 0.0
    for (a, probes_a), (b, probes_b) in zip(points, points[1:]):
        total += (b - a) * calibration.speed(probes_a + probes_b)
    return total


def scaled_ops(worker: dict) -> list[float]:
    """Each op's time scaled by the probes just before and just after it."""
    cal = worker["cal"]
    return [t * calibration.speed(cal[i:i + 2]) for i, t in enumerate(worker["op_s"])]


def quantile(xs: list[float], q: int) -> float:
    """The q-th percentile, linear between order statistics."""
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


def merge(workers: list[dict]) -> dict:
    """One result from several workers' passes over the same ops: per-op median time."""
    passes = [scaled_ops(w) for w in workers]
    return {
        "op_s": [statistics.median(times) for times in zip(*passes)],
        "raw_op_s": [statistics.median(times) for times in zip(*(w["op_s"] for w in workers))],
        "attempted": sum(w["attempted"] for w in workers),
        "failures": [f for w in workers for f in w["failures"]],
        "known_defects": [k for w in workers for k in w["known_defects"]],
        "pass_walls": [w["wall"] for w in workers],
    }


def timing_metrics(op_s: list[float], setups: list[float]) -> dict:
    ms = [t * 1e3 for t in op_s]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": sum(op_s),
        "op_p50_ms": quantile(ms, 50),
        "op_p90_ms": quantile(ms, 90),
    }


def report(workload: str, seed: int, result: dict) -> tuple[bool, int, int]:
    attempted = result["attempted"]
    failures, known = result["failures"], result["known_defects"]
    walls = ", ".join(f"{w:.3f}" for w in result["pass_walls"])
    print(
        f"{workload} seed={seed}: {attempted} op runs attempted, {len(failures)} failed, "
        f"failed_frac={len(failures) / attempted:.4f}; "
        f"op_p50_ms/op_p90_ms over {len(result['op_s'])} op samples; "
        f"pass walls [{walls}] s; {len(known)} known-defect op runs"
    )
    for f in failures:
        print(f"  FAILED op {f['op']}: {f['request']}: {f['reason']}")
    for k in known:
        print(f"  KNOWN DEFECT {k['defect']} op {k['op']}: {k['request']}: {k['reason']}")
    return not failures, attempted, len(failures)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (ROOT / "src" / "quasidom" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'quasidom'}; run from a full checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    # Every process of the run (this one, the workers, the CLI children) runs
    # on one CPU, so the probes measure the CPU the timed code runs on.
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except OSError as exc:
        print(f"running unpinned: {exc}", file=sys.stderr)

    try:
        if args.trace == 0:
            processes = PROCESSES[args.workload]
            workers = [run_worker(args, deadline, 0) for _ in range(processes)]
            workers += [run_worker(args, deadline, 0, setup_only=True)
                        for _ in range(SETUP_SAMPLES[args.workload] - processes)]
            result = merge(workers[:processes])
            values = timing_metrics(result["op_s"], [w["setup_s"] for w in workers])
            values["peak_rss_mb"] = statistics.median(w["peak_rss_mb"] for w in workers[:processes])
            units = E2E_UNITS
            raw = timing_metrics(result["raw_op_s"], [w["setup_raw_s"] for w in workers])
            print("unscaled: " + ", ".join(f"{k}={v:.6g}" for k, v in raw.items()))
        else:
            untraced = run_worker(args, deadline, 0)
            traced = run_worker(args, deadline, 1)
            result = merge([traced])
            values = dict(traced["layers"])
            # scaled like wall_s, so that drift of the host between the two passes cancels
            values["trace.wall_s"] = sum(scaled_ops(traced))
            values["trace.overhead_s"] = values["trace.wall_s"] - sum(scaled_ops(untraced))
            units = {name: layer_unit(name) for name in values}
            print(f"spans written to {traced['trace_file']}; unscaled op time untraced "
                  f"{sum(untraced['op_s']):.4f} s, traced {sum(traced['op_s']):.4f} s")
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    correct, attempted, failed = report(args.workload, args.seed, result)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in values}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
