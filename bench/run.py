"""Benchmark entry point: one workload, one seed, one line of JSON.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The load runs in one fresh process
(workloads.py); the set-up time is the median over that process and
SETUP_PROBES more that stop where the first timed operation would start.
--trace 1 wraps the cylwave layers in spans and reports per-layer figures
instead of end-to-end ones. The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

and the full record, with every operation time, goes to
bench/results/<workload>-seed<N>-trace<T>.json.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("solid-integrate", "graded-march", "sweep-cli")
SETUP_PROBES = 4
BUDGET_S = 170.0  # the whole run, set-up probes and checks included


def _threads() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _child_env() -> dict:
    env = dict(os.environ)
    # BLAS and OpenMP pools no wider than the cores this process may use
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(_threads())
    return env


def _spawn(args: list, deadline: float) -> tuple:
    """(monotonic spawn time, parsed last stdout line) of one workload
    process; raises on a non-zero exit or when the deadline passes."""
    cmd = [sys.executable, os.path.join(HERE, "workloads.py")] + args
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), text=True,
                          stdout=subprocess.PIPE,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("workload process printed nothing")
    return t0, json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "cylwave", "__init__.py")):
        print("bench: no cylwave sources under src/; run from a checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                t0, probe = _spawn(common + ["--setup-only"], deadline)
                setups.append(probe["ready"] - t0)
        t0, run = _spawn(common + ["--seconds", str(args.seconds),
                                   "--trace", str(args.trace)], deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    setups.append(run["ready"] - t0)

    for line in run["failures"]:
        print(f"bench: {line}", file=sys.stderr)
    times = run["times"]
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": _threads(), "python": platform.python_version(),
        **run["versions"],
        "attempted": run["attempted"], "failed": run["failed"],
        "correct": run["correct"], "rounds": run["rounds"],
        "window_s": run["window_s"], "setup_samples_s": setups,
        "op_times_s": times,
    }
    if args.trace:
        metrics = run["layers"]
    else:
        if not times:
            print("bench: no operation completed", file=sys.stderr)
            return 1
        metrics = {
            "op_s_p50": {"value": statistics.median(times), "unit": "s"},
            "ops_per_s": {"value": len(times) / run["window_s"],
                          "unit": "1/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
    if len(times) >= 100:
        record["op_s_p90"] = statistics.quantiles(
            times, n=10, method="inclusive")[8]
    record["op_s_p50"] = statistics.median(times) if times else None
    record["metrics"] = metrics
    os.makedirs(RESULTS, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(RESULTS, name), "w") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps({"correct": run["correct"],
                      "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
