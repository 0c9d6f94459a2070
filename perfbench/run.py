"""Benchmark of cmpoisson: one workload per run, timed end to end or per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from `src`.
A run first starts SETUP_PROBES fresh worker processes that only set the
workload up, then runs whole rounds of the workload, each in a fresh worker
process, until the rounds have taken --seconds of wall time (at least one
round).  Workers run one at a time, with BLAS held to one thread and a fixed
hash seed.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end-to-end ones; every time is
wall time rescaled to a fixed machine speed by speed.py:

    setup_s      median over all workers of the time from process start to
                 the first operation
    solve_s      median time of a round, first operation to last verdict
    op_p50_ms    median time of one operation
    op_tail_ms   the highest percentile of operation time with at least ten
                 operations of one round beyond it (fixed per workload)
    peak_rss_mb  largest peak resident memory of a round worker

With --trace 1 they are the per-layer metrics of tracing.py, each the median
over the rounds.  Lines before the last name every failed operation and
every problem the output checks found.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("generation", "leading_law", "flows", "symbolic")
SETUP_PROBES = 5
RUN_LIMIT_S = 170.0
TAIL_PERCENTILES = (50, 75, 90, 95, 96, 97, 98, 99, 99.5, 99.9)


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=os.pathsep.join([SRC, HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])),
    )
    return env


def run_worker(workload: str, seed: int, trace: bool, setup_only: bool, timeout: float) -> dict:
    """The result line of one fresh worker process."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), "1" if trace else "0"]
    cmd.append(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"worker for {workload} ran out of time")
    if proc.returncode != 0:
        raise WorkerError(f"worker for {workload} exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def tail_percentile(ops_per_round: int) -> float:
    """Highest listed percentile with at least ten operations of one round beyond it."""
    return max(
        p for p in TAIL_PERCENTILES
        if ops_per_round - math.ceil(p / 100 * ops_per_round) >= 10
    )


def nearest_rank(values: list[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(p / 100 * len(ordered)) - 1, 0)]


def layer_unit(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    if re.search(r"_s(\.|$)", name):
        return "s"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description="cmpoisson benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "cmpoisson", "__init__.py")):
        print(f"error: no cmpoisson sources under {SRC}", file=sys.stderr)
        return 2

    began = time.perf_counter()

    def remaining() -> float:
        return RUN_LIMIT_S - (time.perf_counter() - began)

    trace = bool(args.trace)
    setups = []
    rounds = []
    try:
        for _ in range(SETUP_PROBES):
            setups.append(run_worker(args.workload, args.seed, trace, True, remaining()))
        while not rounds or sum(r["round_wall_s"] for r in rounds) < args.seconds:
            if rounds and remaining() < 1.5 * (rounds[-1]["round_wall_s"] + 1.0):
                print("warning: run limit reached before --seconds", file=sys.stderr)
                break
            rounds.append(run_worker(args.workload, args.seed, trace, False, remaining()))
            setups.append(rounds[-1])
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    ops = [t for r in rounds for t in r["op_seconds"]]
    failed = [name for r in rounds for name in r["failed"]]
    problems = [p for r in rounds for p in r["problems"]]
    percentile = tail_percentile(len(rounds[0]["op_seconds"]))
    solve = statistics.median(r["round_seconds"] for r in rounds)
    for name in sorted(set(failed)):
        print(f"failed: {name} ({failed.count(name)} of {len(rounds)} rounds)")
    for problem in problems:
        print(f"problem: {problem}")
    print(
        f"{args.workload} seed {args.seed}: {len(rounds)} rounds of {len(rounds[0]['op_seconds'])} "
        f"operations, tail percentile p{percentile}, solve {solve:.4f} s "
        f"(wall {statistics.median(r['round_wall_s'] for r in rounds):.4f} s), set-up "
        f"{statistics.median(r['setup_s'] for r in setups):.4f} s "
        f"(wall {statistics.median(r['setup_wall_s'] for r in setups):.4f} s) "
        f"from {len(setups)}, probe {statistics.median(r['probe_ms'] for r in rounds):.4f} ms, "
        f"trace {args.trace}",
        file=sys.stderr,
    )

    if trace:
        layers = rounds[0]["layers"]
        metrics = {
            name: {"value": statistics.median(r["layers"][name] for r in rounds), "unit": layer_unit(name)}
            for name in layers
        }
    else:
        metrics = {
            "setup_s": {"value": statistics.median(r["setup_s"] for r in setups), "unit": "s"},
            "solve_s": {"value": solve, "unit": "s"},
            "op_p50_ms": {"value": 1000 * statistics.median(ops), "unit": "ms"},
            "op_tail_ms": {"value": 1000 * nearest_rank(ops, percentile), "unit": "ms"},
            "peak_rss_mb": {"value": max(r["peak_rss_kb"] for r in rounds) / 1024, "unit": "MB"},
        }
    print(json.dumps({
        "correct": not problems,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
