"""Repeat benchmark runs over seeds and summarise their spread.

    python3 perfbench/sweep.py run --seeds 1-10 [--trace 0] [--out FILE]
    python3 perfbench/sweep.py summary FILE [FILE2]

`run` calls run.py once per workload of BENCHMARK.json and seed, one run at
a time, for the run_seconds of BENCHMARK.json, and appends each run's
result, with its failed operations, as one JSON line to FILE (default
.bench_runs/sweep.jsonl).  `summary` prints, per workload and metric, the
median, the quartiles and the spread (Q3 - Q1) / median of the runs in FILE,
the failed share and the median cost of the speed probe; given FILE2 it also
prints how far each median of FILE2 lies from that of FILE, as a share of the
first, against the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(args) -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    for name in names:
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
            lines = proc.stdout.strip().splitlines()
            record = {"workload": name, "seed": seed, "trace": args.trace, "code": proc.returncode,
                      "failed_ops": [ln[len("failed: "):] for ln in lines if ln.startswith("failed: ")],
                      "log": proc.stderr.strip().splitlines()[-1:]}
            if proc.returncode == 0:
                record.update(json.loads(lines[-1]))
            with open(args.out, "a") as fh:
                fh.write(json.dumps(record) + "\n")
            values = {k: round(v["value"], 4) for k, v in record.get("metrics", {}).items()}
            print(name, seed, record.get("correct"), record.get("failed"), "/",
                  record.get("attempted"), values, flush=True)


def load(path: str):
    by_workload = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if rec.get("code") == 0:
                by_workload[rec["workload"]].append(rec)
    return by_workload


def medians(records) -> dict[str, float]:
    names = records[0]["metrics"]
    return {m: statistics.median(r["metrics"][m]["value"] for r in records) for m in names}


def summary(args) -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    first = load(args.file)
    second = load(args.file2) if args.file2 else {}
    for workload, records in first.items():
        shares = sorted({r["failed"] / r["attempted"] for r in records})
        probe = statistics.median(float(re.search(r"probe ([0-9.]+) ms", r["log"][-1]).group(1))
                                  for r in records)
        print(f"{workload}: {len(records)} runs, correct {all(r['correct'] for r in records)}, "
              f"failed share {shares}, median probe cost {probe:.4f} ms")
        other = medians(second[workload]) if workload in second else {}
        for metric in records[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in records]
            q1, med, q3 = statistics.quantiles(values, n=4)
            line = (f"  {metric:24s} median {med:12.5g}  Q1 {q1:12.5g}  Q3 {q3:12.5g}  "
                    f"spread {(q3 - q1) / med:7.2%}")
            if metric in bounds:
                line += f"  bound {bounds[metric]:.0%}"
            if metric in other:
                line += f"  second median {other[metric]:12.5g} ({other[metric] / med - 1:+.2%})"
            print(line)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run")
    p.add_argument("--seeds", required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--out", default=os.path.join(ROOT, ".bench_runs", "sweep.jsonl"))
    p.set_defaults(func=run)
    p = sub.add_parser("summary")
    p.add_argument("file")
    p.add_argument("file2", nargs="?")
    p.set_defaults(func=summary)
    args = parser.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
