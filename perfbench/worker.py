"""One fresh process of a benchmark run: set up a workload, run one round.

    python3 perfbench/worker.py WORKLOAD SEED TRACE SPAWNED [--setup-only]

SPAWNED is the CLOCK_MONOTONIC time at which run.py started the process.  The
worker sets the workload up, runs every operation once, checks the outputs
and writes one JSON line: set-up time (from SPAWNED to the first operation),
per-operation times, the round's time, the names of the failed operations,
the problems the checks found, the peak resident memory and, with TRACE=1,
the per-layer metrics.  Times are rescaled by speed.py; the raw wall times
of set-up and round, and the median cost of the speed probe, are reported
beside them.  With --setup-only the worker stops after set-up.  run.py puts
`src` and this directory on the import path.
"""

import time

import speed  # imports numpy, before the probe can run

PROBE = speed.SpeedProbe()
PROBE.start()
PROBE_T0 = time.perf_counter()
PROBE_T0_MONOTONIC = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402  (everything below is set-up and is timed)
import resource  # noqa: E402
import sys  # noqa: E402

from cmpoisson.catalog import load_catalog_entries  # noqa: E402
from cmpoisson.chains import load_chain_records  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    name, seed, trace, spawned = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1", float(sys.argv[4])
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()  # also rebinds the names imported above
    workload = workloads.make(name, seed, load_catalog_entries(), load_chain_records())
    ops = list(workload.ops())
    ready = time.perf_counter()
    # interpreter start and numpy import, before the first probe: scaled by it
    spawned_here = PROBE_T0 - (PROBE_T0_MONOTONIC - spawned)
    result = {"setup_wall_s": ready - spawned_here}
    if "--setup-only" in sys.argv:
        PROBE.stop()
        result["setup_s"] = PROBE.scaled(spawned_here, ready)
        print(json.dumps(result), flush=True)
        return

    spans = []
    failed = []
    outputs = {}
    for op_name, op in ops:
        t0 = time.perf_counter()
        try:
            ok, output = op()
        except Exception as exc:  # a raising operation is a failed one
            ok, output = False, f"{type(exc).__name__}: {exc}"
        spans.append((t0, time.perf_counter()))
        if ok:
            outputs[op_name] = output
        else:
            failed.append(op_name)
    PROBE.stop()
    layers = tracer.metrics() if tracer else None
    first, last = spans[0][0], spans[-1][1]
    result.update(
        setup_s=PROBE.scaled(spawned_here, ready),
        op_seconds=[PROBE.scaled(a, b) for a, b in spans],
        round_seconds=PROBE.scaled(first, last),
        round_wall_s=last - first,
        probe_ms=1000 * PROBE.median_cost(),
        failed=failed,
        problems=workload.check(outputs),
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        layers=layers,
    )
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
