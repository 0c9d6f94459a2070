"""Check that the program's memory use does not move the speed probe.

    python3 perfbench/probe_check.py

Every reported time is rescaled by the probe of speed.py, which runs inside
the worker.  If the program could slow the probe, part of the program's own
cost would be divided out and would not show.  This script runs three
processes that take turns, one block of 150 probes each, so that a change in
the machine's speed hits all three alike:

    none     no large heap; ~1 ms of lookups in a 1000-entry dict before
             each probe
    idle     a 2,000,000-entry dict alive (about 400 MB), the same small
             lookups
    touched  the same large dict, with ~1 ms of lookups at random keys
             before each probe, which evicts the probe from the CPU caches

It prints, for the probe's timed pass and for its untimed first pass, the
median over 40 turns of each block's median cost as a ratio to `none`, with
the quartiles.  A timed-pass ratio near 1 for `idle` and `touched` means the
program's heap and working set do not move the probe.  The script takes
about a minute and needs about 1 GB of memory.
"""

from __future__ import annotations

import multiprocessing
import random
import statistics

import speed

HEAP_ENTRIES = 2_000_000
TURNS = 40
BLOCK = 150
LOOKUPS = 3000
MODES = ("none", "idle", "touched")


def keyed(count: int, size: int, rnd: random.Random) -> list[tuple[int, int]]:
    return [(k, k * 7919) for k in (rnd.randrange(size) for _ in range(count))]


def child(mode: str, conn) -> None:
    rnd = random.Random(1)
    table = {(i, i * 7919): complex(i, -i) for i in range(1000)}
    keys = keyed(200_000, 1000, rnd)
    if mode != "none":
        heap = {(i, i * 7919): complex(i, -i) for i in range(HEAP_ENTRIES)}
        if mode == "touched":
            table, keys = heap, keyed(200_000, HEAP_ENTRIES, rnd)
    probe = speed.SpeedProbe()
    conn.send("ready")
    pos = 0
    while conn.recv() == "go":
        timed, first = [], []
        for _ in range(BLOCK):
            pos = (pos + LOOKUPS) % (len(keys) - LOOKUPS)
            total = 0.0
            for k in keys[pos:pos + LOOKUPS]:
                total += table[k].real
            probe._tick(None, None)
            timed.append(probe.costs[-1])
            first.append(probe.ends[-1] - probe.starts[-1] - probe.costs[-1])
        conn.send((statistics.median(timed), statistics.median(first)))


def main() -> None:
    pipes, procs = {}, []
    for mode in MODES:
        ours, theirs = multiprocessing.Pipe()
        proc = multiprocessing.Process(target=child, args=(mode, theirs))
        proc.start()
        pipes[mode] = ours
        procs.append(proc)
    for mode in MODES:
        pipes[mode].recv()
    results = {mode: [] for mode in MODES}
    for turn in range(TURNS):
        for mode in MODES if turn % 2 == 0 else MODES[::-1]:
            pipes[mode].send("go")
            results[mode].append(pipes[mode].recv())
    for mode in MODES:
        pipes[mode].send("stop")
    for proc in procs:
        proc.join()
    for i, which in enumerate(("timed pass", "first pass")):
        for mode in MODES:
            ratios = [a[i] / b[i] for a, b in zip(results[mode], results["none"])]
            q1, med, q3 = statistics.quantiles(ratios, n=4)
            cost = statistics.median(r[i] for r in results[mode])
            print(f"{which:10s} {mode:8s} median {1000 * cost:.4f} ms  "
                  f"ratio to none {med:.3f} [Q1 {q1:.3f}, Q3 {q3:.3f}]")


if __name__ == "__main__":
    main()
