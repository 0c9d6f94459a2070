"""Run the fixed list of contract CLI jobs and write their outputs to OUTDIR.

    python3 tools/out_reports.py OUTDIR

For each job NAME it writes NAME.json (the --out report), NAME.stdout and
NAME.exit (the exit code).  Every job runs the CLI of the checkout that holds
this script in its own process; jobs that take a seed use seed 0, except two
closure jobs at seeds 1 and 2.  Two checkouts produce the same results when
`diff -r` finds no difference between their output directories.
"""

from __future__ import annotations

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

MEMBERSHIP_TARGETS = {
    "square": "tr(A^2 B^2)",
    "product": "tr(A^2)*tr(A^2)*tr(B^2)*tr(B^2)",
    "cube": "tr(A^3 B^3)",
}

JOBS: list[tuple[str, list[str]]] = []
for _n in (2, 3):
    JOBS += [
        (f"closure_n{_n}", ["closure", "--n", str(_n), "--seed", "0"]),
        (f"verify_n{_n}", ["verify", "--n", str(_n), "--seed", "0"]),
        (f"replay_n{_n}", ["replay", "--n", str(_n), "--seed", "0"]),
    ]
    JOBS += [
        (f"membership_{name}_n{_n}", ["membership", "--target", target, "--n", str(_n), "--seed", "0"])
        for name, target in MEMBERSHIP_TARGETS.items()
    ]
JOBS += [
    ("closure_n2_degree6_seed1", ["closure", "--n", "2", "--degree", "6", "--seed", "1"]),
    ("closure_n3_degree6_depth2_seed2",
     ["closure", "--n", "3", "--degree", "6", "--depth", "2", "--seed", "2"]),
    ("closure_n4", ["closure", "--n", "4", "--seed", "0"]),
    ("reduce_traceless_n2", ["reduce", "--mode", "traceless", "--n", "2", "tr(A^5 B^3)"]),
    ("reduce_plain_n3", ["reduce", "--mode", "plain", "--n", "3", "tr(X^4 Y^2 X Y)"]),
    ("bracket_traceless", ["bracket", "tr(A^3 B^2)", "tr(A B^4)"]),
    ("bracket_plain", ["bracket", "--mode", "plain", "tr(X^3 Y^2)", "tr(X Y^4)"]),
    ("sample_traceless_n3", ["sample", "--n", "3", "--count", "4", "--traceless", "--seed", "0"]),
    ("flow_cubicShear_n2", ["flow", "--family", "cubicShear", "--t", "0.3", "--n", "2",
                            "--steps", "40", "--seed", "0"]),
    ("flow_scaling_n2", ["flow", "--family", "scaling", "--t", "0.5+0.5i", "--n", "2", "--seed", "0"]),
    ("flow_hamiltonian_n3", ["flow", "--hamiltonian", "tr(A^2 B)", "--t", "0.2", "--n", "3",
                             "--steps", "40", "--seed", "0"]),
]


def run_job(name: str, argv: list[str], outdir: str) -> int:
    report = os.path.join(outdir, f"{name}.json")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "cmpoisson.cli", *argv, "--out", report],
        env=env,
        capture_output=True,
        text=True,
    )
    with open(os.path.join(outdir, f"{name}.stdout"), "w") as fh:
        fh.write(proc.stdout)
    with open(os.path.join(outdir, f"{name}.exit"), "w") as fh:
        fh.write(f"{proc.returncode}\n")
    return proc.returncode


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 3
    outdir = argv[0]
    os.makedirs(outdir, exist_ok=True)
    for name, job in JOBS:
        code = run_job(name, job, outdir)
        print(f"{name}: exit {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
