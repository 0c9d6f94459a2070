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

TOOLS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TOOLS), "src")

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
    # 49 elements at a degree with 6,836 trace monomials
    ("closure_n2_degree12", ["closure", "--n", "2", "--degree", "12", "--seed", "0"]),
    ("reduce_traceless_n2", ["reduce", "--mode", "traceless", "--n", "2", "tr(A^5 B^3)"]),
    ("reduce_plain_n3", ["reduce", "--mode", "plain", "--n", "3", "tr(X^4 Y^2 X Y)"]),
    ("bracket_traceless", ["bracket", "tr(A^3 B^2)", "tr(A B^4)"]),
    ("bracket_plain", ["bracket", "--mode", "plain", "tr(X^3 Y^2)", "tr(X Y^4)"]),
    # a superscript digit is no digit of the grammar: a parse error
    ("bracket_superscript_exponent", ["bracket", "tr(A^\u00b2)", "tr(B^2)"]),
    # a word exponent is unsigned: a parse error at the sign
    ("bracket_signed_word_exponent", ["bracket", "tr(A^+2)", "tr(B^2)"]),
    ("sample_traceless_n3", ["sample", "--n", "3", "--count", "4", "--traceless", "--seed", "0"]),
    # the largest n whose eigenvalue square is the fixed [-2, 2]^2: its draws pin the bits
    ("sample_traceless_n40", ["sample", "--n", "40", "--count", "2", "--traceless", "--seed", "0"]),
    # the eigenvalue square widens with n, so large n samples too
    ("sample_n100", ["sample", "--n", "100", "--seed", "0"]),
    ("flow_cubicShear_n2", ["flow", "--family", "cubicShear", "--t", "0.3", "--n", "2",
                            "--steps", "40", "--seed", "0"]),
    ("flow_scaling_n2", ["flow", "--family", "scaling", "--t", "0.5+0.5i", "--n", "2", "--seed", "0"]),
    ("flow_hamiltonian_n3", ["flow", "--hamiltonian", "tr(A^2 B)", "--t", "0.2", "--n", "3",
                             "--steps", "40", "--seed", "0"]),
    ("flow_hamiltonian_mixed_n2", ["flow", "--hamiltonian", "tr(A^2 B)*tr(B^2) + 1/3*tr(A B A B^2)",
                                   "--t", "0.2", "--n", "2", "--steps", "40", "--seed", "0"]),
    # a repeated factor and a constant term at n = 4: pins the RK4 endpoint bits
    ("flow_hamiltonian_repeated_n4", ["flow", "--hamiltonian", "tr(A B)*tr(A B) + 1/2*tr(A^3 B) + 5",
                                      "--t", "0.02+0.01i", "--n", "4", "--steps", "40", "--seed", "0"]),
    # 40 steps leave rank residuals within RK4's own error estimate: inconclusive
    ("flow_hamiltonian_cubic_n4", ["flow", "--hamiltonian", "tr(A B)*tr(A B)*tr(A B) + 2*tr(A^2 B) + 5",
                                   "--t", "0.02+0.01i", "--n", "4", "--steps", "40", "--seed", "0"]),
    ("flow_scaling_t50_n2", ["flow", "--family", "scaling", "--t", "50", "--n", "2", "--seed", "0"]),
    # e^{2 t tr(AB)} overflows, but the exact certificate never forms it
    ("flow_scaling_t250_n2", ["flow", "--family", "scaling", "--t", "250", "--n", "2", "--seed", "0"]),
    ("flow_scaling_t1e308_n2", ["flow", "--family", "scaling", "--t", "1e308", "--n", "2", "--seed", "0"]),
    # the certificate holds at every t, where float residuals grew like |t|
    ("flow_shearB_t1e7_n3", ["flow", "--family", "shearB", "--t", "1e7", "--n", "3", "--seed", "0"]),
    ("flow_cubicShear_t1e6_n3", ["flow", "--family", "cubicShear", "--t", "1e6", "--n", "3", "--seed", "0"]),
    ("flow_shearA_n3", ["flow", "--family", "shearA", "--t", "1+1i", "--n", "3", "--seed", "0"]),
    ("flow_shearB_t10_n3", ["flow", "--family", "shearB", "--t", "10", "--n", "3", "--seed", "0"]),
    ("flow_bad_t", ["flow", "--family", "shearB", "--t", "abc", "--seed", "0"]),
    ("flow_hamiltonian_no_steps", ["flow", "--hamiltonian", "tr(A^2)", "--t", "1", "--seed", "0"]),
    ("flow_scaling_t50_steps400_n2", ["flow", "--family", "scaling", "--t", "50", "--n", "2",
                                      "--steps", "400", "--seed", "0"]),
    # two points stop before the overflow: RK4 misses the image by its own error estimate
    ("flow_scaling_t50_steps400_points2_n2", ["flow", "--family", "scaling", "--t", "50", "--n", "2",
                                              "--points", "2", "--steps", "400", "--seed", "0"]),
    ("membership_not_found_depth1_n3", ["membership", "--target", "tr(A^3 B^3)", "--n", "3",
                                        "--depth", "1", "--seed", "0"]),
    ("verify_samples4_n3", ["verify", "--n", "3", "--samples", "4", "--seed", "0"]),
    # no subcommand takes --tol, so it is a usage error
    ("verify_tol_rank_n2", ["verify", "--n", "2", "--tol", "rank=1e-3", "--seed", "0"]),
    ("membership_inconclusive_n2", ["membership", "--target", "tr(A^2) + 1/1000003*tr(B^2)",
                                    "--n", "2", "--seed", "0"]),
    # leading-law-3113 with a wrong tail whose denominator is modp.PRIME
    ("verify_prime_denominator_n3", ["verify", "--n", "3", "--seed", "0", "--catalog",
                                     os.path.join(TOOLS, "data", "prime_denominator_catalog.json")]),
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
