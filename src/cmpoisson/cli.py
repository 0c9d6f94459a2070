"""Batch front-end: brackets, reductions, samplers, flow certification,
catalog verification, lemma replays, and closure/membership jobs.

Exit codes: 0 pass, 1 assertion failure, 2 inconclusive, 3 usage/parse error.
Reports are machine-readable JSON (deterministic for a fixed config + seed)
with a human-readable summary on stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import catalog as catalog_mod
from . import chains as chains_mod
from .bracket import bracket, bracket_raw_terms, verify_catalog
from .closure import (
    MembershipChecker,
    build_closure,
    default_depth_cap,
    standard_generators,
    validate_degree_cap,
    validate_target,
)
from .cm import sample_cm, save_points
from .flows import FAMILY_IDS, FlowFamily, apply_family, certify_symplectic, family_hamiltonian, ode_flow
from .grammar import PolynomialParseError, format_polynomial, format_terms, parse_polynomial
from .poly import PLAIN, TRACELESS

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3

SEED_ENV_VAR = "CMPOISSON_SEED"

# tolerance name -> (default, safe_low, safe_high)
TOLERANCES = {
    "rank": (1e-10, 1e-14, 1e-6),
    "trace": (1e-12, 1e-15, 1e-8),
    "flow_rank": (1e-9, 1e-13, 1e-5),
    "flow_trace": (1e-10, 1e-14, 1e-6),
    "symplectic": (1e-7, 1e-11, 1e-3),
    "fit": (1e-8, 1e-12, 1e-4),
    "membership": (1e-8, 1e-12, 1e-4),
}


class UsageError(Exception):
    """Bad input; main() reports it on one line and exits with EXIT_USAGE."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _at_least(minimum: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{value} is below the minimum {minimum}")
        return value

    return parse


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR, "0")
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"{SEED_ENV_VAR}={raw!r} is not an integer") from None


def _parse_tols(pairs: list[str]) -> dict[str, float]:
    out = {name: default for name, (default, _, _) in TOLERANCES.items()}
    for pair in pairs or []:
        if "=" not in pair:
            raise UsageError(f"--tol expects NAME=VALUE, got {pair!r}")
        name, _, value = pair.partition("=")
        if name not in TOLERANCES:
            raise UsageError(f"unknown tolerance {name!r}")
        try:
            val = float(value)
        except ValueError:
            raise UsageError(f"tolerance {name}={value!r} is not a number") from None
        if not (math.isfinite(val) and val > 0):
            raise UsageError(f"tolerance {name}={value} must be a positive finite number")
        _, lo, hi = TOLERANCES[name]
        if not (lo <= val <= hi):
            print(
                f"warning: tolerance {name}={val:g} outside documented safe "
                f"range [{lo:g}, {hi:g}]",
                file=sys.stderr,
            )
        out[name] = val
    return out


def _cnum(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _write_report(report: dict, path: str | None) -> None:
    if path:
        with open(path, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")


def _parse_complex(text: str) -> complex:
    return complex(text.replace("i", "j").replace(" ", ""))


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_bracket(args) -> int:
    mode = args.mode
    f = parse_polynomial(args.f, mode)
    g = parse_polynomial(args.g, mode)
    result = bracket(f, g)
    raw_text = None
    if mode == TRACELESS:
        try:
            raw_text = format_terms(bracket_raw_terms(f, g), mode)
            print(raw_text)
            print(f"reduced: {format_polynomial(result)}")
        except ValueError:
            print(format_polynomial(result))
    else:
        print(format_polynomial(result))
    _write_report(
        {
            "command": "bracket",
            "mode": mode,
            "inputs": [args.f, args.g],
            "raw": raw_text,
            "result": format_polynomial(result),
        },
        args.out,
    )
    return EXIT_PASS


def cmd_reduce(args) -> int:
    p = parse_polynomial(args.poly, args.mode)
    reduced = p.cayley_hamilton_reduce(args.n)
    print(format_polynomial(reduced))
    _write_report(
        {
            "command": "reduce",
            "mode": args.mode,
            "n": args.n,
            "input": args.poly,
            "result": format_polynomial(reduced),
        },
        args.out,
    )
    return EXIT_PASS


def cmd_sample(args, tols) -> int:
    points = [
        sample_cm(
            args.n,
            traceless=args.traceless,
            seed=args.seed,
            index=i,
            rank_tol=tols["rank"],
            trace_tol=tols["trace"],
        )
        for i in range(args.count)
    ]
    worst_rank = max(p.rank_residual for p in points)
    worst_trace = max(p.trace_residual for p in points)
    print(
        f"sampled {len(points)} point(s) at n={args.n} "
        f"(max rank residual {worst_rank:.3e}, max trace residual {worst_trace:.3e})"
    )
    if args.out:
        save_points(points, args.out)
    return EXIT_PASS


def cmd_flow(args, tols) -> int:
    t = _parse_complex(args.t)
    points = [
        sample_cm(args.n, traceless=True, seed=args.seed, index=i)
        for i in range(args.points)
    ]
    records = []
    failed = False
    if args.hamiltonian:
        h = parse_polynomial(args.hamiltonian, TRACELESS)
        for idx, pt in enumerate(points):
            out = ode_flow(h, pt, t, args.steps)
            records.append(
                {
                    "hamiltonian": args.hamiltonian,
                    "t": _cnum(t),
                    "n": args.n,
                    "point_id": idx,
                    "rank_residual": out.rank_residual,
                    "trace_residual": out.trace_residual,
                }
            )
            if out.rank_residual >= tols["flow_rank"]:
                failed = True
        print(f"integrated {len(points)} point(s); failures: {failed}")
    else:
        fam = FlowFamily(args.family, t)
        report = certify_symplectic(
            fam,
            points,
            symplectic_tol=tols["symplectic"],
            rank_tol=tols["flow_rank"],
            trace_tol=tols["flow_trace"],
        )
        ham = family_hamiltonian(fam)
        ode_max = None
        if args.steps:
            diffs = []
            for pt in points:
                closed = apply_family(fam, pt, rank_tol=tols["flow_rank"], trace_tol=tols["flow_trace"])
                integrated = ode_flow(ham, pt, t, args.steps)
                scale = max(
                    1.0,
                    float(max(np.abs(closed.pair.X).max(), np.abs(closed.pair.Y).max())),
                )
                diffs.append(
                    float(
                        max(
                            np.abs(integrated.pair.X - closed.pair.X).max(),
                            np.abs(integrated.pair.Y - closed.pair.Y).max(),
                        )
                    )
                    / scale
                )
            ode_max = max(diffs)
        for r in report.records:
            records.append(
                {
                    "family": r.family,
                    "t": _cnum(r.t),
                    "n": r.n,
                    "point_id": r.point_id,
                    "symplectic_residual": r.symplectic_residual,
                    "rank_residual": r.rank_residual,
                    "trace_residual": r.trace_residual,
                    "passed": r.passed,
                }
            )
        failed = not report.passed
        summary = f"family {fam.id} at t={t}: {'FAIL' if failed else 'pass'}"
        if ode_max is not None:
            summary += f"; max ode-vs-closed-form relative difference {ode_max:.3e}"
        print(summary)
    _write_report({"command": "flow", "records": records}, args.out)
    return EXIT_FAIL if failed else EXIT_PASS


def _identity_records(results, key: str) -> list[dict]:
    """--out records of identity results, each naming its identity under key."""
    return [
        {
            key: r.id,
            "status": r.status,
            "detail": r.detail,
            "symbolic_difference": r.symbolic_difference,
            "fit_residual": r.fit_residual,
        }
        for r in results
    ]


def cmd_verify(args, tols) -> int:
    path = None if args.catalog == "default" else args.catalog
    entries = _as_usage_error(catalog_mod.load_catalog_entries, path)
    report = verify_catalog(
        entries, args.n, args.samples, seed=args.seed, fit_tolerance=tols["fit"]
    )
    n_pass = sum(1 for r in report.results if r.status == "pass")
    for r in report.results:
        if r.status != "pass":
            print(f"FAIL {r.id}: {r.detail} {r.symbolic_difference}")
    print(f"catalog: {n_pass}/{len(report.results)} identities pass (n={args.n})")
    _write_report(
        {
            "command": "verify",
            "n": args.n,
            "samples": args.samples,
            "results": _identity_records(report.results, "id"),
        },
        args.out,
    )
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_replay(args, tols) -> int:
    path = None if args.catalog == "default" else args.catalog
    records = _as_usage_error(chains_mod.load_chain_records, path)
    if args.chain != "all":
        records = [r for r in records if r["lemma_id"] == args.chain]
        if not records:
            print(f"error: no chain named {args.chain!r}", file=sys.stderr)
            return EXIT_USAGE
    out_reports = []
    all_pass = True
    for record in records:
        report = chains_mod.replay_lemma_chain(
            record, args.n, args.samples, seed=args.seed, fit_tolerance=tols["fit"]
        )
        all_pass = all_pass and report.passed
        status = "pass" if report.passed else "FAIL"
        print(f"{status} {record['lemma_id']} ({len(report.results)} steps)")
        for r in report.results:
            if r.status != "pass":
                print(f"  step {r.id}: {r.detail} {r.symbolic_difference}")
        out_reports.append(
            {
                "lemma_id": record["lemma_id"],
                "passed": report.passed,
                "steps": _identity_records(report.results, "step"),
            }
        )
    _write_report({"command": "replay", "n": args.n, "chains": out_reports}, args.out)
    return EXIT_PASS if all_pass else EXIT_FAIL


def _as_usage_error(fn, *args, **kwargs):
    """Call fn; a ValueError it raises on bad input becomes a UsageError."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _build_closure_from_args(args):
    generators = standard_generators()
    _as_usage_error(validate_degree_cap, generators, args.degree)
    depth = args.depth if args.depth else default_depth_cap(args.n)
    return build_closure(
        generators,
        depth_cap=depth,
        degree_cap=args.degree,
        n_value=args.n,
        seed=args.seed,
    )


def cmd_closure(args) -> int:
    basis = _build_closure_from_args(args)
    print(
        f"closure at n={args.n}: {len(basis.elements)} independent elements "
        f"(depth cap {basis.depth_cap}, degree cap {basis.degree_cap})"
    )
    _write_report(
        {
            "command": "closure",
            "n": args.n,
            "depth_cap": basis.depth_cap,
            "degree_cap": basis.degree_cap,
            "seed": basis.seed,
            "pool_size": basis.pool_size,
            "elements": [format_polynomial(e) for e in basis.elements],
            "levels": basis.levels,
            "trees": [list(t) for t in basis.trees],
        },
        args.out,
    )
    return EXIT_PASS


def cmd_membership(args, tols) -> int:
    target = parse_polynomial(args.target, TRACELESS)
    _as_usage_error(validate_target, target, args.degree)
    basis = _build_closure_from_args(args)
    checker = _as_usage_error(
        MembershipChecker, basis, args.samples or None, tolerance=tols["membership"]
    )
    cert = checker.check(target)
    if cert.status == "member":
        print(f"member: residual {cert.residual:.3e} over {cert.sample_count} points")
        code = EXIT_PASS
    elif cert.status == "inconclusive":
        print(f"inconclusive: value matrix condition {cert.condition:.3e} too large")
        code = EXIT_INCONCLUSIVE
    else:
        print(
            f"not found at depth {basis.depth_cap}: residual {cert.residual:.3e} "
            f"(this does not certify non-membership)"
        )
        code = EXIT_INCONCLUSIVE
    _write_report(
        {
            "command": "membership",
            "target": args.target,
            "n": args.n,
            "depth_cap": basis.depth_cap,
            "degree_cap": basis.degree_cap,
            "seed": basis.seed,
            "status": cert.status,
            "residual": cert.residual,
            "condition": cert.condition,
            "sample_count": cert.sample_count,
            "coefficients": [_cnum(c) for c in cert.coefficients],
            "elements": [format_polynomial(e) for e in basis.elements],
            "trees": [list(t) for t in basis.trees],
        },
        args.out,
    )
    return code


# ----------------------------------------------------------------------
# argument wiring
# ----------------------------------------------------------------------

def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cmpoisson", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--out", help="write a JSON report to this path")
        p.add_argument("--tol", action="append", default=[], metavar="NAME=VALUE")
        if seed:
            p.add_argument("--seed", type=int, help=f"default: ${SEED_ENV_VAR} or 0")

    p = sub.add_parser("bracket", help="Poisson bracket of two polynomials")
    p.add_argument("--mode", choices=(PLAIN, TRACELESS), default=TRACELESS)
    p.add_argument("f")
    p.add_argument("g")
    common(p, seed=False)

    p = sub.add_parser("reduce", help="Cayley-Hamilton reduction at a matrix size")
    p.add_argument("--mode", choices=(PLAIN, TRACELESS), default=TRACELESS)
    p.add_argument("--n", type=_at_least(1), required=True)
    p.add_argument("poly")
    common(p, seed=False)

    p = sub.add_parser("sample", help="sample rank-one variety points")
    p.add_argument("--n", type=_at_least(1), required=True)
    p.add_argument("--count", type=_at_least(1), default=1)
    p.add_argument("--traceless", action="store_true")
    common(p)

    p = sub.add_parser("flow", help="apply/integrate a flow and certify it")
    p.add_argument("--family", choices=FAMILY_IDS)
    p.add_argument("--hamiltonian", help="integrate this Hamiltonian instead of a family")
    p.add_argument("--t", required=True, help="complex parameter, e.g. 0.3 or 1+1i")
    p.add_argument("--n", type=_at_least(1), default=2)
    p.add_argument("--points", type=_at_least(1), default=3)
    p.add_argument("--steps", type=_at_least(0), default=0)
    common(p)

    p = sub.add_parser("verify", help="verify the pinned bracket catalog")
    p.add_argument("--catalog", default="default")
    p.add_argument("--n", type=_at_least(1), default=3)
    p.add_argument("--samples", type=_at_least(1), default=50)
    common(p)

    p = sub.add_parser("replay", help="replay proof chains step by step")
    p.add_argument("--chain", default="all")
    p.add_argument("--catalog", default="default")
    p.add_argument("--n", type=_at_least(1), default=3)
    p.add_argument("--samples", type=_at_least(1), default=40)
    common(p)

    p = sub.add_parser("closure", help="build the Lie closure of the generators")
    p.add_argument("--n", type=_at_least(1), required=True)
    p.add_argument("--depth", type=_at_least(0), default=0)
    p.add_argument("--degree", type=int, default=8)
    common(p)

    p = sub.add_parser("membership", help="certify membership in the Lie closure")
    p.add_argument("--target", required=True)
    p.add_argument("--n", type=_at_least(1), required=True)
    p.add_argument("--depth", type=_at_least(0), default=0)
    p.add_argument("--degree", type=int, default=8)
    p.add_argument("--samples", type=_at_least(0), default=0)
    common(p)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", 0) is None:
            args.seed = _default_seed()
        tols = _parse_tols(args.tol)
        if args.command == "bracket":
            code = cmd_bracket(args)
        elif args.command == "reduce":
            code = cmd_reduce(args)
        elif args.command == "sample":
            code = cmd_sample(args, tols)
        elif args.command == "flow":
            if not args.family and not args.hamiltonian:
                parser.error("flow needs --family or --hamiltonian")
            code = cmd_flow(args, tols)
        elif args.command == "verify":
            code = cmd_verify(args, tols)
        elif args.command == "replay":
            code = cmd_replay(args, tols)
        elif args.command == "closure":
            code = cmd_closure(args)
        elif args.command == "membership":
            code = cmd_membership(args, tols)
        else:  # pragma: no cover
            parser.error(f"unknown command {args.command!r}")
    except UsageError as exc:
        parser.error(str(exc))
    except PolynomialParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, RuntimeError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    return code


if __name__ == "__main__":
    sys.exit(main())
