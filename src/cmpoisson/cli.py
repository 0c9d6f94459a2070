"""Batch front-end: brackets, reductions, samplers, flow certification,
catalog verification, lemma replays, and closure/membership jobs.

Exit codes: 0 pass, 1 assertion failure, 2 inconclusive, 3 usage/parse error.
Reports are machine-readable JSON (deterministic for a fixed config + seed)
with a human-readable summary on stdout.
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys

import numpy as np

from . import catalog as catalog_mod
from . import chains as chains_mod
from .bracket import bracket, bracket_raw_terms, verify_catalog
from .closure import (
    CHECK_POINTS,
    MembershipChecker,
    build_closure,
    default_depth_cap,
    dimension,
    standard_generators,
    validate_degree_cap,
    validate_target,
)
from . import flows
from .cm import sample_cm, save_points
from .flows import FAMILY_IDS, FlowFamily, certify_symplectic, family_hamiltonian, family_map, ode_flow
from .grammar import PolynomialParseError, format_polynomial, format_terms, parse_polynomial
from .modp import CHECK_PRIME, PRIME
from .poly import PLAIN, TRACELESS

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3

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


def _cnum(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _write_report(report: dict, path: str | None) -> None:
    if path:
        with open(path, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")


def _finite_complex(text: str) -> complex:
    try:
        value = complex(text.replace("i", "j").replace(" ", ""))
    except ValueError:
        value = complex("nan")
    if not cmath.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite complex number")
    return value


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


def cmd_sample(args) -> int:
    points = [
        sample_cm(args.n, traceless=args.traceless, seed=args.seed, index=i)
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


def cmd_flow(args) -> int:
    t = args.t
    if args.hamiltonian and not args.steps:
        raise UsageError("--hamiltonian needs --steps of at least 1")
    points = [
        sample_cm(args.n, traceless=True, seed=args.seed, index=i)
        for i in range(args.points)
    ]
    records = []
    verdicts = []  # one endpoint_verdict per integrated point
    summary = []
    certified = True
    if args.hamiltonian:
        h = parse_polynomial(args.hamiltonian, TRACELESS)
        for idx, pt in enumerate(points):
            out, err = ode_flow(h, pt, t, args.steps, return_error=True)
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
            # the exact flow stays on the locus
            verdicts.append(flows.endpoint_verdict(out.rank_residual, out, err))
    else:
        fam = FlowFamily(args.family, t)
        certificate = certify_symplectic(fam, points)
        certified = certificate.passed
        ham = family_hamiltonian(fam)
        gaps = []
        for pt in points if args.steps else []:
            Xc, Yc = family_map(fam)(pt.pair.X, pt.pair.Y)
            out, err = ode_flow(ham, pt, t, args.steps, return_error=True)
            scale = max(1.0, np.abs(Xc).max(), np.abs(Yc).max())
            gap = max(np.abs(out.pair.X - Xc).max(), np.abs(out.pair.Y - Yc).max())
            gaps.append(float(gap / scale))
            verdicts.append(flows.endpoint_verdict(gaps[-1], out, err))
        records.append(dict(vars(certificate), t=_cnum(t)))
        summary.append(f"family {fam.id} at t={t}: {'pass' if certified else 'FAIL'}")
        if gaps:
            summary.append(f"max ode-vs-closed-form relative difference {max(gaps):.3e}")
    if verdicts:
        counts = ", ".join(f"{verdicts.count(v)} {v}" for v in ("pass", "unresolved", "FAIL"))
        summary.append(f"integrated {len(verdicts)} point(s): {counts}")
    print("; ".join(summary))
    _write_report({"command": "flow", "records": records}, args.out)
    if not certified or "FAIL" in verdicts:
        return EXIT_FAIL
    return EXIT_INCONCLUSIVE if "unresolved" in verdicts else EXIT_PASS


def _identity_records(results, key: str) -> list[dict]:
    """--out records of identity results, each naming its identity under key."""
    return [
        {
            key: r.id,
            "status": r.status,
            "detail": r.detail,
            "symbolic_difference": r.symbolic_difference,
        }
        for r in results
    ]


def cmd_verify(args) -> int:
    path = None if args.catalog == "default" else args.catalog
    entries = _as_usage_error(catalog_mod.load_catalog_entries, path)
    report = _as_usage_error(verify_catalog, entries, args.n, args.samples, seed=args.seed)
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
            "seed": args.seed,
            "results": _identity_records(report.results, "id"),
        },
        args.out,
    )
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_replay(args) -> int:
    path = None if args.catalog == "default" else args.catalog
    records = _as_usage_error(chains_mod.load_chain_records, path)
    if args.chain != "all":
        records = [r for r in records if r["lemma_id"] == args.chain]
        if not records:
            print(f"error: no chain named {args.chain!r}", file=sys.stderr)
            return EXIT_USAGE
    # replay every chain before printing, so a usage error prints nothing else
    reports = [_as_usage_error(chains_mod.replay_lemma_chain, r, args.n, args.samples, seed=args.seed)
               for r in records]
    out_reports = []
    for record, report in zip(records, reports):
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
    meta = {"command": "replay", "n": args.n, "samples": args.samples, "seed": args.seed}
    _write_report({**meta, "chains": out_reports}, args.out)
    return EXIT_PASS if all(r.passed for r in reports) else EXIT_FAIL


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
    full = dimension(args.n, basis.degree_cap)
    span = f"{full}, the dimension of the functions of degree <= {basis.degree_cap}"
    if len(basis.elements) == full:
        print(f"saturated: the basis reaches {span}")
    else:
        print(
            f"not saturated at depth {basis.depth_cap}: the basis stops below {span} "
            f"(this does not claim non-generation)"
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


def cmd_membership(args) -> int:
    target = parse_polynomial(args.target, TRACELESS)
    _as_usage_error(validate_target, target, args.degree)
    basis = _build_closure_from_args(args)
    checker = _as_usage_error(MembershipChecker, basis)
    cert = checker.check(target)
    if cert.status == "member":
        print(f"member: exact certificate, checked at {CHECK_POINTS} points mod {CHECK_PRIME}")
        code = EXIT_PASS
    elif cert.status == "inconclusive":
        print(f"inconclusive: {cert.reason}")
        code = EXIT_INCONCLUSIVE
    else:
        print(
            f"not found at depth {basis.depth_cap}: outside the span mod {PRIME} "
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

    def common(p, run, seed=True):
        p.set_defaults(run=run)
        p.add_argument("--out", help="write a JSON report to this path")
        if seed:
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("bracket", help="Poisson bracket of two polynomials")
    p.add_argument("--mode", choices=(PLAIN, TRACELESS), default=TRACELESS)
    p.add_argument("f")
    p.add_argument("g")
    common(p, cmd_bracket, seed=False)

    p = sub.add_parser("reduce", help="Cayley-Hamilton reduction at a matrix size")
    p.add_argument("--mode", choices=(PLAIN, TRACELESS), default=TRACELESS)
    p.add_argument("--n", type=_at_least(1), required=True)
    p.add_argument("poly")
    common(p, cmd_reduce, seed=False)

    p = sub.add_parser("sample", help="sample rank-one variety points")
    p.add_argument("--n", type=_at_least(1), required=True)
    p.add_argument("--count", type=_at_least(1), default=1)
    p.add_argument("--traceless", action="store_true")
    common(p, cmd_sample)

    p = sub.add_parser("flow", help="apply/integrate a flow and certify it")
    flow = p.add_mutually_exclusive_group(required=True)
    flow.add_argument("--family", choices=FAMILY_IDS)
    flow.add_argument("--hamiltonian", help="integrate this Hamiltonian instead of a family")
    p.add_argument("--t", type=_finite_complex, required=True, help="complex parameter, e.g. 0.3 or 1+1i")
    p.add_argument("--n", type=_at_least(1), default=2)
    p.add_argument("--points", type=_at_least(1), default=3)
    p.add_argument("--steps", type=_at_least(0), default=0)
    common(p, cmd_flow)

    p = sub.add_parser("verify", help="verify the pinned bracket catalog")
    p.add_argument("--catalog", default="default")
    p.add_argument("--n", type=_at_least(1), default=3)
    p.add_argument("--samples", type=_at_least(1), default=50)
    common(p, cmd_verify)

    p = sub.add_parser("replay", help="replay proof chains step by step")
    p.add_argument("--chain", default="all")
    p.add_argument("--catalog", default="default")
    p.add_argument("--n", type=_at_least(1), default=3)
    p.add_argument("--samples", type=_at_least(1), default=40)
    common(p, cmd_replay)

    p = sub.add_parser("closure", help="build the Lie closure of the generators")
    p.add_argument("--n", type=_at_least(1), required=True)
    p.add_argument("--depth", type=_at_least(0), default=0)
    p.add_argument("--degree", type=int, default=8)
    common(p, cmd_closure)

    p = sub.add_parser("membership", help="certify membership in the Lie closure")
    p.add_argument("--target", required=True)
    p.add_argument("--n", type=_at_least(1), required=True)
    p.add_argument("--depth", type=_at_least(0), default=0)
    p.add_argument("--degree", type=int, default=8)
    common(p, cmd_membership)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except UsageError as exc:
        parser.error(str(exc))
    except PolynomialParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FloatingPointError, RuntimeError) as exc:
        # an overflow, or a sampler or point pool that gives up, leaves the
        # measurement unresolved, not failed
        print(f"inconclusive: {exc}")
        return EXIT_INCONCLUSIVE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
