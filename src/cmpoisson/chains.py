"""Replayable bracket chains: the step-by-step identities behind the
power-trace and product generation arguments.

Each chain is an ordered list of bracket identities; a step's operands are
polynomial texts or references "$k" to the exact result of step k, so the
replay follows the argument literally.  Every step is checked by
bracket.check_identity, as the catalog entries are.

Expected values come from closed-form splice computations done by hand, not
from the engine under test.  Two constants differ from the written sources:
{(tr A^2)^2, tr A^{k-2} B} = 4 tr A^2 tr A^{k-1} (Leibniz doubles the inner
bracket), and the triple application of {tr B^2, .} to tr A^3 ends at
-48 tr B^3.
"""

from __future__ import annotations

from functools import cache

from .bracket import EXACT, LEADING, IdentityReport, bracket, check_identity, check_kind
from .catalog import Term, check_fields, poly_text, read_records
from .grammar import parse_polynomial
from .modp import ExactPool
from .poly import TRACELESS, TracePolynomial


def _w(i: int, j: int) -> str:
    return poly_text([(1, 0, [(i, j)])])


def default_chain_records() -> list[dict]:
    chains: list[dict] = []

    # ladder producing tr A^{k+1}: splice, square, product, extend; its mirror
    # for tr B^{k+1} swaps A and B, which negates each bracket
    for letter, sign in (("A", 1), ("B", -1)):
        def w(i: int, j: int) -> tuple[int, int]:
            return (i, j) if sign > 0 else (j, i)

        def t(rat, n_power: int, *words: tuple[int, int]) -> Term:
            return (rat, n_power, [w(*word) for word in words])

        square = _w(*w(2, 0))
        for k in range(2, 6):
            steps = [
                {
                    "lhs": _w(*w(k, 0)),
                    "rhs": _w(*w(0, 2)),
                    "expected": poly_text([t(sign * 2 * k, 0, (k - 1, 1))]),
                    "kind": EXACT,
                },
                {
                    "lhs": square,
                    "rhs": "tr(A B)*tr(A B)",
                    "expected": poly_text([t(sign * 4, 0, (2, 0), (1, 1))]),
                    "kind": EXACT,
                },
                {  # $1 carries one sign and this bracket another
                    "lhs": square,
                    "rhs": "$1",
                    "expected": poly_text([t(8, 0, (2, 0), (2, 0))]),
                    "kind": EXACT,
                },
            ]
            if k >= 3:
                steps.append(
                    {
                        "lhs": poly_text([t(1, 0, (2, 0), (2, 0))]),
                        "rhs": _w(*w(k - 2, 1)),
                        "expected": poly_text([t(sign * 4, 0, (2, 0), (k - 1, 0))]),
                        "kind": EXACT,
                    }
                )
            steps.append(
                {
                    "lhs": _w(*w(3, 0)),
                    "rhs": _w(*w(k - 1, 1)),
                    "expected": poly_text(
                        [t(sign * 3, 0, (k + 1, 0)), t(-sign * 3, -1, (2, 0), (k - 1, 0))]
                    ),
                    "kind": EXACT,
                }
            )
            chains.append({"lemma_id": f"power-ladder-{letter}-k{k}", "steps": steps})

    # tr B^3 by applying {tr B^2, .} to tr A^3 thrice
    chains.append(
        {
            "lemma_id": "cube-transfer",
            "steps": [
                {
                    "lhs": "tr(B^2)",
                    "rhs": "tr(A^3)",
                    "expected": "-6*tr(A^2 B)",
                    "kind": EXACT,
                },
                {
                    "lhs": "tr(B^2)",
                    "rhs": "$0",
                    "expected": "24*tr(A B^2)",
                    "kind": EXACT,
                },
                {
                    "lhs": "tr(B^2)",
                    "rhs": "$1",
                    "expected": "-48*tr(B^3)",
                    "kind": EXACT,
                },
            ],
        }
    )

    # rightward exponent transport {tr A^2, tr A^j B^{m}} within a fixed degree
    for p, q in ((2, 2), (3, 2), (2, 3), (3, 3), (4, 2)):
        m = p + q
        steps = [
            {
                "lhs": "tr(A^2)",
                "rhs": _w(0, m),
                "expected": poly_text([(2 * m, 0, [(1, m - 1)])]),
                "kind": EXACT,
            }
        ]
        for j in range(1, p):
            steps.append(
                {
                    "lhs": "tr(A^2)",
                    "rhs": _w(j, m - j),
                    "expected": poly_text([(2 * (m - j), 0, [(j + 1, m - j - 1)])]),
                    "kind": LEADING,
                    "degree_bound": m - 4,
                }
            )
        chains.append({"lemma_id": f"transport-right-p{p}q{q}", "steps": steps})

    # kernel shears {tr A^j, (tr AB)^2} and the squares they produce
    for j in range(2, 6):
        chains.append(
            {
                "lemma_id": f"kernel-shear-j{j}",
                "steps": [
                    {
                        "lhs": _w(j, 0),
                        "rhs": "tr(A B)*tr(A B)",
                        "expected": poly_text([(2 * j, 0, [(j, 0), (1, 1)])]),
                        "kind": EXACT,
                    },
                    {
                        "lhs": _w(j, 0),
                        "rhs": "$0",
                        "expected": poly_text([(2 * j * j, 0, [(j, 0), (j, 0)])]),
                        "kind": EXACT,
                    },
                ],
            }
        )

    # pure-power product rule {tr A^j tr AB, prod tr A^{i_k}}
    for j, exps in ((2, (2, 2)), (3, (2,)), (2, (3, 2))):
        total = sum(exps)
        words = [(j, 0), *[(i, 0) for i in exps]]
        chains.append(
            {
                "lemma_id": f"product-ladder-j{j}-" + "".join(map(str, exps)),
                "steps": [
                    {
                        "lhs": poly_text([(1, 0, [(j, 0), (1, 1)])]),
                        "rhs": poly_text([(1, 0, [(i, 0) for i in exps])]),
                        "expected": poly_text([(-total, 0, words)]),
                        "kind": EXACT,
                    }
                ],
            }
        )
    return chains


def replay_lemma_chain(
    chain: dict,
    n_value: int = 3,
    sample_count: int = 40,
    seed: int = 0,
) -> IdentityReport:
    """Execute a chain's bracket sequence, checking every step as specified.

    Stops at the first failing step and reports its symbolic difference."""
    report = IdentityReport()
    pool = cache(lambda prime: ExactPool.sample(n_value, sample_count, seed, prime=prime))
    results: list[TracePolynomial] = []

    def resolve(text: str) -> TracePolynomial:
        if text.startswith("$"):
            return results[int(text[1:])]
        return parse_polynomial(text, TRACELESS)

    for idx, step in enumerate(chain["steps"]):
        lhs = resolve(step["lhs"])
        rhs = resolve(step["rhs"])
        expected = parse_polynomial(step["expected"], TRACELESS)
        computed = bracket(lhs, rhs)
        results.append(computed)
        result = check_identity(
            idx, computed, expected, step.get("kind"), step.get("degree_bound"), pool
        )
        report.results.append(result)
        if result.status != "pass":
            break
    return report


def load_chain_records(path: str | None = None) -> list[dict]:
    """The chains in a JSON file (default: default_chain_records()).

    Raises ValueError for a chain replay_lemma_chain cannot run: one that lacks
    a field, breaks the check_kind rule, holds text that does not parse or
    refers to a step that has not run."""
    records = default_chain_records() if path is None else read_records(path)
    for i, record in enumerate(records):
        check_fields(record, f"chain {i}", {"lemma_id": str, "steps": list})
        for idx, step in enumerate(record["steps"]):
            at = f"chain {i} step {idx}"
            check_fields(step, at, {"lhs": str, "rhs": str, "expected": str})
            check_kind(step.get("kind"), step.get("degree_bound"), at)
            for side in ("lhs", "rhs", "expected"):
                text = step[side]
                if side != "expected" and text.startswith("$"):
                    if not (text[1:].isdecimal() and int(text[1:]) < idx):
                        raise ValueError(f"{at}: {side} {text!r} does not name an earlier step")
                    continue
                try:
                    parse_polynomial(text, TRACELESS)
                except ValueError as exc:
                    raise ValueError(f"{at}: {side}: {exc}") from None
    return records

