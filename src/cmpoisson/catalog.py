"""Pinned bracket-identity catalog: closed-form templates and loading.

The default catalog is built in process from closed-form templates
(independent of the bracket engine they test).  A template is a list of
(rational, n-power, words) terms: poly_text prints it as polynomial text with
grammar's printer, and make_bracketformular_entry builds its leading-law
entries from the same list without text.  A JSON file of records in the same
form can replace the default catalog:

    {tr A^j, tr B^q}      = jq tr A^{j-1}B^{q-1} - (jq/n) tr A^{j-1} tr B^{q-1}
    {tr A^j B^k, tr AB}   = (j-k) tr A^j B^k
    {tr A^j, tr B^2}      = 2j tr A^{j-1}B
    {tr A^j, tr A^k}      = {tr B^j, tr B^k} = 0
    {tr X, f}             = {tr Y, f} = 0 for invariant f (plain mode)
    {tr A^jB^k, tr A^pB^q} leading part per the weighted bidegree law,
                           tail of degree <= j+k+p+q-6 on the variety
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Iterable

from .bracket import EXACT, LEADING, BracketCatalogEntry, check_kind
from .grammar import format_term, join_terms, parse_polynomial
from .poly import PLAIN, TRACELESS, TracePolynomial
from .ring import QnCoeff
from .words import FIRST, SECOND, CyclicWord, canonicalize

MAX_EXPONENT = 5  # the largest exponent of a letter in the default templates


# ----------------------------------------------------------------------
# formula templates: (rational, n_power, [(i, j) words]) terms, printed as
# text or built as polynomials (no bracket engine involved)
# ----------------------------------------------------------------------

Term = tuple[int, int, list[tuple[int, int]]]


def _words(words: Iterable[tuple[int, int]]) -> list[CyclicWord]:
    """The canonical words A^i B^j; ValueError (from canonicalize) for a
    negative exponent, which no text can carry."""
    return [canonicalize(((FIRST, i), (SECOND, j))) for i, j in words]


def poly_text(terms: Iterable[Term]) -> str:
    """The traceless text of a template's terms, in their order, each printed
    by grammar.format_term with its factors in their order: a zero rational
    drops its term, and an empty word is one more power of n (tr I = n)."""
    printed = []
    for rat, n_power, words in terms:
        if rat == 0:
            continue
        factors = [w for w in _words(words) if not w.is_empty()]
        n_power += len(words) - len(factors)
        printed.append(format_term(Fraction(rat), n_power, (0, 0), factors, TRACELESS))
    return join_terms(printed)


def terms_polynomial(terms: Iterable[Term]) -> TracePolynomial:
    """The traceless polynomial that parse_polynomial gives for
    poly_text(terms), term order included, built without the text; the
    constructor folds each empty word into a power of n.

    Raises ValueError for a word with a negative exponent under a nonzero
    rational, as poly_text does."""
    return TracePolynomial(
        TRACELESS,
        [(((0, 0), tuple(_words(words))), QnCoeff.of(rat, n_power)) for rat, n_power, words in terms if rat != 0],
    )


def law_terms(j: int, k: int, p: int, q: int) -> list[Term]:
    """The leading law of {tr A^jB^k, tr A^pB^q} as three terms:
    (jq - kp) tr A^{j+p-1}B^{k+q-1} - (jq/n) tr A^{j-1}B^k tr A^pB^{q-1}
    + (kp/n) tr A^jB^{k-1} tr A^{p-1}B^q.  A negative exponent only ever
    appears under a zero rational."""
    return [
        (j * q - k * p, 0, [(j + p - 1, k + q - 1)]),
        (-j * q, -1, [(j - 1, k), (p, q - 1)]),
        (k * p, -1, [(j, k - 1), (p - 1, q)]),
    ]


def make_bracketformular_entry(j: int, k: int, p: int, q: int) -> BracketCatalogEntry:
    """Leading-law entry for {tr A^jB^k, tr A^pB^q}, bound j+k+p+q-6, built
    from the law's terms; equal, term order included, to the record_to_entry
    of its default record text."""
    lhs = terms_polynomial([(1, 0, [(j, k)])])
    rhs = terms_polynomial([(1, 0, [(p, q)])])
    expected = terms_polynomial(law_terms(j, k, p, q))
    return BracketCatalogEntry(
        id=f"leading-law-{j}{k}{p}{q}",
        lhs=lhs,
        rhs=rhs,
        expected=expected,
        kind=LEADING,
        degree_bound=j + k + p + q - 6,
    )


# ----------------------------------------------------------------------
# default catalog records
# ----------------------------------------------------------------------

def default_catalog_records() -> list[dict]:
    records: list[dict] = []
    for j in range(1, MAX_EXPONENT + 1):
        for q in range(1, MAX_EXPONENT + 1):
            records.append(
                {
                    "id": f"power-pair-{j}{q}",
                    "mode": TRACELESS,
                    "lhs": poly_text([(1, 0, [(j, 0)])]),
                    "rhs": poly_text([(1, 0, [(0, q)])]),
                    "expected": poly_text(
                        [(j * q, 0, [(j - 1, q - 1)]), (-j * q, -1, [(j - 1, 0), (0, q - 1)])]
                    ),
                    "kind": EXACT,
                }
            )
    for j in range(0, MAX_EXPONENT + 1):
        for k in range(0, MAX_EXPONENT + 1):
            if j == 0 and k == 0:
                continue
            records.append(
                {
                    "id": f"weight-{j}{k}",
                    "mode": TRACELESS,
                    "lhs": poly_text([(1, 0, [(j, k)])]),
                    "rhs": "tr(A B)",
                    "expected": poly_text([(j - k, 0, [(j, k)])]),
                    "kind": EXACT,
                }
            )
    for j in range(1, MAX_EXPONENT + 1):
        records.append(
            {
                "id": f"single-splice-{j}",
                "mode": TRACELESS,
                "lhs": poly_text([(1, 0, [(j, 0)])]),
                "rhs": "tr(B^2)",
                "expected": poly_text([(2 * j, 0, [(j - 1, 1)])]),
                "kind": EXACT,
            }
        )
    for letter, power in (("A", lambda e: (e, 0)), ("B", lambda e: (0, e))):
        for j in range(1, MAX_EXPONENT + 1):
            for k in range(j, MAX_EXPONENT + 1):
                records.append(
                    {
                        "id": f"same-letter-{letter}{j}{k}",
                        "mode": TRACELESS,
                        "lhs": poly_text([(1, 0, [power(j)])]),
                        "rhs": poly_text([(1, 0, [power(k)])]),
                        "expected": "0",
                        "kind": EXACT,
                    }
                )
    for scalar in ("X", "Y"):
        for j in range(0, MAX_EXPONENT + 1):
            for k in range(0, MAX_EXPONENT + 1):
                if j + k == 0:
                    continue
                records.append(
                    {
                        "id": f"center-{scalar.lower()}-{j}{k}",
                        "mode": PLAIN,
                        "lhs": f"tr({scalar})",
                        "rhs_from_traceless": poly_text([(1, 0, [(j, k)])]),
                        "expected": "0",
                        "kind": EXACT,
                    }
                )
    for (j, k, p, q) in ((2, 1, 1, 2), (2, 2, 1, 2), (3, 1, 1, 3), (2, 2, 2, 2)):
        records.append(
            {
                "id": f"leading-law-{j}{k}{p}{q}",
                "mode": TRACELESS,
                "lhs": poly_text([(1, 0, [(j, k)])]),
                "rhs": poly_text([(1, 0, [(p, q)])]),
                "expected": poly_text(law_terms(j, k, p, q)),
                "kind": LEADING,
                "degree_bound": j + k + p + q - 6,
            }
        )
    return records


def record_to_entry(record: dict) -> BracketCatalogEntry:
    mode = record.get("mode", TRACELESS)
    lhs = parse_polynomial(record["lhs"], mode)
    if "rhs_from_traceless" in record:
        if mode != PLAIN:
            raise ValueError(f"rhs_from_traceless needs mode {PLAIN!r}, not {mode!r}")
        rhs = parse_polynomial(record["rhs_from_traceless"], TRACELESS).to_plain()
    else:
        rhs = parse_polynomial(record["rhs"], mode)
    expected = parse_polynomial(record["expected"], mode)
    return BracketCatalogEntry(
        id=record["id"],
        lhs=lhs,
        rhs=rhs,
        expected=expected,
        kind=record["kind"],
        degree_bound=record.get("degree_bound"),
    )


def read_records(path: str) -> list:
    """The JSON list in the file at path.

    Raises ValueError when the file cannot be read or holds no JSON list."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from None
    records = json.loads(text)  # a json.JSONDecodeError is a ValueError
    if not isinstance(records, list):
        raise ValueError(f"{path} holds no JSON list of records")
    return records


def check_fields(record, where: str, fields: dict[str, type]) -> None:
    """Raise ValueError unless record is a JSON object with a value of the
    given type under each key in fields."""
    if not isinstance(record, dict):
        raise ValueError(f"{where} is not a JSON object")
    for key, expected_type in fields.items():
        if not isinstance(record.get(key), expected_type):
            raise ValueError(f"{where} needs a {expected_type.__name__} {key!r}")


def load_catalog_records(path: str | None = None) -> list[dict]:
    """The records of the catalog file at path (default: default_catalog_records())."""
    return default_catalog_records() if path is None else read_records(path)


def load_catalog_entries(path: str | None = None) -> list[BracketCatalogEntry]:
    """The entries of a catalog file (default: the templates' catalog).

    Raises ValueError, naming the record, for one that lacks a field, breaks
    the check_kind rule or holds text that does not parse."""
    entries = []
    for i, record in enumerate(load_catalog_records(path)):
        where = f"catalog record {i}"
        check_fields(record, where, {"id": str, "lhs": str, "expected": str})
        rhs_key = "rhs_from_traceless" if "rhs_from_traceless" in record else "rhs"
        check_fields(record, where, {rhs_key: str})
        check_kind(record.get("kind"), record.get("degree_bound"), where)
        try:
            entries.append(record_to_entry(record))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    return entries

