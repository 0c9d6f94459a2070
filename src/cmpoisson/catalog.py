"""Pinned bracket-identity catalog: data file generation and loading.

The default catalog ships as JSON so new identities can be pinned without a
rebuild.  Entry texts are produced from closed-form templates (independent of
the bracket engine they test):

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
from importlib import resources
from typing import Iterable

from .bracket import EXACT, LEADING, BracketCatalogEntry, check_kind
from .grammar import parse_polynomial
from .poly import PLAIN, TRACELESS


# ----------------------------------------------------------------------
# formula templates (text level; no bracket engine involved)
# ----------------------------------------------------------------------

def word_text(i: int, j: int) -> str | None:
    """'A^i B^j' with zero exponents dropped; None for the empty word."""
    parts = []
    if i:
        parts.append("A" + (f"^{i}" if i > 1 else ""))
    if j:
        parts.append("B" + (f"^{j}" if j > 1 else ""))
    return " ".join(parts) if parts else None


def term_text(rat, n_power: int = 0, words: Iterable[tuple[int, int]] = ()) -> str | None:
    """One grammar term: rational * n^power * product of tr(A^i B^j) factors.

    Empty-word factors fold into an extra power of n (tr I = n)."""
    rat = Fraction(rat)
    if rat == 0:
        return None
    factors = []
    for i, j in words:
        w = word_text(i, j)
        if w is None:
            n_power += 1
        else:
            factors.append(f"tr({w})")
    sign = "-" if rat < 0 else ""
    mag = -rat if rat < 0 else rat
    pieces = []
    if n_power:
        pieces.append("n" if n_power == 1 else f"n^{n_power}")
    if mag != 1 or not (pieces or factors):
        pieces.insert(0, str(mag))
    pieces.extend(factors)
    return sign + "*".join(pieces)


def poly_text(terms: Iterable[str | None]) -> str:
    kept = [t for t in terms if t]
    if not kept:
        return "0"
    out = kept[0]
    for t in kept[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


def ajbk_expected_text(j: int, q: int) -> str:
    return poly_text(
        [
            term_text(j * q, 0, [(j - 1, q - 1)]),
            term_text(-j * q, -1, [(j - 1, 0), (0, q - 1)]),
        ]
    )


def bracketformular_expected_text(j: int, k: int, p: int, q: int) -> str:
    return poly_text(
        [
            term_text(j * q - k * p, 0, [(j + p - 1, k + q - 1)]),
            term_text(-j * q, -1, [(j - 1, k), (p, q - 1)]),
            term_text(k * p, -1, [(j, k - 1), (p - 1, q)]),
        ]
    )


def make_bracketformular_entry(j: int, k: int, p: int, q: int) -> BracketCatalogEntry:
    """Leading-law entry for {tr A^jB^k, tr A^pB^q}, bound j+k+p+q-6."""
    lhs = parse_polynomial(poly_text([term_text(1, 0, [(j, k)])]), TRACELESS)
    rhs = parse_polynomial(poly_text([term_text(1, 0, [(p, q)])]), TRACELESS)
    expected = parse_polynomial(bracketformular_expected_text(j, k, p, q), TRACELESS)
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

def default_catalog_records(max_exponent: int = 5) -> list[dict]:
    records: list[dict] = []
    for j in range(1, max_exponent + 1):
        for q in range(1, max_exponent + 1):
            records.append(
                {
                    "id": f"power-pair-{j}{q}",
                    "mode": TRACELESS,
                    "lhs": poly_text([term_text(1, 0, [(j, 0)])]),
                    "rhs": poly_text([term_text(1, 0, [(0, q)])]),
                    "expected": ajbk_expected_text(j, q),
                    "kind": EXACT,
                }
            )
    for j in range(0, max_exponent + 1):
        for k in range(0, max_exponent + 1):
            if j == 0 and k == 0:
                continue
            records.append(
                {
                    "id": f"weight-{j}{k}",
                    "mode": TRACELESS,
                    "lhs": poly_text([term_text(1, 0, [(j, k)])]),
                    "rhs": "tr(A B)",
                    "expected": poly_text([term_text(j - k, 0, [(j, k)])]),
                    "kind": EXACT,
                }
            )
    for j in range(1, max_exponent + 1):
        records.append(
            {
                "id": f"single-splice-{j}",
                "mode": TRACELESS,
                "lhs": poly_text([term_text(1, 0, [(j, 0)])]),
                "rhs": "tr(B^2)",
                "expected": poly_text([term_text(2 * j, 0, [(j - 1, 1)])]),
                "kind": EXACT,
            }
        )
    for letter in ("A", "B"):
        for j in range(1, max_exponent + 1):
            for k in range(j, max_exponent + 1):
                records.append(
                    {
                        "id": f"same-letter-{letter}{j}{k}",
                        "mode": TRACELESS,
                        "lhs": f"tr({letter}^{j})" if j > 1 else f"tr({letter})",
                        "rhs": f"tr({letter}^{k})" if k > 1 else f"tr({letter})",
                        "expected": "0",
                        "kind": EXACT,
                    }
                )
    for scalar in ("X", "Y"):
        for j in range(0, max_exponent + 1):
            for k in range(0, max_exponent + 1):
                if j + k == 0:
                    continue
                records.append(
                    {
                        "id": f"center-{scalar.lower()}-{j}{k}",
                        "mode": PLAIN,
                        "lhs": f"tr({scalar})",
                        "rhs_from_traceless": poly_text([term_text(1, 0, [(j, k)])]),
                        "expected": "0",
                        "kind": EXACT,
                    }
                )
    for (j, k, p, q) in ((2, 1, 1, 2), (2, 2, 1, 2), (3, 1, 1, 3), (2, 2, 2, 2)):
        records.append(
            {
                "id": f"leading-law-{j}{k}{p}{q}",
                "mode": TRACELESS,
                "lhs": poly_text([term_text(1, 0, [(j, k)])]),
                "rhs": poly_text([term_text(1, 0, [(p, q)])]),
                "expected": bracketformular_expected_text(j, k, p, q),
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


def read_records(path: str | None, default_name: str) -> list:
    """The JSON list in the file at path, or in the shipped data/<default_name>.

    Raises ValueError when the file cannot be read or holds no JSON list."""
    if path is None:
        text = resources.files("cmpoisson").joinpath(f"data/{default_name}").read_text()
    else:
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read {path}: {exc.strerror}") from None
    records = json.loads(text)  # a json.JSONDecodeError is a ValueError
    if not isinstance(records, list):
        raise ValueError(f"{path or default_name} holds no JSON list of records")
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
    return read_records(path, "catalog.json")


def load_catalog_entries(path: str | None = None) -> list[BracketCatalogEntry]:
    """The entries of a catalog file (default: the shipped data/catalog.json).

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


def catalog_json(records: list[dict]) -> str:
    return json.dumps(records, indent=1, sort_keys=True) + "\n"


if __name__ == "__main__":
    import pathlib

    out = pathlib.Path(__file__).parent / "data" / "catalog.json"
    out.write_text(catalog_json(default_catalog_records()))
    print(f"wrote {out}")
