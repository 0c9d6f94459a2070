"""Pinned identity catalog: templates, record loading and verification."""

from dataclasses import replace
from fractions import Fraction
from itertools import product as iter_product

import pytest

from cmpoisson import bracket_traceless, catalog
from cmpoisson.bracket import EXACT, LEADING, BracketCatalogEntry, verify_catalog
from cmpoisson.catalog import (
    default_catalog_records,
    load_catalog_entries,
    load_catalog_records,
    law_terms,
    make_bracketformular_entry,
    poly_text,
    record_to_entry,
    terms_polynomial,
)
from cmpoisson.grammar import PolynomialParseError, parse_polynomial as P
from cmpoisson.poly import TRACELESS
from conftest import same

LAW_TUPLES = [t for t in iter_product(range(11), repeat=4) if 0 < sum(t) <= 10]


def test_poly_text_folds_empty_words():
    assert poly_text([(Fraction(2), 0, [(0, 0), (1, 1)])]) == "2*n*tr(A B)"
    assert poly_text([(1, -1, [(2, 0)])]) == "n^-1*tr(A^2)"
    assert poly_text([(Fraction(-3, 2), -1, [(0, 0), (0, 0)])]) == "-3/2*n"
    assert poly_text([(0, 0, [(1, 1)])]) == "0"
    assert poly_text([]) == "0"
    assert poly_text([(0, 0, [(1, 1)]), (1, 0, [(1, 1)]), (-1, 0, [(0, 2)])]) == "tr(A B) - tr(B^2)"
    # factors print in the template's order, not the canonical one
    assert poly_text([(1, 0, [(0, 3), (2, 0)])]) == "tr(B^3)*tr(A^2)"


def test_leading_law_expected_for_spec_instance():
    assert (
        poly_text(law_terms(2, 1, 1, 2))
        == "3*tr(A^2 B^2) - 4*n^-1*tr(A B)*tr(A B) + n^-1*tr(A^2)*tr(B^2)"
    )


# one default record per template family, its texts pinned literally
PINNED_RECORDS = [
    {"id": "power-pair-23", "mode": "traceless", "lhs": "tr(A^2)", "rhs": "tr(B^3)",
     "expected": "6*tr(A B^2) - 6*n^-1*tr(A)*tr(B^2)", "kind": "exact"},
    {"id": "weight-31", "mode": "traceless", "lhs": "tr(A^3 B)", "rhs": "tr(A B)",
     "expected": "2*tr(A^3 B)", "kind": "exact"},
    {"id": "single-splice-3", "mode": "traceless", "lhs": "tr(A^3)", "rhs": "tr(B^2)",
     "expected": "6*tr(A^2 B)", "kind": "exact"},
    {"id": "same-letter-B12", "mode": "traceless", "lhs": "tr(B)", "rhs": "tr(B^2)",
     "expected": "0", "kind": "exact"},
    {"id": "center-x-21", "mode": "plain", "lhs": "tr(X)", "rhs_from_traceless": "tr(A^2 B)",
     "expected": "0", "kind": "exact"},
    {"id": "leading-law-2212", "mode": "traceless", "lhs": "tr(A^2 B^2)", "rhs": "tr(A B^2)",
     "expected": "2*tr(A^2 B^3) - 4*n^-1*tr(A B^2)*tr(A B) + 2*n^-1*tr(A^2 B)*tr(B^2)",
     "kind": "leading-mod-degree", "degree_bound": 1},
]


@pytest.mark.parametrize("pinned", PINNED_RECORDS, ids=lambda r: r["id"])
def test_default_records_print_their_pinned_text(pinned):
    records = {r["id"]: r for r in default_catalog_records()}
    assert records[pinned["id"]] == pinned


def test_leading_law_entries_equal_the_parse_of_their_text():
    assert len(LAW_TUPLES) == 1000
    for j, k, p, q in LAW_TUPLES:
        entry = make_bracketformular_entry(j, k, p, q)
        same(entry.lhs, P(poly_text([(1, 0, [(j, k)])]), TRACELESS))
        same(entry.rhs, P(poly_text([(1, 0, [(p, q)])]), TRACELESS))
        same(entry.expected, P(poly_text(law_terms(j, k, p, q)), TRACELESS))
        assert entry.id == f"leading-law-{j}{k}{p}{q}"
        assert entry.kind == LEADING
        assert entry.degree_bound == j + k + p + q - 6


def test_default_leading_law_records_load_as_the_built_entries():
    records = [r for r in load_catalog_records() if r["id"].startswith("leading-law-")]
    assert len(records) == 4
    for record in records:
        loaded = record_to_entry(record)
        built = make_bracketformular_entry(*(int(c) for c in record["id"][-4:]))
        assert loaded == built
        for side in ("lhs", "rhs", "expected"):
            same(getattr(loaded, side), getattr(built, side))


def test_leading_law_entries_are_built_without_the_parser(monkeypatch):
    def refuse(text, mode):
        raise AssertionError("parse_polynomial called")

    monkeypatch.setattr(catalog, "parse_polynomial", refuse)
    entry = make_bracketformular_entry(2, 1, 1, 2)
    assert entry.expected == terms_polynomial(law_terms(2, 1, 1, 2))


def test_terms_polynomial_refuses_what_the_parser_refuses():
    with pytest.raises(ValueError, match="negative exponent"):
        terms_polynomial([(1, 0, [(-1, 2)])])
    with pytest.raises(ValueError, match="negative exponent"):
        poly_text([(1, 0, [(-1, 2)])])
    with pytest.raises(PolynomialParseError):
        P("tr(A^-1 B^2)", TRACELESS)
    # under a zero rational the word is never looked at
    assert terms_polynomial([(0, -1, [(-1, 2)])]).is_zero()
    assert poly_text([(0, -1, [(-1, 2)])]) == "0"
    # an empty word is a power of n; a length-1 word vanishes in traceless mode
    same(terms_polynomial([(3, -1, [(0, 0), (1, 1)])]), P("3*tr(A B)", TRACELESS))
    assert terms_polynomial([(1, 0, [(1, 0)])]).is_zero()


def test_catalog_loads_and_partitions():
    entries = load_catalog_entries()
    kinds = {e.kind for e in entries}
    assert kinds == {EXACT, LEADING}
    assert len(entries) > 100


def test_full_catalog_passes_at_n3():
    report = verify_catalog(load_catalog_entries(), n_value=3, sample_count=40, seed=0)
    failing = [r for r in report.results if r.status != "pass"]
    assert not failing, failing[:3]


def test_full_catalog_passes_at_n2():
    report = verify_catalog(load_catalog_entries(), n_value=2, sample_count=40, seed=1)
    failing = [r for r in report.results if r.status != "pass"]
    assert not failing, failing[:3]


def test_center_entries_expand_through_substitution():
    records = [r for r in load_catalog_records() if r["id"].startswith("center-")]
    assert records
    entry = record_to_entry(records[0])
    assert entry.lhs.mode == "plain" and entry.rhs.mode == "plain"


def test_wrong_identity_is_reported_with_difference():
    bad = BracketCatalogEntry(
        id="wrong",
        lhs=P("tr(A^2)", TRACELESS),
        rhs=P("tr(B^2)", TRACELESS),
        expected=P("5*tr(A B)", TRACELESS),
        kind=EXACT,
    )
    report = verify_catalog([bad], n_value=2, sample_count=4)
    assert not report.passed
    assert report.results[0].symbolic_difference == "-tr(A B)"


def test_leading_law_instance_certifies():
    entry = make_bracketformular_entry(2, 1, 1, 2)
    assert entry.degree_bound == 0
    report = verify_catalog([entry], n_value=3, sample_count=40, seed=1)
    assert report.passed
    # a tail term that straightens to 0 passes the leading check and must
    # be caught by the tail check alone
    tampered = replace(entry, expected=entry.expected + P("tr(A^2 B^2 A^2 B^2) - tr(A^4 B^4)", TRACELESS))
    (result,) = verify_catalog([tampered], n_value=3, sample_count=40, seed=1).results
    assert result.status == "fail" and result.symbolic_difference == ""
    assert result.detail == "tail not of degree <= 0 on the variety mod p"


def test_leading_law_straightened_top():
    entry = make_bracketformular_entry(2, 1, 1, 2)
    computed = bracket_traceless(entry.lhs, entry.rhs)
    from cmpoisson.bracket import leading_part

    assert leading_part(computed, entry.degree_bound) == entry.expected.straighten()
