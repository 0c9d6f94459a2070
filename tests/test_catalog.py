"""Pinned identity catalog: templates, record loading and verification."""

from dataclasses import replace
from fractions import Fraction

from cmpoisson import bracket_traceless
from cmpoisson.bracket import EXACT, LEADING, BracketCatalogEntry, verify_catalog
from cmpoisson.catalog import (
    bracketformular_expected_text,
    default_catalog_records,
    load_catalog_entries,
    load_catalog_records,
    make_bracketformular_entry,
    poly_text,
    record_to_entry,
    term_text,
)
from cmpoisson.grammar import parse_polynomial as P
from cmpoisson.poly import TRACELESS


def test_term_text_folds_empty_words():
    assert term_text(Fraction(2), 0, [(0, 0), (1, 1)]) == "2*n*tr(A B)"
    assert term_text(1, -1, [(2, 0)]) == "n^-1*tr(A^2)"
    assert term_text(0, 0, [(1, 1)]) is None
    assert poly_text([None, "tr(A B)", "-tr(B^2)"]) == "tr(A B) - tr(B^2)"


def test_leading_law_expected_for_spec_instance():
    assert (
        bracketformular_expected_text(2, 1, 1, 2)
        == "3*tr(A^2 B^2) - 4*n^-1*tr(A B)*tr(A B) + n^-1*tr(A^2)*tr(B^2)"
    )


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
