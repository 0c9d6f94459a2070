"""Step-by-step replay of the generation-argument bracket chains."""

import copy

import pytest

from cmpoisson.chains import (
    default_chain_records,
    load_chain_records,
    replay_lemma_chain,
)


def test_all_shipped_chains_replay_at_n3():
    for record in load_chain_records():
        report = replay_lemma_chain(record, n_value=3, sample_count=30, seed=0)
        assert report.passed, (record["lemma_id"], [r for r in report.results if r.status != "pass"])


def test_cube_transfer_ends_at_minus_48():
    record = next(r for r in load_chain_records() if r["lemma_id"] == "cube-transfer")
    assert record["steps"][-1]["expected"] == "-48*tr(B^3)"
    report = replay_lemma_chain(record, n_value=2)
    assert report.passed


def test_transport_chains_use_leading_steps():
    record = next(
        r for r in load_chain_records() if r["lemma_id"] == "transport-right-p3q3"
    )
    kinds = [s["kind"] for s in record["steps"]]
    assert kinds[0] == "exact" and "leading-mod-degree" in kinds
    report = replay_lemma_chain(record, n_value=3, sample_count=30, seed=0)
    assert report.passed
    # a tail term that straightens to 0 passes the leading check and must
    # be caught by the tail check alone
    tampered = copy.deepcopy(record)
    tampered["steps"][-1]["expected"] += " + tr(A^2 B^2 A^2 B^2) - tr(A^4 B^4)"
    report = replay_lemma_chain(tampered, n_value=3, sample_count=30, seed=0)
    failed = report.results[-1]
    assert not report.passed and failed.id == len(record["steps"]) - 1
    assert failed.symbolic_difference == "" and failed.detail.startswith("tail not of degree")


def test_tampered_step_fails_with_difference():
    record = copy.deepcopy(
        next(r for r in load_chain_records() if r["lemma_id"] == "cube-transfer")
    )
    record["steps"][1]["expected"] = "23*tr(A B^2)"
    report = replay_lemma_chain(record, n_value=3)
    assert not report.passed
    failed = [r for r in report.results if r.status == "fail"]
    assert failed and failed[0].id == 1 and failed[0].symbolic_difference == "tr(A B^2)"
    # replay stops at the first failing step
    assert len(report.results) == 2


def test_unknown_step_kind_is_rejected():
    # a mistyped "exact" must not be certified under the weaker leading test
    record = copy.deepcopy(
        next(r for r in load_chain_records() if r["lemma_id"] == "transport-right-p3q3")
    )
    record["steps"][0]["kind"] = "exactt"
    record["steps"][0]["degree_bound"] = 2
    with pytest.raises(ValueError, match="unknown kind 'exactt'"):
        replay_lemma_chain(record, n_value=3, sample_count=30, seed=0)
