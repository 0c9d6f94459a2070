"""Step-by-step replay of the generation-argument bracket chains."""

import copy

import pytest

from cmpoisson.chains import (
    chains_json,
    default_chain_records,
    load_chain_records,
    replay_lemma_chain,
)


def test_shipped_file_matches_generator():
    import importlib.resources as res

    shipped = res.files("cmpoisson").joinpath("data/chains.json").read_text()
    assert shipped == chains_json(default_chain_records())


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
    assert any(r.fit_residual is not None for r in report.results)


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
