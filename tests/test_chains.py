"""Step-by-step replay of the generation-argument bracket chains."""

import copy

import pytest

from cmpoisson.chains import (
    default_chain_records,
    load_chain_records,
    replay_lemma_chain,
)


# one default chain per family, its step texts pinned literally
PINNED_CHAINS = {
    "power-ladder-A-k3": [
        ("tr(A^3)", "tr(B^2)", "6*tr(A^2 B)", "exact"),
        ("tr(A^2)", "tr(A B)*tr(A B)", "4*tr(A^2)*tr(A B)", "exact"),
        ("tr(A^2)", "$1", "8*tr(A^2)*tr(A^2)", "exact"),
        ("tr(A^2)*tr(A^2)", "tr(A B)", "4*tr(A^2)*tr(A^2)", "exact"),
        ("tr(A^3)", "tr(A^2 B)", "3*tr(A^4) - 3*n^-1*tr(A^2)*tr(A^2)", "exact"),
    ],
    "power-ladder-B-k3": [
        ("tr(B^3)", "tr(A^2)", "-6*tr(A B^2)", "exact"),
        ("tr(B^2)", "tr(A B)*tr(A B)", "-4*tr(B^2)*tr(A B)", "exact"),
        ("tr(B^2)", "$1", "8*tr(B^2)*tr(B^2)", "exact"),
        ("tr(B^2)*tr(B^2)", "tr(A B)", "-4*tr(B^2)*tr(B^2)", "exact"),
        ("tr(B^3)", "tr(A B^2)", "-3*tr(B^4) + 3*n^-1*tr(B^2)*tr(B^2)", "exact"),
    ],
    "cube-transfer": [
        ("tr(B^2)", "tr(A^3)", "-6*tr(A^2 B)", "exact"),
        ("tr(B^2)", "$0", "24*tr(A B^2)", "exact"),
        ("tr(B^2)", "$1", "-48*tr(B^3)", "exact"),
    ],
    "transport-right-p3q2": [
        ("tr(A^2)", "tr(B^5)", "10*tr(A B^4)", "exact"),
        ("tr(A^2)", "tr(A B^4)", "8*tr(A^2 B^3)", "leading-mod-degree", 1),
        ("tr(A^2)", "tr(A^2 B^3)", "6*tr(A^3 B^2)", "leading-mod-degree", 1),
    ],
    "kernel-shear-j3": [
        ("tr(A^3)", "tr(A B)*tr(A B)", "6*tr(A^3)*tr(A B)", "exact"),
        ("tr(A^3)", "$0", "18*tr(A^3)*tr(A^3)", "exact"),
    ],
    "product-ladder-j2-32": [
        ("tr(A^2)*tr(A B)", "tr(A^3)*tr(A^2)", "-5*tr(A^2)*tr(A^3)*tr(A^2)", "exact"),
    ],
}


@pytest.mark.parametrize("lemma_id", PINNED_CHAINS)
def test_default_chains_print_their_pinned_text(lemma_id):
    record = next(r for r in default_chain_records() if r["lemma_id"] == lemma_id)
    expected = []
    for lhs, rhs, text, kind, *bound in PINNED_CHAINS[lemma_id]:
        step = {"lhs": lhs, "rhs": rhs, "expected": text, "kind": kind}
        if bound:
            step["degree_bound"] = bound[0]
        expected.append(step)
    assert record == {"lemma_id": lemma_id, "steps": expected}


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
