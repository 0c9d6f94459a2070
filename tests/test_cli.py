"""Command-line front end: outputs, exit codes, and determinism."""

import json

import pytest

from cmpoisson import cli
from cmpoisson.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_PASS,
    EXIT_USAGE,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bracket_prints_raw_and_reduced(capsys):
    code, out, _ = run(capsys, "bracket", "--mode", "traceless", "tr(A^2)", "tr(B^2)")
    assert code == EXIT_PASS
    lines = out.strip().splitlines()
    assert lines[0] == "4*tr(A B) - 4*n^-1*tr(A)*tr(B)"
    assert lines[1] == "reduced: 4*tr(A B)"


def test_bracket_plain_mode(capsys):
    code, out, _ = run(capsys, "bracket", "--mode", "plain", "tr(X)", "tr(Y)")
    assert code == EXIT_PASS
    assert out.strip() == "n"


def test_reduce_command(capsys):
    code, out, _ = run(capsys, "reduce", "--mode", "plain", "--n", "2", "tr(X^3)")
    assert code == EXIT_PASS
    assert out.strip() == "3/2*tr(X)*tr(X^2) - 1/2*tr(X)*tr(X)*tr(X)"


def test_parse_error_exits_3(capsys):
    code, _, err = run(capsys, "bracket", "--mode", "plain", "tr(Q)", "tr(Y)")
    assert code == EXIT_USAGE
    assert "line 1" in err


def test_usage_error_exits_3(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["definitely-not-a-command"])
    assert exc.value.code == EXIT_USAGE


def test_sample_writes_points(tmp_path, capsys):
    out_file = tmp_path / "pts.json"
    code, out, _ = run(
        capsys, "sample", "--n", "3", "--count", "4", "--traceless",
        "--seed", "5", "--out", str(out_file),
    )
    assert code == EXIT_PASS
    data = json.loads(out_file.read_text())
    assert len(data) == 4 and data[0]["n"] == 3


def test_verify_reports_pass(tmp_path, capsys):
    out_file = tmp_path / "verify.json"
    code, out, _ = run(
        capsys, "verify", "--n", "3", "--samples", "25", "--seed", "0",
        "--out", str(out_file),
    )
    assert code == EXIT_PASS
    report = json.loads(out_file.read_text())
    assert all(r["status"] == "pass" for r in report["results"])


def test_reports_are_byte_identical_for_same_seed(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(
            capsys, "verify", "--n", "2", "--samples", "10", "--seed", "42",
            "--out", str(path),
        )
        assert code == EXIT_PASS
    assert a.read_bytes() == b.read_bytes()


def test_flow_family_certifies(capsys):
    code, out, _ = run(
        capsys, "flow", "--family", "scaling", "--t", "1+1i", "--n", "2",
        "--points", "2", "--steps", "100", "--seed", "3",
    )
    assert code == EXIT_PASS
    assert "pass" in out


def test_replay_single_chain(capsys):
    code, out, _ = run(capsys, "replay", "--chain", "cube-transfer", "--n", "3", "--seed", "0")
    assert code == EXIT_PASS
    assert "pass cube-transfer" in out


def test_replay_unknown_chain_is_usage_error(capsys):
    code, _, err = run(capsys, "replay", "--chain", "no-such-chain")
    assert code == EXIT_USAGE


def test_closure_report(tmp_path, capsys):
    out_file = tmp_path / "closure.json"
    code, out, _ = run(
        capsys, "closure", "--n", "2", "--depth", "4", "--degree", "4",
        "--seed", "0", "--out", str(out_file),
    )
    assert code == EXIT_PASS
    report = json.loads(out_file.read_text())
    assert report["elements"] and len(report["trees"]) == len(report["elements"])
    assert "independent elements" in out


def test_flow_hamiltonian_integration(capsys):
    code, out, _ = run(
        capsys, "flow", "--hamiltonian", "tr(A^2)", "--t", "0.5", "--n", "2",
        "--points", "2", "--steps", "50", "--seed", "1",
    )
    assert code == EXIT_PASS
    assert "integrated" in out


def test_membership_member_exits_0(capsys):
    code, out, _ = run(
        capsys, "membership", "--target", "tr(A^2 B^2)", "--n", "2",
        "--depth", "6", "--degree", "6", "--seed", "0",
    )
    assert code == EXIT_PASS
    assert "member" in out


def test_membership_shallow_depth_is_inconclusive(capsys):
    code, out, _ = run(
        capsys, "membership", "--target", "tr(A^3 B^3)", "--n", "3",
        "--depth", "1", "--degree", "8", "--seed", "0",
    )
    assert code in (EXIT_PASS, EXIT_INCONCLUSIVE)
    if code == EXIT_INCONCLUSIVE:
        assert "not found at depth" in out


def test_tolerance_override_warns_outside_safe_range(capsys):
    code, out, err = run(
        capsys, "bracket", "--mode", "plain", "tr(X)", "tr(Y)", "--tol", "fit=1.0"
    )
    assert code == EXIT_PASS
    assert "outside documented safe range" in err


def test_unknown_tolerance_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--tol", "bogus=1"])
    assert exc.value.code == EXIT_USAGE


def usage_error(capsys, *argv):
    """Run a command that must fail as a usage error; return its stderr."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


def test_over_cap_membership_target_is_rejected_before_the_build(capsys, monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("build_closure must not run for an over-cap target")

    monkeypatch.setattr(cli, "build_closure", no_build)
    err = usage_error(capsys, "membership", "--target", "tr(A^10)", "--n", "2")
    assert "target degree 10 exceeds basis degree cap 8" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("closure", "--n", "2", "--degree", "1"),
        ("membership", "--target", "1", "--n", "2", "--degree", "1"),
    ],
    ids=lambda argv: argv[0],
)
def test_degree_cap_below_every_generator_is_rejected_before_the_build(capsys, monkeypatch, argv):
    def no_build(*args, **kwargs):
        raise AssertionError("build_closure must not run for an unusable degree cap")

    monkeypatch.setattr(cli, "build_closure", no_build)
    err = usage_error(capsys, *argv)
    assert "degree cap 1 is below the smallest generator degree 2" in err


@pytest.mark.parametrize("samples", ["5", "9"])
def test_membership_samples_not_above_basis_size_is_usage_error(capsys, samples):
    # depth 1 at n=3 gives 9 elements; 5 points used to certify any target
    err = usage_error(
        capsys, "membership", "--target", "tr(A^3 B^3)", "--n", "3",
        "--depth", "1", "--samples", samples, "--seed", "0",
    )
    assert f"more sample points than the 9 basis elements, got {samples}" in err


def test_non_numeric_tolerance_is_usage_error(capsys):
    err = usage_error(capsys, "verify", "--tol", "rank=abc")
    assert "rank='abc' is not a number" in err


def test_tolerance_without_value_is_usage_error(capsys):
    err = usage_error(capsys, "verify", "--tol", "rank")
    assert "NAME=VALUE" in err


def test_malformed_seed_variable_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("CMPOISSON_SEED", "xyz")
    err = usage_error(capsys, "sample", "--n", "2")
    assert "CMPOISSON_SEED='xyz'" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("reduce", "--n", "0", "tr(A^2)"),
        ("sample", "--n", "0"),
        ("flow", "--family", "scaling", "--t", "1", "--n", "0"),
        ("verify", "--n", "0"),
        ("replay", "--n", "0"),
        ("closure", "--n", "0"),
        ("membership", "--target", "tr(A^2)", "--n", "0"),
    ],
    ids=lambda argv: argv[0],
)
def test_matrix_size_below_one_is_usage_error(capsys, argv):
    err = usage_error(capsys, *argv)
    assert "--n" in err and "below the minimum 1" in err


GOOD_STEP = {"lhs": "tr(A^2)", "rhs": "tr(B^2)", "expected": "4*tr(A B)", "kind": "exact"}
GOOD_ENTRY = {"id": "splice", **GOOD_STEP}


def two_chains(*bad_steps):
    """A valid chain followed by one made of bad_steps."""
    return [{"lemma_id": "good", "steps": [GOOD_STEP]}, {"lemma_id": "bad", "steps": list(bad_steps)}]


@pytest.mark.parametrize(
    "command, content, message",
    [
        pytest.param("verify", None, "cannot read", id="verify-missing-file"),
        pytest.param("replay", None, "cannot read", id="replay-missing-file"),
        pytest.param("verify", "[{", "line 1 column 3", id="verify-not-json"),
        pytest.param("verify", {"splice": GOOD_ENTRY}, "holds no JSON list", id="verify-not-a-list"),
        pytest.param("replay", {"good": GOOD_STEP}, "holds no JSON list", id="replay-not-a-list"),
        pytest.param(
            "verify", [{k: v for k, v in GOOD_ENTRY.items() if k != "lhs"}],
            "catalog record 0 needs a str 'lhs'", id="verify-missing-text",
        ),
        pytest.param(
            "verify", [GOOD_ENTRY, {**GOOD_ENTRY, "kind": "leading-mod-degree"}],
            "catalog record 1: kind 'leading-mod-degree' needs an integer degree_bound",
            id="verify-missing-degree-bound",
        ),
        pytest.param(
            "replay", two_chains({**GOOD_STEP, "kind": "leading-mod-degree"}),
            "chain 1 step 0: kind 'leading-mod-degree' needs an integer degree_bound",
            id="replay-missing-degree-bound",
        ),
        pytest.param(
            "verify", [{**GOOD_ENTRY, "kind": "exactt", "degree_bound": 2}],
            "unknown kind 'exactt'", id="verify-unknown-kind",
        ),
        pytest.param(
            "replay", two_chains({**GOOD_STEP, "kind": "exactt", "degree_bound": 2}),
            "unknown kind 'exactt'", id="replay-unknown-kind",
        ),
        pytest.param(
            "replay", two_chains(GOOD_STEP, {**GOOD_STEP, "rhs": "$1"}),
            "chain 1 step 1: rhs '$1' does not name an earlier step", id="replay-forward-reference",
        ),
        pytest.param(
            "verify", [{**GOOD_ENTRY, "lhs": "tr(Q)"}], "catalog record 0: ", id="verify-parse-error",
        ),
        pytest.param(
            "replay", two_chains({**GOOD_STEP, "lhs": "tr(Q)"}), "chain 1 step 0: lhs: ",
            id="replay-parse-error",
        ),
        pytest.param(
            "replay", two_chains(GOOD_STEP, {**GOOD_STEP, "lhs": "$0", "expected": "$0"}),
            "chain 1 step 1: expected: ", id="replay-step-reference-as-expected",
        ),
        pytest.param(
            "verify",
            [{"id": "x", "lhs": "tr(A^2)", "rhs_from_traceless": "tr(B^2)", "expected": "0", "kind": "exact"}],
            "catalog record 0: rhs_from_traceless needs mode 'plain', not 'traceless'",
            id="verify-rhs-from-traceless-in-traceless-mode",
        ),
    ],
)
def test_malformed_catalog_file_is_usage_error(tmp_path, capsys, monkeypatch, command, content, message):
    def no_check(*args, **kwargs):
        raise AssertionError("no identity may be checked before the whole file is")

    monkeypatch.setattr(cli, "verify_catalog", no_check)
    monkeypatch.setattr(cli.chains_mod, "replay_lemma_chain", no_check)
    path = tmp_path / "catalog.json"
    if content is not None:
        path.write_text(content if isinstance(content, str) else json.dumps(content))
    err = usage_error(capsys, command, "--catalog", str(path), "--n", "2")
    assert message in err

