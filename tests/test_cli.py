"""Command-line front end: outputs, exit codes, and determinism."""

import json

import pytest

from cmpoisson import cli, cm, flows
from cmpoisson.catalog import load_catalog_records
from cmpoisson.chains import load_chain_records
from cmpoisson.cli import (
    EXIT_FAIL,
    EXIT_INCONCLUSIVE,
    EXIT_PASS,
    EXIT_USAGE,
    main,
)
from cmpoisson.modp import CHECK_PRIME, PRIME


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


def test_bracket_of_a_product_prints_only_the_reduced_bracket(tmp_path, capsys):
    # a product has no raw splice display
    out_file = tmp_path / "bracket.json"
    code, out, _ = run(capsys, "bracket", "tr(A^2)*tr(B^2)", "tr(A^2)", "--out", str(out_file))
    assert code == EXIT_PASS
    assert out == "-4*tr(A B)*tr(A^2)\n"
    report = json.loads(out_file.read_text())
    assert report["raw"] is None and report["result"] == "-4*tr(A B)*tr(A^2)"


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
    # RK4 meets the closed-form image within FLOW_RANK_TOL at 1,000 steps
    code, out, _ = run(
        capsys, "flow", "--family", "scaling", "--t", "1+1i", "--n", "2",
        "--points", "2", "--steps", "1000", "--seed", "3",
    )
    assert code == EXIT_PASS
    assert out.startswith("family scaling at t=(1+1j): pass; ")
    assert out.endswith("; integrated 2 point(s): 2 pass, 0 unresolved, 0 FAIL\n")


def test_flow_scaling_at_large_t_passes(capsys):
    code, out, _ = run(capsys, "flow", "--family", "scaling", "--t", "50", "--n", "2")
    assert code == EXIT_PASS
    assert "pass" in out


def test_flow_ode_comparison_takes_the_certified_image(capsys):
    # the ode comparison once re-checked the stored t = 50 image, which fails
    # its rank test although the certified traceless image passes; RK4 misses
    # that image by no more than its own error estimate, so it is unresolved
    code, out, _ = run(
        capsys, "flow", "--family", "scaling", "--t", "50", "--n", "2",
        "--points", "2", "--steps", "400", "--seed", "0",
    )
    assert code == EXIT_INCONCLUSIVE
    assert "pass; max ode-vs-closed-form relative difference" in out
    assert out.endswith("; integrated 2 point(s): 0 pass, 2 unresolved, 0 FAIL\n")


FAMILY_STEPS_JOB = ("flow", "--family", "cubicShear", "--t", "0.3", "--n", "2", "--steps", "40", "--seed", "0")


def test_flow_family_endpoint_off_the_image_fails(capsys, monkeypatch):
    # an endpoint 1e-6 off the closed-form image whose RK4 estimate is zero
    ode_flow = cli.ode_flow

    def off_the_image(h, pt, t, steps, return_error=False):
        out, _ = ode_flow(h, pt, t, steps, return_error=True)
        return cm.CMPoint.from_matrices(out.pair.X + 1e-6, out.pair.Y, out.traceless), 0.0

    monkeypatch.setattr(cli, "ode_flow", off_the_image)
    code, out, _ = run(capsys, *FAMILY_STEPS_JOB)
    assert code == EXIT_FAIL
    assert out.endswith("; integrated 3 point(s): 0 pass, 0 unresolved, 3 FAIL\n")
    monkeypatch.undo()
    code, out, _ = run(capsys, *FAMILY_STEPS_JOB)
    assert code == EXIT_PASS
    assert out.endswith("; integrated 3 point(s): 3 pass, 0 unresolved, 0 FAIL\n")


@pytest.mark.filterwarnings("error")
def test_flow_image_that_is_not_finite_is_inconclusive(capsys):
    # e^{2 t tr(AB)} overflows at t = 250: the float image cannot be compared
    # with RK4, but the exact certificate never forms it
    code, out, err = run(
        capsys, "flow", "--family", "scaling", "--t", "250", "--n", "2", "--steps", "10", "--seed", "0"
    )
    assert code == EXIT_INCONCLUSIVE and err == ""
    assert out == "inconclusive: non-finite state during integration\n"
    code, out, err = run(capsys, "flow", "--family", "scaling", "--t", "250", "--n", "2", "--seed", "0")
    assert code == EXIT_PASS and err == ""
    assert out == "family scaling at t=(250+0j): pass\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "family, t, n",
    [("shearB", "1e7", "3"), ("shearA", "1e7", "3"), ("cubicShear", "1e6", "3"), ("scaling", "1e308", "2")],
)
def test_flow_certificate_holds_at_every_t(capsys, tmp_path, family, t, n):
    # float residuals grew like 3e-16 |t| and failed these exactly symplectic maps
    path = tmp_path / "flow.json"
    code, out, err = run(capsys, "flow", "--family", family, "--t", t, "--n", n, "--seed", "0", "--out", str(path))
    assert code == EXIT_PASS and err == ""
    assert out == f"family {family} at t={complex(t)}: pass\n"
    [record] = json.loads(path.read_text())["records"]
    assert record["passed"] and record["prime"] == PRIME and record["n"] == int(n)


def swap_hamiltonian(monkeypatch):
    hamiltonian = flows.family_hamiltonian
    monkeypatch.setattr(flows, "family_hamiltonian", lambda fam: hamiltonian("shearA"))


def double_the_map(monkeypatch):
    monkeypatch.setattr(flows, "_traceless_image", lambda fam, A, B: (A, 2 * B))


def miss_a_coefficient(monkeypatch):
    image = flows._traceless_image

    def wrong(fam, A, B):
        if fam.id == "shearB":
            return A, B - 3 * fam.t * A
        return image(flows.FlowFamily(fam.id, 2 * fam.t), A, B)

    monkeypatch.setattr(flows, "_traceless_image", wrong)


@pytest.mark.parametrize(
    "defect, family",
    [(swap_hamiltonian, "shearB"), (double_the_map, "shearB"), (miss_a_coefficient, "shearB"),
     (miss_a_coefficient, "cubicShear")],
)
def test_flow_certificate_negative_controls(capsys, monkeypatch, fresh_certificates, defect, family):
    defect(monkeypatch)
    code, out, err = run(capsys, "flow", "--family", family, "--t", "0.3", "--n", "3", "--seed", "0")
    assert code == EXIT_FAIL and err == ""
    assert out == f"family {family} at t=(0.3+0j): FAIL\n"


def test_flow_overflow_is_inconclusive(capsys):
    code, out, err = run(
        capsys, "flow", "--family", "scaling", "--t", "50", "--n", "2", "--steps", "10", "--seed", "0"
    )
    assert code == EXIT_INCONCLUSIVE
    assert out == "inconclusive: non-finite state during integration\n" and err == ""


def test_sampler_that_gives_up_is_inconclusive(capsys, monkeypatch):
    # a sampler allowed no tries gives up; that says nothing about the mathematics
    monkeypatch.setattr(cm, "MAX_RETRIES", 0)
    code, out, err = run(capsys, "sample", "--n", "100", "--seed", "0")
    assert code == EXIT_INCONCLUSIVE
    assert out == "inconclusive: could not draw 100 eigenvalues with separation >= 0.1 in 0 tries\n"
    assert err == ""


def test_replay_single_chain(capsys):
    code, out, _ = run(capsys, "replay", "--chain", "cube-transfer", "--n", "3", "--seed", "0")
    assert code == EXIT_PASS
    assert "pass cube-transfer" in out


def test_replay_of_a_chain_with_a_wrong_step_fails(tmp_path, capsys):
    path, out_file = tmp_path / "chains.json", tmp_path / "replay.json"
    path.write_text(json.dumps([{"lemma_id": "wrong", "steps": [{**GOOD_STEP, "expected": "3*tr(A B)"}]}]))
    code, out, _ = run(capsys, "replay", "--catalog", str(path), "--n", "2", "--seed", "0", "--out", str(out_file))
    assert code == EXIT_FAIL
    assert out.splitlines() == ["FAIL wrong (1 steps)", "  step 0: exact identity failed tr(A B)"]
    [chain] = json.loads(out_file.read_text())["chains"]
    assert chain["passed"] is False and chain["steps"][0]["status"] == "fail"


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
    assert "saturated: the basis reaches 9, the dimension of the functions of degree <= 4" in out
    assert set(report) == {"command", "n", "depth_cap", "degree_cap", "seed", "pool_size",
                           "elements", "levels", "trees"}


def test_closure_that_stops_short_says_so(capsys):
    code, out, _ = run(capsys, "closure", "--n", "3", "--depth", "1", "--degree", "6", "--seed", "0")
    assert code == EXIT_PASS
    assert out.splitlines()[1] == (
        "not saturated at depth 1: the basis stops below 41, the dimension of the "
        "functions of degree <= 6 (this does not claim non-generation)"
    )


def test_closure_at_n_1_keeps_nothing(capsys):
    # every generator vanishes under Cayley-Hamilton at n = 1
    code, out, _ = run(capsys, "closure", "--n", "1", "--seed", "0")
    assert code == EXIT_PASS
    assert out.splitlines()[0] == "closure at n=1: 0 independent elements (depth cap 8, degree cap 8)"
    assert out.splitlines()[1].startswith("not saturated at depth 8: the basis stops below 1,")


def test_closure_at_depth_0_keeps_only_the_generators(tmp_path, capsys):
    out_file = tmp_path / "closure.json"
    code, out, _ = run(
        capsys, "closure", "--n", "2", "--depth", "0", "--degree", "4",
        "--seed", "0", "--out", str(out_file),
    )
    assert code == EXIT_PASS
    assert out.splitlines()[0] == "closure at n=2: 3 independent elements (depth cap 0, degree cap 4)"
    report = json.loads(out_file.read_text())
    assert report["depth_cap"] == 0 and report["levels"] == [0, 0, 0]
    assert all(tree[0] == "gen" for tree in report["trees"])


def test_membership_at_depth_0_solves_against_the_generators(capsys):
    code, out, _ = run(
        capsys, "membership", "--target", "tr(A^2) + 2*tr(B^2)", "--n", "2", "--depth", "0", "--seed", "0",
    )
    assert code == EXIT_PASS and out.startswith("member: ")
    code, out, _ = run(capsys, "membership", "--target", "tr(A B)", "--n", "2", "--depth", "0", "--seed", "0")
    assert code == EXIT_INCONCLUSIVE and out.startswith("not found at depth 0: ")


def test_flow_hamiltonian_integration(capsys):
    code, out, _ = run(
        capsys, "flow", "--hamiltonian", "tr(A^2)", "--t", "0.5", "--n", "2",
        "--points", "2", "--steps", "50", "--seed", "1",
    )
    assert code == EXIT_PASS
    assert "integrated" in out


HAMILTONIAN_JOB = ("--t", "0.2", "--n", "3", "--steps", "40", "--seed", "0")


def test_flow_hamiltonian_off_the_locus_fails(capsys, monkeypatch):
    # with the Y-gradient zeroed the field is not Hamiltonian: RK4 resolves
    # the endpoint well, and it leaves the rank-one locus
    stacked = cm.GradientPlan.stacked

    def without_y_gradient(plan, Z):
        gradient = stacked(plan, Z).copy()
        gradient[1] = 0
        return gradient

    monkeypatch.setattr(cm.GradientPlan, "stacked", without_y_gradient)
    code, out, _ = run(capsys, "flow", "--hamiltonian", "tr(A^2 B)", *HAMILTONIAN_JOB)
    assert code == EXIT_FAIL
    assert out == "integrated 3 point(s): 0 pass, 0 unresolved, 3 FAIL\n"
    monkeypatch.undo()
    code, out, _ = run(capsys, "flow", "--hamiltonian", "tr(A^2 B)", *HAMILTONIAN_JOB)
    assert code == EXIT_PASS
    assert out == "integrated 3 point(s): 3 pass, 0 unresolved, 0 FAIL\n"


def test_flow_hamiltonian_within_its_truncation_error_is_inconclusive(capsys):
    # 40 RK4 steps leave rank residuals above FLOW_RANK_TOL, and the Richardson
    # estimate says the endpoints are no better than that
    code, out, _ = run(
        capsys, "flow", "--hamiltonian", "tr(A B)*tr(A B)*tr(A B) + 2*tr(A^2 B) + 5",
        "--t", "0.02+0.01i", "--n", "4", "--steps", "40", "--seed", "0",
    )
    assert code == EXIT_INCONCLUSIVE
    assert out == "integrated 3 point(s): 0 pass, 3 unresolved, 0 FAIL\n"


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
    assert code == EXIT_INCONCLUSIVE
    assert out.startswith("not found at depth 1: ") and "does not certify non-membership" in out


def test_membership_beyond_the_lifting_bound_is_inconclusive(capsys, tmp_path):
    out_file = tmp_path / "m.json"
    code, out, _ = run(
        capsys, "membership", "--target", "tr(A^2) + 1/1000003*tr(B^2)", "--n", "2",
        "--depth", "6", "--degree", "6", "--seed", "0", "--out", str(out_file),
    )
    assert code == EXIT_INCONCLUSIVE
    assert out.startswith("inconclusive: ")
    report = json.loads(out_file.read_text())
    assert report["status"] == "inconclusive" and report["coefficients"] == []


def test_membership_basis_dependent_on_its_pool_is_inconclusive(capsys, monkeypatch, tmp_path):
    # elements independent on the closure pool can still be dependent on the
    # membership pool, a Schwartz-Zippel accident of the pool: unresolved,
    # not bad input.  A repeated element stands in for that accident.
    build = cli.build_closure

    def degenerate(*args, **kwargs):
        basis = build(*args, **kwargs)
        basis.elements = basis.elements[:1] * 2
        return basis

    monkeypatch.setattr(cli, "build_closure", degenerate)
    out_file = tmp_path / "m.json"
    code, out, err = run(
        capsys, "membership", "--target", "tr(B^2)", "--n", "2", "--depth", "1",
        "--degree", "4", "--seed", "0", "--out", str(out_file),
    )
    assert code == EXIT_INCONCLUSIVE and err == ""
    assert out == "inconclusive: the basis elements are linearly dependent on the membership pool\n"
    assert not out_file.exists()


@pytest.mark.parametrize("prime", [PRIME, CHECK_PRIME])
def test_membership_with_a_prime_in_a_denominator_is_inconclusive(capsys, tmp_path, prime):
    out_file = tmp_path / "m.json"
    code, out, err = run(
        capsys, "membership", "--target", f"tr(A^2) + 1/{prime}*tr(B^2)", "--n", "2",
        "--depth", "6", "--degree", "6", "--seed", "0", "--out", str(out_file),
    )
    assert code == EXIT_INCONCLUSIVE and err == ""
    assert out == f"inconclusive: the prime {prime} divides a coefficient denominator of the target at peak 1\n"
    report = json.loads(out_file.read_text())
    assert report["status"] == "inconclusive" and report["coefficients"] == []
    assert set(report) == {
        "command", "target", "n", "depth_cap", "degree_cap", "seed", "status",
        "sample_count", "coefficients", "elements", "trees",
    }


@pytest.mark.parametrize("argv", [
    ("bracket", "tr(A^2)", "tr(B^2)"),
    ("reduce", "--n", "2", "tr(A^2)"),
    ("verify", "--n", "2"),
    ("replay", "--n", "2"),
    ("closure", "--n", "2"),
], ids=lambda argv: argv[0])
def test_only_sample_and_flow_take_tolerances(capsys, argv):
    err = usage_error(capsys, *argv, "--tol", "rank=1e-3")
    assert "unrecognized arguments: --tol rank=1e-3" in err


NO_TOLERANCE_ARGV = [
    ("bracket", "tr(A^2)", "tr(B^2)"),
    ("reduce", "--n", "2", "tr(A^2)"),
    ("sample", "--n", "2"),
    ("flow", "--family", "shearA", "--t", "1"),
    ("verify", "--n", "2"),
    ("replay", "--n", "2"),
    ("closure", "--n", "2"),
    ("membership", "--target", "tr(A^2)", "--n", "2"),
]
# Tolerances are module constants: each form a --tol override could take (a
# known name, one outside its old safe range, a non-number, a missing value,
# a name of another subcommand, an unknown name) is refused as an
# unrecognized argument, before any point is sampled.
TOLERANCE_FORMS = ["rank=1e-3", "rank=1.0", "rank=abc", "rank", "fit=1e-6", "flow_rank=1e-9",
                   "membership=1e-8", "bogus=1"]


@pytest.mark.parametrize(
    "argv, form",
    [(argv, form) for argv in NO_TOLERANCE_ARGV for form in TOLERANCE_FORMS],
    # the first form is named by its subcommand alone
    ids=[argv[0] if form == TOLERANCE_FORMS[0] else f"{argv[0]}-{form}"
         for argv in NO_TOLERANCE_ARGV for form in TOLERANCE_FORMS],
)
def test_no_subcommand_takes_a_tolerance(capsys, argv, form):
    err = usage_error(capsys, *argv, "--tol", form)
    assert f"unrecognized arguments: --tol {form}" in err


def test_wrong_tail_fails_and_too_few_samples_are_a_usage_error(tmp_path, capsys):
    # the added terms straighten to 0, so only the tail check can see them;
    # on 4 points the 4 monomials of degree <= 2 would fit any tail
    record = next(r for r in load_catalog_records() if r["id"] == "leading-law-3113")
    record["expected"] += " + 5*tr(A^2 B^2 A^2 B^2) - 5*tr(A^4 B^4)"
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps([record]))
    code, out, _ = run(capsys, "verify", "--catalog", str(path), "--n", "3", "--seed", "0")
    assert code == EXIT_FAIL
    assert out.startswith("FAIL leading-law-3113: tail not of degree <= 2 on the variety mod p")
    err = usage_error(capsys, "verify", "--catalog", str(path), "--n", "3", "--samples", "4")
    assert "more sample points than the 4 independent monomials, got 4" in err


@pytest.mark.parametrize(
    "command, records", [("verify", load_catalog_records), ("replay", load_chain_records)]
)
def test_defaults_dumped_to_a_file_give_the_same_report(tmp_path, capsys, command, records):
    path = tmp_path / "defaults.json"
    path.write_text(json.dumps(records()))
    reports = []
    for catalog in ("default", str(path)):
        out_file = tmp_path / "report.json"
        code, _, _ = run(capsys, command, "--catalog", catalog, "--n", "2", "--seed", "0", "--out", str(out_file))
        assert code == EXIT_PASS
        reports.append(out_file.read_bytes())
    assert reports[0] == reports[1]


def test_replay_with_too_few_samples_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["replay", "--n", "3", "--samples", "4", "--seed", "0"])
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the degree <= 2 tail check needs more sample points than "
        "the 4 independent monomials, got 4\n"
    )


@pytest.mark.parametrize("command", ["verify", "replay"])
def test_identity_reports_record_seed_and_samples(tmp_path, capsys, command):
    out_file = tmp_path / "report.json"
    code, _, _ = run(capsys, command, "--n", "2", "--samples", "12", "--seed", "7", "--out", str(out_file))
    assert code == EXIT_PASS
    report = json.loads(out_file.read_text())
    assert (report["n"], report["samples"], report["seed"]) == (2, 12, 7)


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


def test_membership_takes_no_sample_count(capsys):
    # its pool has POOL_MARGIN points beyond the basis elements
    err = usage_error(capsys, "membership", "--target", "tr(A^2)", "--n", "2", "--samples", "50")
    assert "unrecognized arguments: --samples 50" in err


def test_malformed_seed_variable_is_usage_error(capsys, monkeypatch, tmp_path):
    # the seed is --seed alone, 0 by default: no environment variable is read
    monkeypatch.setenv("CMPOISSON_SEED", "xyz")
    paths = tmp_path / "default.json", tmp_path / "seed0.json"
    for path, seed in zip(paths, ([], ["--seed", "0"])):
        code, _, err = run(capsys, "sample", "--n", "2", *seed, "--out", str(path))
        assert code == EXIT_PASS and err == ""
    assert json.loads(paths[0].read_text())[0]["seed"] == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


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
            "verify", [{**GOOD_ENTRY, "kind": "leading-mod-degree", "degree_bound": True}],
            "catalog record 0: kind 'leading-mod-degree' needs an integer degree_bound",
            id="verify-boolean-degree-bound",
        ),
        pytest.param(
            "replay", two_chains({**GOOD_STEP, "kind": "leading-mod-degree", "degree_bound": False}),
            "chain 1 step 0: kind 'leading-mod-degree' needs an integer degree_bound",
            id="replay-boolean-degree-bound",
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



@pytest.mark.parametrize("text", ["abc", "inf", "nan", "1e400", "1+nani"])
def test_flow_parameter_must_be_finite_complex(capsys, monkeypatch, text):
    monkeypatch.setattr(cli, "sample_cm", None)
    err = usage_error(capsys, "flow", "--family", "shearB", "--t", text)
    assert f"argument --t: {text!r} is not a finite complex number" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--hamiltonian", "tr(A^2)"), "--hamiltonian needs --steps of at least 1"),
        (("--family", "shearB", "--hamiltonian", "tr(A^2)", "--steps", "10"),
         "argument --hamiltonian: not allowed with argument --family"),
        ((), "one of the arguments --family --hamiltonian is required"),
    ],
    ids=["hamiltonian-without-steps", "family-and-hamiltonian", "neither"],
)
def test_flow_option_conflicts_are_usage_errors(capsys, monkeypatch, argv, message):
    monkeypatch.setattr(cli, "sample_cm", None)
    err = usage_error(capsys, "flow", *argv, "--t", "1")
    assert message in err
