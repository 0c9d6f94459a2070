"""Pinned --out reports: the exact results of fixed CLI jobs must not change.

The reports under tests/data hold only exact fields (polynomials, trees,
levels, sizes, verdicts, and membership coefficients lifted from F_p to
rationals), so they do not depend on the machine.  A change to the exact
algebra that alters a single term, its coefficient, or which candidates the
closure keeps shows up here."""

import json
import os

import pytest

from cmpoisson.cli import EXIT_PASS, main

DATA = os.path.join(os.path.dirname(__file__), "data")

JOBS = {
    "closure_n2_seed0": ["closure", "--n", "2", "--seed", "0"],
    "closure_n3_seed0": ["closure", "--n", "3", "--seed", "0"],
    # 176 elements: saturated at degree 8
    "closure_n4_seed0": ["closure", "--n", "4", "--seed", "0"],
    "reduce_traceless_n2": ["reduce", "--mode", "traceless", "--n", "2", "tr(A^5 B^3)"],
    "bracket_traceless": ["bracket", "tr(A^3 B^2)", "tr(A B^4)"],
    "verify_n2_seed0": ["verify", "--n", "2", "--seed", "0"],
    "replay_n3_seed0": ["replay", "--n", "3", "--seed", "0"],
    "membership_square_n2": ["membership", "--target", "tr(A^2 B^2)", "--n", "2", "--seed", "0"],
    "membership_product_n3": ["membership", "--target", "tr(A^2)*tr(A^2)*tr(B^2)*tr(B^2)",
                              "--n", "3", "--seed", "0"],
}


@pytest.mark.parametrize("name", sorted(JOBS))
def test_report_matches_pinned_file(name, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main([*JOBS[name], "--out", str(out)]) == EXIT_PASS
    capsys.readouterr()
    with open(os.path.join(DATA, f"{name}.json")) as fh:
        expected = json.load(fh)
    assert json.loads(out.read_text()) == expected
