"""Pinned --out reports: the exact results of fixed CLI jobs must not change.

Apart from the tail-fit residuals of verify and replay, the reports under
tests/data hold only exact fields (polynomials, trees, levels, sizes,
verdicts), so they do not depend on the machine.  A change to the exact
algebra that alters a single term, its coefficient, or which candidates the
closure keeps shows up here.  A fit_residual is a float that may differ in
its last bits between machines, so it must only be null where the pinned
report has null and below the fit tolerance everywhere else."""

import json
import os

import pytest

from cmpoisson.cli import EXIT_PASS, main

DATA = os.path.join(os.path.dirname(__file__), "data")

JOBS = {
    "closure_n2_seed0": ["closure", "--n", "2", "--seed", "0"],
    "closure_n3_seed0": ["closure", "--n", "3", "--seed", "0"],
    "reduce_traceless_n2": ["reduce", "--mode", "traceless", "--n", "2", "tr(A^5 B^3)"],
    "bracket_traceless": ["bracket", "tr(A^3 B^2)", "tr(A B^4)"],
    "verify_n2_seed0": ["verify", "--n", "2", "--seed", "0"],
    "replay_n3_seed0": ["replay", "--n", "3", "--seed", "0"],
}
FIT_TOLERANCE = 1e-8


def split_residuals(node, residuals: list):
    """A copy of a report with every fit_residual set to None; the values
    removed are appended to residuals in document order."""
    if isinstance(node, dict):
        out = {}
        for key, value in node.items():
            if key == "fit_residual":
                residuals.append(value)
                out[key] = None
            else:
                out[key] = split_residuals(value, residuals)
        return out
    if isinstance(node, list):
        return [split_residuals(value, residuals) for value in node]
    return node


@pytest.mark.parametrize("name", sorted(JOBS))
def test_report_matches_pinned_file(name, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main([*JOBS[name], "--out", str(out)]) == EXIT_PASS
    capsys.readouterr()
    with open(os.path.join(DATA, f"{name}.json")) as fh:
        expected = json.load(fh)
    got_residuals, pinned_residuals = [], []
    got = split_residuals(json.loads(out.read_text()), got_residuals)
    assert got == split_residuals(expected, pinned_residuals)
    assert [r is None for r in got_residuals] == [r is None for r in pinned_residuals]
    assert all(r < FIT_TOLERANCE for r in got_residuals if r is not None)
