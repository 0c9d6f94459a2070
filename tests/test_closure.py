"""Lie closure construction and membership certificates."""

import pytest

from cmpoisson.bracket import bracket_traceless
from cmpoisson.closure import (
    LieClosureBasis,
    MembershipChecker,
    PoolTooSmallError,
    build_closure,
    check_membership,
    default_depth_cap,
    recheck_certificate,
    reduce_pipeline,
    standard_generators,
)
from cmpoisson.grammar import format_polynomial as F, parse_polynomial as P
from cmpoisson.poly import PLAIN, TRACELESS


@pytest.fixture(scope="module")
def basis_n2():
    return build_closure(standard_generators(), depth_cap=6, degree_cap=6, n_value=2, seed=0)


def test_standard_generators():
    texts = [F(g) for g in standard_generators()]
    assert texts == ["tr(A^2)", "tr(B^2)", "tr(A^3)", "tr(A B)*tr(A B)"]


def test_plain_mode_generators_rejected():
    with pytest.raises(ValueError):
        build_closure([P("tr(X^2)", PLAIN)], 2, 4, 2)


def test_closure_contains_cube_of_second_letter(basis_n2):
    cert = check_membership(P("tr(B^3)", TRACELESS), basis_n2)
    assert cert.valid


def test_squared_generator_identity(basis_n2):
    # {tr A^2, {tr A^2, (tr AB)^2}} = 8 (tr A^2)^2
    inner = bracket_traceless(P("tr(A^2)", TRACELESS), P("tr(A B)*tr(A B)", TRACELESS))
    outer = bracket_traceless(P("tr(A^2)", TRACELESS), inner)
    assert outer == P("8*tr(A^2)*tr(A^2)", TRACELESS)
    cert = check_membership(P("tr(A^2)*tr(A^2)", TRACELESS), basis_n2)
    assert cert.valid


def test_trivial_member_has_tiny_residual(basis_n2):
    cert = check_membership(P("tr(A^2)", TRACELESS), basis_n2)
    assert cert.status == "member" and cert.residual < 1e-14


def test_product_membership_at_n2(basis_n2):
    cert = check_membership(P("tr(A B)*tr(A^2)", TRACELESS), basis_n2)
    assert cert.valid and cert.residual < 1e-8


def test_certificate_survives_fresh_resampling(basis_n2):
    cert = check_membership(P("tr(A^2 B^2)", TRACELESS), basis_n2)
    assert cert.valid
    assert recheck_certificate(cert, basis_n2, factor=10) < 1e-7


def test_certificate_coefficients_reconstruct_the_target(basis_n2):
    from cmpoisson.cm import PointEvaluator, sample_cm

    target = P("5*tr(A^2 B^2) - tr(A B)", TRACELESS)
    cert = check_membership(target, basis_n2)
    assert cert.valid
    pt = PointEvaluator(sample_cm(2, traceless=True, seed=321))
    combo = sum(
        c * pt.poly_value(e) for c, e in zip(cert.coefficients, basis_n2.elements)
    )
    want = pt.poly_value(target)
    assert abs(combo - want) <= 1e-9 * max(1.0, abs(want))


def test_tree_provenance_reproduces_elements(basis_n2):
    assert basis_n2.verify_trees()


def test_span_is_monotone_in_depth():
    sizes = []
    for depth in (1, 2, 3):
        b = build_closure(standard_generators(), depth, 6, 2, seed=0)
        sizes.append(len(b.elements))
    assert sizes == sorted(sizes)


def test_pool_too_small_is_reported():
    with pytest.raises(PoolTooSmallError):
        build_closure(standard_generators(), 6, 6, 2, seed=0, pool_size=8)


def test_degree_cap_bounds_elements(basis_n2):
    assert all(e.degree() <= 6 for e in basis_n2.elements)


def test_target_above_degree_cap_rejected(basis_n2):
    with pytest.raises(ValueError):
        check_membership(P("tr(A^4 B^4)", TRACELESS), basis_n2)


def test_membership_needs_more_points_than_basis_elements(basis_n2):
    # with no more points than unknowns the fit is exact for any target
    size = len(basis_n2.elements)
    for count in (5, size):
        with pytest.raises(ValueError, match="more sample points than the 16 basis elements"):
            MembershipChecker(basis_n2, sample_count=count)
    assert MembershipChecker(basis_n2, sample_count=size + 1).sample_count == size + 1


def test_degree_cap_below_every_generator_rejected():
    with pytest.raises(ValueError, match="degree cap 1 is below the smallest generator degree 2"):
        build_closure(standard_generators(), depth_cap=2, degree_cap=1, n_value=2)


def test_ill_conditioned_fit_is_inconclusive(basis_n2):
    # duplicated elements make the value matrix numerically rank deficient
    eps = P("tr(A^2)", TRACELESS) * 1
    degenerate = LieClosureBasis(
        generators=basis_n2.generators,
        elements=[basis_n2.elements[0], basis_n2.elements[0] + eps * 0],
        trees=[("gen", 0), ("gen", 0)],
        levels=[0, 0],
        depth_cap=basis_n2.depth_cap,
        degree_cap=basis_n2.degree_cap,
        n_value=2,
        seed=0,
        pool_size=basis_n2.pool_size,
    )
    cert = check_membership(P("tr(B^2)", TRACELESS), degenerate)
    assert cert.status == "inconclusive"


def test_not_found_wording_for_unreachable_depth():
    shallow = build_closure(standard_generators(), depth_cap=1, degree_cap=8, n_value=3, seed=0)
    cert = check_membership(P("tr(A^3 B^3)", TRACELESS), shallow)
    assert cert.status in ("not_found_at_depth", "member")  # never "not a member"
    if cert.status == "not_found_at_depth":
        assert not cert.valid


def test_default_depth_caps():
    assert default_depth_cap(2) == 8
    assert default_depth_cap(3) == 10


def test_closure_saturates_the_full_function_space(basis_n2):
    # the generated span equals the whole space of degree <= cap functions on
    # the variety.  Independent dimension count: the coordinate ring at n=2
    # is generated by u = tr A^2, v = tr B^2, w = tr AB (every other word
    # collapses through A^2 = (tr A^2/2) I), so the degree <= 6 piece is
    # spanned by the 20 monomials u^a v^b w^c with a+b+c <= 3 modulo the one
    # degree-4 relation from the rank condition times cofactors {1, u, v, w}:
    # 20 - 4 = 16 dimensions.
    assert len(basis_n2.elements) == 16


def test_pipeline_normalizes_peak_coefficient():
    p = P("6*tr(A^2)", TRACELESS)
    reduced = reduce_pipeline(p, 3)
    peak = max(abs(complex(c.evaluate(3))) for _, c in reduced.items())
    assert peak == pytest.approx(1.0)
