"""Model phase spaces, exact coverage, and direct products."""

from fractions import Fraction

import pytest

from cmpoisson import models
from cmpoisson.grammar import parse_polynomial as P
from cmpoisson.models import (
    CYLINDER,
    PLANE,
    TORUS,
    LaurentAdapter,
    LaurentPoly2,
    ProductSpace,
    TraceAdapter,
    coverage_box,
    default_generators,
    model_bracket,
    model_generation,
    monomial_bracket,
    product_bracket,
)
from cmpoisson.poly import TRACELESS


def mono(space, j, k, c=1):
    return LaurentPoly2.monomial(space, (j, k), c)


def test_plane_bracket_rule():
    assert model_bracket(mono(PLANE, 2, 0), mono(PLANE, 0, 3)) == mono(PLANE, 1, 2, 6)


def test_cylinder_bracket_rule():
    assert model_bracket(mono(CYLINDER, 2, 0), mono(CYLINDER, 0, -3)) == mono(
        CYLINDER, 1, -3, -6
    )


def test_torus_bracket_rule():
    assert model_bracket(mono(TORUS, 2, 0), mono(TORUS, 0, 3)) == mono(TORUS, 2, 3, 6)


def test_bracket_of_itself_vanishes():
    for space in (PLANE, CYLINDER, TORUS):
        f = mono(space, 1, 0) + mono(space, 0, 2, Fraction(1, 3))
        assert model_bracket(f, f).is_zero()


def test_space_mismatch_rejected():
    with pytest.raises(ValueError):
        model_bracket(mono(PLANE, 1, 0), mono(TORUS, 1, 0))
    with pytest.raises(ValueError):
        LaurentPoly2(PLANE, [((-1, 0), Fraction(1))])


def test_exponent_weight_antisymmetry():
    for space in (PLANE, CYLINDER, TORUS):
        w1, e1 = monomial_bracket(space, (2, 1), (1, 3))
        w2, e2 = monomial_bracket(space, (1, 3), (2, 1))
        assert w1 == -w2 and e1 == e2


def test_plane_coverage_to_degree_five():
    report = model_generation(PLANE, default_generators(PLANE, 5), 5)
    assert report.passed, report.unreached


def test_cylinder_coverage():
    report = model_generation(CYLINDER, default_generators(CYLINDER, 4), 4)
    assert report.passed, report.unreached


def test_torus_coverage_from_small_generators():
    report = model_generation(TORUS, default_generators(TORUS, 4), 4)
    assert report.passed, report.unreached
    assert (0, 0) not in report.reached  # constants are genuinely unreachable


def all_pairs_closure(space, gens, degree_cap):
    """The reached set of a frontier search that brackets each new exponent
    with each reached one in both orders, and its number of brackets."""
    work = coverage_box(space, degree_cap) | set(gens)
    reached, frontier, calls = set(gens), set(gens), 0
    while frontier:
        new, snapshot = set(), set(reached)
        for e1 in frontier:
            for e2 in snapshot:
                for a, b in ((e1, e2), (e2, e1)):
                    calls += 1
                    weight, target = monomial_bracket(space, a, b)
                    if weight != 0 and target in work and target not in reached:
                        reached.add(target)
                        new.add(target)
        frontier = new
    return reached, calls


@pytest.mark.parametrize("space, cap", [(PLANE, 8), (CYLINDER, 4), (TORUS, 4)])
def test_generation_brackets_each_pair_once(space, cap, monkeypatch):
    calls = []
    monkeypatch.setattr(models, "monomial_bracket", lambda *a: calls.append(a[1:]) or monomial_bracket(*a))
    gens = default_generators(space, cap)
    reached, reference_calls = all_pairs_closure(space, gens, cap)
    assert model_generation(space, gens, cap).reached == reached
    assert len({frozenset(pair) for pair in calls}) == len(calls)
    assert 2 * len(calls) <= reference_calls


def test_degenerate_generators_fail_with_report():
    report = model_generation(PLANE, [(1, 0)], 3)
    assert not report.passed
    assert (0, 1) in report.unreached and (1, 1) in report.unreached


# ---------------- direct products ----------------

@pytest.fixture
def plane_product():
    return ProductSpace(LaurentAdapter(PLANE), LaurentAdapter(PLANE))


def test_cross_factor_brackets_vanish(plane_product):
    z_left = plane_product.embed_left(mono(PLANE, 1, 0))
    z_right = plane_product.embed_right(mono(PLANE, 1, 0))
    assert product_bracket(z_left, z_right).is_zero()


def test_same_factor_brackets_use_factor_rule(plane_product):
    f = plane_product.embed_left(mono(PLANE, 2, 0))
    g = plane_product.embed_left(mono(PLANE, 0, 3))
    expected = plane_product.embed_left(mono(PLANE, 1, 2, 6))
    assert product_bracket(f, g) == expected


def test_polarization_identity(plane_product):
    f = plane_product.embed_left(mono(PLANE, 2, 1))
    g = plane_product.embed_right(mono(PLANE, 1, 1))
    lhs = 2 * (f * g)
    rhs = (f + g) ** 2 - f ** 2 - g ** 2
    assert lhs == rhs


def test_nested_bracket_pull_through(plane_product):
    # {f g1, g~} = f {g1, g~} for f from the left factor
    f = plane_product.embed_left(mono(PLANE, 2, 0))
    g1 = plane_product.embed_right(mono(PLANE, 1, 0))
    gt = plane_product.embed_right(mono(PLANE, 0, 2))
    assert product_bracket(f * g1, gt) == f * product_bracket(g1, gt)


def test_matrix_pair_product():
    space = ProductSpace(TraceAdapter(), TraceAdapter())
    f = space.embed_left(P("tr(A^2)", TRACELESS))
    g = space.embed_right(P("tr(B^2)", TRACELESS))
    assert product_bracket(f, g).is_zero()
    lhs = 2 * (f * g)
    rhs = (f + g) ** 2 - f ** 2 - g ** 2
    assert lhs == rhs
    # same-factor brackets reproduce the trace bracket
    h = space.embed_left(P("tr(B^2)", TRACELESS))
    expected = space.embed_left(P("4*tr(A B)", TRACELESS))
    assert product_bracket(f, h) == expected


def test_coverage_box_shapes():
    assert (0, 0) in coverage_box(PLANE, 3)
    assert (3, -3) in coverage_box(CYLINDER, 3)
    assert (-2, 2) in coverage_box(TORUS, 2)
    assert (4, 0) not in coverage_box(PLANE, 3)


@pytest.mark.parametrize(
    "space, rejected, accepted",
    [
        (PLANE, [(-1, 0), (0, -1)], [(0, 0), (2, 3)]),
        (CYLINDER, [(-1, 0), (-1, -1)], [(0, -1), (2, -3)]),
        (TORUS, [], [(-1, 0), (0, -1), (-2, -3)]),
    ],
)
def test_exponents_may_be_negative_exactly_where_the_shift_is_zero(space, rejected, accepted):
    for e in rejected:
        with pytest.raises(ValueError):
            LaurentPoly2.monomial(space, e)
        with pytest.raises(ValueError):
            model_generation(space, [e], 1)
    for e in accepted:
        assert LaurentPoly2.monomial(space, e).terms == {e: 1}


def test_unknown_space_rejected():
    with pytest.raises(ValueError):
        LaurentPoly2("sphere")
    with pytest.raises(ValueError):
        monomial_bracket("sphere", (1, 0), (0, 1))
    with pytest.raises(ValueError):
        monomial_bracket("sphere", (1, 0), (1, 0))
    with pytest.raises(ValueError):
        coverage_box("sphere", 2)


# Poisson bivector pi of each space: {f, g} = pi (f_z g_w - f_w g_z)
BIVECTORS = {PLANE: {(0, 0): 1}, CYLINDER: {(0, 1): 1}, TORUS: {(1, 1): 1}}


def _derivative(f, var):
    out = {}
    for e, c in f.items():
        if e[var]:
            d = (e[0] - 1, e[1]) if var == 0 else (e[0], e[1] - 1)
            out[d] = out.get(d, 0) + c * e[var]
    return out


def _times(f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = (e1[0] + e2[0], e1[1] + e2[1])
            out[e] = out.get(e, 0) + c1 * c2
    return out


def _oracle_bracket(space, e1, e2):
    f, g = {e1: 1}, {e2: 1}
    jacobian = _times(_derivative(f, 0), _derivative(g, 1))
    for e, c in _times(_derivative(f, 1), _derivative(g, 0)).items():
        jacobian[e] = jacobian.get(e, 0) - c
    return {e: c for e, c in _times(BIVECTORS[space], jacobian).items() if c}


@pytest.mark.parametrize("space", [PLANE, CYLINDER, TORUS])
def test_monomial_bracket_matches_the_bivector(space):
    box = sorted(coverage_box(space, 3))
    for e1 in box:
        for e2 in box:
            weight, target = monomial_bracket(space, e1, e2)
            assert ({target: weight} if weight else {}) == _oracle_bracket(space, e1, e2), (e1, e2)


def test_product_power_needs_a_positive_exponent(plane_product):
    f = plane_product.embed_left(mono(PLANE, 2, 1)) + plane_product.embed_right(mono(PLANE, 0, 1))
    with pytest.raises(ValueError):
        f ** 0
    assert f ** 1 == f
    assert f ** 3 == f * f * f


def test_nested_product_is_an_algebra():
    plane = LaurentAdapter(PLANE)
    inner = ProductSpace(plane, plane)
    outer = ProductSpace(inner, plane)

    def left_left(e):
        return outer.embed_left(inner.embed_left(mono(PLANE, *e)))

    z, w = left_left((1, 0)), left_left((0, 1))
    assert product_bracket(z, w) == left_left((0, 0))
    z_middle = outer.embed_left(inner.embed_right(mono(PLANE, 1, 0)))
    w_right = outer.embed_right(mono(PLANE, 0, 1))
    assert product_bracket(z, w_right).is_zero()
    assert product_bracket(z_middle, w).is_zero()
    # Leibniz across the factors: {z w', w} = {z, w} w'
    assert product_bracket(z * w_right, w) == w_right


def test_elements_of_different_product_spaces_do_not_mix():
    plane = LaurentAdapter(PLANE)
    first, second = ProductSpace(plane, plane), ProductSpace(plane, plane)
    f = first.embed_left(mono(PLANE, 1, 0))
    g = second.embed_left(mono(PLANE, 0, 1))
    for combine in (lambda a, b: a + b, lambda a, b: a * b, product_bracket):
        with pytest.raises(ValueError):
            combine(f, g)
    with pytest.raises(ValueError):
        ProductSpace(first, plane).embed_left(g)
    assert f != second.embed_left(mono(PLANE, 1, 0))


def test_product_elements_are_immutable(plane_product):
    f = plane_product.embed_left(mono(PLANE, 1, 0))
    for name in ("algebra", "terms", "space"):
        with pytest.raises(AttributeError):
            setattr(f, name, None)
    assert f == plane_product.embed_left(mono(PLANE, 1, 0))
