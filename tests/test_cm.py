"""Matrix-pair sampling, evaluation, gradients, and the numeric bracket."""

import numpy as np
import pytest

from cmpoisson.cm import (
    CMPoint,
    MatrixPair,
    PointEvaluator,
    PointPool,
    child_rng,
    diagonal_normal_form,
    evaluate,
    finite_difference_gradient,
    load_points,
    numeric_bracket,
    numeric_gradient,
    point_from_dict,
    point_to_dict,
    rank_residual,
    sample_cm,
    save_points,
    symplectic_pullback_residual,
)
from cmpoisson.bracket import bracket_standard, bracket_traceless
from cmpoisson.grammar import parse_polynomial as P
from cmpoisson.words import FIRST
from cmpoisson.poly import PLAIN, TRACELESS, TracePolynomial
from cmpoisson.ring import QnCoeff
from conftest import random_polynomial


def test_two_particle_closed_form():
    X, Y = diagonal_normal_form(np.array([1.0, -1.0]), np.array([0.0, 0.0]))
    M = X @ Y - Y @ X - 1j * np.eye(2)
    assert np.allclose(M, -1j * np.array([[1, -1], [-1, 1]]), atol=1e-15)
    s = np.linalg.svd(M, compute_uv=False)
    assert s[1] <= 1e-15 * s[0]


def test_scalar_case_is_trivially_rank_one():
    pt = sample_cm(1, traceless=True, seed=3)
    assert pt.rank_residual == 0.0
    assert abs(pt.pair.X[0, 0]) < 1e-12


def test_seeded_three_particle_point():
    pt = sample_cm(3, traceless=False, seed=5)
    assert pt.rank_residual < 1e-12


def test_sampled_invariants_across_sizes():
    for n in (1, 2, 3, 4):
        for i in range(25):
            pt = sample_cm(n, traceless=True, seed=11, index=i)
            assert pt.rank_residual < 1e-10
            assert pt.trace_residual < 1e-12


def test_separation_failure_reports():
    with pytest.raises(RuntimeError):
        sample_cm(4, traceless=False, seed=0, eigen_separation=10.0, max_retries=5)


def test_seed_splitter_is_deterministic_and_independent():
    a = child_rng(7, 0).normal(size=4)
    b = child_rng(7, 0).normal(size=4)
    c = child_rng(7, 1).normal(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_generic_rank_constant():
    pt = sample_cm(3, traceless=False, seed=9, lambda_const=0.5 + 0.25j)
    assert pt.rank_residual < 1e-10
    assert rank_residual(pt.pair, 0.5 + 0.25j) < 1e-10


# ---------------- evaluation ----------------

def test_identity_trace_is_n():
    pt = sample_cm(3, traceless=True, seed=1)
    p = TracePolynomial.constant(QnCoeff.of(1, 1), TRACELESS)  # tr(I) = n
    assert evaluate(p, pt) == pytest.approx(3.0)


def test_trace_vanishes_on_traceless_points():
    pt = sample_cm(3, traceless=True, seed=2)
    assert abs(evaluate(P("tr(X)", PLAIN), pt)) < 1e-12


def test_hand_evaluation_of_diagonal_square():
    X = np.diag([1.0, -1.0]).astype(complex)
    pt = CMPoint(MatrixPair(2, X, np.zeros((2, 2), complex)), False, 0.0, 0.0)
    assert evaluate(P("tr(X^2)", PLAIN), pt) == pytest.approx(2.0)


def test_dimension_mismatch_rejected():
    pt = sample_cm(2, traceless=False, seed=0)
    with pytest.raises(ValueError):
        evaluate(P("tr(X)", PLAIN), pt, n_symbol_value=3)


def test_conjugation_invariance(rng):
    pt = sample_cm(3, traceless=False, seed=4)
    for _ in range(5):
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        conj = CMPoint(
            MatrixPair(3, g @ pt.pair.X @ np.linalg.inv(g), g @ pt.pair.Y @ np.linalg.inv(g)),
            False,
            0.0,
            0.0,
        )
        for _ in range(5):
            p = random_polynomial(rng, PLAIN, max_degree=4)
            a, b = evaluate(p, pt), evaluate(p, conj)
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a))


# ---------------- point pools ----------------

def explicit_values(p, points):
    """Values and term-magnitude sums of p by a plain per-point np.trace of
    matrix products, independent of the evaluators' caches."""
    values, magnitudes = [], []
    for pt in points:
        n, X, Y = pt.pair.n, pt.pair.X, pt.pair.Y
        tr_x, tr_y = np.trace(X), np.trace(Y)
        if p.mode == TRACELESS:
            X = X - tr_x / n * np.eye(n)
            Y = Y - tr_y / n * np.eye(n)
        total, magnitude = 0j, 0.0
        for (central, factors), coeff in p.items():
            term = complex(coeff.evaluate(n)) * tr_x ** central[0] * tr_y ** central[1]
            for w in factors:
                m = np.eye(n, dtype=complex)
                for letter in w.letters():
                    m = m @ (X if letter == FIRST else Y)
                term *= np.trace(m)
            total += term
            magnitude += abs(term)
        values.append(total)
        magnitudes.append(magnitude)
    return np.array(values), np.array(magnitudes)


def assert_pool_matches(p, points):
    values, magnitudes = PointPool(points).values_and_magnitudes(p)
    want_values, want_magnitudes = explicit_values(p, points)
    assert values.shape == magnitudes.shape == (len(points),)
    scale = np.maximum(want_magnitudes, 1.0)
    assert np.all(np.abs(values - want_values) <= 1e-12 * scale)
    assert np.all(np.abs(magnitudes - want_magnitudes) <= 1e-12 * scale)
    # a sum of terms is at most the sum of their sizes (up to one rounding)
    assert np.all(magnitudes >= np.abs(values) * (1 - 1e-14))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_point_pool_matches_explicit_traces(rng, n):
    traceless_points = [sample_cm(n, traceless=True, seed=31, index=i) for i in range(5)]
    general_points = [sample_cm(n, traceless=False, seed=32, index=i) for i in range(5)]
    for points in (traceless_points, general_points):
        for _ in range(6):
            assert_pool_matches(random_polynomial(rng, PLAIN, max_degree=5, max_terms=3), points)
            assert_pool_matches(
                random_polynomial(rng, TRACELESS, max_degree=5, max_terms=3), points
            )
    # central symbols tr X, tr Y only show on points that are not traceless
    for _ in range(6):
        p = random_polynomial(rng, TRACELESS, max_degree=5, max_terms=3, allow_central=True)
        assert_pool_matches(p, general_points)
    assert_pool_matches(P("tr(X)*tr(X)*tr(A B) - 3*tr(Y)", TRACELESS), general_points)


def test_point_pool_zero_and_constant():
    points = [sample_cm(3, traceless=False, seed=33, index=i) for i in range(4)]
    pool = PointPool(points)
    values, magnitudes = pool.values_and_magnitudes(TracePolynomial.zero(TRACELESS))
    assert np.array_equal(values, np.zeros(4)) and np.array_equal(magnitudes, np.zeros(4))
    constant = TracePolynomial.constant(QnCoeff.of(-3, 1), PLAIN)  # -3 n
    values, magnitudes = pool.values_and_magnitudes(constant)
    assert np.array_equal(values, np.full(4, -9.0 + 0j))
    assert np.array_equal(magnitudes, np.full(4, 9.0))
    assert_pool_matches(constant, points)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_point_pool_equals_point_evaluator_bit_for_bit(rng, n):
    # the pool repeats PointEvaluator's operations in the same order, so
    # pool-based certificates reproduce per-point ones exactly
    for traceless in (True, False):
        points = [sample_cm(n, traceless=traceless, seed=34, index=i) for i in range(6)]
        pool = PointPool(points)
        evaluators = [PointEvaluator(pt) for pt in points]
        for _ in range(8):
            for p in (
                random_polynomial(rng, PLAIN, max_degree=6, max_terms=4),
                random_polynomial(rng, TRACELESS, max_degree=6, max_terms=4, allow_central=True),
            ):
                values, magnitudes = pool.values_and_magnitudes(p)
                pairs = [ev.poly_value_and_magnitude(p) for ev in evaluators]
                assert values.tolist() == [v for v, _ in pairs]
                assert magnitudes.tolist() == [m for _, m in pairs]


def test_point_pool_rejects_empty_and_mixed_sizes():
    with pytest.raises(ValueError):
        PointPool([])
    with pytest.raises(ValueError):
        PointPool([sample_cm(2, traceless=True, seed=0), sample_cm(3, traceless=True, seed=0)])


# ---------------- gradients ----------------

def test_gradient_of_square_is_twice_transpose():
    pt = sample_cm(3, traceless=False, seed=6)
    dX, dY = numeric_gradient(P("tr(X^2)", PLAIN), pt)
    assert np.allclose(dX, 2 * pt.pair.X.T, atol=1e-12)
    assert np.allclose(dY, 0.0)


def test_gradient_of_crossed_trace_is_transpose():
    pt = sample_cm(3, traceless=False, seed=6)
    dX, _ = numeric_gradient(P("tr(X Y)", PLAIN), pt)
    assert np.allclose(dX, pt.pair.Y.T, atol=1e-12)


def test_gradients_match_finite_differences(rng):
    for mode, traceless in ((PLAIN, False), (TRACELESS, True)):
        for i in range(6):
            pt = sample_cm(3, traceless=traceless, seed=8, index=i)
            p = random_polynomial(rng, mode, max_degree=4)
            gx, gy = numeric_gradient(p, pt)
            fx, fy = finite_difference_gradient(p, pt)
            scale = max(1.0, np.abs(gx).max(), np.abs(gy).max())
            assert np.abs(gx - fx).max() / scale < 1e-6
            assert np.abs(gy - fy).max() / scale < 1e-6


# ---------------- numeric bracket ----------------

def test_numeric_bracket_of_coordinates_is_n():
    pt = sample_cm(3, traceless=False, seed=10)
    v = numeric_bracket(P("tr(X)", PLAIN), P("tr(Y)", PLAIN), pt)
    assert v == pytest.approx(3.0, abs=1e-12)


def test_numeric_bracket_same_letter_vanishes():
    pt = sample_cm(3, traceless=False, seed=10)
    v = numeric_bracket(P("tr(X^2)", PLAIN), P("tr(X^3)", PLAIN), pt)
    assert abs(v) < 1e-12


def test_numeric_bracket_matches_symbolic_on_squares():
    pt = sample_cm(3, traceless=False, seed=10)
    v = numeric_bracket(P("tr(X^2)", PLAIN), P("tr(Y^2)", PLAIN), pt)
    w = evaluate(P("4*tr(X Y)", PLAIN), pt)
    assert abs(v - w) <= 1e-10 * max(1.0, abs(w))


def test_numeric_bracket_against_finite_difference_gradients(rng):
    # fully independent route: difference-quotient gradients only
    pt = sample_cm(2, traceless=True, seed=12)
    for _ in range(6):
        f = random_polynomial(rng, TRACELESS, max_degree=4)
        g = random_polynomial(rng, TRACELESS, max_degree=4)
        fx, fy = finite_difference_gradient(f, pt)
        gx, gy = finite_difference_gradient(g, pt)
        fd_value = complex(np.trace(fx @ gy) - np.trace(fy @ gx))
        sym_value = evaluate(bracket_traceless(f, g), pt)
        assert abs(fd_value - sym_value) <= 1e-5 * max(1.0, abs(sym_value))


def test_evaluation_commutes_with_substitution(rng):
    # the pullback semantics: p and its traceless image agree at any point
    pts = [sample_cm(3, traceless=False, seed=15, index=i) for i in range(3)]
    for _ in range(10):
        p = random_polynomial(rng, PLAIN, max_degree=5)
        q = p.to_traceless()
        for pt in pts:
            a, b = evaluate(p, pt), evaluate(q, pt)
            assert abs(a - b) <= 1e-11 * max(1.0, abs(a))


def test_numeric_bracket_consistency(rng):
    for _ in range(25):
        n = int(rng.integers(2, 5))
        mode = PLAIN if rng.integers(0, 2) else TRACELESS
        pt = sample_cm(n, traceless=True, seed=13, index=int(rng.integers(0, 50)))
        f = random_polynomial(rng, mode, max_degree=5)
        g = random_polynomial(rng, mode, max_degree=5)
        sym = bracket_standard(f, g) if mode == PLAIN else bracket_traceless(f, g)
        a = evaluate(sym, pt)
        b = numeric_bracket(f, g, pt)
        assert abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


# ---------------- symplectic residual ----------------

def test_identity_map_has_zero_residual():
    # the difference quotient itself rounds at eps*|z|/h
    pt = sample_cm(2, traceless=True, seed=14)
    assert symplectic_pullback_residual(lambda X, Y: (X, Y), pt) < 1e-10


def test_linear_shear_residual_is_tiny():
    pt = sample_cm(2, traceless=True, seed=14)
    res = symplectic_pullback_residual(lambda X, Y: (X, Y - 2 * 0.7 * X), pt)
    assert res < 1e-8


def test_non_symplectic_map_is_flagged():
    pt = sample_cm(2, traceless=True, seed=14)
    assert symplectic_pullback_residual(lambda X, Y: (X, 2 * Y), pt) > 0.5


def test_step_underflow_rejected():
    pt = sample_cm(2, traceless=True, seed=14)
    with pytest.raises(ValueError):
        symplectic_pullback_residual(lambda X, Y: (X, Y), pt, h=0.0)


# ---------------- serialization ----------------

def test_point_roundtrip_is_bit_exact(tmp_path):
    pts = [sample_cm(n, traceless=True, seed=17, index=i) for n in (1, 3) for i in range(2)]
    path = tmp_path / "points.json"
    save_points(pts, str(path))
    loaded = load_points(str(path))
    for a, b in zip(pts, loaded):
        assert np.array_equal(a.pair.X, b.pair.X)
        assert np.array_equal(a.pair.Y, b.pair.Y)
        assert a.rank_residual == b.rank_residual
        assert a.seed == b.seed and a.index == b.index
        assert a.lambda_const == b.lambda_const
    # dict round trip is stable too
    d = point_to_dict(pts[0])
    assert point_to_dict(point_from_dict(d)) == d
