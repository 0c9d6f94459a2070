"""Matrix-pair sampling, evaluation, gradients, and the numeric bracket."""

import inspect
import math

import numpy as np
import pytest

from cmpoisson.cm import (
    RANK_TOL,
    CMPoint,
    MatrixPair,
    PointEvaluator,
    PointMap,
    PointPool,
    _coefficient_value,
    child_rng,
    diagonal_normal_form,
    evaluate,
    finite_difference_gradient,
    gradient_function,
    load_points,
    numeric_bracket,
    numeric_gradient,
    point_from_dict,
    point_to_dict,
    pullback_residual,
    rank_residual,
    sample_cm,
    save_points,
    symplectic_pullback_residual,
    trace_residual,
)
from cmpoisson import cm
from cmpoisson.bracket import bracket_standard, bracket_traceless
from cmpoisson.catalog import default_catalog_records
from cmpoisson.flows import FAMILY_IDS, family_hamiltonian
from cmpoisson.grammar import format_polynomial as F, parse_polynomial as P
from cmpoisson.models import TraceAdapter
from cmpoisson.words import FIRST, SECOND, CyclicWord, splice_cuts
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


@pytest.mark.parametrize("n", [100, 200])
def test_large_n_samples_pass_the_default_rank_check(n):
    # the eigenvalue square widens with n, so the draws stay 0.1 apart
    pt = sample_cm(n, traceless=True, seed=0)
    assert pt.rank_residual < RANK_TOL


@pytest.mark.parametrize("tol, message", [
    ("RANK_TOL", "^rank-one residual .* exceeds 0.0e\\+00$"),
    ("TRACE_TOL", "^trace residual .* exceeds 0.0e\\+00$"),
], ids=["rank", "trace"])
def test_sampler_rejects_a_residual_at_its_tolerance(monkeypatch, tol, message):
    # the residuals of a sampled n = 3 point are rounding, never exactly 0
    monkeypatch.setattr(cm, tol, 0.0)
    with pytest.raises(ValueError, match=message):
        sample_cm(3, traceless=True, seed=0)


def test_point_off_the_locus_records_its_residuals():
    pt = sample_cm(3, traceless=True, seed=0)
    X = pt.pair.X + np.diag([1.0, 0.0, 0.0])
    off = CMPoint.from_matrices(X, pt.pair.Y, traceless=True)
    assert off.rank_residual == rank_residual(off.pair) > 0.1
    assert off.trace_residual == trace_residual(off.pair) > 0.01


def test_separation_failure_reports(monkeypatch):
    monkeypatch.setattr(cm, "EIGEN_SEPARATION", 10.0)
    monkeypatch.setattr(cm, "MAX_RETRIES", 5)
    with pytest.raises(RuntimeError, match="could not draw 4 eigenvalues with separation >= 10.0 in 5 tries"):
        sample_cm(4, traceless=False, seed=0)


def test_sampler_takes_no_settings():
    # lambda, the eigenvalue separation, the retry budget, the adapter's mode
    # and the catalog's largest exponent are module constants, not parameters
    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(sample_cm) == ["n", "traceless", "seed", "index"]
    assert params(CMPoint.from_matrices) == ["X", "Y", "traceless", "seed", "index"]
    assert params(rank_residual) == ["pair"]
    assert params(diagonal_normal_form) == ["x", "p"]
    assert params(TraceAdapter) == []
    assert params(default_catalog_records) == []
    assert "lambda_const" not in CMPoint.__dataclass_fields__


def test_seed_splitter_is_deterministic_and_independent():
    a = child_rng(7, 0).normal(size=4)
    b = child_rng(7, 0).normal(size=4)
    c = child_rng(7, 1).normal(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_generic_rank_constant(monkeypatch):
    pt = sample_cm(3, traceless=False, seed=9)
    assert pt.rank_residual == rank_residual(pt.pair) < RANK_TOL
    # negative control: the point is far from the locus of lambda = +i
    monkeypatch.setattr(cm, "LAMBDA", 1j)
    assert rank_residual(pt.pair) > 0.1


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
    # a PointEvaluator is a one-point PointPool: its bits equal entry i of
    # the N-point pool, since numpy's elementwise complex arithmetic rounds
    # the same at length 1 and at length N (a platform where it does not
    # breaks this equality, and the assertion stays exact)
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
    for n in (2, 3):
        for mode, traceless in ((PLAIN, False), (TRACELESS, True)):
            for i in range(6):
                pt = sample_cm(n, traceless=traceless, seed=8, index=i)
                p = random_polynomial(rng, mode, max_degree=4)
                gx, gy = numeric_gradient(p, pt)
                fx, fy = finite_difference_gradient(p, pt)
                scale = max(1.0, np.abs(gx).max(), np.abs(gy).max())
                assert np.abs(gx - fx).max() / scale < 1e-6
                assert np.abs(gy - fy).max() / scale < 1e-6


def reference_gradient(p: TracePolynomial, n: int) -> PointMap:
    """The splice-derivative gradient computed in full at every call: both
    letters centred, every power, word, factor value and factor gradient.

    The reference for `gradient_function`, whose plan skips what no term
    reads and must equal this loop bit for bit.  Traceless mode
    differentiates through A = X - (tr X/n) I, B = Y - (tr Y/n) I and projects
    each factor gradient to its traceless part; the two results start at +0.
    """
    traceless = p.mode == TRACELESS
    eye = np.eye(n, dtype=complex)
    words: dict[tuple, int] = {}  # the distinct words one evaluation multiplies out
    factors: dict[CyclicWord, int] = {}
    factor_cuts: list[tuple[int, list]] = []  # (word id, per letter [(mult, cut word id)])

    def word_id(runs: tuple) -> int:
        return words.setdefault(runs, len(words))

    def factor_id(w: CyclicWord) -> int:
        if w not in factors:
            factors[w] = len(factor_cuts)
            cuts = [[(mult, word_id(cut)) for cut, mult in splice_cuts(w, letter)]
                    for letter in (FIRST, SECOND)]
            factor_cuts.append((word_id(w.runs), cuts))
        return factors[w]

    terms = [
        (_coefficient_value(coeff, n), central, [factor_id(w) for w in ws])
        for (central, ws), coeff in p.items()
    ]
    word_runs = list(words)
    top = [max((e for runs in word_runs for l, e in runs if l == letter), default=1)
           for letter in (FIRST, SECOND)]  # the highest power of each letter

    def gradient(X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        tr_x = complex(X.trace())
        tr_y = complex(Y.trace())
        if traceless:
            X = X - (tr_x / n) * eye
            Y = Y - (tr_y / n) * eye
        powers = []
        for letter, matrix in ((FIRST, X), (SECOND, Y)):
            chain = [eye, matrix]
            while len(chain) <= top[letter]:
                chain.append(chain[-1] @ matrix)
            powers.append(chain)
        matrices = []
        for runs in word_runs:
            out = None if runs else eye
            for letter, exp in runs:
                power = powers[letter][exp]
                out = power if out is None else out @ power
            matrices.append(out)
        values, grads = [], []
        for w, cuts in factor_cuts:
            values.append(complex(matrices[w].trace()) if word_runs[w] else complex(n))
            grads.append([])
            for letter_cuts in cuts:
                g = None
                for mult, j in letter_cuts:
                    term = mult * matrices[j].T
                    g = term if g is None else g + term
                if traceless and g is not None:
                    g = g - (g.trace() / n) * eye
                grads[-1].append(g)
        dX = np.zeros((n, n), dtype=complex)
        dY = np.zeros((n, n), dtype=complex)
        for base, central, ids in terms:
            factor_values = [values[i] for i in ids]
            sx = tr_x ** central[0] if central[0] else 1.0
            sy = tr_y ** central[1] if central[1] else 1.0
            # central-symbol part: d (tr X)^a / dX = a (tr X)^(a-1) I
            for a, tr, other, total in ((central[0], tr_x, sy, dX), (central[1], tr_y, sx, dY)):
                if a:
                    env = base * (tr ** (a - 1)) * a * other
                    for v in factor_values:
                        env *= v
                    total += env * eye
            # trace-factor part, Leibniz over factors
            for i, fid in enumerate(ids):
                env = base * sx * sy
                for i2, v in enumerate(factor_values):
                    if i2 != i:
                        env *= v
                for total, g in zip((dX, dY), grads[fid]):
                    if g is not None:
                        total += env * g
        return dX, dY

    return gradient


GRADIENT_HAMILTONIANS = [
    "tr(A^2 B)*tr(B^2) + 1/3*tr(A B A B^2)",
    "tr(A B)*tr(A B)*tr(A B)",                  # a repeated factor
    "tr(A B)*tr(A B) + 1/2*tr(A^3 B) + 5",      # and a constant term
    "tr(A B)*tr(A^2 B)*tr(A B) - 2*tr(B^3)",    # a factor repeated apart
]


@pytest.mark.parametrize("traceless", [True, False])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_gradient_plan_equals_the_reference_loop_bit_for_bit(n, traceless):
    rng = np.random.default_rng(10 * n + traceless)
    hamiltonians = [family_hamiltonian(fid) for fid in FAMILY_IDS]
    hamiltonians += [P(h, TRACELESS) for h in GRADIENT_HAMILTONIANS]
    hamiltonians += [
        random_polynomial(rng, mode, max_degree=5, max_terms=3, max_factors=3, allow_central=True)
        for mode in (PLAIN, TRACELESS) for _ in range(8)
    ]
    for i in range(3):
        pt = sample_cm(n, traceless=traceless, seed=16, index=i)
        X, Y = pt.pair.X, pt.pair.Y
        for h in hamiltonians:
            gx, gy = gradient_function(h, n)(X, Y)
            rx, ry = reference_gradient(h, n)(X, Y)
            assert gx.tobytes() == rx.tobytes() and gy.tobytes() == ry.tobytes(), F(h)


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


def test_pullback_residual_of_a_jacobian():
    n = 2
    assert pullback_residual(np.eye(2 * n * n, dtype=complex), n) == 0.0
    doubling = np.diag([1.0] * (n * n) + [2.0] * (n * n))
    assert pullback_residual(doubling, n) == pytest.approx(1.0)
    with pytest.raises(FloatingPointError):
        pullback_residual(np.full((2 * n * n, 2 * n * n), np.nan), n)


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
    # dict round trip is stable too
    d = point_to_dict(pts[0])
    assert point_to_dict(point_from_dict(d)) == d


@pytest.mark.parametrize("lam", [[0.5, 0.25], [-0.0, 1.0], [1.0, 0.0], [-1.0]])
def test_point_with_another_lambda_is_rejected(lam):
    d = point_to_dict(sample_cm(2, traceless=True, seed=17))
    assert d["lambda"] == [-0.0, -1.0] and math.copysign(1.0, d["lambda"][0]) == -1.0
    with pytest.raises(ValueError, match="lambda"):
        point_from_dict({**d, "lambda": lam})
