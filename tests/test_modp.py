"""Exact evaluation and span tests over F_p, and the closure built on them."""

from fractions import Fraction

import numpy as np
import pytest

from cmpoisson.closure import build_closure, default_depth_cap, standard_generators
from cmpoisson.cm import PointPool
from cmpoisson.grammar import parse_polynomial as P
from cmpoisson.modp import LAMBDA, PRIME, Echelon, ExactPool, matmul, rank, to_mod_p
from cmpoisson.poly import TRACELESS
from cmpoisson.span import SpanTracker, enumerate_trace_monomials


def test_prime_and_lambda():
    assert PRIME < 2**30 and PRIME % 4 == 1
    assert all(PRIME % d for d in range(2, 32768))  # 32768^2 > p
    assert LAMBDA * LAMBDA % PRIME == PRIME - 1


def test_fractions_map_to_the_field():
    assert to_mod_p(Fraction(3, 4)) * 4 % PRIME == 3
    assert to_mod_p(Fraction(-1)) == PRIME - 1
    with pytest.raises(ValueError, match="divides the denominator"):
        to_mod_p(Fraction(1, 2 * PRIME))


@pytest.mark.parametrize("inner", [3, 8, 9, 200])
def test_matmul_is_exact(inner):
    rng = np.random.default_rng(inner)
    a = rng.integers(PRIME - 2**20, PRIME, size=(2, 4, inner), dtype=np.int64)
    b = rng.integers(PRIME - 2**20, PRIME, size=(2, inner, 3), dtype=np.int64)
    want = [
        [[sum(int(a[s, i, k]) * int(b[s, k, j]) for k in range(inner)) % PRIME for j in range(3)]
         for i in range(4)]
        for s in range(2)
    ]
    assert matmul(a, b).tolist() == want


@pytest.mark.parametrize("n", [1, 2, 3, 9])
def test_sampled_points_are_exact_rank_one_points(n):
    pool = ExactPool.sample(n, 50, seed=4)
    assert len(pool) == 50
    X, Y = pool.X, pool.Y
    assert ExactPool(X, Y).n == n  # validation passes
    assert (np.trace(X, axis1=1, axis2=2) % PRIME == 0).all()


@pytest.mark.parametrize(
    "tamper",
    [
        lambda X, Y: Y.__setitem__((7, 0, 1), (Y[7, 0, 1] + 1) % PRIME),
        lambda X, Y: Y.__setitem__((7, 0, 0), (Y[7, 0, 0] + 1) % PRIME),
        lambda X, Y: X.__setitem__((7, 1, 0), 5),
        lambda X, Y: X.__setitem__((7, 0, 0), X[7, 0, 0] + PRIME),
    ],
    ids=["off-diagonal", "trace", "commutator", "out-of-range"],
)
def test_tampered_point_is_rejected(tamper):
    pool = ExactPool.sample(3, 10, seed=0)
    X, Y = pool.X.copy(), pool.Y.copy()
    tamper(X, Y)
    with pytest.raises(ValueError, match="point 7 is not a traceless rank-one point"):
        ExactPool(X, Y)


def test_values_match_integer_matrix_products():
    pool = ExactPool.sample(3, 5, seed=1)
    X, Y = pool.X.tolist(), pool.Y.tolist()

    def mul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(3)) % PRIME for j in range(3)] for i in range(3)]

    def tr(m):
        return sum(m[i][i] for i in range(3)) % PRIME

    p = P("3/2*tr(A^2 B) - tr(A B)*tr(B^2) + 7 + 5*tr(X)*tr(A^2)", TRACELESS)
    want = [
        (to_mod_p(Fraction(3, 2)) * tr(mul(mul(x, x), y)) - tr(mul(x, y)) * tr(mul(y, y)) + 7) % PRIME
        for x, y in zip(X, Y)
    ]
    assert pool.values(p).tolist() == want
    assert not ExactPool.sample(2, 20, seed=1).values(P("tr(A^3)", TRACELESS)).any()  # 0 at n = 2


def test_echelon_rank_and_membership():
    rng = np.random.default_rng(0)
    rows = rng.integers(0, PRIME, size=(12, 30), dtype=np.int64)
    echelon = Echelon(30)
    assert [echelon.add(r) for r in rows] == [True] * 12
    combo = np.zeros(30, dtype=np.int64)
    for c, r in zip(rng.integers(0, PRIME, size=12), rows):
        combo = (combo + int(c) * r) % PRIME
    assert not echelon.add(combo)
    assert not echelon.add(np.zeros(30, dtype=np.int64))
    assert echelon.rank == 12
    # kept rows are reduced: 1 at their own pivot, 0 at every other pivot
    assert (echelon.rows[:, echelon.pivots] == np.eye(12, dtype=np.int64)).all()


@pytest.mark.parametrize("n, dimension", [(2, 25), (3, 90), (4, 176)])
def test_monomial_span_dimensions(n, dimension):
    # the span dimension of the degree <= 8 monomial functions on the
    # traceless rank-one locus, which the closure must saturate
    pool = ExactPool.sample(n, 400, seed=2)
    assert rank(pool, enumerate_trace_monomials(8, TRACELESS)) == dimension


@pytest.mark.parametrize("n", [2, 3])
def test_float_span_accepts_every_exact_closure_element(n):
    basis = build_closure(standard_generators(), default_depth_cap(n), 8, n, seed=0)
    assert len(basis.elements) == {2: 25, 3: 90}[n]
    pool = PointPool.sample(n, basis.pool_size, seed=0)
    tracker = SpanTracker(len(pool))
    for e in basis.elements:
        assert tracker.add(pool.values_and_magnitudes(e)[0])
