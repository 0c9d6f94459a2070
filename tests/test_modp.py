"""Exact evaluation and span tests over F_p, and the closure built on them."""

from fractions import Fraction

import numpy as np
import pytest

from cmpoisson.bracket import bracket_traceless
from cmpoisson.closure import (
    POOL_MARGIN,
    GradientPairing,
    build_closure,
    default_depth_cap,
    dimension,
    standard_generators,
)
from cmpoisson.cm import PointPool
from cmpoisson.grammar import parse_polynomial as P
from cmpoisson.modp import (
    CHECK_PRIME,
    LAMBDAS,
    MAX_INNER,
    PRIME,
    RATIONAL_BOUND,
    SPLIT_INNER,
    Echelon,
    ExactPool,
    blas_matmul,
    matmul,
    reconstruct,
    to_mod_p,
)
from cmpoisson.poly import TRACELESS
from cmpoisson.span import SpanTracker, enumerate_trace_monomials
from cmpoisson.words import FIRST, SECOND
from conftest import conjugate_values


def rank(pool, polys):
    """Rank mod p of the polynomials' value columns on the pool."""
    echelon = Echelon(len(pool), pool.prime)
    for p in polys:
        echelon.add(pool.values(p))
    return echelon.rank


def test_prime_and_lambda():
    for prime in (PRIME, CHECK_PRIME):
        assert prime < 2**30 and prime % 4 == 1
        assert all(prime % d for d in range(2, 32768))  # 32768^2 > p
        assert LAMBDAS[prime] * LAMBDAS[prime] % prime == prime - 1
    assert CHECK_PRIME != PRIME


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


@pytest.mark.parametrize("inner", [8, 9, SPLIT_INNER, SPLIT_INNER + 1, 2 * SPLIT_INNER + 3])
def test_matmul_is_exact_at_the_largest_entries(inner):
    # (p - 1)^2 = 1 mod p, so each sum is inner mod p; past SPLIT_INNER the
    # products of the 15-bit halves would overflow int64 in one sum
    a = np.full((2, 1, inner), PRIME - 1, dtype=np.int64)
    assert matmul(a, a.transpose(0, 2, 1)).tolist() == [[[inner % PRIME]]] * 2


@pytest.mark.parametrize("n", [1, 2, 3, 9])
def test_sampled_points_are_exact_rank_one_points(n):
    pool = ExactPool.sample(n, 50, seed=4)
    assert len(pool) == 50
    X, Y = pool.X, pool.Y
    assert ExactPool(X, Y).n == n  # validation passes
    assert (np.trace(X, axis1=1, axis2=2) % PRIME == 0).all()


def test_check_prime_points_are_exact_rank_one_points():
    pool = ExactPool.sample(3, 20, seed=4, stream=2, prime=CHECK_PRIME)
    assert ExactPool(pool.X, pool.Y, CHECK_PRIME).prime == CHECK_PRIME
    with pytest.raises(ValueError, match=f"not a traceless rank-one point mod {PRIME}"):
        ExactPool(pool.X, pool.Y)


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


@pytest.mark.parametrize("prime", [PRIME, CHECK_PRIME])
@pytest.mark.parametrize("inner", [1, 8, 9, 428, 2000, MAX_INNER, MAX_INNER + 1, 2 * MAX_INNER + 3])
def test_blas_matmul_is_exact_at_the_largest_entries(prime, inner):
    # all entries p - 1 give the largest sums; random ones check the layout;
    # past MAX_INNER (an Echelon's rank, at closure --n 10 --degree 14) the
    # sums are cut into blocks
    rng = np.random.default_rng(inner)
    for a, b in [
        (np.full((2, inner), prime - 1), np.full((inner, 3), prime - 1)),
        (rng.integers(0, prime, size=(2, inner)), rng.integers(0, prime, size=(inner, 3))),
    ]:
        want = [[sum(int(x) * int(y) for x, y in zip(row, col)) % prime for col in b.T] for row in a]
        assert blas_matmul(a, b.astype(np.float64), prime).tolist() == want


def gauss_jordan(rows, prime):
    """Reference in Python ints: for each row in turn, whether it is kept,
    with the pivots and the reduced row echelon form of the kept rows."""
    kept, pivots, basis = [], [], []
    for row in rows:
        row = reduce_by(basis, pivots, row, prime)
        nonzero = [i for i, x in enumerate(row) if x]
        kept.append(bool(nonzero))
        if nonzero:
            pivot = nonzero[0]
            scale = pow(row[pivot], -1, prime)
            row = [x * scale % prime for x in row]
            basis = [[(x - b[pivot] * y) % prime for x, y in zip(b, row)] for b in basis] + [row]
            pivots.append(pivot)
    return kept, pivots, basis


def reduce_by(basis, pivots, row, prime):
    row = [int(x) % prime for x in row]
    for b, pivot in zip(basis, pivots):
        f = row[pivot]
        row = [(x - f * y) % prime for x, y in zip(row, b)]
    return row


def test_echelon_rank_and_membership():
    for prime in (PRIME, CHECK_PRIME):
        check_echelon_against_gauss_jordan(prime)


def check_echelon_against_gauss_jordan(prime):
    rng = np.random.default_rng(0)
    full = rng.integers(0, prime, size=(40, 60))  # capacity doubles 1 -> 64
    full[:, :3] = 0  # no pivot in the first columns
    mixing = rng.integers(0, prime, size=(30, 7))
    deficient = np.array([[sum(int(c) * int(x) for c, x in zip(coeffs, col)) % prime for col in full[:7].T]
                          for coeffs in mixing])  # rank 7
    for rows in (full, deficient, np.concatenate([deficient[:3], np.zeros((2, 60), np.int64), full[5:20]])):
        kept, pivots, basis = gauss_jordan(rows.tolist(), prime)
        echelon = Echelon(60, prime)
        assert [echelon.add(r) for r in rows] == kept
        assert echelon.pivots == pivots and echelon.rank == len(pivots)
        # the kept rows are the reduced row echelon form itself
        assert echelon.rows.tolist() == basis
        assert (echelon.rows[:, pivots] == np.eye(len(pivots), dtype=np.int64)).all()
        # every reduction is the one against the reduced row echelon form
        for r in rows:
            assert not echelon.reduce(r).any()
        for v in rng.integers(0, prime, size=(5, 60)):
            assert echelon.reduce(v).tolist() == reduce_by(basis, pivots, v, prime)
    assert sum(gauss_jordan(deficient.tolist(), prime)[0]) == 7


def test_echelon_needs_a_prime_below_2_to_the_30():
    # blas_matmul's three 10-bit slices and add's int64 rank-one update both assume it
    with pytest.raises(ValueError, match="below 2\\^30"):
        Echelon(10, 1073741827)  # the least prime above 2^30
    for prime in (PRIME, CHECK_PRIME):
        assert Echelon(10, prime).prime == prime


def test_echelon_reduce_leaves_the_echelon_unchanged():
    rng = np.random.default_rng(1)
    rows = rng.integers(0, PRIME, size=(5, 20), dtype=np.int64)
    echelon = Echelon(20)
    for r in rows[:4]:
        echelon.add(r)
    kept, pivots = echelon.rows.copy(), list(echelon.pivots)
    assert not echelon.reduce((3 * rows[0] + 5 * rows[2]) % PRIME).any()
    outside = echelon.reduce(rows[4])
    assert outside.any() and not outside[pivots].any()
    assert (echelon.rows == kept).all() and echelon.pivots == pivots


def test_echelon_reduces_a_stack_of_rows_as_it_reduces_each():
    rng = np.random.default_rng(2)
    rows = rng.integers(0, PRIME, size=(6, 30), dtype=np.int64)
    echelon = Echelon(30)
    assert (echelon.reduce(rows) == rows).all()  # nothing kept yet
    for r in rows[:4]:
        echelon.add(r)
    stack = np.concatenate([rows, (2 * rows[:3] + rows[1:4]) % PRIME])
    reduced = echelon.reduce(stack)
    assert reduced.tolist() == [echelon.reduce(r).tolist() for r in stack]
    assert reduced.any(axis=1).tolist() == [False] * 4 + [True] * 2 + [False] * 3


def pairing_mismatches(n, degree, count=None):
    """How many pairs (i, j), i <= j, of the first `count` elements of the
    closure to this degree have a gradient pairing that differs from the
    values of their bracket on the closure's pool."""
    basis = build_closure(standard_generators(), default_depth_cap(n), degree, n, seed=0)
    elements = basis.elements[:count]
    pool = ExactPool.sample(n, basis.pool_size, seed=0)
    pairing = GradientPairing(pool)
    for e in elements:
        pairing.add(e)
    pairs = [(i, j) for j in range(len(elements)) for i in range(j + 1)]
    columns = pairing.columns(pairs)
    return sum(
        (column != pool.values(bracket_traceless(elements[i], elements[j]))).any()
        for (i, j), column in zip(pairs, columns)
    )


@pytest.mark.parametrize("n, degree, count", [(2, 8, None), (3, 8, None), (4, 8, 40)])
def test_gradient_pairing_is_the_bracket_values(n, degree, count):
    assert pairing_mismatches(n, degree, count) == 0


def test_gradient_pairing_with_the_letters_swapped_misses(monkeypatch):
    # negative control: dX and dY exchanged pair into minus the bracket
    gradient = ExactPool.trace_gradient
    monkeypatch.setattr(ExactPool, "trace_gradient", lambda self, w: np.roll(gradient(self, w), 4, axis=1))
    assert pairing_mismatches(2, 8) > 0


def test_gradient_is_the_traceless_directional_derivative():
    # moving X (or Y) by a traceless H moves p by t tr(dX H) + O(t^2); p has
    # degree <= 4 in t, so the exact derivative at 0 is the five-point one
    # (-25 f(0) + 48 f(1) - 36 f(2) + 16 f(3) - 3 f(4)) / 12, taken mod p
    p = P("tr(A^2 B)*tr(A B) - 1/3*tr(A B^3) + 2*tr(B^2)", TRACELESS)
    n, count = 3, 4
    pool = ExactPool.sample(n, count, seed=6)
    dx, dy = pool.gradient(p)
    assert not (np.trace(dx, axis1=1, axis2=2) % PRIME).any()
    assert not (np.trace(dy, axis1=1, axis2=2) % PRIME).any()
    H = np.random.default_rng(6).integers(0, PRIME, size=(count, n, n)).astype(object)
    H[:, -1, -1] = -np.trace(H[:, :-1, :-1], axis1=1, axis2=2) % PRIME

    def value(x, y):
        # (x, y) is off the locus: multiply the words out in Python ints
        total = 0
        for (_, factors), coeff in p.items():
            term = to_mod_p(coeff.evaluate(n))
            for w in factors:
                m = np.eye(n, dtype=object)
                for letter, exp in w.runs:
                    for _ in range(exp):
                        m = m.dot((x, y)[letter]) % PRIME
                term = term * np.trace(m) % PRIME
            total += term
        return total % PRIME

    weights = [-25, 48, -36, 16, -3]
    for k in range(count):
        x, y, h = pool.X[k].astype(object), pool.Y[k].astype(object), H[k]
        for d, moved in ((dx, lambda t: value(x + t * h, y)), (dy, lambda t: value(x, y + t * h))):
            derivative = sum(w * moved(t) for t, w in enumerate(weights)) * pow(12, -1, PRIME) % PRIME
            assert derivative == np.trace(d[k].astype(object).dot(h)) % PRIME


def test_gradient_refuses_a_term_with_a_central_factor():
    pool = ExactPool.sample(3, 4, seed=0)
    with pytest.raises(ValueError, match="tr X or tr Y"):
        pool.gradient(P("5*tr(X)*tr(A^2)", TRACELESS))


def test_reconstruct_round_trips_within_the_bound():
    assert RATIONAL_BOUND == 23170 and 2 * RATIONAL_BOUND**2 < PRIME
    b = RATIONAL_BOUND
    for q in (0, 1, -1, b, -b, Fraction(1, b), Fraction(b, b - 1), Fraction(-b, b - 3), Fraction(15047, 10080)):
        assert reconstruct(to_mod_p(Fraction(q))) == q
    for q in (b + 1, -b - 1, Fraction(1, b + 1), Fraction(b + 1, 2), Fraction(1, 1000003)):
        assert reconstruct(to_mod_p(q)) is None
    # most residues have some fraction within the bound, so a lift alone proves nothing
    assert reconstruct(to_mod_p(Fraction(1, 46341))) == Fraction(-23170, 20819)


def test_conjugate_values_are_the_values_at_minus_y():
    # the word traces multiplied out at (X, -Y), which is off the pool's
    # locus, so no ExactPool evaluates there
    pool = ExactPool.sample(3, 6, seed=5)
    p = P("tr(A^2 B) - 2*tr(A B)*tr(B^2) + tr(A^3) + 1/3*tr(A^2 B A B^2) + 4", TRACELESS)
    letters = {FIRST: pool.X, SECOND: -pool.Y % PRIME}
    expected = np.zeros(len(pool), dtype=np.int64)
    for (_, factors), coeff in p.items():
        column = np.full(len(pool), to_mod_p(coeff.evaluate(3)), dtype=np.int64)
        for w in factors:
            product = np.broadcast_to(np.eye(3, dtype=np.int64), pool.X.shape)
            for letter, exp in w.runs:
                for _ in range(exp):
                    product = matmul(product, letters[letter])
            column = column * (np.trace(product, axis1=1, axis2=2) % PRIME) % PRIME
        expected = (expected + column) % PRIME
    assert conjugate_values(pool, p).tolist() == expected.tolist()
    minus_y = P("-tr(A^2 B) + 2*tr(A B)*tr(B^2) + tr(A^3) - 1/3*tr(A^2 B A B^2) + 4", TRACELESS)
    assert expected.tolist() == pool.values(minus_y).tolist() != pool.values(p).tolist()


@pytest.mark.parametrize(
    "n, degree, dimension_value",
    [(2, 8, 25), (3, 8, 90), (4, 8, 176), (3, 10, 176), (5, 8, 235)],
    ids=["2-25", "3-90", "4-176", "3-176-degree10", "5-235"],
)
def test_monomial_span_dimensions(n, degree, dimension_value):
    # the span dimension of the degree <= `degree` monomial functions on the
    # traceless rank-one locus, which the closure must saturate
    assert dimension(n, degree) == dimension_value
    pool = ExactPool.sample(n, 400, seed=2)
    assert rank(pool, enumerate_trace_monomials(degree, TRACELESS)) == dimension_value


@pytest.mark.parametrize("n, top", [(1, 10), (2, 10), (3, 10), (4, 10), (5, 9), (6, 9), (7, 9), (8, 9), (9, 9)])
def test_monomial_rank_is_the_dimension_at_each_degree(n, top):
    # the monomials in order of degree on one pool larger than the top
    # dimension: after each degree d their rank is dimension(n, d).  These are
    # the cells whose rank takes under a second; n = 5 at degree 10 (664) and
    # n = 9 at degree 10 (996) take longer
    pool = ExactPool.sample(n, max(400, dimension(n, top) + 16), seed=2)
    echelon = Echelon(len(pool))
    monomials = sorted(enumerate_trace_monomials(top, TRACELESS), key=lambda m: m.degree())
    for d in range(top + 1):
        for m in monomials:
            if m.degree() == d:
                echelon.add(pool.values(m))
        assert echelon.rank == dimension(n, d), d


@pytest.mark.parametrize("n", [2, 3])
def test_float_span_accepts_every_exact_closure_element(n):
    basis = build_closure(standard_generators(), default_depth_cap(n), 8, n, seed=0)
    assert len(basis.elements) == {2: 25, 3: 90}[n]
    # one float span holds every weight: it needs a point per element and more
    pool = PointPool.sample(n, dimension(n, 8) + POOL_MARGIN, seed=0)
    tracker = SpanTracker(len(pool))
    for e in basis.elements:
        assert tracker.add(pool.values_and_magnitudes(e)[0])
