"""Lie closure construction and membership certificates."""

from collections import Counter
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from sympy import QQ
from sympy.polys.rings import ring
from sympy.polys.ring_series import rs_mul, rs_series_inversion
from sympy.utilities.iterables import partitions

from cmpoisson.bracket import bracket_traceless
from cmpoisson.closure import (
    CHECK_POINTS,
    CHECK_STREAM,
    MEMBERSHIP_STREAM,
    GradientPairing,
    LieClosureBasis,
    POOL_MARGIN,
    MembershipCertificate,
    MembershipChecker,
    build_closure,
    default_depth_cap,
    dimension,
    peak_coefficient,
    reduce_pipeline,
    standard_generators,
    validate_target,
    weight_dimensions,
)
from cmpoisson.cm import PointPool
from cmpoisson.grammar import format_polynomial as F, parse_polynomial as P
from cmpoisson.modp import (
    CHECK_PRIME,
    LAMBDAS,
    PRIME,
    Echelon,
    ExactPool,
    matmul,
    reconstruct,
    to_mod_p,
)
from cmpoisson.poly import PLAIN, TRACELESS
from cmpoisson.span import enumerate_trace_monomials, lstsq_fit, value_matrix
from conftest import conjugate_values, straight_product_poly, straight_word_products

ZERO = (Fraction(0), Fraction(0))


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
    # tr B^3 = (tr B^2 / 2) tr B = 0 at n = 2
    target = P("tr(B^3)", TRACELESS)
    assert target.cayley_hamilton_reduce(2).is_zero()
    cert = MembershipChecker(basis_n2).check(target)
    assert cert.valid
    assert cert.exact_coefficients == [ZERO] * len(basis_n2.elements)


def test_squared_generator_identity(basis_n2):
    # {tr A^2, {tr A^2, (tr AB)^2}} = 8 (tr A^2)^2
    inner = bracket_traceless(P("tr(A^2)", TRACELESS), P("tr(A B)*tr(A B)", TRACELESS))
    outer = bracket_traceless(P("tr(A^2)", TRACELESS), inner)
    assert outer == P("8*tr(A^2)*tr(A^2)", TRACELESS)
    cert = MembershipChecker(basis_n2).check(P("tr(A^2)*tr(A^2)", TRACELESS))
    assert cert.valid


def test_trivial_member_has_unit_coefficient(basis_n2):
    assert F(basis_n2.elements[0]) == "tr(A^2)"
    cert = MembershipChecker(basis_n2).check(P("3*tr(A^2)", TRACELESS))
    assert cert.status == "member"
    assert cert.exact_coefficients == [(3, 0)] + [ZERO] * (len(basis_n2.elements) - 1)
    assert cert.coefficients[0] == 3.0


def test_integral_coefficients_stay_exact_rationals(basis_n2):
    # QnCoeff stores integral coefficients as ints; its views stay Fractions,
    # or 1 / peak in reduce_pipeline and check would be a float
    target = P("6*tr(A^2 B^2) - 2*tr(A B)", TRACELESS)
    reduced = target.cayley_hamilton_reduce(2)
    assert [type(c.evaluate(2)) for _, c in reduced.items()] == [Fraction] * len(reduced)
    peak = peak_coefficient(reduced, 2)
    assert type(peak) is Fraction and peak == 6
    assert type(peak_coefficient(reduced - reduced, 2)) is Fraction
    normalized = reduce_pipeline(target, 2)
    assert sorted(c.evaluate(2) for _, c in normalized.items()) == [Fraction(-1, 3), 1]
    cert = MembershipChecker(basis_n2).check(target)
    assert cert.status == "member"
    assert all(type(x) is Fraction for pair in cert.exact_coefficients for x in pair)
    # the certificate that Fraction-only arithmetic gave
    assert {j: pair for j, pair in enumerate(cert.exact_coefficients) if any(pair)} == {
        2: (-6, 0), 3: (-2, 0), 7: (-6, 0)
    }


def test_product_membership_at_n2(basis_n2):
    cert = MembershipChecker(basis_n2).check(P("tr(A B)*tr(A^2)", TRACELESS))
    assert cert.valid


def test_certificate_survives_fresh_resampling(basis_n2):
    # the certified combination equals the target exactly at points of an
    # unrelated seed, with i = -lambda
    target = P("tr(A^2 B^2)", TRACELESS)
    cert = MembershipChecker(basis_n2).check(target)
    assert cert.valid
    pool = ExactPool.sample(2, 100, seed=77)
    combo = np.zeros(len(pool), dtype=np.int64)
    for (re, im), e in zip(cert.exact_coefficients, basis_n2.elements):
        c = (to_mod_p(re) - LAMBDAS[PRIME] * to_mod_p(im)) % PRIME
        combo = (combo + c * pool.values(e)) % PRIME
    assert combo.tolist() == pool.values(target).tolist()


def test_certificate_coefficients_reconstruct_the_target(basis_n2):
    from cmpoisson.cm import PointEvaluator, sample_cm

    target = P("5*tr(A^2 B^2) - tr(A B)", TRACELESS)
    cert = MembershipChecker(basis_n2).check(target)
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


def test_degree_cap_bounds_elements(basis_n2):
    assert all(e.degree() <= 6 for e in basis_n2.elements)


def test_target_above_degree_cap_rejected(basis_n2):
    with pytest.raises(ValueError):
        MembershipChecker(basis_n2).check(P("tr(A^4 B^4)", TRACELESS))


def test_degree_cap_below_every_generator_rejected():
    with pytest.raises(ValueError, match="degree cap 1 is below the smallest generator degree 2"):
        build_closure(standard_generators(), depth_cap=2, degree_cap=1, n_value=2)


def test_dependent_basis_elements_are_rejected(basis_n2):
    # a duplicated element leaves the coefficients undetermined
    degenerate = LieClosureBasis(
        generators=basis_n2.generators,
        elements=[basis_n2.elements[0], basis_n2.elements[0]],
        trees=[("gen", 0), ("gen", 0)],
        levels=[0, 0],
        depth_cap=basis_n2.depth_cap,
        degree_cap=basis_n2.degree_cap,
        n_value=2,
        seed=0,
        pool_size=basis_n2.pool_size,
    )
    with pytest.raises(ValueError, match="linearly dependent on the membership pool"):
        MembershipChecker(degenerate).check(P("tr(B^2)", TRACELESS))


def test_not_found_wording_for_unreachable_depth():
    shallow = build_closure(standard_generators(), depth_cap=1, degree_cap=8, n_value=3, seed=0)
    cert = MembershipChecker(shallow).check(P("tr(A^3 B^3)", TRACELESS))
    assert cert.status == "not_found_at_depth"  # never "not a member"
    assert not cert.valid and cert.exact_coefficients == []


@pytest.mark.parametrize(
    "text",
    [
        "tr(A^2) + 1/1000003*tr(B^2)",  # 1/1000003 mod p has no lift within the bound
        "tr(A^2) + 1/46341*tr(B^2)",  # it lifts to -23170/20819, which the second prime rejects
    ],
    ids=["no-lift", "wrong-lift"],
)
def test_coefficient_beyond_the_lifting_bound_is_inconclusive(basis_n2, text):
    assert F(basis_n2.elements[1]) == "tr(B^2)"
    cert = MembershipChecker(basis_n2).check(P(text, TRACELESS))
    assert cert.status == "inconclusive"
    assert not cert.valid and cert.exact_coefficients == []


@pytest.fixture(scope="module")
def basis_n3():
    return build_closure(standard_generators(), depth_cap=10, degree_cap=6, n_value=3, seed=0)


@pytest.mark.parametrize("n", [2, 3])
def test_pools_have_the_margin_beyond_the_dimension_they_tell_apart(request, n):
    # degree cap 6: the closure pool tells apart the degree <= 6 functions of
    # each weight, the membership pool the span of each weight's elements
    basis = request.getfixturevalue(f"basis_n{n}")
    assert basis.pool_size == max(weight_dimensions(n, 6).values()) + POOL_MARGIN == {2: 20, 3: 23}[n]
    checker = MembershipChecker(basis)
    largest = max(Counter(e.weight() for e in basis.elements).values())
    assert checker.sample_count == len(checker.pool) == largest + POOL_MARGIN


def test_target_scale_does_not_matter(basis_n3):
    checker = MembershipChecker(basis_n3)
    plain = checker.check(P("tr(A^2 B^2)", TRACELESS))
    scaled = checker.check(P("12345*tr(A^2 B^2)", TRACELESS))
    assert plain.valid and scaled.valid
    assert Fraction(-8, 9) in {re for re, _ in plain.exact_coefficients}
    assert scaled.exact_coefficients == [(12345 * re, 12345 * im) for re, im in plain.exact_coefficients]


def test_word_and_its_reverse_have_conjugate_coefficients(basis_n3):
    # on the lambda = -i locus tr(A^2 B A B^2) and its reverse differ by an
    # imaginary combination, which only the conjugate solve at (X, -Y) finds
    checker = MembershipChecker(basis_n3)
    word = checker.check(P("tr(A^2 B A B^2)", TRACELESS))
    reverse = checker.check(P("tr(A^2 B^2 A B)", TRACELESS))
    assert word.valid and reverse.valid
    assert any(im for _, im in word.exact_coefficients)
    assert reverse.exact_coefficients == [(re, -im) for re, im in word.exact_coefficients]
    pool = PointPool.sample(3, 2 * len(basis_n3.elements), seed=0)
    _, fit, _ = lstsq_fit(value_matrix(pool, basis_n3.elements), pool.values_and_magnitudes(word.target)[0])
    assert np.abs(np.array(word.coefficients) - fit).max() < 1e-8


def test_exact_coefficients_match_the_float_fit():
    # the float least-squares fit the exact solve replaced, kept as an oracle
    basis = build_closure(standard_generators(), depth_cap=8, degree_cap=8, n_value=2, seed=0)
    checker = MembershipChecker(basis)
    pool = PointPool.sample(2, 2 * len(basis.elements), seed=0)
    matrix = value_matrix(pool, basis.elements)
    for words in straight_word_products(6):
        target = straight_product_poly(words)
        cert = checker.check(target)
        assert cert.valid
        _, fit, _ = lstsq_fit(matrix, pool.values_and_magnitudes(target)[0])
        assert np.abs(np.array(cert.coefficients) - fit).max() < 1e-8, words


def bracket_first_closure(generators, depth_cap, degree_cap, n_value, seed=0):
    """The closure built bracket first: every candidate is bracketed, reduced
    and judged by its own values.  An oracle for build_closure, which judges
    each candidate by the gradient pairing and brackets only the kept ones."""
    span_dimension = dimension(n_value, degree_cap)
    pool_size = span_dimension + POOL_MARGIN
    pool = ExactPool.sample(n_value, pool_size, seed)
    span = Echelon(pool_size)
    basis = LieClosureBasis(generators, [], [], [], depth_cap, degree_cap, n_value, seed, pool_size)
    seen = set()

    def try_add(p, tree, level):
        if p.is_zero() or p.degree() > degree_cap or p in seen:
            return False
        seen.add(p)
        if not span.add(pool.values(p)):
            return False
        basis.elements.append(p)
        basis.trees.append(tree)
        basis.levels.append(level)
        return True

    for gi, g in enumerate(generators):
        try_add(reduce_pipeline(g, n_value), ("gen", gi), 0)
    level = 1
    while level <= depth_cap and len(basis.elements) < span_dimension:
        added = False
        count = len(basis.elements)
        pairs = [(i, j) for j in range(count) for i in range(j) if max(basis.levels[i], basis.levels[j]) == level - 1]
        for i, j in pairs:
            ei, ej = basis.elements[i], basis.elements[j]
            if ei.degree() + ej.degree() - 2 > degree_cap:
                continue
            if try_add(reduce_pipeline(bracket_traceless(ei, ej), n_value), ("br", i, j), level):
                added = True
                if len(basis.elements) >= span_dimension:
                    break
        if not added:
            break
        level += 1
    return basis


CLOSURE_CELLS = [(n, degree, None, seed) for n in (2, 3, 4) for degree in (4, 6, 8) for seed in (0, 1, 2)]
SHORT_CELLS = [(3, 6, 2, 2), (4, 8, 2, 0), (4, 10, 1, 1)]  # stop below the dimension


# tr A^2 and tr B^2 give tr A B at level 1, and level 2 keeps nothing
TWO_GENERATOR_CELL = pytest.param(standard_generators()[:2], 3, 6, 10, 0, id="trA2-trB2-3-6-10-0")


@pytest.mark.parametrize(
    "generators, n, degree, depth, seed",
    [pytest.param(standard_generators(), *cell, id="-".join(map(str, cell))) for cell in CLOSURE_CELLS + SHORT_CELLS]
    + [TWO_GENERATOR_CELL],
)
def test_value_first_closure_is_the_bracket_first_closure(generators, n, degree, depth, seed):
    depth_cap = depth or default_depth_cap(n)
    want = bracket_first_closure(generators, depth_cap, degree, n, seed)
    got = build_closure(generators, depth_cap, degree, n, seed)
    assert (got.elements, got.trees, got.levels) == (want.elements, want.trees, want.levels)
    # the oracle judges every weight on one pool of dimension(n, D) + POOL_MARGIN points
    assert got.pool_size == max(weight_dimensions(n, degree).values()) + POOL_MARGIN < want.pool_size
    # the default depth saturates; the short cells stop below the dimension
    assert (len(got.elements) < dimension(n, degree)) == (depth is not None)


def patch_columns(monkeypatch, change):
    """Make every GradientPairing.columns call return change(its columns)."""
    columns = GradientPairing.columns
    monkeypatch.setattr(GradientPairing, "columns", lambda self, pairs: change(columns(self, pairs)))


def test_judged_columns_may_be_any_nonzero_multiples(monkeypatch):
    want = build_closure(standard_generators(), 8, 8, 3)
    patch_columns(monkeypatch, lambda c: c * np.arange(2, len(c) + 2)[:, None] % PRIME)
    got = build_closure(standard_generators(), 8, 8, 3)
    assert (got.elements, got.trees, got.levels) == (want.elements, want.trees, want.levels)


def test_a_kept_element_off_its_judged_column_is_a_defect(monkeypatch):
    def corrupt(c):
        c[:, 0] = (c[:, 0] + 1) % PRIME
        return c

    patch_columns(monkeypatch, corrupt)
    with pytest.raises(AssertionError, match=r"closure element \('br', 0, 1\) "):
        build_closure(standard_generators(), 8, 8, 3)


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


def molien_dimensions(n, top):
    """sympy's series of sum over the cycle types lambda of S_n (all of them)
    of (1/z_lambda) (1 - t)^2 / prod_i (1 - t^{lambda_i})^2, summed up to
    each degree <= top."""
    R, t = ring("t", QQ)
    precision = top + 1
    series = R(0)
    for cycle_type in partitions(n):
        z = 1
        denominator = R(1)
        for k, m in cycle_type.items():
            z *= k**m * factorial(m)
            denominator *= (1 - t**k) ** (2 * m)
        inverse = rs_series_inversion(denominator, t, precision)
        series += rs_mul(inverse, (1 - t) ** 2, t, precision) * QQ(1, z)
    cumulative = rs_mul(series, rs_series_inversion(1 - t, t, precision), t, precision)
    return [int(cumulative.coeff(t**d if d else 1)) for d in range(precision)]


@pytest.mark.parametrize("n", range(1, 9))
def test_dimension_is_molien_series(n):
    assert [dimension(n, d) for d in range(11)] == molien_dimensions(n, 10)


def test_dimension_is_stable_once_n_reaches_the_degree():
    # dimension sums over the partitions of min(n, D); sympy over all of n's
    for n in range(9, 16):
        assert [dimension(n, d) for d in range(11)] == molien_dimensions(n, 10)
    for degree in range(11):
        assert all(dimension(n, degree) == dimension(degree, degree) for n in range(degree, 16))
    assert [dimension(10, d) for d in (4, 6, 8, 10)] == [19, 79, 293, 1007]
    assert dimension(100, 10) == 1007


def test_dimension_at_n1_counts_the_constants():
    # the traceless space at n = 1 is one point, where only the constants live
    assert all(dimension(1, d) == 1 for d in range(21))


def test_pipeline_normalizes_peak_coefficient():
    p = P("6*tr(A^2)", TRACELESS)
    reduced = reduce_pipeline(p, 3)
    peak = max(abs(complex(c.evaluate(3))) for _, c in reduced.items())
    assert peak == pytest.approx(1.0)


def bigraded_weight_dimensions(n, top):
    """sympy's series of sum over the cycle types lambda of S_n (all of them)
    of (1/z_lambda) (1 - s)(1 - t) / prod_i (1 - s^{lambda_i})(1 - t^{lambda_i}),
    its coefficients of s^a t^b summed over a + b <= top by a - b.  u counts
    the total degree, the one series variable."""
    R, s, t, u = ring("s,t,u", QQ)
    precision = top + 1
    series = R(0)
    for cycle_type in partitions(n):
        z = 1
        denominator = R(1)
        for k, m in cycle_type.items():
            z *= k**m * factorial(m)
            denominator *= ((1 - (s * u) ** k) * (1 - (t * u) ** k)) ** m
        inverse = rs_series_inversion(denominator, u, precision)
        series += rs_mul(inverse, (1 - s * u) * (1 - t * u), u, precision) * QQ(1, z)
    dims = {k: 0 for k in range(-top, top + 1)}
    for (a, b, _), coeff in series.items():
        dims[a - b] += int(coeff)
    return dims


@pytest.mark.parametrize("n", range(1, 7))
def test_weight_dimensions_are_the_bigraded_molien_series(n):
    for top in range(11):
        assert weight_dimensions(n, top) == bigraded_weight_dimensions(n, top), top


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_weight_dimensions_are_the_monomial_ranks_of_each_weight(n):
    # the monomials in order of degree, one Echelon per weight, on a pool of
    # the largest weight's dimension plus the margin, as build_closure's:
    # after each degree d the rank of weight k is weight_dimensions(n, d)[k]
    top = 8
    pool = ExactPool.sample(n, max(weight_dimensions(n, top).values()) + POOL_MARGIN, seed=2)
    echelons = {k: Echelon(len(pool)) for k in range(-top, top + 1)}
    monomials = enumerate_trace_monomials(top, TRACELESS)
    for d in range(top + 1):
        for m in monomials:
            if m.degree() == d:
                echelons[m.weight()].add(pool.values(m))
        ranks = {k: echelons[k].rank for k in range(-d, d + 1)}
        assert ranks == weight_dimensions(n, d), d


def test_an_inhomogeneous_generator_is_rejected():
    generators = standard_generators() + [P("tr(A^2) + tr(B^3)", TRACELESS)]
    with pytest.raises(ValueError, match=r"not weight-homogeneous: terms of weights \[-3, 2\]"):
        build_closure(generators, depth_cap=4, degree_cap=6, n_value=3)


def test_a_generator_of_mixed_b_parity_is_rejected():
    # weight 2 in both terms, B-degrees 0 and 1
    generators = standard_generators() + [P("tr(A^2) + tr(A^3 B)", TRACELESS)]
    with pytest.raises(ValueError, match=r"tr\(A\^2\) \+ tr\(A\^3 B\) mixes B-degree parities"):
        build_closure(generators, depth_cap=4, degree_cap=6, n_value=3)


def test_the_checker_rejects_an_element_of_mixed_b_parity(basis_n2):
    # build_closure keeps no such element; a hand-built basis may hold one
    mixed = P("tr(A^2) + tr(A^3 B)", TRACELESS)
    basis = LieClosureBasis(
        generators=[mixed],
        elements=[mixed],
        trees=[("gen", 0)],
        levels=[0],
        depth_cap=0,
        degree_cap=basis_n2.degree_cap,
        n_value=2,
        seed=0,
        pool_size=basis_n2.pool_size,
    )
    with pytest.raises(ValueError, match=r"tr\(A\^2\) \+ tr\(A\^3 B\) mixes B-degree parities"):
        MembershipChecker(basis)


def test_the_weight_is_the_scaling_flow_grading(basis_n3):
    # tr AB generates the scaling (A, B) -> (e^s A, e^-s B), under which an
    # element of weight k is an eigenvector: {tr AB, e} = -k e, exactly
    h = P("tr(A B)", TRACELESS)
    weights = Counter()
    for e in basis_n3.elements:
        weights[e.weight()] += 1
        assert bracket_traceless(h, e).cayley_hamilton_reduce(3) == e * -e.weight(), F(e)
    assert weights == {k: d for k, d in weight_dimensions(3, 6).items() if d}


class UnsplitMembershipChecker:
    """The membership certificate solved against all the elements at once, on
    a pool of their number plus POOL_MARGIN points, at (X, Y) and at the
    conjugate points (X, -Y).  An oracle for MembershipChecker, which solves
    each weight part of the target against that weight's elements on a pool
    of the largest weight's count plus POOL_MARGIN points, once for the
    part's B-even and B-odd halves together."""

    def __init__(self, basis):
        self.basis = basis
        m = len(basis.elements)
        self.sample_count = sample_count = m + POOL_MARGIN
        n, seed = basis.n_value, basis.seed
        self.pool = ExactPool.sample(n, sample_count, seed, MEMBERSHIP_STREAM)
        self.check_pool = ExactPool.sample(n, CHECK_POINTS, seed, CHECK_STREAM, CHECK_PRIME)
        self.check_values = np.array(
            [self.check_pool.values(e) for e in basis.elements], dtype=np.int64
        ).reshape(m, CHECK_POINTS).T
        self.echelons = []
        self.evaluations = (self.pool.values, lambda p: conjugate_values(self.pool, p))  # at (X, Y), (X, -Y)
        for values in self.evaluations:
            echelon = Echelon(sample_count + m)
            for e, unit in zip(basis.elements, np.eye(m, dtype=np.int64)):
                echelon.add(np.concatenate([values(e), unit]))
            assert max(echelon.pivots, default=0) < sample_count
            self.echelons.append(echelon)

    def check(self, target):
        basis = self.basis
        validate_target(target, basis.degree_cap)
        m = len(basis.elements)
        reduced = target.cayley_hamilton_reduce(basis.n_value)
        peak = peak_coefficient(reduced, basis.n_value) or Fraction(1)
        reduced = reduced * (1 / peak)
        for pool in (self.pool, self.check_pool):
            if not pool.defined(reduced):
                return MembershipCertificate(target, "inconclusive", [], self.sample_count)
        solutions = []
        for values, echelon in zip(self.evaluations, self.echelons):
            remainder = echelon.reduce(np.concatenate([values(reduced), np.zeros(m, dtype=np.int64)]))
            if remainder[: self.sample_count].any():
                return MembershipCertificate(target, "not_found_at_depth", [], self.sample_count)
            solutions.append(-remainder[self.sample_count:] % PRIME)
        (c1, c2), i = solutions, PRIME - LAMBDAS[PRIME]
        parts = (c1 + c2) * pow(2, -1, PRIME) % PRIME, (c1 - c2) * pow(2 * i, -1, PRIME) % PRIME
        lifted = {j: (reconstruct(parts[0][j]), reconstruct(parts[1][j])) for j in np.flatnonzero(c1 | c2)}
        if any(x is None for pair in lifted.values() for x in pair):
            return MembershipCertificate(target, "inconclusive", [], self.sample_count)
        i_check = CHECK_PRIME - LAMBDAS[CHECK_PRIME]
        combination = np.zeros(m, dtype=np.int64)
        coefficients = [(Fraction(0), Fraction(0))] * m
        for j, (a, b) in lifted.items():
            combination[j] = (to_mod_p(a, CHECK_PRIME) + i_check * to_mod_p(b, CHECK_PRIME)) % CHECK_PRIME
            coefficients[j] = (peak * a, peak * b)
        if (matmul(self.check_values, combination, CHECK_PRIME) != self.check_pool.values(reduced)).any():
            return MembershipCertificate(target, "inconclusive", [], self.sample_count)
        return MembershipCertificate(target, "member", coefficients, self.sample_count)


MIXED_TARGET = "tr(A^2)*tr(B^2) + tr(A^3) + tr(A B^2)"  # weights 0, 3 and -1
# weight 0 with B-degrees 2 and 1: a B-even and a B-odd part, solved in one call
MIXED_PARITY_TARGET = "tr(A^2 B^2) + tr(A B)"
# weights 0 and -1, both B-odd: imaginary coefficients in two weights
REVERSE_WORDS_TARGET = "tr(A^2 B A B^2) + tr(A B^2 A B)"


CRITERION_6 = {n: [straight_product_poly(w) for w in straight_word_products(d)] for n, d in ((2, 6), (3, 8))}


@pytest.mark.parametrize(
    "n, depth, targets, statuses",
    [
        (2, 8, CRITERION_6[2], {"member": len(CRITERION_6[2])}),
        (3, 10, CRITERION_6[3], {"member": len(CRITERION_6[3])}),
        (3, 10, [P(MIXED_TARGET, TRACELESS)], {"member": 1}),
        (3, 10, [P(MIXED_PARITY_TARGET, TRACELESS), P(REVERSE_WORDS_TARGET, TRACELESS)], {"member": 2}),
        # depth 1 stops below the dimension: tr(A^3 B^3) and the mixed target
        # are not found, nor is tr(A^2) + tr(A B^2), as no element has weight -1;
        # tr(A B)*tr(A^2) and tr(A^2) are found
        (3, 1, [P(t, TRACELESS) for t in
                ("tr(A^3 B^3)", "tr(A B)*tr(A^2)", MIXED_TARGET, "tr(A^2) + tr(A B^2)", "tr(A^2)")],
         {"not_found_at_depth": 3, "member": 2}),
        # depth 1, weight 0: one parity part is an element, tr(A B)*tr(A B) or
        # tr(A B), and the other, tr(A^3 B^3) or tr(A^2 B^2), is not found
        (3, 1, [P(t, TRACELESS) for t in ("tr(A B)*tr(A B) + tr(A^3 B^3)", "tr(A^2 B^2) + tr(A B)")],
         {"not_found_at_depth": 2}),
    ],
    ids=["criterion6-n2", "criterion6-n3", "mixed-n3", "mixed-parity-n3", "depth1-n3", "one-parity-out-depth1-n3"],
)
def test_split_membership_is_the_unsplit_membership(n, depth, targets, statuses):
    basis = build_closure(standard_generators(), depth_cap=depth, degree_cap=8, n_value=n, seed=0)
    split, unsplit = MembershipChecker(basis), UnsplitMembershipChecker(basis)
    got_statuses = Counter()
    for target in targets:
        got, want = split.check(target), unsplit.check(target)
        assert (got.status, got.exact_coefficients) == (want.status, want.exact_coefficients), F(target)
        got_statuses[got.status] += 1
    assert got_statuses == statuses
    assert split.sample_count < unsplit.sample_count
