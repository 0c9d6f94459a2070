"""Trace polynomial arithmetic, substitutions, degrees, and reduction."""

import pytest
from hypothesis import given, settings, strategies as st

from cmpoisson.cm import CMPoint, MatrixPair, PointEvaluator, evaluate, sample_cm
from cmpoisson.grammar import format_polynomial as F, parse_polynomial as P
from cmpoisson.poly import MINUS_INF, PLAIN, TRACELESS, TracePolynomial
from cmpoisson.ring import QnCoeff
from cmpoisson.words import FIRST, SECOND, canonicalize
from conftest import random_polynomial


def test_additive_inverse_cancels():
    p = P("tr(X^2)", PLAIN)
    assert (p + (-1) * p).is_zero()


def test_sum_of_distinct_traces():
    s = P("tr(X^2)", PLAIN) + P("tr(Y^2)", PLAIN)
    assert len(s) == 2


def test_coefficient_arithmetic_merges():
    p = P("n^-1*tr(X Y)", PLAIN) + P("tr(X Y) - n^-1*tr(X Y)", PLAIN)
    assert p == P("tr(X Y)", PLAIN)


def test_product_of_single_traces():
    prod = P("tr(X^2)", PLAIN) * P("tr(Y^2)", PLAIN)
    assert F(prod) == "tr(X^2)*tr(Y^2)"


def test_zero_annihilates():
    assert (TracePolynomial.zero(PLAIN) * P("tr(X)", PLAIN)).is_zero()


def test_binomial_square():
    s = P("tr(X) + tr(Y)", PLAIN)
    expanded = P("tr(X)*tr(X) + 2*tr(X)*tr(Y) + tr(Y)*tr(Y)", PLAIN)
    assert s * s == expanded


# raw terms: factors as raw runs (empty and length-1 words included), central
# exponents (kept in traceless mode only), a rational and a power of n, drawn
# from few values so that terms merge and cancel
RAW_TERMS = st.lists(
    st.tuples(
        st.lists(st.lists(st.tuples(st.sampled_from((FIRST, SECOND)), st.integers(0, 2)), max_size=3), max_size=3),
        st.tuples(st.integers(0, 1), st.integers(0, 1)),
        st.integers(-2, 2),
        st.integers(-1, 1),
    ),
    max_size=6,
)


@settings(deadline=None, max_examples=200)
@given(st.sampled_from((PLAIN, TRACELESS)), RAW_TERMS, st.randoms(use_true_random=False))
def test_permuted_raw_terms_build_one_polynomial(mode, terms, random):
    raw = [
        ((central if mode == TRACELESS else (0, 0), tuple(canonicalize(r) for r in factors)), QnCoeff.of(rat, n_power))
        for factors, central, rat, n_power in terms
    ]
    permuted = [
        ((central, tuple(random.sample(factors, len(factors)))), coeff)
        for (central, factors), coeff in random.sample(raw, len(raw))
    ]
    p, q = TracePolynomial(mode, raw), TracePolynomial(mode, permuted)
    assert p == q
    assert hash(p) == hash(q)
    assert len({p, q}) == 1


def test_mode_mismatch_raises():
    with pytest.raises(ValueError):
        P("tr(X)", PLAIN) + P("tr(A^2)", TRACELESS)


def test_traceless_mode_kills_single_letters():
    assert P("tr(A)", TRACELESS).is_zero()
    assert P("3*tr(B) + tr(A^2)", TRACELESS) == P("tr(A^2)", TRACELESS)


def test_empty_word_folds_to_n():
    # tr(I) = n: multiplying by the empty trace scales by the symbol n
    const_n = TracePolynomial.constant(QnCoeff.of(1, 1), PLAIN)
    assert F(const_n) == "n"


# ---------------- to_traceless / to_plain ----------------

def test_traceless_substitution_of_squares():
    assert F(P("tr(X^2)", PLAIN).to_traceless()) == "tr(A^2) + n^-1*tr(X)*tr(X)"


def test_traceless_substitution_of_crossed_trace():
    assert F(P("tr(X Y)", PLAIN).to_traceless()) == "tr(A B) + n^-1*tr(X)*tr(Y)"


def test_traceless_substitution_of_pure_trace():
    assert F(P("tr(X)", PLAIN).to_traceless()) == "tr(X)"


def test_substitutions_are_mutually_inverse(rng):
    for _ in range(25):
        p = random_polynomial(rng, PLAIN, max_degree=5)
        assert p.to_traceless().to_plain() == p
    for _ in range(25):
        q = random_polynomial(rng, TRACELESS, max_degree=5)
        assert q.to_plain().to_traceless() == q


def test_traceless_substitution_is_ring_homomorphism(rng):
    for _ in range(20):
        p = random_polynomial(rng, PLAIN, max_degree=3)
        q = random_polynomial(rng, PLAIN, max_degree=3)
        assert (p * q).to_traceless() == p.to_traceless() * q.to_traceless()
        assert (p + q).to_traceless() == p.to_traceless() + q.to_traceless()


def test_ring_axioms_on_random_triples(rng):
    for _ in range(20):
        a = random_polynomial(rng, PLAIN, max_degree=3)
        b = random_polynomial(rng, PLAIN, max_degree=3)
        c = random_polynomial(rng, PLAIN, max_degree=3)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


# ---------------- degrees and truncation ----------------

def test_bidegree_of_mixed_word():
    assert P("tr(A^2 B)", TRACELESS).bidegree() == (2, 1)


def test_bidegree_of_zero_is_minus_infinity():
    assert TracePolynomial.zero(PLAIN).bidegree() == MINUS_INF
    assert TracePolynomial.zero(PLAIN).degree() == MINUS_INF


def test_bidegree_of_factor_product():
    assert (P("tr(A^2)", TRACELESS) * P("tr(B^3)", TRACELESS)).bidegree() == (2, 3)


def test_central_symbols_count_in_degree():
    p = P("tr(X)*tr(X)*tr(A^2)", TRACELESS)
    assert p.bidegree() == (4, 0)
    assert p.degree() == 4


def test_weight_counts_letters_less_second_letters_and_central_symbols():
    assert P("tr(A^2 B)", TRACELESS).weight() == 1
    assert P("tr(X)*tr(Y)*tr(Y)*tr(A B^3) + tr(B^3)", TRACELESS).weight() == -3
    assert P("tr(A B)*tr(A B) - 4", TRACELESS).weight() == 0
    assert TracePolynomial.zero(TRACELESS).weight() == 0


def test_weight_parts_split_an_inhomogeneous_polynomial():
    p = P("tr(A^2)*tr(B^2) + tr(A^3) - 2*tr(A B^2) + tr(A^2 B)*tr(A^2)", TRACELESS)
    parts = p.weight_parts()
    assert {k: F(part) for k, part in parts.items()} == {
        0: "tr(A^2)*tr(B^2)", 3: "tr(A^3) + tr(A^2)*tr(A^2 B)", -1: "-2*tr(A B^2)"}
    assert sum(parts.values(), TracePolynomial.zero(TRACELESS)) == p
    with pytest.raises(ValueError, match=r"not weight-homogeneous: terms of weights \[-1, 0, 3\]"):
        p.weight()
    assert TracePolynomial.zero(TRACELESS).weight_parts() == {}


def test_reduction_keeps_each_weight(rng):
    # Cayley-Hamilton rewrites L^n by products of traces of the same letter,
    # so every term it writes has the weight of the term it replaces
    for n_value in (2, 3):
        for _ in range(10):
            p = random_polynomial(rng, PLAIN, max_degree=7)
            for mode_p in (p, p.to_traceless()):
                for k, part in mode_p.weight_parts().items():
                    reduced = part.cayley_hamilton_reduce(n_value)
                    assert reduced.is_zero() or reduced.weight() == k


def test_truncation_drops_low_degrees():
    p = P("tr(A^3 B) + tr(A B)", TRACELESS)
    assert p.truncate_below_degree(2) == P("tr(A^3 B)", TRACELESS)
    assert p.truncate_below_degree(-1) == p


# ---------------- Cayley-Hamilton reduction ----------------

def test_cubic_power_trace_at_two():
    expected = P("3/2*tr(X)*tr(X^2) - 1/2*tr(X)*tr(X)*tr(X)", PLAIN)
    assert P("tr(X^3)", PLAIN).cayley_hamilton_reduce(2) == expected


def test_low_powers_unchanged():
    p = P("tr(X^2)", PLAIN)
    assert p.cayley_hamilton_reduce(3) == p


def test_reduction_rejects_zero_size():
    with pytest.raises(ValueError):
        P("tr(X^2)", PLAIN).cayley_hamilton_reduce(0)


def test_mixed_word_reduction_matches_numerics(rng):
    p = P("tr(X^3 Y)", PLAIN)
    reduced = p.cayley_hamilton_reduce(2)
    for _ in range(20):
        X = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        Y = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        pt = CMPoint(MatrixPair(2, X, Y), False, 0.0, 0.0)
        v_raw = evaluate(p, pt)
        v_red = evaluate(reduced, pt)
        assert abs(v_raw - v_red) <= 1e-12 * max(1.0, abs(v_raw))


def test_reduction_bounds_run_exponents(rng):
    for n_value in (2, 3):
        for _ in range(10):
            p = random_polynomial(rng, PLAIN, max_degree=7)
            reduced = p.cayley_hamilton_reduce(n_value)
            for (_, factors), _ in reduced.items():
                for w in factors:
                    assert all(exp <= n_value for _, exp in w.runs)


def test_reduction_preserves_evaluation_on_random_pairs(rng):
    for n_value in (2, 3):
        pts = [sample_cm(n_value, traceless=False, seed=77, index=i) for i in range(5)]
        for _ in range(10):
            p = random_polynomial(rng, PLAIN, max_degree=6)
            reduced = p.cayley_hamilton_reduce(n_value)
            for pt in pts:
                ev = PointEvaluator(pt)
                v_raw, v_red = ev.poly_value(p), ev.poly_value(reduced)
                assert abs(v_raw - v_red) <= 1e-10 * max(1.0, abs(v_raw))


def test_reduction_handles_central_symbols(rng):
    # reduce the traceless image of a plain polynomial and compare both as
    # functions at generic (non-traceless) points through the pullback
    for n_value in (2, 3):
        pts = [sample_cm(n_value, traceless=False, seed=78, index=i) for i in range(3)]
        for _ in range(8):
            p = random_polynomial(rng, PLAIN, max_degree=5).to_traceless()
            reduced = p.cayley_hamilton_reduce(n_value)
            for pt in pts:
                ev = PointEvaluator(pt)
                v_raw, v_red = ev.poly_value(p), ev.poly_value(reduced)
                assert abs(v_raw - v_red) <= 1e-10 * max(1.0, abs(v_raw))
