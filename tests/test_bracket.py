"""Poisson brackets: pinned identities, algebraic laws, and consistency."""

from collections import Counter
from functools import cache
from itertools import product

import numpy as np
import pytest

from cmpoisson.bracket import (
    _evaluator_pool,
    bracket,
    bracket_raw_terms,
    bracket_standard,
    bracket_traceless,
    fit_tail_on_variety,
    jacobi_check,
    leading_part,
    tail_is_low_degree,
)
from cmpoisson.catalog import make_bracketformular_entry
from cmpoisson.cm import PointEvaluator, PointPool, sample_cm
from cmpoisson.grammar import format_polynomial as F, format_terms, parse_polynomial as P
from cmpoisson.modp import ExactPool
from cmpoisson.poly import PLAIN, TRACELESS
from cmpoisson.span import enumerate_trace_monomials, lstsq_fit, value_matrix
from conftest import random_polynomial


def test_canonical_pair_gives_n():
    assert F(bracket_standard(P("tr(X)", PLAIN), P("tr(Y)", PLAIN))) == "n"


def test_same_letter_powers_commute():
    for j, k in ((1, 2), (2, 3), (3, 5)):
        b = bracket_standard(P(f"tr(X^{j})", PLAIN), P(f"tr(X^{k})", PLAIN))
        assert b.is_zero()


def test_squares_bracket_to_crossed_trace():
    b = bracket_standard(P("tr(X^2)", PLAIN), P("tr(Y^2)", PLAIN))
    assert b == P("4*tr(X Y)", PLAIN)


def test_corrected_power_pair_identity():
    # {tr A^j, tr B^q} = jq tr A^{j-1}B^{q-1} - (jq/n) tr A^{j-1} tr B^{q-1}
    b = bracket_traceless(P("tr(A^3)", TRACELESS), P("tr(B^2)", TRACELESS))
    assert b == P("6*tr(A^2 B) - 6*n^-1*tr(A^2)*tr(B)", TRACELESS)
    assert b == P("6*tr(A^2 B)", TRACELESS)  # tr B = 0


def test_weight_identity():
    b = bracket_traceless(P("tr(A^2 B)", TRACELESS), P("tr(A B)", TRACELESS))
    assert b == P("tr(A^2 B)", TRACELESS)


def test_single_splice_identity():
    b = bracket_traceless(P("tr(A^4)", TRACELESS), P("tr(B^2)", TRACELESS))
    assert b == P("8*tr(A^3 B)", TRACELESS)


def test_mode_mismatch_rejected():
    with pytest.raises(ValueError):
        bracket(P("tr(X)", PLAIN), P("tr(A^2)", TRACELESS))
    with pytest.raises(ValueError):
        bracket_standard(P("tr(A^2)", TRACELESS), P("tr(A^2)", TRACELESS))


def test_central_symbols_bracket_like_the_plane():
    # {tr X, tr Y} = n survives the traceless substitution
    sx = P("tr(X)", TRACELESS)
    sy = P("tr(Y)", TRACELESS)
    assert F(bracket_traceless(sx, sy)) == "n"
    assert bracket_traceless(sx, P("tr(A^2 B)", TRACELESS)).is_zero()


def test_raw_terms_show_prereduction_formula():
    raw = bracket_raw_terms(P("tr(A^2)", TRACELESS), P("tr(B^2)", TRACELESS))
    assert format_terms(raw, TRACELESS) == "4*tr(A B) - 4*n^-1*tr(A)*tr(B)"
    # the corrected terms tr(B)*tr(A) and -tr(A)*tr(B) cancel once their factors are sorted
    raw = bracket_raw_terms(P("tr(A B)", TRACELESS), P("tr(A B)", TRACELESS))
    assert raw == [] and format_terms(raw, TRACELESS) == "0"


def test_antisymmetry(rng):
    for mode in (PLAIN, TRACELESS):
        for _ in range(30):
            f = random_polynomial(rng, mode, max_degree=6, allow_central=True)
            g = random_polynomial(rng, mode, max_degree=6, allow_central=True)
            assert (bracket(f, g) + bracket(g, f)).is_zero()


def test_leibniz_rule(rng):
    for mode in (PLAIN, TRACELESS):
        for _ in range(20):
            f = random_polynomial(rng, mode, max_degree=4, allow_central=True)
            g = random_polynomial(rng, mode, max_degree=4, allow_central=True)
            h = random_polynomial(rng, mode, max_degree=4, allow_central=True)
            lhs = bracket(f * g, h)
            rhs = f * bracket(g, h) + g * bracket(f, h)
            assert lhs == rhs


def test_jacobi_with_central_symbols(rng):
    for _ in range(10):
        f = random_polynomial(rng, TRACELESS, max_degree=4, max_terms=1, allow_central=True)
        g = random_polynomial(rng, TRACELESS, max_degree=4, max_terms=1, allow_central=True)
        h = random_polynomial(rng, TRACELESS, max_degree=4, max_terms=1, allow_central=True)
        assert jacobi_check(f, g, h).is_zero()


def test_jacobi_identity_examples():
    a = P("tr(A^2)", TRACELESS)
    b = P("tr(B^2)", TRACELESS)
    c = P("tr(A B)", TRACELESS)
    assert jacobi_check(a, b, c).is_zero()
    assert jacobi_check(P("tr(A^3)", TRACELESS), b, P("tr(A B^2)", TRACELESS)).is_zero()


def test_jacobi_on_random_triples(rng):
    for _ in range(15):
        f = random_polynomial(rng, TRACELESS, max_degree=5, max_terms=1)
        g = random_polynomial(rng, TRACELESS, max_degree=5, max_terms=1)
        h = random_polynomial(rng, TRACELESS, max_degree=5, max_terms=1)
        assert jacobi_check(f, g, h).is_zero()


def test_bracket_bidegree_bound(rng):
    from conftest import straight_product_poly

    for _ in range(40):
        j, k = int(rng.integers(0, 5)), int(rng.integers(0, 5))
        p, q = int(rng.integers(0, 5)), int(rng.integers(0, 5))
        if j + k < 2 or p + q < 2:
            continue
        b = bracket_traceless(
            straight_product_poly(((j, k),)), straight_product_poly(((p, q),))
        )
        if b.is_zero():
            continue
        bi, bj = b.bidegree()
        assert bi <= j + p - 1 and bj <= k + q - 1


def _brute_force_word_bracket(v, w, mode):
    """Flat-letter reimplementation of the single-word bracket (test oracle).

    Enumerates letter positions directly instead of run-length cuts."""
    from cmpoisson.poly import TracePolynomial
    from cmpoisson.ring import QnCoeff
    from cmpoisson.words import FIRST, SECOND, canonicalize, runs_from_letters

    corrected = mode == TRACELESS

    def cuts(letters, letter):
        out = []
        for i, l in enumerate(letters):
            if l == letter:
                out.append(tuple(letters[i + 1:]) + tuple(letters[:i]))
        return out

    lv, lw = v.letters(), w.letters()
    terms = []
    for sign, a, b in ((1, FIRST, SECOND), (-1, SECOND, FIRST)):
        for cv in cuts(lv, a):
            for cw in cuts(lw, b):
                joined = canonicalize(runs_from_letters(cv + cw))
                terms.append((((0, 0), (joined,)), QnCoeff.of(sign)))
                if corrected:
                    terms.append(
                        (
                            (
                                (0, 0),
                                (
                                    canonicalize(runs_from_letters(cv)),
                                    canonicalize(runs_from_letters(cw)),
                                ),
                            ),
                            QnCoeff.of(-sign, -1),
                        )
                    )
    return TracePolynomial(mode, terms)


def test_splice_engine_matches_flat_letter_oracle(rng):
    from cmpoisson.bracket import _word_bracket
    from cmpoisson.words import canonicalize, runs_from_letters

    for mode in (PLAIN, TRACELESS):
        for _ in range(30):
            v = canonicalize(runs_from_letters([int(rng.integers(0, 2)) for _ in range(int(rng.integers(1, 8)))]))
            w = canonicalize(runs_from_letters([int(rng.integers(0, 2)) for _ in range(int(rng.integers(1, 8)))]))
            assert _word_bracket(v, w, mode) == _brute_force_word_bracket(v, w, mode)


def test_traceless_substitution_is_a_poisson_map(rng):
    for _ in range(15):
        f = random_polynomial(rng, PLAIN, max_degree=5)
        g = random_polynomial(rng, PLAIN, max_degree=5)
        lhs = bracket_standard(f, g).to_traceless()
        rhs = bracket_traceless(f.to_traceless(), g.to_traceless())
        assert lhs == rhs


TAMPER = "tr(A^2 B^2 A^2 B^2) - tr(A^4 B^4)"  # straightens to 0


@cache
def leading_law_tails():
    """(exponents, computed, bound, tail, genuine) for every nonzero
    leading-law tail with 0 < j+k+p+q <= 10: the genuine difference, and
    that difference with TAMPER added, so both tail verdicts are exercised."""
    tamper = P(TAMPER, TRACELESS)
    tails = []
    for j, k, p, q in product(range(11), repeat=4):
        if not 0 < j + k + p + q <= 10:
            continue
        entry = make_bracketformular_entry(j, k, p, q)
        computed = bracket_traceless(entry.lhs, entry.rhs)
        bound = entry.degree_bound
        assert leading_part(computed, bound) == entry.expected.straighten()
        diff = computed - entry.expected
        if not diff.is_zero():
            t = (j, k, p, q)
            tails += [(t, computed, bound, diff, True), (t, computed, bound, diff + tamper, False)]
    return tails


def test_exact_tail_check_agrees_with_the_float_fit():
    # the float least-squares fit the exact tail check replaced, kept as an
    # oracle
    exact = {n: ExactPool.sample(n, 100, seed=3) for n in (2, 3)}
    floats = {n: PointPool.sample(n, 100, seed=3) for n in (2, 3)}
    verdicts = Counter()
    for t, computed, bound, tail, genuine in leading_law_tails():
        for n in (2, 3):
            passed = tail_is_low_degree(tail, bound, exact[n])
            assert passed == (fit_tail_on_variety(tail, computed, bound, floats[n]) < 1e-8), (
                t, n, genuine,
            )
            verdicts[genuine, passed] += 1
    # every genuine tail passes; a tampered one fails at n = 3 below bound 4
    # (the added term vanishes at n = 2 and has degree <= 4 at n = 3)
    assert verdicts == {(True, True): 524, (False, True): 380, (False, False): 144}


def test_float_fit_on_evaluators_matches_the_fit_on_their_pool():
    # a list of evaluators is fitted on a cached PointPool of its points;
    # lists with different points never share one
    points = {seed: [sample_cm(3, traceless=True, seed=seed, index=i) for i in range(40)]
              for seed in (3, 4)}
    evaluators = {seed: [PointEvaluator(pt) for pt in pts] for seed, pts in points.items()}
    pools = {seed: PointPool(pts) for seed, pts in points.items()}
    tails = leading_law_tails()[::37]
    for _, computed, bound, tail, genuine in tails:
        residuals = {}
        for seed in (3, 4, 3):
            residuals[seed] = fit_tail_on_variety(tail, computed, bound, evaluators[seed])
            assert residuals[seed] == fit_tail_on_variety(tail, computed, bound, pools[seed])
        if not genuine and bound < 4:
            assert residuals[3] != residuals[4]
    cached = {seed: _evaluator_pool(tuple(evs)) for seed, evs in evaluators.items()}
    assert cached[3] is not cached[4]
    for seed in (3, 4):
        assert cached[seed].points == points[seed]


def test_projection_residual_agrees_with_the_least_squares_fit():
    # span.lstsq_fit, a full least-squares solve per tail, is the oracle for
    # the orthonormal basis kept per (pool, bound, mode)
    pool = PointPool.sample(3, 100, seed=3)
    worst = 0.0
    for _, computed, bound, tail, _ in leading_law_tails():
        residual = fit_tail_on_variety(tail, computed, bound, pool)
        matrix = value_matrix(pool, enumerate_trace_monomials(bound, TRACELESS))
        scale = max(1.0, float(np.abs(pool.values_and_magnitudes(computed)[0]).max()))
        oracle, _, _ = lstsq_fit(matrix, pool.values_and_magnitudes(tail)[0], scale=scale)
        assert (residual < 1e-8) == (oracle < 1e-8)
        worst = max(worst, abs(residual - oracle))
    assert worst < 1e-11


@pytest.mark.parametrize("n, status", [(2, "pass"), (3, "fail")])
def test_tail_with_prime_in_a_denominator_is_checked_mod_the_check_prime(n, status):
    # the added terms straighten to 0 and vanish at n = 2; at n = 3 they have
    # no values mod PRIME, so the tail check runs on a CHECK_PRIME pool
    from cmpoisson.bracket import verify_catalog
    from cmpoisson.catalog import load_catalog_records, record_to_entry
    from cmpoisson.modp import CHECK_PRIME, PRIME, ExactPool

    record = next(r for r in load_catalog_records() if r["id"] == "leading-law-3113")

    def tampered(d):
        extra = f" + 1/{d}*tr(A^2 B^2 A^2 B^2) - 1/{d}*tr(A^4 B^4)"
        return record_to_entry(dict(record, expected=record["expected"] + extra))

    entry = tampered(PRIME)
    diff = bracket(entry.lhs, entry.rhs) - entry.expected
    assert not ExactPool.sample(n, 5, seed=0).defined(diff)
    assert ExactPool.sample(n, 5, seed=0, prime=CHECK_PRIME).defined(diff)
    (result,) = verify_catalog([entry], n_value=n, sample_count=40, seed=0).results
    assert result.status == status
    # with both primes in the denominator the tail has no exact values at all
    with pytest.raises(ValueError, match=f"the prime {CHECK_PRIME} divides the denominator"):
        verify_catalog([tampered(PRIME * CHECK_PRIME)], n_value=n, sample_count=40, seed=0)
