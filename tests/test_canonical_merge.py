"""The exact core's fast paths against normalizing reference implementations.

Sums, differences, negation, scalar and polynomial products, brackets and
Cayley-Hamilton reduction merge already-canonical terms without running the
constructor's normalization again.  Each is compared here with a reference
that builds every intermediate result through the normalizing constructor,
as the code did before the fast paths.  Equality includes the order of
list(items()): evaluation adds terms in that order, so a float result depends
on it.

The memoized words (canonicalize, splice_cuts) are compared with their
uncached computations, and QnCoeff, which keeps integral rationals as ints,
with arithmetic on Fractions alone.
"""

import importlib
import importlib.util
from fractions import Fraction
from itertools import product as iter_product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cmpoisson import poly
from cmpoisson.bracket import _word_bracket, bracket
from cmpoisson.poly import PLAIN, TRACELESS, TracePolynomial
from cmpoisson.ring import QnCoeff
from cmpoisson.words import (
    FIRST,
    SECOND,
    CyclicWord,
    _canonical_runs,
    canonicalize,
    merge_runs,
    rotations,
    runs_from_letters,
    splice_cuts,
)
from conftest import same

# ---------------- strategies ----------------

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=6)
coeffs = st.dictionaries(st.integers(-2, 2), rationals, max_size=3).map(QnCoeff)
words = st.lists(st.sampled_from((FIRST, SECOND)), min_size=0, max_size=6).map(
    lambda letters: canonicalize(runs_from_letters(letters))
)
# raw runs: zero exponents and repeated letters, not merged
run_tuples = st.lists(
    st.tuples(st.sampled_from((FIRST, SECOND)), st.integers(0, 3)), max_size=7
).map(tuple)
raw_coeffs = st.dictionaries(st.integers(-2, 2), rationals, max_size=3)
scalars = st.one_of(st.integers(-3, 3), rationals)


@st.composite
def polynomials(draw, mode):
    """A canonical polynomial built from raw terms, some of them colliding."""
    terms = []
    for _ in range(draw(st.integers(0, 5))):
        central = (0, 0)
        if mode == TRACELESS:
            central = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
        factors = tuple(draw(st.lists(words, max_size=3)))
        terms.append(((central, factors), draw(coeffs)))
    return TracePolynomial(mode, terms)


@st.composite
def related_pairs(draw):
    """(f, g) in one mode where g reuses some of f's monomials, so that sums
    and differences merge and cancel terms."""
    mode = draw(st.sampled_from((PLAIN, TRACELESS)))
    f = draw(polynomials(mode))
    shared = [
        (key, coeff * draw(st.sampled_from((-1, 1, 2, Fraction(-1, 2)))))
        for key, coeff in f.items()
        if draw(st.booleans())
    ]
    g = TracePolynomial(mode, shared) + draw(polynomials(mode))
    return f, g


# ---------------- references ----------------

def ref_add(f, g):
    return TracePolynomial(f.mode, [*f.items(), *g.items()])


def ref_neg(f):
    return TracePolynomial(f.mode, [(k, -c) for k, c in f.items()])


def ref_scale(f, c):
    return TracePolynomial(f.mode, [(k, v * c) for k, v in f.items()])


def ref_mul(f, g):
    return TracePolynomial(
        f.mode,
        [
            (((c1[0] + c2[0], c1[1] + c2[1]), f1 + f2), v1 * v2)
            for (c1, f1), v1 in f.items()
            for (c2, f2), v2 in g.items()
        ],
    )


def ref_bracket(f, g):
    """out = out + env * {v, w}, rebuilding the whole result each time."""
    mode = f.mode
    out = TracePolynomial(mode)
    for (cen_f, fac_f), cf in f.items():
        for (cen_g, fac_g), cg in g.items():
            scale = cf * cg
            for i, v in enumerate(fac_f):
                for j, w in enumerate(fac_g):
                    rest = fac_f[:i] + fac_f[i + 1:] + fac_g[:j] + fac_g[j + 1:]
                    env_key = ((cen_f[0] + cen_g[0], cen_f[1] + cen_g[1]), rest)
                    env = TracePolynomial(mode, [(env_key, scale)])
                    out = ref_add(out, ref_mul(env, _word_bracket(v, w, mode)))
            if mode == TRACELESS:
                weight = cen_f[0] * cen_g[1] - cen_f[1] * cen_g[0]
                if weight:
                    key = ((cen_f[0] + cen_g[0] - 1, cen_f[1] + cen_g[1] - 1), fac_f + fac_g)
                    out = ref_add(out, TracePolynomial(mode, [(key, scale * QnCoeff.of(weight, 1))]))
    return out


def ref_specialize(p, n_value):
    return TracePolynomial(p.mode, [(k, c.specialize(n_value)) for k, c in p.items()])


def ref_trace(runs, mode):
    return TracePolynomial(mode, [(((0, 0), (canonicalize(runs),)), QnCoeff.one())])


def ref_elementary(letter, n_value, mode):
    """Newton's identities, rebuilt on every call."""
    p = [None] + [ref_trace(((letter, i),), mode) for i in range(1, n_value + 1)]
    e = [TracePolynomial.constant(1, mode)]
    for k in range(1, n_value + 1):
        acc = TracePolynomial(mode)
        for i in range(1, k + 1):
            term = ref_mul(e[k - i], p[i])
            acc = ref_add(acc, term if i % 2 == 1 else ref_neg(term))
        e.append(ref_scale(acc, QnCoeff.of(Fraction(1, k))))
    return e


def ref_cayley_hamilton(p, n_value):
    mode = p.mode
    work = ref_specialize(p, n_value)
    while True:
        offender = poly._find_long_run(work, n_value)
        if offender is None:
            return work
        key, coeff, fi, ri = offender
        central, factors = key
        runs = factors[fi].runs
        letter, exp = runs[ri]
        rest = runs[ri + 1:] + runs[:ri]
        elementary = ref_elementary(letter, n_value, mode)
        replacement = TracePolynomial(mode)
        for k in range(1, n_value + 1):
            term = ref_mul(elementary[k], ref_trace(((letter, exp - k),) + rest, mode))
            replacement = ref_add(replacement, term if k % 2 == 1 else ref_neg(term))
        rest_mono = TracePolynomial(mode, [((central, factors[:fi] + factors[fi + 1:]), coeff)])
        kept = TracePolynomial(mode, [(k, c) for k, c in work.items() if k != key])
        work = ref_add(kept, ref_mul(rest_mono, ref_specialize(replacement, n_value)))


# ---------------- properties ----------------

@given(related_pairs())
def test_sum_difference_and_negation_merge_like_the_constructor(pair):
    f, g = pair
    same(f + g, ref_add(f, g))
    same(f - g, ref_add(f, ref_neg(g)))
    same(-f, ref_neg(f))
    assert (f - f).is_zero()


@given(related_pairs(), st.one_of(st.integers(-3, 3), rationals, coeffs))
def test_scalar_multiple_merges_like_the_constructor(pair, c):
    f, _ = pair
    c = c if isinstance(c, QnCoeff) else QnCoeff.of(c)
    same(f * c, ref_scale(f, c))
    if c.is_zero():
        assert (f * c).is_zero() and (f * 0).is_zero()


@given(related_pairs())
def test_product_merges_like_the_constructor(pair):
    f, g = pair
    same(f * g, ref_mul(f, g))


@settings(deadline=None, max_examples=60)
@given(related_pairs())
def test_bracket_equals_the_rebuilding_accumulation(pair):
    f, g = pair
    same(bracket(f, g), ref_bracket(f, g))


@settings(deadline=None, max_examples=60)
@given(st.sampled_from((PLAIN, TRACELESS)).flatmap(polynomials), st.integers(1, 3))
def test_cayley_hamilton_reduce_is_stable_and_matches_the_uncached_reference(p, n_value):
    first = p.cayley_hamilton_reduce(n_value)
    same(first, ref_cayley_hamilton(p, n_value))
    # a second call reads the cached Newton tables and word reductions again
    same(p.cayley_hamilton_reduce(n_value), first)
    same(first.cayley_hamilton_reduce(n_value), first)


def test_long_powers_reduce_with_cached_tables_unchanged():
    for mode, n_value in iter_product((PLAIN, TRACELESS), (1, 2, 3, 4)):
        tables = [poly._elementary_in_power_traces(letter, n_value, mode) for letter in (FIRST, SECOND)]
        snapshot = [[list(e.items()) for e in table] for table in tables]
        p = ref_trace(((FIRST, 7), (SECOND, 6)), mode)
        same(p.cayley_hamilton_reduce(n_value), ref_cayley_hamilton(p, n_value))
        assert [[list(e.items()) for e in table] for table in tables] == snapshot


@given(coeffs, coeffs)
def test_cancelling_coefficients_are_zero_and_hash_as_zero(a, b):
    zero = QnCoeff.zero()
    for z in (a + (-a), a - a, a * b - b * a, (a + b) - b - a, a * (b - b), -(a - a), a * 0):
        assert z.is_zero()
        assert z == zero and z == 0
        assert hash(z) == hash(zero)
        assert z.terms == {}
    assert (a + b) - b == a
    assert hash((a + b) - b) == hash(a)


# ---------------- memoized words ----------------

def uncached_splice_cuts(base, letter):
    """splice_cuts as computed before it was cached."""
    runs = base.runs
    terms = {}
    for idx, (run_letter, exp) in enumerate(runs):
        if run_letter != letter:
            continue
        rest = runs[idx + 1:] + runs[:idx]
        for pos in range(1, exp + 1):
            cut = merge_runs(((letter, exp - pos),) + rest + ((letter, pos - 1),))
            terms[cut] = terms.get(cut, 0) + 1
    return sorted(terms.items())


def json_runs(runs):
    """Runs in the shape JSON gives them: a list of [letter, exponent] lists."""
    return [list(run) for run in runs]


@given(run_tuples, st.sampled_from((tuple, list, iter, json_runs, lambda r: tuple(json_runs(r)))))
def test_cached_canonicalize_is_the_uncached_construction(runs, container):
    want = CyclicWord(_canonical_runs(merge_runs(runs)))
    got = canonicalize(container(runs))
    assert got == want and got.runs == want.runs and hash(got) == hash(want)
    first = sum(e for letter, e in runs if letter == FIRST)
    second = sum(e for letter, e in runs if letter == SECOND)
    assert got.bidegree() == (first, second) and got.degree() == first + second
    # every rotation, and the canonical runs themselves, give the one cached object
    for rotation in rotations(runs) + [want.runs]:
        assert canonicalize(rotation) is got


@given(run_tuples, st.integers(0, 7), st.integers(-3, -1))
def test_a_negative_exponent_raises_on_every_call(runs, at, exp):
    bad = runs[:at] + ((SECOND, exp),) + runs[at:]
    for _ in range(2):
        for given_runs in (bad, json_runs(bad)):
            with pytest.raises(ValueError, match="negative exponent"):
                canonicalize(given_runs)


def test_a_trace_of_json_runs_is_the_trace_of_their_tuple():
    assert TracePolynomial.trace([[FIRST, 2]], PLAIN) == TracePolynomial.trace(((FIRST, 2),), PLAIN)


@given(st.lists(st.sampled_from((FIRST, SECOND)), max_size=9), st.sampled_from((FIRST, SECOND)))
def test_cached_splice_cuts_are_the_uncached_computation(letters, letter):
    w = canonicalize(runs_from_letters(letters))
    cuts = splice_cuts(w, letter)
    assert isinstance(cuts, tuple) and list(cuts) == uncached_splice_cuts(w, letter)
    assert splice_cuts(w, letter) is cuts


def test_the_benchmark_tracer_reads_the_word_and_bracket_caches():
    """perfbench/tracing.py reports the hit ratios of these lru caches by name."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    # by module path: the package namespace rebinds `bracket` to the function
    bracket_module = importlib.import_module("cmpoisson.bracket")
    assert tracing.CACHES == {
        "bracket.word_bracket_hit_ratio": bracket_module._word_bracket,
        "words.canonical_hit_ratio": _canonical_runs,
    }
    tracer = tracing.Tracer()  # reads cache_info() of each
    assert set(tracer._cache_start) == set(tracing.CACHES)
    for fn in tracing.CACHES.values():
        assert fn.cache_info().maxsize == 65536


# ---------------- QnCoeff against Fraction arithmetic ----------------

def fraction_terms(raw):
    """{power: nonzero Fraction}, summed as QnCoeff's constructor sums."""
    out = {}
    for power, c in raw.items():
        out[power] = out.get(power, Fraction(0)) + Fraction(c)
    return {p: c for p, c in out.items() if c}


def fraction_add(a, b):
    out = dict(a)
    for power, c in b.items():
        out[power] = out.get(power, Fraction(0)) + c
    return {p: c for p, c in out.items() if c}


def fraction_mul(a, b):
    out = {}
    for (p1, c1), (p2, c2) in iter_product(a.items(), b.items()):
        out[p1 + p2] = out.get(p1 + p2, Fraction(0)) + c1 * c2
    return {p: c for p, c in out.items() if c}


def assert_is(c, ref):
    """c has the Fraction terms ref, and stores each as an int when integral."""
    assert c.terms == ref
    assert all(type(v) is Fraction for v in c.terms.values())
    for v in c._terms.values():
        assert type(v) is (int if Fraction(v).denominator == 1 else Fraction)


@given(raw_coeffs, raw_coeffs, scalars, st.integers(-2, 2), st.integers(1, 4))
def test_coefficient_arithmetic_is_fraction_arithmetic(raw_a, raw_b, s, k, n_value):
    a, b = QnCoeff(raw_a), QnCoeff(raw_b)
    ref_a, ref_b = fraction_terms(raw_a), fraction_terms(raw_b)
    assert_is(a, ref_a)
    assert_is(a + b, fraction_add(ref_a, ref_b))
    assert_is(a - b, fraction_add(ref_a, {p: -c for p, c in ref_b.items()}))
    assert_is(-a, {p: -c for p, c in ref_a.items()})
    assert_is(a * b, fraction_mul(ref_a, ref_b))
    assert_is(a * s, {p: c * s for p, c in ref_a.items() if s})
    assert_is(s * a, {p: c * s for p, c in ref_a.items() if s})
    assert_is(a.times_n_power(k), {p + k: c for p, c in ref_a.items()})
    value = a.evaluate(n_value)
    assert type(value) is Fraction
    assert value == sum((c * Fraction(n_value) ** p for p, c in ref_a.items()), Fraction(0))
    assert_is(a.specialize(n_value), {0: value} if value else {})


def test_an_integral_fraction_and_its_int_are_one_coefficient():
    for n_power in (-1, 0, 2):
        a, b = QnCoeff.of(Fraction(6, 3), n_power), QnCoeff.of(2, n_power)
        assert a == b and hash(a) == hash(b)
        assert a._terms == {n_power: 2} and type(a._terms[n_power]) is int
    a, b = QnCoeff({0: Fraction(6, 3), 1: Fraction(1, 2)}), QnCoeff({0: 2, 1: Fraction(1, 2)})
    assert a == b and hash(a) == hash(b)
    assert QnCoeff.of(Fraction(6, 3)) == 2 and QnCoeff.of(2) == Fraction(6, 3)
    assert QnCoeff.of(Fraction(1, 2)) * 4 == QnCoeff.of(2) and type((QnCoeff.of(Fraction(1, 2)) * 4)._terms[0]) is int
