"""The exact core's fast paths against normalizing reference implementations.

Sums, differences, negation, scalar and polynomial products, brackets and
Cayley-Hamilton reduction merge already-canonical terms without running the
constructor's normalization again.  Each is compared here with a reference
that builds every intermediate result through the normalizing constructor,
as the code did before the fast paths.  Equality includes the order of
list(items()): evaluation adds terms in that order, so a float result depends
on it.
"""

from fractions import Fraction
from itertools import product as iter_product

from hypothesis import given, settings, strategies as st

from cmpoisson import poly
from cmpoisson.bracket import _word_bracket, bracket
from cmpoisson.poly import PLAIN, TRACELESS, TracePolynomial
from cmpoisson.ring import QnCoeff
from cmpoisson.words import FIRST, SECOND, Word, canonicalize, merge_runs
from conftest import same

# ---------------- strategies ----------------

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=6)
coeffs = st.dictionaries(st.integers(-2, 2), rationals, max_size=3).map(QnCoeff)
words = st.lists(st.sampled_from((FIRST, SECOND)), min_size=0, max_size=6).map(
    lambda letters: canonicalize(Word.from_letters(letters))
)


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
    return TracePolynomial(mode, [(((0, 0), (canonicalize(Word(merge_runs(runs))),)), QnCoeff.one())])


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
