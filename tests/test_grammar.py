"""Polynomial text grammar: round trips, whitespace, error positions, and the
term order of the one-pass build against the term-by-term one."""

import math
from fractions import Fraction
from itertools import product as iter_product

import pytest
from hypothesis import given, settings, strategies as st

from cmpoisson.catalog import bracketformular_expected_text, load_catalog_records
from cmpoisson.chains import load_chain_records
from cmpoisson.grammar import (
    PolynomialParseError,
    _parse_npart,
    _parse_rational,
    _parse_word,
    _Scanner,
    format_polynomial as F,
    parse_polynomial as P,
)
from cmpoisson.poly import PLAIN, TRACELESS, TracePolynomial
from cmpoisson.ring import QnCoeff
from cmpoisson.words import FIRST, SECOND, Word, canonicalize, merge_runs
from conftest import random_polynomial, same


def test_roundtrip_is_bit_stable(rng):
    for mode in (PLAIN, TRACELESS):
        for _ in range(40):
            p = random_polynomial(rng, mode, max_degree=5, max_terms=3)
            text = F(p)
            assert P(text, mode) == p
            assert F(P(text, mode)) == text


def test_whitespace_insensitive():
    a = P("tr(A^2)+2*tr(A B)", TRACELESS)
    b = P("  tr( A^2 )  +  2 * tr(AB)  ", TRACELESS)
    assert a == b


def test_optional_star_and_juxtaposition():
    assert P("2tr(X)tr(Y)", PLAIN) == P("2*tr(X)*tr(Y)", PLAIN)


def test_constant_terms_parse_and_print():
    assert F(P("n", PLAIN)) == "n"
    assert F(P("1", PLAIN)) == "1"
    assert F(P("3/2*n^-2", PLAIN)) == "3/2*n^-2"
    assert F(P("0", TRACELESS)) == "0"


def test_central_symbols_in_traceless_mode():
    p = P("n^-1*tr(X)*tr(Y) + tr(A B)", TRACELESS)
    assert F(p) == "tr(A B) + n^-1*tr(X)*tr(Y)"


def test_mode_letter_enforcement():
    with pytest.raises(PolynomialParseError):
        P("tr(A^2)", PLAIN)
    with pytest.raises(PolynomialParseError):
        P("tr(X^2)", TRACELESS)  # central symbols carry no exponent
    with pytest.raises(PolynomialParseError):
        P("tr(X Y)", TRACELESS)


def test_error_carries_line_and_column():
    with pytest.raises(PolynomialParseError) as err:
        P("tr(X^2) +\n tr(Q)", PLAIN)
    assert err.value.line == 2
    assert err.value.column >= 2


@pytest.mark.parametrize("text", ["tr(A^2 B", "tr(A", "tr("])
def test_text_ending_inside_a_trace_is_an_error(text):
    with pytest.raises(PolynomialParseError, match="expected"):
        P(text, TRACELESS)


def test_word_exponent_must_be_positive():
    with pytest.raises(PolynomialParseError):
        P("tr(X^0)", PLAIN)


def test_negative_rational_and_n_powers():
    p = P("-1/2*n^2*tr(X)", PLAIN)
    assert F(p) == "-1/2*n^2*tr(X)"


def test_raw_bracket_display_strings_reduce_on_parse():
    raw = "4*tr(A B) - 4*n^-1*tr(A)*tr(B)"
    assert P(raw, TRACELESS) == P("4*tr(A B)", TRACELESS)


@pytest.mark.parametrize(
    "text, column",
    [("tr(A^\u00b2)", 6), ("\u00b2*tr(A^2)", 1), ("\u0663*tr(A^2)", 1), ("3/\u0663*tr(A^2)", 3)],
)
def test_only_ascii_digits_are_digits(text, column):
    # str.isdigit() accepts superscripts that int() rejects, and int() accepts
    # other decimal digits; the grammar takes neither
    with pytest.raises(PolynomialParseError) as err:
        P(text, TRACELESS)
    assert (err.value.line, err.value.column) == (1, column)


# ---------------- the term-by-term build, kept as an oracle ----------------

def term_by_term_parse(text: str, mode: str) -> TracePolynomial:
    """Parse valid text as the parser once did: each term a product of
    one-term polynomials, added to a running total."""
    sc = _Scanner(text)
    total = TracePolynomial.zero(mode)
    negate = sc.eat("-")
    if not negate:
        sc.eat("+")
    while True:
        rational, n_power = Fraction(1), 0
        ch = sc.peek()
        if "0" <= ch <= "9" or ch in "+-":
            rational = _parse_rational(sc)
            sc.eat("*")
        if sc.peek() == "n":
            n_power = _parse_npart(sc)
            sc.eat("*")
        term = TracePolynomial.constant(QnCoeff.of(rational, n_power), mode)
        while sc.eat("tr"):
            sc.expect("(")
            kind, value = _parse_word(sc, mode)
            sc.expect(")")
            if kind == "word":
                term = term * TracePolynomial.trace(value, mode)
            else:
                term = term * TracePolynomial.central_scalar(value)
            sc.eat("*")
        total = total + (-term if negate else term)
        if not sc.peek():
            return total
        negate = sc.eat("-")
        if not negate:
            sc.expect("+")


def term_by_term_expand_factor(w, sign, target_mode):
    """tr(w) under letter -> letter' + sign*(scalar/n) I, one sum per choice."""
    per_run_choices = [
        [(letter, exp - k, k, Fraction(math.comb(exp, k)) * sign**k) for k in range(exp + 1)]
        for letter, exp in w.runs
    ]
    out = TracePolynomial.zero(target_mode)
    for combo in iter_product(*per_run_choices):
        reduced = canonicalize(Word(merge_runs(tuple((l, kept) for l, kept, _, _ in combo if kept > 0))))
        deleted_x = sum(k for letter, _, k, _ in combo if letter == FIRST)
        deleted_y = sum(k for letter, _, k, _ in combo if letter == SECOND)
        coeff = QnCoeff.of(math.prod(c for _, _, _, c in combo), -(deleted_x + deleted_y))
        if target_mode == TRACELESS:
            key = ((deleted_x, deleted_y), (reduced,))
        else:
            singles = [canonicalize(Word(((FIRST, 1),)))] * deleted_x
            singles += [canonicalize(Word(((SECOND, 1),)))] * deleted_y
            key = ((0, 0), (reduced, *singles))
        out = out + TracePolynomial(target_mode, [(key, coeff)])
    return out


def term_by_term_to_traceless(p: TracePolynomial) -> TracePolynomial:
    out = TracePolynomial.zero(TRACELESS)
    for (_, factors), coeff in p.items():
        term = TracePolynomial.constant(coeff, TRACELESS)
        for w in factors:
            term = term * term_by_term_expand_factor(w, +1, TRACELESS)
        out = out + term
    return out


def term_by_term_to_plain(p: TracePolynomial) -> TracePolynomial:
    one_x = TracePolynomial.trace(((FIRST, 1),), PLAIN)
    one_y = TracePolynomial.trace(((SECOND, 1),), PLAIN)
    out = TracePolynomial.zero(PLAIN)
    for (central, factors), coeff in p.items():
        term = TracePolynomial.constant(coeff, PLAIN) * one_x ** central[0] * one_y ** central[1]
        for w in factors:
            term = term * term_by_term_expand_factor(w, -1, PLAIN)
        out = out + term
    return out


def catalog_texts() -> list[tuple[str, str]]:
    out = []
    for record in load_catalog_records():
        mode = record["mode"]
        out += [(record[side], mode) for side in ("lhs", "rhs", "expected") if side in record]
        if "rhs_from_traceless" in record:
            out.append((record["rhs_from_traceless"], TRACELESS))
    return out


def chain_texts() -> list[tuple[str, str]]:
    return [
        (step[side], TRACELESS)
        for record in load_chain_records()
        for step in record["steps"]
        for side in ("lhs", "rhs", "expected")
        if not step[side].startswith("$")
    ]


def law_texts() -> list[tuple[str, str]]:
    return [
        (bracketformular_expected_text(*t), TRACELESS)
        for t in iter_product(range(11), repeat=4)
        if 0 < sum(t) <= 10
    ]


def check_conversions(p: TracePolynomial) -> None:
    if p.mode == TRACELESS:
        plain = p.to_plain()
        same(plain, term_by_term_to_plain(p))
        same(plain.to_traceless(), term_by_term_to_traceless(plain))
    else:
        same(p.to_traceless(), term_by_term_to_traceless(p))


def test_fixed_texts_parse_in_the_term_by_term_order():
    laws = law_texts()
    assert len(laws) == 1000
    for text, mode in catalog_texts() + chain_texts() + laws:
        same(P(text, mode), term_by_term_parse(text, mode))


def test_catalog_conversions_keep_the_term_by_term_order():
    for text, mode in catalog_texts():
        check_conversions(P(text, mode))


@st.composite
def term_texts(draw, mode):
    """One rendered term: an optional rational and power of n, then trace
    factors in any order, with or without '*'."""
    letters = "XY" if mode == PLAIN else "AB"
    pieces = []
    if draw(st.booleans()):
        num, den = draw(st.integers(-4, 4)), draw(st.integers(1, 3))
        pieces.append(str(num) if den == 1 else f"{num}/{den}")
    if draw(st.booleans()):
        pieces.append(f"n^{draw(st.integers(-2, 2))}")
    run = st.tuples(st.sampled_from(letters), st.integers(1, 3))
    word = st.lists(run, min_size=1, max_size=3).map(
        lambda runs: " ".join(ch + (f"^{e}" if e > 1 else "") for ch, e in runs)
    )
    factor = st.sampled_from(("X", "Y")) if mode == TRACELESS else st.nothing()
    for w in draw(st.lists(st.one_of(word, factor), max_size=3)):
        pieces.append(f"tr({w})")
    return draw(st.sampled_from(("*", ""))).join(pieces or ["1"])


@st.composite
def polynomial_texts(draw):
    """A sum of terms drawn from a few, so that monomials merge and cancel."""
    mode = draw(st.sampled_from((PLAIN, TRACELESS)))
    pool = draw(st.lists(term_texts(mode), min_size=1, max_size=3))
    picks = draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from("+-")), min_size=1, max_size=6))
    text = " ".join(f"{sign} {term}" for term, sign in picks)
    return text[2:] if text.startswith("+") and draw(st.booleans()) else text, mode


@settings(deadline=None, max_examples=100)
@given(polynomial_texts())
def test_rendered_terms_parse_and_convert_in_the_term_by_term_order(case):
    text, mode = case
    p = P(text, mode)
    same(p, term_by_term_parse(text, mode))
    check_conversions(p)
