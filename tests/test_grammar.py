"""Polynomial text grammar: round trips, whitespace, and error positions."""

import pytest

from cmpoisson.grammar import (
    PolynomialParseError,
    format_polynomial as F,
    parse_polynomial as P,
)
from cmpoisson.poly import PLAIN, TRACELESS
from conftest import random_polynomial


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
