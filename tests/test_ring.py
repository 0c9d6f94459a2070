"""Coefficient ring Q[n, n^-1]: exactness and ring laws."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cmpoisson.ring import QnCoeff

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)
coeffs = st.builds(
    QnCoeff,
    st.dictionaries(st.integers(-3, 3), rationals, max_size=4),
)


def test_no_zero_terms_stored():
    c = QnCoeff({0: Fraction(1), 1: Fraction(0), 2: Fraction(3, 2)})
    assert set(c.terms) == {0, 2}
    assert (c - c).is_zero()
    assert not c.terms.get(1)


def test_one_over_n_plus_complement_is_one():
    lhs = QnCoeff.of(1, -1) + QnCoeff.of(1) - QnCoeff.of(1, -1)
    assert lhs == QnCoeff.one()


def test_evaluate_specializes_exactly():
    c = QnCoeff({1: Fraction(3, 2), -1: Fraction(-1, 4)})
    assert c.evaluate(2) == Fraction(3) - Fraction(1, 8)
    assert c.specialize(2) == QnCoeff.of(Fraction(23, 8))


def test_evaluate_of_a_constant_is_its_coefficient():
    c = QnCoeff.of(Fraction(-7, 3))
    assert [type(c.evaluate(n)) for n in (1, 5)] == [Fraction, Fraction]
    assert c.evaluate(5) == Fraction(-7, 3) and QnCoeff.zero().evaluate(5) == 0
    with pytest.raises(ValueError, match="positive integer"):
        c.evaluate(0)


def test_times_n_power_shifts():
    c = QnCoeff.of(Fraction(5, 3), 2)
    assert c.times_n_power(-2) == QnCoeff.of(Fraction(5, 3))


@given(coeffs, coeffs, coeffs)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + QnCoeff.zero() == a
    assert a * QnCoeff.one() == a


@given(coeffs, coeffs)
def test_no_zero_divisors(a, b):
    if not a.is_zero() and not b.is_zero():
        assert not (a * b).is_zero()
