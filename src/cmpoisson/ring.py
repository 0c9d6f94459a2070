"""Exact scalar coefficients: rational Laurent polynomials in the formal matrix size n.

Every bracket and substitution identity in this package introduces only
rational constants and powers of 1/n, so coefficients live in Q[n, n^-1].
The ring is exact (no floats) and has no zero divisors.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union

Rat = Union[int, Fraction]


class QnCoeff:
    """Immutable element of Q[n, n^-1], stored as {power of n: nonzero Fraction}."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[int, Rat] | Iterable[tuple[int, Rat]] = ()):
        items = terms.items() if isinstance(terms, (dict, Mapping)) else terms
        acc: dict[int, Fraction] = {}
        for power, coeff in items:
            c = Fraction(coeff)
            if c == 0:
                continue
            c += acc.get(power, Fraction(0))
            if c == 0:
                acc.pop(power, None)
            else:
                acc[power] = c
        self._terms = acc
        self._hash = None

    @classmethod
    def _trusted(cls, terms: dict[int, Fraction]) -> "QnCoeff":
        """Wrap an already-normalized dict (nonzero Fraction values) without copying."""
        out = object.__new__(cls)
        out._terms = terms
        out._hash = None
        return out

    @classmethod
    def of(cls, coeff: Rat, n_power: int = 0) -> "QnCoeff":
        c = Fraction(coeff)
        return cls._trusted({n_power: c} if c else {})

    @classmethod
    def zero(cls) -> "QnCoeff":
        return _ZERO

    @classmethod
    def one(cls) -> "QnCoeff":
        return _ONE

    @property
    def terms(self) -> dict[int, Fraction]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: "QnCoeff") -> "QnCoeff":
        if not isinstance(other, QnCoeff):
            return NotImplemented
        if not other._terms:
            return self
        if not self._terms:
            return other
        merged = dict(self._terms)
        for power, coeff in other._terms.items():
            _accumulate(merged, power, coeff)
        return QnCoeff._trusted(merged)

    def __neg__(self) -> "QnCoeff":
        return QnCoeff._trusted({p: -c for p, c in self._terms.items()})

    def __sub__(self, other: "QnCoeff") -> "QnCoeff":
        return self + (-other)

    def __mul__(self, other: "QnCoeff | Rat") -> "QnCoeff":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return _ZERO
            return QnCoeff._trusted({p: c * other for p, c in self._terms.items()})
        if not isinstance(other, QnCoeff):
            return NotImplemented
        acc: dict[int, Fraction] = {}
        for p1, c1 in self._terms.items():
            for p2, c2 in other._terms.items():
                _accumulate(acc, p1 + p2, c1 * c2)
        return QnCoeff._trusted(acc)

    __rmul__ = __mul__

    def times_n_power(self, k: int) -> "QnCoeff":
        return QnCoeff._trusted({p + k: c for p, c in self._terms.items()})

    def evaluate(self, n_value: int) -> Fraction:
        """Specialize n to a concrete positive integer; result is an exact rational."""
        if n_value < 1:
            raise ValueError("n_value must be a positive integer")
        total = Fraction(0)
        for power, coeff in self._terms.items():
            total += coeff * Fraction(n_value) ** power
        return total

    def specialize(self, n_value: int) -> "QnCoeff":
        """Collapse all powers of n at n = n_value; result has only the n^0 term."""
        if n_value >= 1 and self._terms.keys() <= {0}:
            return self  # already constant
        return QnCoeff.of(self.evaluate(n_value))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = QnCoeff.of(other)
        if not isinstance(other, QnCoeff):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __repr__(self) -> str:
        if not self._terms:
            return "QnCoeff(0)"
        body = " + ".join(
            f"{c}" + (f"*n^{p}" if p else "") for p, c in sorted(self._terms.items(), reverse=True)
        )
        return f"QnCoeff({body})"


def _accumulate(acc: dict[int, Fraction], power: int, c: Fraction) -> None:
    """acc[power] += c for a nonzero c, dropping the power if it cancels."""
    old = acc.get(power)
    if old is None:
        acc[power] = c
        return
    c = old + c
    if c:
        acc[power] = c
    else:
        del acc[power]


_ZERO = QnCoeff._trusted({})
_ONE = QnCoeff._trusted({0: Fraction(1)})
