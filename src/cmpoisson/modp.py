"""Exact evaluation and span tests over the prime field F_p.

Every function the closure handles is conjugation-invariant, so points of the
traceless rank-one locus can be taken in the diagonal normal form
X = diag(x), Y_jk = lambda (-1)^{j+k} / (x_j - x_k) with x distinct and
summing to 0, and a traceless diagonal on Y.  This form needs only field
operations, so it is built exactly over F_p with lambda = -i, a square root
of -1 (p = 1 mod 4).  A rank of r over F_p proves a rank of at least r over
Q.  A nonzero function of degree d vanishes at a uniformly random point with
probability at most d/p (Schwartz, J. ACM 27(4), 1980; Zippel, EUROSAM
1979), so a candidate wrongly found not to enlarge a span is that rare.

Entries are int64 in [0, p) with p < 2^30.  A product of two entries is
below 2^60, so a sum of up to 8 such products stays below 2^63; longer sums
split one operand into 15-bit halves.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable

import numpy as np

from .cm import child_rng
from .poly import TracePolynomial
from .ring import QnCoeff
from .words import FIRST, SECOND, CyclicWord

PRIME = 1073741789  # the largest prime below 2^30; 1 mod 4
DIRECT_WIDTH = 8  # inner dimensions up to this need no operand split


def _sqrt_minus_one() -> int:
    for g in range(2, PRIME):
        root = pow(g, (PRIME - 1) // 4, PRIME)
        if root * root % PRIME == PRIME - 1:
            return root
    raise AssertionError("p = 1 mod 4 has a square root of -1")


LAMBDA = PRIME - _sqrt_minus_one()  # -i in F_p


def to_mod_p(q: Fraction) -> int:
    """q in F_p; ValueError when p divides its denominator."""
    q = Fraction(q)
    if q.denominator % PRIME == 0:
        raise ValueError(f"the prime {PRIME} divides the denominator of {q}")
    return q.numerator * pow(q.denominator, -1, PRIME) % PRIME


@lru_cache(maxsize=65536)
def _coefficient_value(coeff: QnCoeff, n: int) -> int:
    return to_mod_p(coeff.evaluate(n))


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b mod p for int64 operands with entries in [0, p)."""
    if a.shape[-1] <= DIRECT_WIDTH:
        return (a @ b) % PRIME
    high, low = a >> 15, a & 0x7FFF
    return ((((high @ b) % PRIME) << 15) + low @ b) % PRIME


def inverse(a: np.ndarray) -> np.ndarray:
    """Entrywise a^(p-2) = 1/a mod p (0 stays 0)."""
    out = np.ones_like(a)
    base = a % PRIME
    e = PRIME - 2
    while e:
        if e & 1:
            out = out * base % PRIME
        base = base * base % PRIME
        e >>= 1
    return out


class ExactPool:
    """Traceless rank-one points over F_p, stacked as (N, n, n) int64 arrays.

    Evaluates trace polynomials on all N points at once: each word trace is
    computed once by batched products mod p and cached as a length-N column.
    On these points A = X and B = Y, and the central symbols tr X, tr Y are
    0, so both modes evaluate alike."""

    def __init__(self, X: np.ndarray, Y: np.ndarray):
        X = np.asarray(X, dtype=np.int64)
        Y = np.asarray(Y, dtype=np.int64)
        check_points(X, Y)
        self.X, self.Y = X, Y
        self.n = X.shape[1]
        self._letter = {FIRST: X, SECOND: Y}
        self._powers: dict[int, list[np.ndarray]] = {}
        self._word_traces: dict[CyclicWord, np.ndarray] = {}

    @classmethod
    def sample(cls, n: int, count: int, seed: int) -> "ExactPool":
        """count random points in diagonal normal form, drawn from seed."""
        if count < 1:
            raise ValueError("a point pool needs at least one point")
        rng = child_rng(seed, 0)
        n_inverse = pow(n, -1, PRIME)

        def traceless(rows: int) -> np.ndarray:
            v = rng.integers(0, PRIME, size=(rows, n), dtype=np.int64)
            return (v - v.sum(axis=1, keepdims=True) % PRIME * n_inverse) % PRIME

        x = traceless(count)
        while True:
            repeated = (np.diff(np.sort(x, axis=1), axis=1) == 0).any(axis=1)
            if not repeated.any():
                break
            x[repeated] = traceless(int(repeated.sum()))
        eye = np.eye(n, dtype=bool)
        gaps = (x[:, :, None] - x[:, None, :]) % PRIME
        gaps[:, eye] = 1
        sign = np.where(np.add.outer(np.arange(n), np.arange(n)) % 2, PRIME - LAMBDA, LAMBDA)
        Y = inverse(gaps) * sign % PRIME
        Y[:, eye] = traceless(count)
        X = np.zeros((count, n, n), dtype=np.int64)
        X[:, eye] = x
        return cls(X, Y)

    def __len__(self) -> int:
        return len(self.X)

    def _power(self, letter: int, exp: int) -> np.ndarray:
        powers = self._powers.setdefault(letter, [None, self._letter[letter]])
        while len(powers) <= exp:
            powers.append(matmul(powers[-1], powers[1]))
        return powers[exp]

    def word_trace(self, w: CyclicWord) -> np.ndarray:
        col = self._word_traces.get(w)
        if col is None:
            if w.runs:
                out = None
                for letter, exp in w.runs:
                    power = self._power(letter, exp)
                    out = power if out is None else matmul(out, power)
                col = np.trace(out, axis1=1, axis2=2) % PRIME
            else:
                col = np.full(len(self), self.n % PRIME, dtype=np.int64)
            self._word_traces[w] = col
        return col

    def values(self, p: TracePolynomial) -> np.ndarray:
        """Length-N column of p's values mod p."""
        total = np.zeros(len(self), dtype=np.int64)
        for (central, factors), coeff in p.items():
            if any(central):
                continue  # a power of tr X or tr Y, which are 0 here
            col = np.full(len(self), _coefficient_value(coeff, self.n), dtype=np.int64)
            for w in factors:
                col = col * self.word_trace(w) % PRIME
            total = (total + col) % PRIME
        return total


def check_points(X: np.ndarray, Y: np.ndarray) -> None:
    """Raise ValueError unless every (X, Y) has entries in [0, p),
    tr X = tr Y = 0 and [X, Y] + lambda I = lambda v v^T with v_j = (-1)^j."""
    if X.ndim != 3 or X.shape != Y.shape or X.shape[1] != X.shape[2]:
        raise ValueError(f"points need (N, n, n) stacks, got {X.shape} and {Y.shape}")
    n = X.shape[1]
    v = (-1) ** np.arange(n)
    rank_one = LAMBDA * np.outer(v, v) % PRIME
    in_range = ((X >= 0) & (X < PRIME) & (Y >= 0) & (Y < PRIME)).all(axis=(1, 2))
    # reduce out-of-range entries first, so the products below cannot overflow
    X, Y = X % PRIME, Y % PRIME
    commutator = (matmul(X, Y) - matmul(Y, X) + LAMBDA * np.eye(n, dtype=np.int64)) % PRIME
    good = (
        in_range
        & (np.trace(X, axis1=1, axis2=2) % PRIME == 0)
        & (np.trace(Y, axis1=1, axis2=2) % PRIME == 0)
        & (commutator == rank_one).all(axis=(1, 2))
    )
    if not good.all():
        raise ValueError(f"point {int(np.argmin(good))} is not a traceless rank-one point mod {PRIME}")


class Echelon:
    """Incremental row-echelon form over F_p.

    Each kept row has a 1 in its pivot column and every other kept row has 0
    there, so a new row is reduced by subtracting (its pivot entries) @ rows."""

    def __init__(self, width: int):
        self.rows = np.zeros((0, width), dtype=np.int64)
        self.pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add(self, row: np.ndarray) -> bool:
        """Keep row if it is outside the span; return whether it was kept."""
        row = np.asarray(row, dtype=np.int64) % PRIME
        if self.pivots:
            row = (row - matmul(row[self.pivots], self.rows)) % PRIME
        nonzero = np.flatnonzero(row)
        if not len(nonzero):
            return False
        pivot = int(nonzero[0])
        row = row * pow(int(row[pivot]), -1, PRIME) % PRIME
        self.rows = (self.rows - np.outer(self.rows[:, pivot], row) % PRIME) % PRIME
        self.rows = np.vstack([self.rows, row])
        self.pivots.append(pivot)
        return True


def rank(pool: ExactPool, polys: Iterable[TracePolynomial]) -> int:
    """Rank mod p of the polynomials' value columns on the pool."""
    echelon = Echelon(len(pool))
    for p in polys:
        echelon.add(pool.values(p))
    return echelon.rank
