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

A pool also gives the gradients of trace polynomials mod p.  The gradient
of tr(w) with respect to one letter is the sum of the matrices of w's splice
cuts at that letter, projected to its traceless part as the points are
traceless; a product of traces takes the Leibniz combination of its factors'
gradients, with the other factors' traces as weights.  Paired, two gradients
give the values of a bracket without forming it.

A second prime, CHECK_PRIME, gives points independent of PRIME on which
lifted certificates are checked, and tail checks whose coefficients have no
value mod PRIME.  Entries are int64 in [0, p) with p < 2^30.  Small products
(the n x n matrices of a pool) stay in int64: a product of two entries is
below 2^60, so a sum of up to 8 of them stays below 2^63, and longer sums
split one operand into 15-bit halves, whose products stay below 2^45 (sums
of more than 2^18 of them are cut into blocks).  The span test's long
products run on float64 BLAS instead (blas_matmul): one operand is cut into
10-bit slices, a slice times an entry is below 2^40, and sums of up to 2^13
of them are exact in a double (longer sums are cut into blocks), the usual
way to do exact linear algebra mod a word-size prime on floating-point
hardware (Dumas, Giorgi and Pernet, ACM TOMS 35(3), 2008).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

import numpy as np

from .cm import child_rng
from .poly import TracePolynomial
from .ring import QnCoeff
from .words import FIRST, SECOND, CyclicWord, Runs, splice_cuts

PRIME = 1073741789  # the largest prime below 2^30; 1 mod 4
CHECK_PRIME = 1073741741  # the next prime below it that is 1 mod 4
DIRECT_WIDTH = 8  # inner dimensions up to this need no operand split
SPLIT_INNER = 2**18  # sums of this many products below 2^45 stay below 2^63
MAX_INNER = 2**13  # sums of this many products below 2^40 stay below 2^53
RATIONAL_BOUND = isqrt(PRIME // 2)  # 23170: numerators and denominators that lift


def _sqrt_minus_one(prime: int) -> int:
    for g in range(2, prime):
        root = pow(g, (prime - 1) // 4, prime)
        if root * root % prime == prime - 1:
            return root
    raise AssertionError("p = 1 mod 4 has a square root of -1")


LAMBDAS = {p: p - _sqrt_minus_one(p) for p in (PRIME, CHECK_PRIME)}  # -i in F_p


def to_mod_p(q: Fraction, prime: int = PRIME) -> int:
    """q in F_p; ValueError when p divides its denominator."""
    q = Fraction(q)
    if q.denominator % prime == 0:
        raise ValueError(f"the prime {prime} divides the denominator of {q}")
    return q.numerator * pow(q.denominator, -1, prime) % prime


@lru_cache(maxsize=65536)
def _coefficient_value(coeff: QnCoeff, n: int, prime: int) -> int:
    return to_mod_p(coeff.evaluate(n), prime)


def matmul(a: np.ndarray, b: np.ndarray, prime: int = PRIME) -> np.ndarray:
    """a @ b mod p for int64 operands with entries in [0, p)."""
    k = a.shape[-1]
    if k <= DIRECT_WIDTH:
        return (a @ b) % prime
    if k > SPLIT_INNER:
        head = matmul(a[..., :SPLIT_INNER], b[..., :SPLIT_INNER, :], prime)
        return (head + matmul(a[..., SPLIT_INNER:], b[..., SPLIT_INNER:, :], prime)) % prime
    high, low = a >> 15, a & 0x7FFF
    return ((((high @ b) % prime) << 15) + low @ b) % prime


def blas_matmul(a: np.ndarray, b: np.ndarray, prime: int = PRIME) -> np.ndarray:
    """a @ b mod p on float64 BLAS, for an (s, k) int64 a with entries in
    [0, p) and a (k, m) float64 b holding integers in [0, p).  a is split in
    10-bit slices, so a slice times an entry of b is below 2^40 and a sum of
    up to MAX_INNER of them is exact in a double (longer sums are cut into
    blocks); one product of the three stacked slices with b gives all three
    sums."""
    s, k = a.shape
    if k > MAX_INNER:
        head = blas_matmul(a[:, :MAX_INNER], b[:MAX_INNER], prime)
        return (head + blas_matmul(a[:, MAX_INNER:], b[MAX_INNER:], prime)) % prime
    slices = np.concatenate([a >> 20, a >> 10 & 0x3FF, a & 0x3FF]).astype(np.float64)
    high, mid, low = (slices @ b).astype(np.int64).reshape(3, s, -1)
    return ((high % prime << 20) + (mid % prime << 10) + low) % prime


def inverse(a: np.ndarray, prime: int = PRIME) -> np.ndarray:
    """Entrywise a^(p-2) = 1/a mod p (0 stays 0)."""
    out = np.ones_like(a)
    base = a % prime
    e = prime - 2
    while e:
        if e & 1:
            out = out * base % prime
        base = base * base % prime
        e >>= 1
    return out


class ExactPool:
    """Traceless rank-one points over F_prime, stacked as (N, n, n) int64 arrays.

    Evaluates trace polynomials on all N points at once: each word trace is
    computed once by batched products mod p and cached as a length-N column.
    On these points A = X and B = Y, and the central symbols tr X, tr Y are
    0, so both modes evaluate alike.  The gradients of word traces are
    cached too, as (N, 2 n^2) int32 arrays, and so are the brackets of two
    word traces paired from them."""

    def __init__(self, X: np.ndarray, Y: np.ndarray, prime: int = PRIME):
        X = np.asarray(X, dtype=np.int64)
        Y = np.asarray(Y, dtype=np.int64)
        check_points(X, Y, prime)
        self.X, self.Y, self.prime = X, Y, prime
        self.n = X.shape[1]
        self._letter = {FIRST: X, SECOND: Y}
        self._powers: dict[int, list[np.ndarray]] = {}
        self._word_traces: dict[CyclicWord, np.ndarray] = {}
        self._trace_gradients: dict[CyclicWord, np.ndarray] = {}
        self._trace_brackets: dict[tuple[CyclicWord, CyclicWord], np.ndarray] = {}

    @classmethod
    def sample(cls, n: int, count: int, seed: int, stream: int = 0, prime: int = PRIME) -> "ExactPool":
        """count random points mod prime in diagonal normal form, drawn from
        stream `stream` of seed."""
        if count < 1:
            raise ValueError("a point pool needs at least one point")
        rng = child_rng(seed, stream)
        n_inverse = pow(n, -1, prime)

        def traceless(rows: int) -> np.ndarray:
            v = rng.integers(0, prime, size=(rows, n), dtype=np.int64)
            return (v - v.sum(axis=1, keepdims=True) % prime * n_inverse) % prime

        x = traceless(count)
        while True:
            repeated = (np.diff(np.sort(x, axis=1), axis=1) == 0).any(axis=1)
            if not repeated.any():
                break
            x[repeated] = traceless(int(repeated.sum()))
        eye = np.eye(n, dtype=bool)
        gaps = (x[:, :, None] - x[:, None, :]) % prime
        gaps[:, eye] = 1
        lam = LAMBDAS[prime]
        sign = np.where(np.add.outer(np.arange(n), np.arange(n)) % 2, prime - lam, lam)
        Y = inverse(gaps, prime) * sign % prime
        Y[:, eye] = traceless(count)
        X = np.zeros((count, n, n), dtype=np.int64)
        X[:, eye] = x
        return cls(X, Y, prime)

    def __len__(self) -> int:
        return len(self.X)

    def _power(self, letter: int, exp: int) -> np.ndarray:
        powers = self._powers.setdefault(letter, [None, self._letter[letter]])
        while len(powers) <= exp:
            powers.append(matmul(powers[-1], powers[1], self.prime))
        return powers[exp]

    def _product(self, runs: Runs) -> np.ndarray:
        """The matrices of the word with these runs at every point."""
        if not runs:
            return np.broadcast_to(np.eye(self.n, dtype=np.int64), self.X.shape)
        out = None
        for letter, exp in runs:
            power = self._power(letter, exp)
            out = power if out is None else matmul(out, power, self.prime)
        return out

    def word_trace(self, w: CyclicWord) -> np.ndarray:
        col = self._word_traces.get(w)
        if col is None:
            col = np.trace(self._product(w.runs), axis1=1, axis2=2) % self.prime
            self._word_traces[w] = col
        return col

    def defined(self, p: TracePolynomial) -> bool:
        """Whether p has values mod prime: the prime divides no denominator of
        the coefficients that values() uses."""
        return all(any(central) or coeff.evaluate(self.n).denominator % self.prime
                   for (central, _), coeff in p.items())

    def trace_gradient(self, w: CyclicWord) -> np.ndarray:
        """The gradient of tr(w) at every point, as an (N, 2 n^2) int32 array:
        the traceless parts of dX then dY, each row-major, so that moving X by
        a traceless H moves tr(w) by tr(dX H) to first order.  With respect to
        one letter it is the sum of the matrices of w's distinct splice cuts
        at that letter (words.splice_cuts), each multiplied out from the cached
        letter powers and added once with its multiplicity.  Kept per word."""
        grad = self._trace_gradients.get(w)
        if grad is None:
            n, prime = self.n, self.prime
            eye = np.eye(n, dtype=bool)
            halves = []
            for letter in (FIRST, SECOND):
                g = np.zeros_like(self.X)
                for cut, mult in splice_cuts(w, letter):
                    g = (g + mult * self._product(cut)) % prime
                shift = np.trace(g, axis1=1, axis2=2) * pow(n, -1, prime) % prime
                g[:, eye] = (g[:, eye] - shift[:, None]) % prime
                halves.append(g.reshape(len(self), n * n))
            grad = self._trace_gradients[w] = np.concatenate(halves, axis=1).astype(np.int32)
        return grad

    def leibniz_weights(self, p: TracePolynomial) -> dict[CyclicWord, int | np.ndarray]:
        """The weights c_w, an int or a length-N column mod prime, with which
        p's gradient is the sum of c_w times the gradient of tr(w) at every
        point: by Leibniz, each term's coefficient times the traces of its
        other factors, summed over the factors w.  ValueError when p has a
        term with tr X or tr Y, which values() takes as 0 but whose gradient
        is not 0."""
        prime = self.prime
        weights: dict[CyclicWord, int | np.ndarray] = {}
        for (central, factors), coeff in p.items():
            if any(central):
                raise ValueError("a term with tr X or tr Y is 0 on the pool, but its gradient is not")
            traces = [self.word_trace(w) for w in factors]
            for k, w in enumerate(factors):
                weight = _coefficient_value(coeff, self.n, prime)
                for trace in traces[:k] + traces[k + 1:]:
                    weight = weight * trace % prime
                weights[w] = (weights.get(w, 0) + weight) % prime
        return weights

    def gradient(self, p: TracePolynomial) -> tuple[np.ndarray, np.ndarray]:
        """(dX, dY): the traceless parts of p's gradients with respect to X and
        Y at every point, as (N, n, n) stacks mod prime; the combination of its
        factors' trace gradients by its Leibniz weights.  They pair by trace:
        dX = (dp/dX)^T, (dX)_kj = dp/dX_jk, so moving X by H moves p by
        tr(dX H); cm.gradient_function gives dp/dX itself, untransposed."""
        total = np.zeros((len(self), 2 * self.n * self.n), dtype=np.int64)
        for w, weight in self.leibniz_weights(p).items():
            total = (total + np.reshape(weight, (-1, 1)) * self.trace_gradient(w).astype(np.int64)) % self.prime
        dx, dy = total.reshape(len(self), 2, self.n, self.n).transpose(1, 0, 2, 3)
        return dx, dy

    def trace_bracket(self, v: CyclicWord, w: CyclicWord) -> np.ndarray:
        """Length-N column of the values of {tr v, tr w} mod prime, by
        Goldman's pairing of their gradients (Invent. Math. 85, 1986):
        tr(dX_v dY_w) - tr(dY_v dX_w) at each point, the dot product of v's
        gradient with w's rearranged as (dY_w^T, -dX_w^T), a sum of 2 n^2
        products.  Kept per ordered pair."""
        column = self._trace_brackets.get((v, w))
        if column is None:
            n = self.n
            dx, dy = self.trace_gradient(w).astype(np.int64).reshape(len(self), 2, n, n).transpose(1, 0, 3, 2)
            partner = np.concatenate([dy, -dx % self.prime], axis=1).reshape(len(self), -1)
            own = self.trace_gradient(v).astype(np.int64)
            column = matmul(own[:, None, :], partner[:, :, None], self.prime)[:, 0, 0]
            self._trace_brackets[(v, w)] = column
        return column

    def values(self, p: TracePolynomial) -> np.ndarray:
        """Length-N column of p's values mod prime."""
        total = np.zeros(len(self), dtype=np.int64)
        for (central, factors), coeff in p.items():
            if any(central):
                continue  # a power of tr X or tr Y, which are 0 here
            col = np.full(len(self), _coefficient_value(coeff, self.n, self.prime), dtype=np.int64)
            for w in factors:
                col = col * self.word_trace(w) % self.prime
            total = (total + col) % self.prime
        return total


def check_points(X: np.ndarray, Y: np.ndarray, prime: int = PRIME) -> None:
    """Raise ValueError unless every (X, Y) has entries in [0, prime),
    tr X = tr Y = 0 and [X, Y] + lambda I = lambda v v^T with v_j = (-1)^j."""
    if X.ndim != 3 or X.shape != Y.shape or X.shape[1] != X.shape[2]:
        raise ValueError(f"points need (N, n, n) stacks, got {X.shape} and {Y.shape}")
    n, lam = X.shape[1], LAMBDAS[prime]
    v = (-1) ** np.arange(n)
    rank_one = lam * np.outer(v, v) % prime
    in_range = ((X >= 0) & (X < prime) & (Y >= 0) & (Y < prime)).all(axis=(1, 2))
    # reduce out-of-range entries first, so the products below cannot overflow
    X, Y = X % prime, Y % prime
    commutator = (matmul(X, Y, prime) - matmul(Y, X, prime) + lam * np.eye(n, dtype=np.int64)) % prime
    good = (
        in_range
        & (np.trace(X, axis1=1, axis2=2) % prime == 0)
        & (np.trace(Y, axis1=1, axis2=2) % prime == 0)
        & (commutator == rank_one).all(axis=(1, 2))
    )
    if not good.all():
        raise ValueError(f"point {int(np.argmin(good))} is not a traceless rank-one point mod {prime}")

class Echelon:
    """Incremental reduced row echelon form over F_prime.

    Each kept row is 1 at its own pivot and 0 at every other kept pivot, so
    the kept rows are the unique reduced row echelon form of their span.  A
    new row is reduced by one product, less its pivot entries @ rows, and
    keeping a row clears its pivot column from the earlier rows by one
    rank-one update in int64 (p^2 < 2^63).  The rows live in float64 for
    blas_matmul, whose slices need p < 2^30, and double their capacity when
    full."""

    def __init__(self, width: int, prime: int = PRIME):
        if prime >= 2**30:
            raise ValueError(f"an Echelon needs a prime below 2^30, got {prime}")
        self.prime = prime
        self.pivots: list[int] = []
        self._rows = np.zeros((1, width))

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def rows(self) -> np.ndarray:
        """The kept rows in reduced row echelon form: rows[:, pivots] is the identity."""
        return self._rows[: self.rank].astype(np.int64)

    def reduce(self, rows: np.ndarray) -> np.ndarray:
        """rows less the kept rows' combinations that clear their pivot
        entries, for one row or an (s, width) stack of rows; a reduced row is
        0 exactly when the row is in the span."""
        rows = np.asarray(rows, dtype=np.int64) % self.prime
        r = self.rank
        if r:
            stack = rows.reshape(-1, rows.shape[-1])
            cleared = blas_matmul(stack[:, self.pivots], self._rows[:r], self.prime)
            rows = ((stack - cleared) % self.prime).reshape(rows.shape)
        return rows

    def add(self, row: np.ndarray) -> bool:
        """Keep row if it is outside the span; return whether it was kept."""
        row = self.reduce(row)
        nonzero = np.flatnonzero(row)
        if not len(nonzero):
            return False
        pivot, r = int(nonzero[0]), self.rank
        if r == len(self._rows):
            self._rows = np.concatenate([self._rows, np.zeros_like(self._rows)])
        row = row[pivot:] * pow(int(row[pivot]), -1, self.prime) % self.prime  # 0 before its pivot
        u = self._rows[:r, pivot, None].astype(np.int64)
        self._rows[:r, pivot:] = (self._rows[:r, pivot:].astype(np.int64) - u * row) % self.prime
        self._rows[r, pivot:] = row
        self.pivots.append(pivot)
        return True


def reconstruct(u: int) -> Fraction | None:
    """The fraction r/s = u mod p with |r|, s <= RATIONAL_BOUND, or None.

    Wang's half extended Euclidean algorithm (Wang, SYMSAC 1981).  Since
    2 RATIONAL_BOUND^2 < p such a fraction is unique when it exists."""
    r0, r1, s0, s1 = PRIME, int(u) % PRIME, 0, 1
    while r1 > RATIONAL_BOUND:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if abs(s1) > RATIONAL_BOUND or gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)

