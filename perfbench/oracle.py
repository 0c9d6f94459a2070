"""Reference computations that share no numerics with cmpoisson.

The benchmark checks the program's answers with this module: its own point
sampler, a batched numpy evaluator of trace polynomials, a central-difference
Poisson bracket, an SVD test of the rank-one traceless locus, the closed-form
flow maps, and the exact rank modulo a prime of the monomial functions on the
traceless Calogero-Moser space.  Only the term data of a TracePolynomial
(its words, central exponents and rational coefficients) is read from the
program.

    python3 perfbench/oracle.py modp-rank --n 2

recomputes the stored ranks in MODP_RANK.
"""

from __future__ import annotations

import argparse
import random
from fractions import Fraction

import numpy as np

LAMBDA = -1j

# Exact rank over F_p, p = 2^31 - 1, of the trace monomials of degree <=
# MODP_DEGREE (the CLI's default degree cap) on the traceless rank-one locus,
# at exact points drawn with MODP_SEED; `modp-rank` above recomputes both values.
MODP_RANK = {2: 25, 3: 90}
MODP_DEGREE = 8
MODP_SEED = 1
PRIME = 2**31 - 1


# ----------------------------------------------------------------------
# points
# ----------------------------------------------------------------------

def sample_points(n: int, count: int, rng: np.random.Generator):
    """Traceless (X, Y) stacks of shape (count, n, n) on rank([X, Y] + lambda I) = 1.

    Diagonal normal form X = diag(x), Y_jk = lambda (-1)^(j+k) / (x_j - x_k),
    conjugated by a random matrix of condition number at most 4."""
    X = np.zeros((count, n, n), dtype=complex)
    Y = np.zeros((count, n, n), dtype=complex)
    for c in range(count):
        while True:
            x = rng.uniform(-2, 2, n) + 1j * rng.uniform(-2, 2, n)
            gaps = [abs(x[j] - x[k]) for j in range(n) for k in range(j + 1, n)]
            if min(gaps, default=1.0) > 0.2:
                break
        p = rng.uniform(-2, 2, n) + 1j * rng.uniform(-2, 2, n)
        x = x - x.mean()
        p = p - p.mean()
        d = np.diag(p).astype(complex)
        for j in range(n):
            for k in range(n):
                if j != k:
                    d[j, k] = LAMBDA * (-1) ** (j + k) / (x[j] - x[k])
        u, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        v, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        s = rng.uniform(0.5, 2.0, n)
        g = u @ np.diag(s) @ v
        g_inv = v.conj().T @ np.diag(1 / s) @ u.conj().T
        X[c] = g @ np.diag(x) @ g_inv
        Y[c] = g @ d @ g_inv
    return X, Y


def random_matrices(n: int, count: int, rng: np.random.Generator):
    """Unconstrained (X, Y) stacks of spectral radius about 1: trace
    identities hold on all of M_n + M_n."""
    shape = (count, n, n)
    scale = 0.7 / np.sqrt(n)
    return (
        scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape)),
        scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape)),
    )


# ----------------------------------------------------------------------
# batched evaluation of trace polynomials
# ----------------------------------------------------------------------

class Evaluator:
    """Values of trace polynomials on a stack of matrix pairs.

    Traceless-mode letters are A = X - (tr X/n) I, B = Y - (tr Y/n) I and the
    central symbols take the values tr X, tr Y; plain-mode letters are X, Y."""

    def __init__(self, X: np.ndarray, Y: np.ndarray):
        self.n = X.shape[-1]
        eye = np.eye(self.n)
        self.tr = (np.trace(X, axis1=1, axis2=2), np.trace(Y, axis1=1, axis2=2))
        self.letters = {
            "plain": (X, Y),
            "traceless": (
                X - self.tr[0][:, None, None] / self.n * eye,
                Y - self.tr[1][:, None, None] / self.n * eye,
            ),
        }
        self._traces: dict = {}

    def word_trace(self, runs, mode: str) -> np.ndarray:
        key = (mode, runs)
        val = self._traces.get(key)
        if val is None:
            letters = self.letters[mode]
            m = None
            for letter, exp in runs:
                for _ in range(exp):
                    m = letters[letter] if m is None else m @ letters[letter]
            val = np.trace(m, axis1=1, axis2=2)
            self._traces[key] = val
        return val

    def value(self, poly) -> np.ndarray:
        total = np.zeros(len(self.tr[0]), dtype=complex)
        for (central, factors), coeff in poly.items():
            c = sum(Fraction(v) * Fraction(self.n) ** k for k, v in coeff.terms.items())
            term = np.full(len(total), complex(c))
            if central[0]:
                term = term * self.tr[0] ** central[0]
            if central[1]:
                term = term * self.tr[1] ** central[1]
            for w in factors:
                term = term * self.word_trace(w.runs, poly.mode)
            total += term
        return total


def fd_bracket_gap(value: complex, f, g, X: np.ndarray, Y: np.ndarray, h: float = 1e-3) -> float:
    """How far value is from {f, g} at one pair, relative to the size of the
    terms of sum_jk df/dX_jk dg/dY_kj - df/dY_jk dg/dX_kj.

    The partial derivatives come from the fourth-order central difference
    (-F(+2h) + 8F(+h) - 8F(-h) + F(-2h)) / 12h of the values of f and g."""
    n = X.shape[0]
    offsets = (2, 1, -1, -2)
    steps = []
    for which in range(2):
        for j in range(n):
            for k in range(n):
                for m in offsets:
                    dX = np.array(X, dtype=complex)
                    dY = np.array(Y, dtype=complex)
                    (dX if which == 0 else dY)[j, k] += m * h
                    steps.append((dX, dY))
    ev = Evaluator(np.stack([s[0] for s in steps]), np.stack([s[1] for s in steps]))
    grads = []
    for p in (f, g):
        v = ev.value(p).reshape(2, n, n, 4)
        grads.append((-v[..., 0] + 8 * v[..., 1] - 8 * v[..., 2] + v[..., 3]) / (12 * h))
    (fX, fY), (gX, gY) = grads
    estimate = np.trace(fX @ gY) - np.trace(fY @ gX)
    size = (np.abs(fX) * np.abs(gY.T)).sum() + (np.abs(fY) * np.abs(gX.T)).sum()
    return float(abs(value - estimate) / max(1.0, size))


def relative_gap(a, b) -> float:
    a = np.asarray(a)
    b = np.asarray(b)
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))))


# ----------------------------------------------------------------------
# flows
# ----------------------------------------------------------------------

def locus_residuals(X: np.ndarray, Y: np.ndarray) -> tuple[float, float]:
    """(sigma_2 / sigma_1 of [X, Y] + lambda I, max |trace| / (n max |entry|))."""
    n = X.shape[0]
    s = np.linalg.svd(X @ Y - Y @ X + LAMBDA * np.eye(n), compute_uv=False)
    scale = max(np.abs(X).max(), np.abs(Y).max())
    return float(s[1] / s[0]), float(max(abs(np.trace(X)), abs(np.trace(Y))) / (n * scale))


def closed_form(family: str, t: complex, X: np.ndarray, Y: np.ndarray):
    """The four flow families, written out from their defining formulas."""
    n = X.shape[0]
    eye = np.eye(n)
    A = X - np.trace(X) / n * eye
    B = Y - np.trace(Y) / n * eye
    if family == "shearB":
        return X, Y - 2 * t * A
    if family == "shearA":
        return X + 2 * t * B, Y
    if family == "cubicShear":
        return X, Y - 3 * t * (A @ A - np.trace(A @ A) / n * eye)
    if family == "scaling":
        w = np.exp(2 * t * np.trace(A @ B))
        return A * w + np.trace(X) / n * eye, B / w + np.trace(Y) / n * eye
    raise ValueError(f"unknown family {family!r}")


# ----------------------------------------------------------------------
# exact rank over F_p
# ----------------------------------------------------------------------

def necklaces(length: int) -> list[tuple[int, ...]]:
    """Binary words of the given length up to rotation, as least rotations."""
    out = set()
    for bits in range(2**length):
        w = tuple((bits >> i) & 1 for i in range(length))
        out.add(min(w[i:] + w[:i] for i in range(length)))
    return sorted(out)


def trace_monomials(max_degree: int) -> list[tuple[tuple[int, ...], ...]]:
    """Multisets of necklaces of length >= 2 with total length <= max_degree,
    the empty product (the constant 1) included."""
    words = [w for d in range(2, max_degree + 1) for w in necklaces(d)]
    out = []

    def extend(start, remaining, chosen):
        out.append(tuple(chosen))
        for i in range(start, len(words)):
            if len(words[i]) <= remaining:
                extend(i, remaining - len(words[i]), chosen + [words[i]])

    extend(0, max_degree, [])
    return out


def _matmul_mod(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) % PRIME for j in range(n)] for i in range(n)]


def _exact_point(n: int, rnd: random.Random):
    """A traceless rank-one pair over F_p in diagonal normal form, lambda = 1."""
    while True:
        x = [rnd.randrange(PRIME) for _ in range(n)]
        inv_n = pow(n, PRIME - 2, PRIME)
        mean = sum(x) * inv_n % PRIME
        x = [(v - mean) % PRIME for v in x]
        if len(set(x)) == n:
            break
    p = [rnd.randrange(PRIME) for _ in range(n)]
    mean = sum(p) * inv_n % PRIME
    X = [[x[j] if j == k else 0 for k in range(n)] for j in range(n)]
    Y = [[0] * n for _ in range(n)]
    for j in range(n):
        for k in range(n):
            if j == k:
                Y[j][k] = (p[j] - mean) % PRIME
            else:
                sign = 1 if (j + k) % 2 == 0 else PRIME - 1
                Y[j][k] = sign * pow((x[j] - x[k]) % PRIME, PRIME - 2, PRIME) % PRIME
    return X, Y


def rank_mod_p(rows: np.ndarray) -> int:
    m = rows.astype(np.int64) % PRIME
    rank = 0
    for col in range(m.shape[1]):
        nz = np.nonzero(m[rank:, col])[0]
        if not len(nz):
            continue
        piv = rank + nz[0]
        m[[rank, piv]] = m[[piv, rank]]
        inv = pow(int(m[rank, col]), PRIME - 2, PRIME)
        m[rank] = m[rank] * inv % PRIME
        below = np.nonzero(m[rank + 1:, col])[0] + rank + 1
        for r in below:
            m[r] = (m[r] - int(m[r, col]) * m[rank]) % PRIME
        rank += 1
        if rank == m.shape[0]:
            break
    return rank


def modp_rank(n: int) -> int:
    """Rank over F_p of the degree <= MODP_DEGREE trace monomials evaluated at
    exact points of the traceless rank-one locus."""
    monomials = trace_monomials(MODP_DEGREE)
    words = sorted({w for mono in monomials for w in mono})
    rnd = random.Random(MODP_SEED)
    columns = []
    for _ in range(len(monomials) + 20):
        X, Y = _exact_point(n, rnd)
        traces = {}
        for w in words:
            m = None
            for letter in w:
                mat = X if letter == 0 else Y
                m = mat if m is None else _matmul_mod(m, mat)
            traces[w] = sum(m[i][i] for i in range(n)) % PRIME
        col = []
        for mono in monomials:
            v = 1
            for w in mono:
                v = v * traces[w] % PRIME
            col.append(v)
        columns.append(col)
    return rank_mod_p(np.array(columns, dtype=np.int64).T)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("modp-rank", help="exact rank of the trace monomials mod 2^31-1")
    p.add_argument("--n", type=int, required=True)
    args = parser.parse_args()
    print(modp_rank(args.n))


if __name__ == "__main__":
    main()
