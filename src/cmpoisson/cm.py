"""Concrete Calogero-Moser matrix pairs and numeric evaluation.

Points are representatives (X, Y) in M_n(C) + M_n(C) with
rank([X, Y] + lambda I) = 1 (lambda = -i by default, matching the involution
convention; the construction works for any nonzero lambda).  The sampler uses
the diagonal normal form X = diag(x), Y_jk = lambda (-1)^{j+k} / (x_j - x_k),
for which [X, Y] + lambda I = lambda v v^T with v_j = (-1)^j, then conjugates
by a bounded-condition random matrix.  All implemented functions are
conjugation-invariant, so representatives suffice.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable

import numpy as np

from .poly import PLAIN, TRACELESS, TracePolynomial
from .ring import QnCoeff
from .words import FIRST, SECOND, CyclicWord, Word, splice_cuts

DEFAULT_LAMBDA = -1j
RANK_TOL = 1e-10
TRACE_TOL = 1e-12


def child_rng(seed: int, index: int) -> np.random.Generator:
    """Deterministic seed splitter: independent child stream (seed, index)."""
    ss = np.random.SeedSequence(entropy=(seed & 0xFFFFFFFFFFFFFFFF, index & 0xFFFFFFFFFFFFFFFF))
    return np.random.default_rng(ss)


@dataclass(frozen=True)
class MatrixPair:
    n: int
    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        if self.X.shape != (self.n, self.n) or self.Y.shape != (self.n, self.n):
            raise ValueError("matrices must be square of size n")


def rank_residual(pair: MatrixPair, lambda_const: complex = DEFAULT_LAMBDA) -> float:
    """Second singular value of [X, Y] + lambda I, scaled by the first."""
    m = pair.X @ pair.Y - pair.Y @ pair.X + lambda_const * np.eye(pair.n)
    s = np.linalg.svd(m, compute_uv=False)
    if len(s) < 2 or s[0] == 0.0:
        return 0.0
    return float(s[1] / s[0])


def trace_residual(pair: MatrixPair) -> float:
    """max(|tr X|, |tr Y|) relative to n times the largest entry magnitude."""
    scale = max(np.abs(pair.X).max(), np.abs(pair.Y).max(), 1e-300)
    return float(max(abs(np.trace(pair.X)), abs(np.trace(pair.Y))) / (pair.n * scale))


@dataclass(frozen=True)
class CMPoint:
    pair: MatrixPair
    traceless: bool
    rank_residual: float
    trace_residual: float
    seed: int = 0
    index: int = 0
    lambda_const: complex = DEFAULT_LAMBDA

    @classmethod
    def from_matrices(
        cls,
        X: np.ndarray,
        Y: np.ndarray,
        traceless: bool,
        seed: int = 0,
        index: int = 0,
        lambda_const: complex = DEFAULT_LAMBDA,
        rank_tol: float = RANK_TOL,
        trace_tol: float = TRACE_TOL,
        validate: bool = True,
    ) -> "CMPoint":
        pair = MatrixPair(X.shape[0], np.asarray(X, dtype=complex), np.asarray(Y, dtype=complex))
        rres = rank_residual(pair, lambda_const)
        tres = trace_residual(pair) if traceless else 0.0
        if validate:
            if rres >= rank_tol:
                raise ValueError(f"rank-one residual {rres:.3e} exceeds {rank_tol:.1e}")
            if traceless and tres >= trace_tol:
                raise ValueError(f"trace residual {tres:.3e} exceeds {trace_tol:.1e}")
        return cls(pair, traceless, rres, tres, seed, index, lambda_const)


def diagonal_normal_form(
    x: np.ndarray, p: np.ndarray, lambda_const: complex = DEFAULT_LAMBDA
) -> tuple[np.ndarray, np.ndarray]:
    """The rank-one pair with X = diag(x) and prescribed Y-diagonal p."""
    n = len(x)
    X = np.diag(np.asarray(x, dtype=complex))
    Y = np.diag(np.asarray(p, dtype=complex))
    for j in range(n):
        for k in range(n):
            if j != k:
                Y[j, k] = lambda_const * (-1) ** (j + k) / (x[j] - x[k])
    return X, Y


def sample_cm(
    n: int,
    traceless: bool,
    seed: int,
    index: int = 0,
    lambda_const: complex = DEFAULT_LAMBDA,
    eigen_separation: float = 0.1,
    max_retries: int = 200,
    rank_tol: float = RANK_TOL,
    trace_tol: float = TRACE_TOL,
) -> CMPoint:
    """Sample a random point of the rank-one commutator variety.

    Deterministic given (seed, index); parallel batches should split the
    stream with distinct indices via child_rng.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = child_rng(seed, index)
    x = None
    for _ in range(max_retries):
        cand = rng.uniform(-2.0, 2.0, n) + 1j * rng.uniform(-2.0, 2.0, n)
        if n == 1 or min(
            abs(cand[j] - cand[k]) for j in range(n) for k in range(j + 1, n)
        ) >= eigen_separation:
            x = cand
            break
    if x is None:
        raise RuntimeError(
            f"could not draw {n} eigenvalues with separation >= {eigen_separation} "
            f"in {max_retries} tries"
        )
    p = rng.uniform(-2.0, 2.0, n) + 1j * rng.uniform(-2.0, 2.0, n)
    if traceless:
        x = x - x.mean()
        p = p - p.mean()
    X, Y = diagonal_normal_form(x, p, lambda_const)
    # generic representative: conjugate by a random matrix of condition <= 4
    q1, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    q2, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    sigma = np.exp(rng.uniform(np.log(0.5), np.log(2.0), n))
    g = q1 @ np.diag(sigma) @ q2
    g_inv = q2.conj().T @ np.diag(1.0 / sigma) @ q1.conj().T
    X = g @ X @ g_inv
    Y = g @ Y @ g_inv
    return CMPoint.from_matrices(
        X, Y, traceless, seed, index, lambda_const, rank_tol, trace_tol
    )


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------

@lru_cache(maxsize=65536)
def _coefficient_value(coeff: QnCoeff, n: int) -> complex:
    return complex(coeff.evaluate(n))


def _product(a, b) -> np.ndarray:
    """a * b on complex columns, rounded like Python's complex product
    (numpy's vectorized complex multiply may fuse a multiply and an add)."""
    out = np.empty(np.broadcast_shapes(np.shape(a), np.shape(b)), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _sum_terms(ev: "PointEvaluator | PointPool", p: TracePolynomial, total, magnitude):
    """Add the terms of p at the evaluator's point(s) to (total, magnitude).

    The same operations in the same order on scalars and on length-N
    columns, so entry i of a pool's result equals the single-point result
    at point i bit for bit."""
    for (central, factors), coeff in p.items():
        val = _coefficient_value(coeff, ev.n)
        for letter, exp in zip((FIRST, SECOND), central):
            if exp:
                val = ev.multiply(val, ev.central_power(letter, exp))
        for w in factors:
            val = ev.multiply(val, ev.word_trace(w, p.mode))
        total = total + val
        magnitude = magnitude + ev.abs(val)
    return total, magnitude


class PointEvaluator:
    """Evaluates trace polynomials at one point, caching word traces.

    Traceless-mode polynomials are evaluated through the substitution
    A = X - (tr X/n) I, B = Y - (tr Y/n) I with the central symbols taking
    the values tr X, tr Y; on the traceless locus this is A = X, B = Y.
    """

    multiply = staticmethod(operator.mul)
    abs = staticmethod(abs)

    def __init__(self, pt: CMPoint):
        self.point = pt
        n = pt.pair.n
        X, Y = pt.pair.X, pt.pair.Y
        self.n = n
        self.tr_x = complex(np.trace(X))
        self.tr_y = complex(np.trace(Y))
        eye = np.eye(n, dtype=complex)
        A = X - (self.tr_x / n) * eye
        B = Y - (self.tr_y / n) * eye
        self._letter = {
            PLAIN: {FIRST: X, SECOND: Y},
            TRACELESS: {FIRST: A, SECOND: B},
        }
        self._powers: dict[tuple[str, int], list[np.ndarray]] = {}
        self._word_traces: dict[tuple[str, CyclicWord], complex] = {}
        self._eye = eye

    def _power(self, mode: str, letter: int, exp: int) -> np.ndarray:
        key = (mode, letter)
        powers = self._powers.setdefault(key, [self._eye, self._letter[mode][letter]])
        while len(powers) <= exp:
            powers.append(powers[-1] @ powers[1])
        return powers[exp]

    def word_matrix(self, w: Word | CyclicWord, mode: str) -> np.ndarray:
        out = self._eye
        for letter, exp in w.runs:
            out = out @ self._power(mode, letter, exp)
        return out

    def word_trace(self, w: CyclicWord, mode: str) -> complex:
        key = (mode, w)
        val = self._word_traces.get(key)
        if val is None:
            val = complex(np.trace(self.word_matrix(w, mode))) if w.runs else complex(self.n)
            self._word_traces[key] = val
        return val

    def central_power(self, letter: int, exp: int) -> complex:
        return (self.tr_x if letter == FIRST else self.tr_y) ** exp

    def poly_value(self, p: TracePolynomial) -> complex:
        return _sum_terms(self, p, 0j, 0.0)[0]

    def poly_value_and_magnitude(self, p: TracePolynomial) -> tuple[complex, float]:
        """(value, sum of term magnitudes); their ratio bounds the relative
        cancellation, hence the rounding noise of the value."""
        return _sum_terms(self, p, 0j, 0.0)


class PointPool:
    """Evaluates trace polynomials on a whole pool of points at once.

    The pool's matrices are stacked as (N, n, n) arrays.  Each word trace is
    computed once for all N points by batched matrix products and cached as a
    length-N column per (mode, cyclic word), so a polynomial costs a few
    vector operations per term.  Entry i equals what PointEvaluator gives at
    point i, bit for bit.
    """

    multiply = staticmethod(_product)

    def __init__(self, points: Iterable[CMPoint]):
        self.points = list(points)
        # np.stack raises ValueError for an empty pool or mixed sizes n
        X = np.stack([pt.pair.X for pt in self.points])
        Y = np.stack([pt.pair.Y for pt in self.points])
        self.n = n = X.shape[1]
        self.tr_x = np.trace(X, axis1=1, axis2=2)
        self.tr_y = np.trace(Y, axis1=1, axis2=2)
        eye = np.eye(n, dtype=complex)
        # Python's complex division, as PointEvaluator takes it; numpy's
        # multiplies by 1/n, which rounds differently at n = 3
        A = X - np.array([t / n for t in self.tr_x.tolist()])[:, None, None] * eye
        B = Y - np.array([t / n for t in self.tr_y.tolist()])[:, None, None] * eye
        self._letter = {
            PLAIN: {FIRST: X, SECOND: Y},
            TRACELESS: {FIRST: A, SECOND: B},
        }
        self._powers: dict[tuple[str, int], list[np.ndarray]] = {}
        self._word_traces: dict[tuple[str, CyclicWord], np.ndarray] = {}
        self._central_powers: dict[tuple[int, int], np.ndarray] = {}

    @classmethod
    def sample(cls, n: int, count: int, seed: int, start: int = 0) -> "PointPool":
        """Traceless points (seed, start), ..., (seed, start + count - 1)."""
        return cls(
            sample_cm(n, traceless=True, seed=seed, index=start + i) for i in range(count)
        )

    def __len__(self) -> int:
        return len(self.points)

    def _power(self, mode: str, letter: int, exp: int) -> np.ndarray:
        powers = self._powers.setdefault((mode, letter), [None, self._letter[mode][letter]])
        while len(powers) <= exp:
            powers.append(powers[-1] @ powers[1])
        return powers[exp]

    def word_trace(self, w: CyclicWord, mode: str) -> np.ndarray:
        key = (mode, w)
        col = self._word_traces.get(key)
        if col is None:
            if w.runs:
                out = None
                for letter, exp in w.runs:
                    power = self._power(mode, letter, exp)
                    out = power if out is None else out @ power
                col = np.trace(out, axis1=1, axis2=2)
            else:
                col = np.full(len(self), complex(self.n))
            self._word_traces[key] = col
        return col

    def central_power(self, letter: int, exp: int) -> np.ndarray:
        key = (letter, exp)
        col = self._central_powers.get(key)
        if col is None:
            # Python's complex power, point by point, as PointEvaluator takes it
            traces = (self.tr_x if letter == FIRST else self.tr_y).tolist()
            col = self._central_powers[key] = np.array([t ** exp for t in traces])
        return col

    @staticmethod
    def abs(val: np.ndarray) -> np.ndarray:
        """|val| by hypot, as Python's abs() of a complex; np.abs may round differently."""
        return np.hypot(val.real, val.imag)

    def values_and_magnitudes(self, p: TracePolynomial) -> tuple[np.ndarray, np.ndarray]:
        """Length-N columns of p's values and of its sums of term magnitudes."""
        return _sum_terms(self, p, np.zeros(len(self), dtype=complex), np.zeros(len(self)))


def evaluate(p: TracePolynomial, pt: CMPoint, n_symbol_value: int | None = None) -> complex:
    """Evaluate a trace polynomial at a point, specializing n to the matrix size."""
    if n_symbol_value is not None and n_symbol_value != pt.pair.n:
        raise ValueError(f"dimension mismatch: n={n_symbol_value} but point has n={pt.pair.n}")
    return PointEvaluator(pt).poly_value(p)


# ----------------------------------------------------------------------
# gradients and the numeric bracket
# ----------------------------------------------------------------------

def _word_gradients(
    ev: PointEvaluator, w: CyclicWord, mode: str
) -> tuple[np.ndarray, np.ndarray]:
    """(d tr w / dL1, d tr w / dL2) wrt the mode letters, entrywise convention
    (dM)_jk = d(tr w)/dL_jk, i.e. sum of transposed cut-word matrices."""
    grads = []
    for letter in (FIRST, SECOND):
        g = np.zeros((ev.n, ev.n), dtype=complex)
        for cut, mult in splice_cuts(w, letter):
            g += mult * ev.word_matrix(cut, mode).T
        grads.append(g)
    return grads[0], grads[1]


def numeric_gradient(p: TracePolynomial, pt: CMPoint) -> tuple[np.ndarray, np.ndarray]:
    """Exact splice-derivative gradient (dp/dX, dp/dY) with (dp/dX)_jk = dp/dX_jk."""
    ev = PointEvaluator(pt)
    n = ev.n
    eye = ev._eye
    dX = np.zeros((n, n), dtype=complex)
    dY = np.zeros((n, n), dtype=complex)
    traceless = p.mode == TRACELESS
    for (central, factors), coeff in p.items():
        base = _coefficient_value(coeff, n)
        factor_values = [ev.word_trace(w, p.mode) for w in factors]
        sx = ev.tr_x ** central[0] if central[0] else 1.0
        sy = ev.tr_y ** central[1] if central[1] else 1.0
        # central-symbol part: d (tr X)^a / dX = a (tr X)^(a-1) I
        if central[0]:
            env = base * (ev.tr_x ** (central[0] - 1)) * central[0] * sy
            for v in factor_values:
                env *= v
            dX += env * eye
        if central[1]:
            env = base * (ev.tr_y ** (central[1] - 1)) * central[1] * sx
            for v in factor_values:
                env *= v
            dY += env * eye
        # trace-factor part, Leibniz over factors
        for i, w in enumerate(factors):
            env = base * sx * sy
            for i2, v in enumerate(factor_values):
                if i2 != i:
                    env *= v
            ga, gb = _word_gradients(ev, w, p.mode)
            if traceless:
                ga = ga - (np.trace(ga) / n) * eye
                gb = gb - (np.trace(gb) / n) * eye
            dX += env * ga
            dY += env * gb
    return dX, dY


def finite_difference_gradient(
    p: TracePolynomial, pt: CMPoint, h: float = 1e-6
) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference oracle for numeric_gradient."""
    n = pt.pair.n
    X0, Y0 = pt.pair.X, pt.pair.Y

    def value(X: np.ndarray, Y: np.ndarray) -> complex:
        shadow = CMPoint(
            MatrixPair(n, X, Y), pt.traceless, 0.0, 0.0, pt.seed, pt.index, pt.lambda_const
        )
        return PointEvaluator(shadow).poly_value(p)

    dX = np.zeros((n, n), dtype=complex)
    dY = np.zeros((n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[j, k] = h
            dX[j, k] = (value(X0 + e, Y0) - value(X0 - e, Y0)) / (2 * h)
            dY[j, k] = (value(X0, Y0 + e) - value(X0, Y0 - e)) / (2 * h)
    return dX, dY


def numeric_bracket(f: TracePolynomial, g: TracePolynomial, pt: CMPoint) -> complex:
    """sum_jk df/dX_jk dg/dY_kj - df/dY_jk dg/dX_kj at the point."""
    if f.mode != g.mode:
        raise ValueError(f"mode mismatch: {f.mode} vs {g.mode}")
    fX, fY = numeric_gradient(f, pt)
    gX, gY = numeric_gradient(g, pt)
    return complex(np.trace(fX @ gY) - np.trace(fY @ gX))


# ----------------------------------------------------------------------
# symplectic pullback residual
# ----------------------------------------------------------------------

def symplectic_structure_matrix(n: int) -> np.ndarray:
    """Constant skew matrix S of tr(dX wedge dY) in flattened (X, Y) coordinates."""
    dim = 2 * n * n
    S = np.zeros((dim, dim))
    for j in range(n):
        for k in range(n):
            a = j * n + k            # X_jk
            b = n * n + k * n + j    # Y_kj
            S[a, b] += 1.0
            S[b, a] -= 1.0
    return S


PointMap = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]


def symplectic_pullback_residual(
    map_fn: PointMap, pt: CMPoint, h: float = 1e-4
) -> float:
    """|J^T S J - S|_F / |S|_F with J the central-difference Jacobian of the map.

    The Jacobian combines the step-h and step-h/2 central differences,
    (4 J_{h/2} - J_h)/3 (Richardson extrapolation), cancelling the leading
    truncation term.  The measurement resolves the residual only while the
    map's value scales stay within double-precision range of each other
    (for exponential flows, roughly |Re log-scale| below ~20).
    """
    if h <= 0 or h < 1e-300:
        raise ValueError("step underflow")
    n = pt.pair.n
    dim = 2 * n * n
    S = symplectic_structure_matrix(n)

    def apply_flat(z: np.ndarray) -> np.ndarray:
        X = z[: n * n].reshape(n, n)
        Y = z[n * n:].reshape(n, n)
        Xp, Yp = map_fn(X, Y)
        return np.concatenate([np.asarray(Xp, dtype=complex).ravel(),
                               np.asarray(Yp, dtype=complex).ravel()])

    z0 = np.concatenate([pt.pair.X.ravel(), pt.pair.Y.ravel()])

    def jacobian(step: float) -> np.ndarray:
        J = np.zeros((dim, dim), dtype=complex)
        for b in range(dim):
            e = np.zeros(dim, dtype=complex)
            e[b] = step
            J[:, b] = (apply_flat(z0 + e) - apply_flat(z0 - e)) / (2 * step)
        return J

    J = (4 * jacobian(h / 2) - jacobian(h)) / 3
    if not np.all(np.isfinite(J)):
        raise FloatingPointError("non-finite entries in the Jacobian")
    return float(np.linalg.norm(J.T @ S @ J - S) / np.linalg.norm(S))


# ----------------------------------------------------------------------
# serialization (bit-exact round trip)
# ----------------------------------------------------------------------

def _complex_matrix_to_lists(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def _complex_matrix_from_lists(rows: list) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows], dtype=complex)


def point_to_dict(pt: CMPoint) -> dict:
    return {
        "n": pt.pair.n,
        "traceless": pt.traceless,
        "seed": pt.seed,
        "index": pt.index,
        "lambda": [pt.lambda_const.real, pt.lambda_const.imag],
        "X": _complex_matrix_to_lists(pt.pair.X),
        "Y": _complex_matrix_to_lists(pt.pair.Y),
        "rank_residual": pt.rank_residual,
        "trace_residual": pt.trace_residual,
    }


def point_from_dict(data: dict) -> CMPoint:
    pair = MatrixPair(
        data["n"], _complex_matrix_from_lists(data["X"]), _complex_matrix_from_lists(data["Y"])
    )
    return CMPoint(
        pair,
        data["traceless"],
        data["rank_residual"],
        data["trace_residual"],
        data["seed"],
        data["index"],
        complex(data["lambda"][0], data["lambda"][1]),
    )


def save_points(points: list[CMPoint], path: str) -> None:
    with open(path, "w") as fh:
        json.dump([point_to_dict(p) for p in points], fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_points(path: str) -> list[CMPoint]:
    with open(path) as fh:
        return [point_from_dict(d) for d in json.load(fh)]
