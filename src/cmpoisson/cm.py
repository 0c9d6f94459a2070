"""Concrete Calogero-Moser matrix pairs and numeric evaluation.

Points are representatives (X, Y) in M_n(C) + M_n(C) with
rank([X, Y] + lambda I) = 1, lambda = LAMBDA = -i, matching the involution
convention and the exact side (any two nonzero lambda give isomorphic spaces
under Y -> cY, so one value serves).  The sampler uses the diagonal normal
form X = diag(x), Y_jk = lambda (-1)^{j+k} / (x_j - x_k), for which
[X, Y] + lambda I = lambda v v^T with v_j = (-1)^j, then conjugates by a
bounded-condition random matrix.  All implemented functions are
conjugation-invariant, so representatives suffice.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable

import numpy as np

from .poly import PLAIN, TRACELESS, TracePolynomial
from .ring import QnCoeff
from .words import FIRST, SECOND, CyclicWord, splice_cuts

LAMBDA = -1j  # its real part is -0.0, and point_to_dict writes it
# sample_cm's eigenvalue draws: the least separation and the tries allowed
EIGEN_SEPARATION = 0.1
MAX_RETRIES = 200
# sample_cm's residual bounds: only rounding of the exact construction remains
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


def rank_residual(pair: MatrixPair) -> float:
    """Second singular value of [X, Y] + lambda I, scaled by the first."""
    m = pair.X @ pair.Y - pair.Y @ pair.X + LAMBDA * np.eye(pair.n)
    if not np.isfinite(m).all():
        raise FloatingPointError("non-finite entries in [X, Y] + lambda I")
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

    @classmethod
    def from_matrices(
        cls, X: np.ndarray, Y: np.ndarray, traceless: bool, seed: int = 0, index: int = 0
    ) -> "CMPoint":
        """The point (X, Y) with its residuals recorded; it may lie off the locus."""
        pair = MatrixPair(X.shape[0], np.asarray(X, dtype=complex), np.asarray(Y, dtype=complex))
        rres = rank_residual(pair)
        tres = trace_residual(pair) if traceless else 0.0
        return cls(pair, traceless, rres, tres, seed, index)


def diagonal_normal_form(x: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rank-one pair with X = diag(x) and prescribed Y-diagonal p."""
    x = np.asarray(x, dtype=complex)
    n = len(x)
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1)
    # Y_jk = lambda (-1)^(j+k) / (x_j - x_k) off the diagonal; the numerators are
    # Python complex products, so their signed zeros are those of lambda * (+-1)
    odd = np.add.outer(np.arange(n), np.arange(n)) % 2
    Y = np.where(odd, LAMBDA * -1, LAMBDA * 1) / diff
    np.fill_diagonal(Y, np.asarray(p, dtype=complex))
    return np.diag(x), Y


def sample_cm(n: int, traceless: bool, seed: int, index: int = 0) -> CMPoint:
    """Sample a random point of the rank-one commutator variety.

    Deterministic given (seed, index); parallel batches should split the
    stream with distinct indices via child_rng.  The eigenvalues are drawn in
    the square [-h, h]^2, h = 2 max(1, n/40): its area grows like n^2, so the
    expected number of pairs closer than EIGEN_SEPARATION stays bounded.
    Raises ValueError if the point's residuals reach RANK_TOL or TRACE_TOL.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = child_rng(seed, index)
    h = 2.0 * max(1.0, n / 40)
    j, k = np.triu_indices(n, 1)
    x = None
    for _ in range(MAX_RETRIES):
        cand = rng.uniform(-h, h, n) + 1j * rng.uniform(-h, h, n)
        if n == 1 or np.abs(cand[j] - cand[k]).min() >= EIGEN_SEPARATION:
            x = cand
            break
    if x is None:
        raise RuntimeError(
            f"could not draw {n} eigenvalues with separation >= {EIGEN_SEPARATION} "
            f"in {MAX_RETRIES} tries"
        )
    p = rng.uniform(-2.0, 2.0, n) + 1j * rng.uniform(-2.0, 2.0, n)
    if traceless:
        x = x - x.mean()
        p = p - p.mean()
    X, Y = diagonal_normal_form(x, p)
    # generic representative: conjugate by a random matrix of condition <= 4
    q1, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    q2, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    sigma = np.exp(rng.uniform(np.log(0.5), np.log(2.0), n))
    g = q1 @ np.diag(sigma) @ q2
    g_inv = q2.conj().T @ np.diag(1.0 / sigma) @ q1.conj().T
    X = g @ X @ g_inv
    Y = g @ Y @ g_inv
    pt = CMPoint.from_matrices(X, Y, traceless, seed, index)
    if pt.rank_residual >= RANK_TOL:
        raise ValueError(f"rank-one residual {pt.rank_residual:.3e} exceeds {RANK_TOL:.1e}")
    if traceless and pt.trace_residual >= TRACE_TOL:
        raise ValueError(f"trace residual {pt.trace_residual:.3e} exceeds {TRACE_TOL:.1e}")
    return pt


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------

@lru_cache(maxsize=65536)
def _coefficient_value(coeff: QnCoeff, n: int) -> complex:
    return complex(coeff.evaluate(n))


class PointPool:
    """Evaluates trace polynomials on a whole pool of points at once.

    The pool's matrices are stacked as one (2, N, n, n) array [X, Y].  Each
    word trace is computed once for all N points by batched matrix products
    and cached as a length-N column per (mode, cyclic word), so a polynomial
    costs a few vector operations per term.

    Traceless-mode polynomials are evaluated through the substitution
    A = X - (tr X/n) I, B = Y - (tr Y/n) I with the central symbols taking
    the values tr X, tr Y; on the traceless locus this is A = X, B = Y.
    """

    def __init__(self, points: Iterable[CMPoint]):
        self.points = list(points)
        # np.stack raises ValueError for an empty pool or mixed sizes n
        Z = np.stack([np.stack([pt.pair.X for pt in self.points]),
                      np.stack([pt.pair.Y for pt in self.points])])  # [X, Y]
        self.n = n = Z.shape[-1]
        self.traces = Z.trace(axis1=2, axis2=3)  # [tr X, tr Y], length-N columns
        eye = np.eye(n, dtype=complex)
        self._letters = {PLAIN: Z, TRACELESS: Z - (self.traces / n)[..., None, None] * eye}
        self._powers: dict[tuple[str, int], list[np.ndarray]] = {}
        self._word_traces: dict[tuple[str, CyclicWord], np.ndarray] = {}

    @classmethod
    def sample(cls, n: int, count: int, seed: int) -> "PointPool":
        """Traceless points (seed, 0), ..., (seed, count - 1)."""
        return cls(sample_cm(n, traceless=True, seed=seed, index=i) for i in range(count))

    def __len__(self) -> int:
        return len(self.points)

    def _power(self, mode: str, letter: int, exp: int) -> np.ndarray:
        powers = self._powers.setdefault((mode, letter), [None, self._letters[mode][letter]])
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

    def values_and_magnitudes(self, p: TracePolynomial) -> tuple[np.ndarray, np.ndarray]:
        """Length-N columns of p's values and of its sums of term magnitudes;
        their ratio bounds the relative cancellation, hence the rounding
        noise of the value."""
        total = np.zeros(len(self), dtype=complex)
        magnitude = np.zeros(len(self))
        for (central, factors), coeff in p.items():
            val = _coefficient_value(coeff, self.n)
            for trace, exp in zip(self.traces, central):
                if exp:
                    val = val * trace ** exp
            for w in factors:
                val = val * self.word_trace(w, p.mode)
            total = total + val
            magnitude = magnitude + np.abs(val)
        return total, magnitude


class PointEvaluator(PointPool):
    """A one-point PointPool: evaluates trace polynomials at pt."""

    def __init__(self, pt: CMPoint):
        super().__init__([pt])
        self.point = pt

    def poly_value(self, p: TracePolynomial) -> complex:
        return complex(self.values_and_magnitudes(p)[0][0])

    def poly_value_and_magnitude(self, p: TracePolynomial) -> tuple[complex, float]:
        """(value, sum of term magnitudes)."""
        values, magnitudes = self.values_and_magnitudes(p)
        return complex(values[0]), float(magnitudes[0])


def evaluate(p: TracePolynomial, pt: CMPoint, n_symbol_value: int | None = None) -> complex:
    """Evaluate a trace polynomial at a point, specializing n to the matrix size."""
    if n_symbol_value is not None and n_symbol_value != pt.pair.n:
        raise ValueError(f"dimension mismatch: n={n_symbol_value} but point has n={pt.pair.n}")
    return PointEvaluator(pt).poly_value(p)


# ----------------------------------------------------------------------
# gradients and the numeric bracket
# ----------------------------------------------------------------------

PointMap = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]


def gradient_function(p: TracePolynomial, n: int) -> "GradientPlan":
    """Compile the exact splice-derivative gradient of p at matrix size n.

    The symbolic work is done once, here: the coefficient values, each
    distinct trace factor's (multiplicity, cut word) pairs per letter from
    `splice_cuts`, and each term's Leibniz steps.  The returned plan maps
    (X, Y) to (dp/dX, dp/dY), with (dp/dX)_jk = dp/dX_jk, by matrix work
    alone; `GradientPlan.stacked` maps the stacked state [X, Y] to the
    stacked gradient.

    A call does only the work that some term reads:
    - a factor's value tr(word) is computed only for a term with more than
      one factor or with a central part; tr A^2 alone never reads it;
    - a word, and a power P^k, is built only when a cut or a read value uses it;
    - a factor gets a gradient only for a letter it contains;
    - the letters are centred only when some word uses a letter, and their
      traces are read only then or for a central part;
    - the identical Leibniz steps of a repeated factor form env * g once and
      add it once per step.
    Centring both letters, and projecting all factor gradients to their
    traceless parts, are one array operation each.

    No bit moves: the gradient equals, bit for bit, what computing every
    value at every call gives.  Traceless mode differentiates through
    A = X - (tr X/n) I, B = Y - (tr Y/n) I with Python's complex division, as
    the tests' full reference loop divides, and projects each factor
    gradient to its traceless part.  Powers are P^k = P^(k-1) @ P, words are
    multiplied left to right, and every product and sum that is taken has the
    operands and the order of the full computation: a stacked operation
    applies the same elementwise arithmetic to more entries, and a reused
    env * g is the same product.  Skipped work fed only values that no term
    reads.  The two results start at +0, and a sum that starts at +0 never
    becomes -0, so leaving out the letters a factor lacks changes no bit
    either.
    """
    return GradientPlan(p, n)


class GradientPlan:
    """A Hamiltonian's gradient compiled by `gradient_function`."""

    def __init__(self, p: TracePolynomial, n: int):
        self.n = n
        self.traceless = p.mode == TRACELESS
        self.eye = np.eye(n, dtype=complex)
        factors: dict[CyclicWord, int] = {}
        terms = []
        for (central, ws), coeff in p.items():
            terms.append((_coefficient_value(coeff, n), central,
                          [factors.setdefault(w, len(factors)) for w in ws]))
        words: dict[tuple, int] = {}  # the runs of each word one call multiplies out

        def word_id(runs: tuple) -> int:
            return words.setdefault(runs, len(words))

        # the other factors of a term read a factor's value, and so does its central part
        read = {f for _, central, ids in terms if len(ids) > 1 or any(central) for f in ids}
        self.values = [(f, word_id(w.runs)) for w, f in factors.items() if f in read]
        self.num_factors = len(factors)
        # one gradient slot per (factor, letter) with cuts: (multiplicity, cut word
        # id, the other cuts); a factor with cuts in both letters owns two
        # adjacent slots, X first
        self.grads = []
        targets = {}  # factor -> (accumulator, slot index): 0 dX, 1 dY, 2 both
        for w, f in factors.items():
            slot = len(self.grads)
            letters = []
            for letter in (FIRST, SECOND):
                cuts = [(mult, word_id(cut)) for cut, mult in splice_cuts(w, letter)]
                if cuts:
                    letters.append(letter)
                    self.grads.append((*cuts[0], cuts[1:]))
            if len(letters) == 2:
                targets[f] = (2, slice(slot, slot + 2))
            elif letters:
                targets[f] = (letters[0], slot)
        self.words = list(words)
        # the power chain of each letter a word uses, up to the highest power it needs
        tops: dict[int, int] = {}
        for runs in self.words:
            for letter, exp in runs:
                tops[letter] = max(tops.get(letter, 1), exp)
        self.chains = sorted(tops.items())
        self.central = any(any(central) for _, central, _ in terms)
        self.centred = self.traceless and bool(tops)
        self.terms = []  # (env base, central or None, factors, Leibniz steps)
        for base, central, ids in terms:
            steps: list[list] = []  # [other factors, accumulator, slot index, count]
            for i, f in enumerate(ids):
                others = tuple(ids[:i] + ids[i + 1:])
                if steps and steps[-1][:3] == [others, *targets[f]]:
                    steps[-1][3] += 1  # the same product again: a repeated factor
                else:
                    steps.append([others, *targets[f], 1])
            if any(central):
                self.terms.append((base, central, ids, steps))
            elif steps:  # env = base * sx * sy with sx = sy = 1.0, taken once
                self.terms.append((base * 1.0 * 1.0, None, ids, steps))

    def __call__(self, X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        D = self.stacked(np.stack((X, Y)))
        return D[0], D[1]

    def stacked(self, Z: np.ndarray) -> np.ndarray:
        """The gradient [dp/dX, dp/dY] at the stacked state Z = [X, Y]."""
        n, eye = self.n, self.eye
        if self.centred or self.central:
            tr = Z.trace(axis1=1, axis2=2).tolist()
        if self.centred:
            Z = Z - np.array([tr[0] / n, tr[1] / n]).reshape(2, 1, 1) * eye
        powers = [None, None]
        for letter, top in self.chains:
            matrix = Z[letter]
            chain = powers[letter] = [eye, matrix]
            while len(chain) <= top:
                chain.append(chain[-1] @ matrix)
        matrices = []
        for runs in self.words:
            out = None if runs else eye
            for letter, exp in runs:
                power = powers[letter][exp]
                out = power if out is None else out @ power
            matrices.append(out)
        values = [None] * self.num_factors
        for f, w in self.values:
            values[f] = complex(matrices[w].trace()) if self.words[w] else complex(n)
        G = np.empty((len(self.grads), n, n), dtype=complex)
        for slot, (mult, j, rest) in enumerate(self.grads):
            g = G[slot]
            np.multiply(mult, matrices[j].T, out=g)
            for mult, j in rest:
                g += mult * matrices[j].T
        if self.traceless:
            G -= (G.trace(axis1=1, axis2=2) / n).reshape(-1, 1, 1) * eye
        D = np.zeros((2, n, n), dtype=complex)
        totals = [D[0], D[1], D]
        for base, central, ids, steps in self.terms:
            if central is None:
                env0 = base
            else:
                sx = tr[0] ** central[0] if central[0] else 1.0
                sy = tr[1] ** central[1] if central[1] else 1.0
                # central-symbol part: d (tr X)^a / dX = a (tr X)^(a-1) I
                for letter, (a, other) in enumerate(((central[0], sy), (central[1], sx))):
                    if a:
                        env = base * (tr[letter] ** (a - 1)) * a * other
                        for f in ids:
                            env *= values[f]
                        totals[letter] += env * eye
                env0 = base * sx * sy
            # trace-factor part, Leibniz over factors
            for others, target, slot, count in steps:
                env = env0
                for f in others:
                    env *= values[f]
                prod = env * G[slot]
                for _ in range(count):
                    totals[target] += prod
        return D


def numeric_gradient(p: TracePolynomial, pt: CMPoint) -> tuple[np.ndarray, np.ndarray]:
    """Exact splice-derivative gradient (dp/dX, dp/dY) with (dp/dX)_jk = dp/dX_jk."""
    return gradient_function(p, pt.pair.n)(pt.pair.X, pt.pair.Y)


def finite_difference_gradient(
    p: TracePolynomial, pt: CMPoint, h: float = 1e-6
) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference oracle for numeric_gradient."""
    n = pt.pair.n
    X0, Y0 = pt.pair.X, pt.pair.Y

    def value(X: np.ndarray, Y: np.ndarray) -> complex:
        shadow = CMPoint(MatrixPair(n, X, Y), pt.traceless, 0.0, 0.0, pt.seed, pt.index)
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

@lru_cache(maxsize=16)
def symplectic_structure_matrix(n: int) -> np.ndarray:
    """Constant skew matrix S of tr(dX wedge dY) in flattened (X, Y) coordinates.

    Built once per n and shared, so it is read-only."""
    dim = 2 * n * n
    S = np.zeros((dim, dim))
    for j in range(n):
        for k in range(n):
            a = j * n + k            # X_jk
            b = n * n + k * n + j    # Y_kj
            S[a, b] += 1.0
            S[b, a] -= 1.0
    S.flags.writeable = False
    return S


def symplectic_pullback_residual(
    map_fn: PointMap, pt: CMPoint, h: float = 1e-4
) -> float:
    """|J^T S J - S|_F / |S|_F with J the central-difference Jacobian of the map:
    a float oracle on closed-form maps such as `flows.family_map`.

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

    return pullback_residual((4 * jacobian(h / 2) - jacobian(h)) / 3, n)


def pullback_residual(J: np.ndarray, n: int) -> float:
    """|J^T S J - S|_F / |S|_F for a Jacobian J in flattened (X, Y) coordinates."""
    if not np.all(np.isfinite(J)):
        raise FloatingPointError("non-finite entries in the Jacobian")
    S = symplectic_structure_matrix(n)
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
        "lambda": [LAMBDA.real, LAMBDA.imag],
        "X": _complex_matrix_to_lists(pt.pair.X),
        "Y": _complex_matrix_to_lists(pt.pair.Y),
        "rank_residual": pt.rank_residual,
        "trace_residual": pt.trace_residual,
    }


def point_from_dict(data: dict) -> CMPoint:
    if data["lambda"] != [LAMBDA.real, LAMBDA.imag]:
        raise ValueError(f"lambda {data['lambda']!r} is not {[LAMBDA.real, LAMBDA.imag]}")
    pair = MatrixPair(
        data["n"], _complex_matrix_from_lists(data["X"]), _complex_matrix_from_lists(data["Y"])
    )
    return CMPoint(pair, data["traceless"], data["rank_residual"], data["trace_residual"],
                   data["seed"], data["index"])


def save_points(points: list[CMPoint], path: str) -> None:
    with open(path, "w") as fh:
        json.dump([point_to_dict(p) for p in points], fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_points(path: str) -> list[CMPoint]:
    with open(path) as fh:
        return [point_from_dict(d) for d in json.load(fh)]
