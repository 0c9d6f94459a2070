"""Monomial basis enumeration and numeric span / least-squares helpers."""

from __future__ import annotations

from functools import lru_cache
from itertools import product as iter_product

import numpy as np

from .poly import TRACELESS, TracePolynomial
from .ring import QnCoeff
from .words import CyclicWord, Word, canonicalize


@lru_cache(maxsize=None)
def enumerate_cyclic_words(degree: int) -> tuple[CyclicWord, ...]:
    """All cyclic words (binary necklaces) of exact total degree."""
    if degree < 1:
        return ()
    seen: set[CyclicWord] = set()
    for letters in iter_product((0, 1), repeat=degree):
        seen.add(canonicalize(Word.from_letters(letters)))
    return tuple(sorted(seen, key=lambda w: w.runs))


@lru_cache(maxsize=None)
def enumerate_trace_monomials(max_degree: int, mode: str = TRACELESS) -> tuple[TracePolynomial, ...]:
    """The constant 1 and all products of trace factors with total degree <= max_degree;
    none for a negative max_degree.

    In traceless mode factors have degree >= 2 (length-1 traces vanish);
    central symbols are excluded (they vanish on the traceless locus).
    """
    if max_degree < 0:
        return ()
    min_factor = 2 if mode == TRACELESS else 1
    words_by_degree = {
        d: enumerate_cyclic_words(d) for d in range(min_factor, max_degree + 1)
    }
    flat: list[CyclicWord] = []
    for d in range(min_factor, max_degree + 1):
        flat.extend(words_by_degree[d])
    monomials: list[tuple[CyclicWord, ...]] = []

    def extend(start: int, remaining: int, chosen: tuple[CyclicWord, ...]):
        if chosen:
            monomials.append(chosen)
        for i in range(start, len(flat)):
            w = flat[i]
            if w.degree() > remaining:
                continue
            extend(i, remaining - w.degree(), chosen + (w,))

    extend(0, max_degree, ())
    out = [TracePolynomial.constant(1, mode)]
    for factors in monomials:
        out.append(TracePolynomial(mode, [(((0, 0), factors), QnCoeff.one())]))
    return tuple(out)


def value_matrix(pool, polys) -> np.ndarray:
    """(points x polynomials) matrix of values on a cm.PointPool."""
    columns = [pool.values_and_magnitudes(p)[0] for p in polys]
    if not columns:
        return np.zeros((len(pool), 0), dtype=complex)
    return np.stack(columns, axis=1)


def lstsq_fit(matrix, target, scale: float = 1.0):
    """Least-squares fit target ~ matrix @ coeffs.

    Returns (residual, coeffs, condition) with residual the max absolute
    misfit divided by scale.  Empty basis gives the zero fit.
    """
    b = np.asarray(target, dtype=complex)
    A = np.asarray(matrix, dtype=complex)
    if A.size == 0:
        residual = float(np.abs(b).max() / scale) if b.size else 0.0
        return residual, np.zeros(0, dtype=complex), 1.0
    col_norms = np.linalg.norm(A, axis=0)
    col_norms[col_norms == 0.0] = 1.0
    A_scaled = A / col_norms
    coeffs_scaled, _, _, sv = np.linalg.lstsq(A_scaled, b, rcond=1e-13)
    coeffs = coeffs_scaled / col_norms
    misfit = A @ coeffs - b
    residual = float(np.abs(misfit).max() / scale)
    cond = float(sv[0] / sv[-1]) if len(sv) and sv[-1] > 0 else float("inf")
    return residual, coeffs, cond


class SpanTracker:
    """Incremental numeric span of value rows with a relative rank threshold.

    Rows are normalized before testing, so the Gram-Schmidt residual test
    with threshold `tol` matches a singular-value rank cut at tol * sigma_max.
    """

    def __init__(self, width: int, tol: float = 1e-10):
        self.width = width
        self.tol = tol
        self._q: list[np.ndarray] = []

    @property
    def rank(self) -> int:
        return len(self._q)

    def would_enlarge(self, row: np.ndarray) -> np.ndarray | None:
        """Unit remainder of the row orthogonal to the span, or None."""
        v = np.asarray(row, dtype=complex)
        norm = np.linalg.norm(v)
        if norm == 0.0 or not np.isfinite(norm):
            return None
        v = v / norm
        for _ in range(2):  # twice-is-enough reorthogonalization
            for q in self._q:
                v = v - np.vdot(q, v) * q
        rem = np.linalg.norm(v)
        if rem <= self.tol:
            return None
        return v / rem

    def add(self, row: np.ndarray) -> bool:
        unit = self.would_enlarge(row)
        if unit is None:
            return False
        self._q.append(unit)
        return True
