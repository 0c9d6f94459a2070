"""Exact Poisson brackets of trace polynomials via cyclic-word splicing.

Two brackets are implemented for the symplectic form tr(dX wedge dY):

* bracket_standard -- plain (X, Y) mode:
      {tr V, tr W} = sum_{x in V, y in W} tr(V_x W_y)
                   - sum_{y in V, x in W} tr(V_y W_x)
  where V_x runs over the splice cuts of V at each occurrence of the letter.

* bracket_traceless -- traceless (A, B) mode, with the 1/n correction coming
  from dA/dX = id - (1/n) tr:
      {tr V, tr W} = sum_{a in V, b in W} [tr(V_a W_b) - (1/n) tr(V_a) tr(W_b)]
                   - sum_{b in V, a in W} [tr(V_b W_a) - (1/n) tr(V_b) tr(W_a)]
  The central symbols tr X, tr Y satisfy {tr X, tr Y} = n and Poisson-commute
  with every trace word, which makes to_traceless an exact Poisson map.

Both brackets extend to products by the Leibniz rule and are antisymmetric;
results are returned in canonical form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, lru_cache
from typing import Callable, Iterable, Optional

import numpy as np

from .cm import PointPool
from .grammar import format_polynomial
from .modp import CHECK_PRIME, PRIME, Echelon, ExactPool
from .poly import PLAIN, TRACELESS, MonKey, TracePolynomial, _sorted_factors, merge_product, merge_terms
from .ring import QnCoeff
from .span import RCOND, enumerate_trace_monomials, value_matrix
from .words import FIRST, SECOND, CyclicWord, canonicalize, splice_cuts


def _word_bracket_terms(v: CyclicWord, w: CyclicWord, corrected: bool) -> list[tuple[MonKey, QnCoeff]]:
    """Raw terms of {tr v, tr w} at the single-factor level: keys with
    unsorted factors, before tr A = tr B = 0 is applied."""
    terms: list[tuple[MonKey, QnCoeff]] = []
    v_first = splice_cuts(v, FIRST)
    v_second = splice_cuts(v, SECOND)
    w_first = splice_cuts(w, FIRST)
    w_second = splice_cuts(w, SECOND)
    for sign, v_cuts, w_cuts in ((1, v_first, w_second), (-1, v_second, w_first)):
        for v_cut, mv in v_cuts:
            for w_cut, mw in w_cuts:
                mult = QnCoeff.of(sign * mv * mw)
                terms.append((((0, 0), (canonicalize(v_cut + w_cut),)), mult))
                if corrected:
                    terms.append(
                        (((0, 0), (canonicalize(v_cut), canonicalize(w_cut))), mult.times_n_power(-1) * -1)
                    )
    return terms


@lru_cache(maxsize=65536)
def _word_bracket(v: CyclicWord, w: CyclicWord, mode: str) -> TracePolynomial:
    return TracePolynomial(mode, _word_bracket_terms(v, w, mode == TRACELESS))


def _poly_bracket(f: TracePolynomial, g: TracePolynomial, mode: str) -> TracePolynomial:
    acc: dict = {}
    for (cen_f, fac_f), cf in f.items():
        for (cen_g, fac_g), cg in g.items():
            scale = cf * cg
            # word-word contributions (Leibniz over the trace factors)
            for i, v in enumerate(fac_f):
                rest_f = fac_f[:i] + fac_f[i + 1:]
                for j, w in enumerate(fac_g):
                    rest_g = fac_g[:j] + fac_g[j + 1:]
                    env_key = ((cen_f[0] + cen_g[0], cen_f[1] + cen_g[1]), rest_f + rest_g)
                    merge_product(acc, env_key, scale, _word_bracket(v, w, mode))
            # central-central contribution: {tr X, tr Y} = n
            if mode == TRACELESS:
                ax, ay = cen_f
                bx, by = cen_g
                weight = ax * by - ay * bx
                if weight:
                    key = ((ax + bx - 1, ay + by - 1), _sorted_factors(fac_f + fac_g))
                    merge_terms(acc, [(key, scale * QnCoeff.of(weight, 1))])
    return TracePolynomial.from_canonical(mode, acc)


def bracket_standard(f: TracePolynomial, g: TracePolynomial) -> TracePolynomial:
    """Exact Poisson bracket on plain (X, Y) trace polynomials."""
    if f.mode != PLAIN or g.mode != PLAIN:
        raise ValueError("bracket_standard expects plain-mode polynomials")
    return _poly_bracket(f, g, PLAIN)


def bracket_traceless(f: TracePolynomial, g: TracePolynomial) -> TracePolynomial:
    """Exact corrected Poisson bracket on traceless (A, B) trace polynomials."""
    if f.mode != TRACELESS or g.mode != TRACELESS:
        raise ValueError("bracket_traceless expects traceless-mode polynomials")
    return _poly_bracket(f, g, TRACELESS)


def bracket(f: TracePolynomial, g: TracePolynomial) -> TracePolynomial:
    """Mode-dispatching bracket."""
    if f.mode != g.mode:
        raise ValueError(f"mode mismatch: {f.mode} vs {g.mode}")
    return _poly_bracket(f, g, f.mode)


def bracket_raw_terms(f: TracePolynomial, g: TracePolynomial) -> list[tuple[MonKey, QnCoeff]]:
    """Single-factor bracket terms before canonical mode reduction, as
    (key, coefficient) pairs with sorted factors.

    Only meaningful for single-monomial, single-factor inputs; used by the
    CLI to display the splice formula before tr A = tr B = 0 is applied.
    """
    if f.mode != g.mode:
        raise ValueError(f"mode mismatch: {f.mode} vs {g.mode}")
    corrected = f.mode == TRACELESS
    merged: dict[MonKey, QnCoeff] = {}
    for (cen_f, fac_f), cf in f.items():
        for (cen_g, fac_g), cg in g.items():
            if len(fac_f) != 1 or len(fac_g) != 1 or cen_f != (0, 0) or cen_g != (0, 0):
                raise ValueError("raw display is defined for single trace factors only")
            scale = cf * cg
            merge_terms(merged, (
                ((central, _sorted_factors(factors)), c * scale)
                for (central, factors), c in _word_bracket_terms(fac_f[0], fac_g[0], corrected)
            ))
    return list(merged.items())


def jacobi_check(f: TracePolynomial, g: TracePolynomial, h: TracePolynomial) -> TracePolynomial:
    """{f,{g,h}} + {g,{h,f}} + {h,{f,g}}; identically zero."""
    return bracket(f, bracket(g, h)) + bracket(g, bracket(h, f)) + bracket(h, bracket(f, g))


# ----------------------------------------------------------------------
# identity checks: the pinned catalog and the lemma chains
# ----------------------------------------------------------------------

EXACT = "exact"
LEADING = "leading-mod-degree"


def check_kind(kind, degree_bound, where: str) -> None:
    """Raise ValueError unless kind is EXACT, or LEADING with an integer
    degree_bound (an int, not a bool); where names the identity in the message."""
    if kind not in (EXACT, LEADING):
        raise ValueError(f"{where}: unknown kind {kind!r}, expected {EXACT!r} or {LEADING!r}")
    if kind == LEADING and type(degree_bound) is not int:
        raise ValueError(f"{where}: kind {LEADING!r} needs an integer degree_bound")


@dataclass(frozen=True)
class BracketCatalogEntry:
    """One pinned bracket identity {lhs, rhs} = expected, checked by
    check_identity according to its kind."""

    id: str
    lhs: TracePolynomial
    rhs: TracePolynomial
    expected: TracePolynomial
    kind: str
    degree_bound: Optional[int] = None


@dataclass
class IdentityResult:
    """Verdict on one identity: id is a catalog entry's name or a chain
    step's index."""

    id: str | int
    status: str  # "pass" | "fail"
    detail: str = ""
    symbolic_difference: str = ""


@dataclass
class IdentityReport:
    """The results of a catalog verification or of one chain replay."""

    results: list[IdentityResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.status == "pass" for r in self.results)


def leading_part(exact_bracket: TracePolynomial, degree_bound: int) -> TracePolynomial:
    """Straightened part of the bracket above the degree bound."""
    return exact_bracket.truncate_below_degree(degree_bound).straighten()


@lru_cache(maxsize=8)
def _evaluator_pool(evaluators: tuple) -> PointPool:
    # PointEvaluators hash by identity, and the cache keeps them alive, so
    # an id cannot be reused while its pool is cached
    return PointPool(ev.point for ev in evaluators)


@lru_cache(maxsize=32)
def _monomial_basis(pool: PointPool, degree_bound: int, mode: str) -> np.ndarray:
    """Orthonormal basis (N x r) of the span of the values on pool of the
    trace monomials of degree <= degree_bound in mode, as span.lstsq_fit sees
    it: the columns are normalized, and the left singular vectors whose
    singular values are at or below RCOND times the largest are dropped.
    PointPools hash by identity, and the cache keeps them alive."""
    A = value_matrix(pool, enumerate_trace_monomials(degree_bound, mode))
    if A.size == 0:
        return np.zeros((len(pool), 0), dtype=complex)
    col_norms = np.linalg.norm(A, axis=0)
    col_norms[col_norms == 0.0] = 1.0
    u, sv, _ = np.linalg.svd(A / col_norms, full_matrices=False)
    return u[:, sv > RCOND * sv[0]]


def fit_tail_on_variety(
    diff: TracePolynomial,
    reference: TracePolynomial,
    degree_bound: int,
    pool,
) -> float:
    """Least-squares residual of diff against the full monomial basis of
    degree <= degree_bound on rank-one variety points: the float reference
    for tail_is_low_degree.  pool is a cm.PointPool, or a list of
    cm.PointEvaluators whose points make one, kept per tuple of evaluators
    (an LRU cache of 8).  The residual is max |b - Q (Q^H b)|, b diff's
    values and Q the monomials' orthonormal basis, kept per (pool,
    degree_bound, diff.mode) (an LRU cache of 32), so later tails at that
    bound cost one projection; it agrees with span.lstsq_fit up to rounding
    and is scaled by the reference polynomial's values."""
    if not isinstance(pool, PointPool):
        pool = _evaluator_pool(tuple(pool))
    target = pool.values_and_magnitudes(diff)[0]
    basis = _monomial_basis(pool, degree_bound, diff.mode)
    scale = max(1.0, float(np.abs(pool.values_and_magnitudes(reference)[0]).max()))
    return float(np.abs(target - basis @ (basis.conj().T @ target)).max() / scale)


def tail_is_low_degree(diff: TracePolynomial, degree_bound: int, pool: ExactPool) -> bool:
    """Whether diff's values on pool lie in the span mod p of those of the trace
    monomials of degree <= degree_bound.  A wrong diff of degree d passes each
    point beyond the monomials' rank with probability at most d/p; ValueError
    when the monomials span every column of the pool, where any diff passes."""
    echelon = Echelon(len(pool), pool.prime)
    for m in enumerate_trace_monomials(degree_bound, diff.mode):
        echelon.add(pool.values(m))
    if echelon.rank == len(pool):
        raise ValueError(f"the degree <= {degree_bound} tail check needs more sample points "
                         f"than the {echelon.rank} independent monomials, got {len(pool)}")
    return not echelon.reduce(pool.values(diff)).any()


def check_identity(
    id: str | int,
    computed: TracePolynomial,
    expected: TracePolynomial,
    kind: str,
    degree_bound: Optional[int],
    pool: Callable[[int], ExactPool],
) -> IdentityResult:
    """Check that the computed bracket equals expected as an identity of this kind.

    kind 'exact': equality in canonical form, n symbolic.
    kind 'leading-mod-degree': the straightened part above degree_bound
    equals expected's, and the full difference restricts on the rank-condition
    variety to a function of degree <= degree_bound, tested exactly mod p by
    tail_is_low_degree on pool(p), which only this kind calls.  p is PRIME, or
    CHECK_PRIME when PRIME divides a coefficient denominator of the difference."""
    check_kind(kind, degree_bound, f"identity {id}")
    if kind == EXACT:
        diff = computed - expected
        if diff.is_zero():
            return IdentityResult(id, "pass")
        return IdentityResult(id, "fail", "exact identity failed", format_polynomial(diff))
    lead_diff = leading_part(computed, degree_bound) - expected.straighten()
    if not lead_diff.is_zero():
        return IdentityResult(
            id, "fail", "straightened leading part mismatch", format_polynomial(lead_diff)
        )
    diff = computed - expected
    exact = pool(PRIME)
    if not exact.defined(diff):
        exact = pool(CHECK_PRIME)
    if tail_is_low_degree(diff, degree_bound, exact):
        return IdentityResult(id, "pass")
    return IdentityResult(id, "fail", f"tail not of degree <= {degree_bound} on the variety mod p")


def verify_catalog(
    entries: Iterable[BracketCatalogEntry],
    n_value: int,
    sample_count: int,
    seed: int = 0,
) -> IdentityReport:
    """Check every catalog entry; the leading entries share one lazily sampled exact pool per prime."""
    pool = cache(lambda prime: ExactPool.sample(n_value, sample_count, seed, prime=prime))
    return IdentityReport([
        check_identity(e.id, bracket(e.lhs, e.rhs), e.expected, e.kind, e.degree_bound, pool)
        for e in entries
    ])
