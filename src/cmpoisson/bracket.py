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

from .cm import PointPool
from .grammar import format_polynomial
from .poly import PLAIN, TRACELESS, TracePolynomial, merge_product, merge_terms
from .ring import QnCoeff
from .span import enumerate_trace_monomials, lstsq_fit, value_matrix
from .words import FIRST, SECOND, CyclicWord, canonicalize, splice_cuts

RawTerm = tuple[QnCoeff, tuple[int, int], tuple[CyclicWord, ...]]


def _word_bracket_terms(v: CyclicWord, w: CyclicWord, corrected: bool) -> list[RawTerm]:
    """Raw (uncanonicalized) terms of {tr v, tr w} at the single-factor level."""
    terms: list[RawTerm] = []
    v_first = splice_cuts(v, FIRST)
    v_second = splice_cuts(v, SECOND)
    w_first = splice_cuts(w, FIRST)
    w_second = splice_cuts(w, SECOND)
    for sign, v_cuts, w_cuts in ((1, v_first, w_second), (-1, v_second, w_first)):
        for v_cut, mv in v_cuts:
            for w_cut, mw in w_cuts:
                mult = QnCoeff.of(sign * mv * mw)
                terms.append((mult, (0, 0), (canonicalize(v_cut.concat(w_cut)),)))
                if corrected:
                    terms.append(
                        (
                            mult.times_n_power(-1) * -1,
                            (0, 0),
                            (canonicalize(v_cut), canonicalize(w_cut)),
                        )
                    )
    return terms


@lru_cache(maxsize=65536)
def _word_bracket(v: CyclicWord, w: CyclicWord, mode: str) -> TracePolynomial:
    corrected = mode == TRACELESS
    return TracePolynomial(
        mode, [((central, factors), c) for c, central, factors in _word_bracket_terms(v, w, corrected)]
    )


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
                    central = (ax + bx - 1, ay + by - 1)
                    key = (central, fac_f + fac_g)
                    term = TracePolynomial(mode, [(key, scale * QnCoeff.of(weight, 1))])
                    merge_terms(acc, term.items())
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


def bracket_raw_terms(f: TracePolynomial, g: TracePolynomial) -> list[RawTerm]:
    """Single-factor bracket terms before canonical mode reduction.

    Only meaningful for single-monomial, single-factor inputs; used by the
    CLI to display the splice formula before tr A = tr B = 0 is applied.
    """
    if f.mode != g.mode:
        raise ValueError(f"mode mismatch: {f.mode} vs {g.mode}")
    corrected = f.mode == TRACELESS
    merged: dict[tuple, QnCoeff] = {}
    for (cen_f, fac_f), cf in f.items():
        for (cen_g, fac_g), cg in g.items():
            if len(fac_f) != 1 or len(fac_g) != 1 or cen_f != (0, 0) or cen_g != (0, 0):
                raise ValueError("raw display is defined for single trace factors only")
            for c, central, factors in _word_bracket_terms(fac_f[0], fac_g[0], corrected):
                key = (central, tuple(sorted(factors, key=lambda w: (w.degree(), w.runs))))
                acc = merged.get(key, QnCoeff.zero()) + c * cf * cg
                if acc.is_zero():
                    merged.pop(key, None)
                else:
                    merged[key] = acc
    return [(c, central, factors) for (central, factors), c in merged.items()]


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
    degree_bound; where names the identity in the message."""
    if kind not in (EXACT, LEADING):
        raise ValueError(f"{where}: unknown kind {kind!r}, expected {EXACT!r} or {LEADING!r}")
    if kind == LEADING and not isinstance(degree_bound, int):
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
    fit_residual: Optional[float] = None


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


def fit_tail_on_variety(
    diff: TracePolynomial,
    reference: TracePolynomial,
    degree_bound: int,
    pool,
) -> float:
    """Least-squares residual of diff against the full monomial basis of
    degree <= degree_bound, evaluated on rank-one variety points.

    pool is a cm.PointPool, or a list of cm.PointEvaluators whose points
    make one.  A small residual certifies that diff restricts on the variety
    to a function of degree <= degree_bound; the scale is set by the
    reference polynomial's values."""
    if not isinstance(pool, PointPool):
        pool = PointPool(ev.point for ev in pool)
    target = pool.values_and_magnitudes(diff)[0]
    matrix = value_matrix(pool, enumerate_trace_monomials(degree_bound, diff.mode))
    scale = max(1.0, float(pool.abs(pool.values_and_magnitudes(reference)[0]).max()))
    residual, _, _ = lstsq_fit(matrix, target, scale=scale)
    return residual


def check_identity(
    id: str | int,
    computed: TracePolynomial,
    expected: TracePolynomial,
    kind: str,
    degree_bound: Optional[int],
    pool: Callable[[], PointPool],
    fit_tolerance: float,
) -> IdentityResult:
    """Check that the computed bracket equals expected as an identity of this kind.

    kind 'exact': equality in canonical form, n symbolic.
    kind 'leading-mod-degree': the straightened part above degree_bound
    equals expected's, and the full difference restricts on the rank-condition
    variety to a function of degree <= degree_bound, certified by a tail fit
    on the points of pool(), which only this kind calls."""
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
    residual = fit_tail_on_variety(computed - expected, computed, degree_bound, pool())
    if residual < fit_tolerance:
        return IdentityResult(id, "pass", fit_residual=residual)
    detail = f"variety residual {residual:.3e} above {fit_tolerance:.1e}"
    return IdentityResult(id, "fail", detail, fit_residual=residual)


def verify_catalog(
    entries: Iterable[BracketCatalogEntry],
    n_value: int,
    sample_count: int,
    seed: int = 0,
    fit_tolerance: float = 1e-8,
) -> IdentityReport:
    """Check every catalog entry; the leading entries share one point pool."""
    pool = cache(lambda: PointPool.sample(n_value, sample_count, seed))
    return IdentityReport([
        check_identity(
            e.id, bracket(e.lhs, e.rhs), e.expected, e.kind, e.degree_bound, pool, fit_tolerance
        )
        for e in entries
    ])
