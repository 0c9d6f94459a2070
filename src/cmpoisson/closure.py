"""Lie-closure construction and numeric membership certification.

The closure of a generator set under the traceless bracket is built breadth
first: each new bracket is Cayley-Hamilton-reduced at the working matrix size,
discarded if its degree exceeds the degree cap, deduplicated by canonical
form, and kept only when it enlarges the span of its values mod p on a fixed
pool of exact traceless rank-one points (modp.py).  Membership in the
closure is certified numerically, by least squares on fresh float points
(the rank-condition ideal has no tractable symbolic normal form at this
scale), so a membership failure is always reported as "not found at depth
d", never as non-membership.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .bracket import bracket_traceless
from .cm import PointPool
from .poly import TRACELESS, TracePolynomial
from .modp import Echelon, ExactPool, rank
from .span import enumerate_trace_monomials, lstsq_fit, value_matrix
from .words import FIRST, SECOND

MAX_CONDITION = 1e12  # membership fits with a worse-conditioned value matrix are inconclusive
MEMBERSHIP_POOL_STREAM = 1_000_000  # index offset for fresh certification points
RECHECK_STREAM = 2_000_000

Tree = tuple  # ("gen", generator_index) | ("br", left_element_index, right_element_index)


class PoolTooSmallError(RuntimeError):
    pass


def standard_generators() -> list[TracePolynomial]:
    """tr A^2, tr B^2, tr A^3, (tr AB)^2."""
    return [
        TracePolynomial.trace(((FIRST, 2),), TRACELESS),
        TracePolynomial.trace(((SECOND, 2),), TRACELESS),
        TracePolynomial.trace(((FIRST, 3),), TRACELESS),
        TracePolynomial.trace(((FIRST, 1), (SECOND, 1)), TRACELESS) ** 2,
    ]


def validate_degree_cap(generators: Iterable[TracePolynomial], degree_cap: int) -> None:
    """Raise ValueError when the degree cap is below every generator's degree,
    so that no generator could enter the closure."""
    smallest = min(g.degree() for g in generators)
    if degree_cap < smallest:
        raise ValueError(f"degree cap {degree_cap} is below the smallest generator degree {smallest}")


def reduce_pipeline(
    p: TracePolynomial, n_value: int, normalize: bool = True
) -> TracePolynomial:
    """Canonical post-bracket reduction: CH-reduce, collapse n, renormalize.

    The exact rescaling by the largest coefficient magnitude keeps nested
    brackets' coefficients O(1), so float evaluation noise in membership
    fits stays small.  Membership targets skip the rescaling so
    certificates refer to the target exactly as given."""
    reduced = p.cayley_hamilton_reduce(n_value).specialize_n(n_value)
    if not normalize or reduced.is_zero():
        return reduced
    peak = max(abs(c.evaluate(n_value)) for _, c in reduced.items())
    if peak == 0:
        return reduced
    return reduced * (1 / peak)


@dataclass
class LieClosureBasis:
    generators: list[TracePolynomial]
    elements: list[TracePolynomial]
    trees: list[Tree]
    levels: list[int]
    depth_cap: int
    degree_cap: int
    n_value: int
    seed: int
    pool_size: int

    def evaluate_tree(self, tree: Tree) -> TracePolynomial:
        """Re-run the bracket/reduction pipeline recorded in a provenance tree."""
        kind = tree[0]
        if kind == "gen":
            return reduce_pipeline(self.generators[tree[1]], self.n_value)
        if kind == "br":
            left = self.elements[tree[1]]
            right = self.elements[tree[2]]
            return reduce_pipeline(bracket_traceless(left, right), self.n_value)
        raise ValueError(f"unknown tree node {tree!r}")

    def verify_trees(self) -> bool:
        return all(
            self.evaluate_tree(tree) == elem
            for tree, elem in zip(self.trees, self.elements)
        )


def default_depth_cap(n_value: int) -> int:
    return 8 if n_value <= 2 else 10


def build_closure(
    generators: Iterable[TracePolynomial],
    depth_cap: int,
    degree_cap: int,
    n_value: int,
    seed: int = 0,
    pool_size: Optional[int] = None,
) -> LieClosureBasis:
    """Breadth-first nested bracketing, pruned by an exact span test mod p
    on pool_size random points."""
    generators = list(generators)
    for g in generators:
        if g.mode != TRACELESS:
            raise ValueError("closure generators must be traceless-mode polynomials")
    validate_degree_cap(generators, degree_cap)
    monomials = enumerate_trace_monomials(degree_cap, TRACELESS)
    if pool_size is None:
        pool_size = 4 * min(len(monomials), 250)
    pool = ExactPool.sample(n_value, pool_size, seed)
    span = Echelon(pool_size)
    # every element lives in the span of degree<=cap monomial functions on the
    # variety; their rank on the pool caps the attainable basis size
    span_dimension = rank(pool, monomials)

    basis = LieClosureBasis(
        generators=generators,
        elements=[],
        trees=[],
        levels=[],
        depth_cap=depth_cap,
        degree_cap=degree_cap,
        n_value=n_value,
        seed=seed,
        pool_size=pool_size,
    )
    seen: set = set()

    def try_add(p: TracePolynomial, tree: Tree, level: int) -> bool:
        if p.is_zero() or p.degree() > degree_cap:
            return False
        key = p.canonical_key()
        if key in seen:
            return False
        seen.add(key)
        if not span.add(pool.values(p)):
            return False
        if len(basis.elements) + 1 >= pool_size:
            # a basis as large as the pool spans every value column, so no
            # further candidate could be told apart from it
            raise PoolTooSmallError(
                f"point pool of size {pool_size} is too small for degree cap "
                f"{degree_cap} (basis reached {len(basis.elements) + 1} elements; "
                f"the basis must stay below the pool size)"
            )
        basis.elements.append(p)
        basis.trees.append(tree)
        basis.levels.append(level)
        return True

    for gi, g in enumerate(generators):
        try_add(reduce_pipeline(g, n_value), ("gen", gi), 0)

    level = 1
    while level <= depth_cap and len(basis.elements) < span_dimension:
        added = False
        count = len(basis.elements)
        pairs = [
            (i, j)
            for j in range(count)
            for i in range(j)
            if max(basis.levels[i], basis.levels[j]) == level - 1
        ]
        for i, j in pairs:
            ei, ej = basis.elements[i], basis.elements[j]
            di = ei.degree()
            dj = ej.degree()
            if di + dj - 2 > degree_cap:
                continue  # bracket degree is exact; cannot come back under the cap
            candidate = reduce_pipeline(bracket_traceless(ei, ej), n_value)
            if try_add(candidate, ("br", i, j), level):
                added = True
                if len(basis.elements) >= span_dimension:
                    break  # span of degree<=cap functions is saturated
        if not added:
            break
        level += 1
    return basis


# ----------------------------------------------------------------------
# membership certificates
# ----------------------------------------------------------------------

@dataclass
class MembershipCertificate:
    target: TracePolynomial
    status: str  # "member" | "not_found_at_depth" | "inconclusive"
    coefficients: list[complex]
    residual: float
    sample_count: int
    condition: float
    depth_cap: int
    tolerance: float = 1e-8

    @property
    def valid(self) -> bool:
        return self.status == "member" and self.residual < self.tolerance


def validate_target(target: TracePolynomial, degree_cap: int) -> None:
    """Raise ValueError unless target can be certified against a closure
    built with this degree cap."""
    if target.mode != TRACELESS:
        raise ValueError("membership targets must be traceless-mode polynomials")
    if target.degree() > degree_cap:
        raise ValueError(f"target degree {target.degree()} exceeds basis degree cap {degree_cap}")


class MembershipChecker:
    """Shares one fresh-point pool and element value matrix across targets."""

    def __init__(
        self,
        basis: LieClosureBasis,
        sample_count: Optional[int] = None,
        tolerance: float = 1e-8,
    ):
        self.basis = basis
        self.tolerance = tolerance
        if sample_count is None:
            sample_count = max(2 * len(basis.elements), 64)
        if sample_count <= len(basis.elements):
            # with no more points than unknowns the fit is exact for any target
            raise ValueError(
                f"membership needs more sample points than the {len(basis.elements)} "
                f"basis elements, got {sample_count}"
            )
        self.sample_count = sample_count
        self.pool = PointPool.sample(
            basis.n_value, sample_count, basis.seed, MEMBERSHIP_POOL_STREAM
        )
        self.matrix = value_matrix(self.pool, basis.elements)

    def check(self, target: TracePolynomial) -> MembershipCertificate:
        basis = self.basis
        validate_target(target, basis.degree_cap)
        reduced = reduce_pipeline(target, basis.n_value, normalize=False)
        b = self.pool.values_and_magnitudes(reduced)[0]
        scale = max(1.0, float(self.pool.abs(b).max()))
        residual, coeffs, cond = lstsq_fit(self.matrix, b, scale=scale)
        if cond > MAX_CONDITION:
            status = "inconclusive"
        elif residual < self.tolerance:
            status = "member"
        else:
            status = "not_found_at_depth"
        return MembershipCertificate(
            target=target,
            status=status,
            coefficients=[complex(c) for c in coeffs],
            residual=residual,
            sample_count=self.sample_count,
            condition=cond,
            depth_cap=basis.depth_cap,
            tolerance=self.tolerance,
        )


def check_membership(
    target: TracePolynomial,
    basis: LieClosureBasis,
    sample_count: Optional[int] = None,
    tolerance: float = 1e-8,
) -> MembershipCertificate:
    """Least-squares fit of the target against basis-element values on fresh points."""
    return MembershipChecker(basis, sample_count, tolerance).check(target)


def recheck_certificate(
    cert: MembershipCertificate, basis: LieClosureBasis, factor: int = 10
) -> float:
    """Residual of the certified combination on factor-times fresh points."""
    pool = PointPool.sample(
        basis.n_value, factor * cert.sample_count, basis.seed, RECHECK_STREAM
    )
    reduced = reduce_pipeline(cert.target, basis.n_value, normalize=False)
    target = pool.values_and_magnitudes(reduced)[0]
    combo = sum(
        pool.multiply(c, pool.values_and_magnitudes(e)[0])
        for c, e in zip(cert.coefficients, basis.elements)
    )
    return float((pool.abs(combo - target) / np.maximum(1.0, pool.abs(target))).max())
