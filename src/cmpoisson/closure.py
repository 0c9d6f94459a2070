"""Lie-closure construction and exact membership certificates.

The closure of a generator set under the traceless bracket is built breadth
first: a bracket of two kept elements whose degree would exceed the degree cap
is skipped, and another is kept only when it enlarges the span of its values
mod p on a fixed pool of exact traceless rank-one points (modp.py).  Those
values are known before the bracket is formed: on invariant functions the
bracket is Goldman's pairing of gradients, {f, g} = tr(dX_f dY_g) -
tr(dY_f dX_g) (Invent. Math. 85, 1986), with the traceless parts of the
splice gradients, so a candidate's value column is paired from the kept
elements' gradients mod p (GradientPairing), and that column is what
enters the span.  Only a kept candidate is bracketed symbolically and
Cayley-Hamilton-reduced at the working matrix size: the pairing is its
values up to the rescaling of reduce_pipeline, so the kept elements are the
ones that bracketing every candidate would keep.  It stops once the basis
reaches dimension(n, D), the dimension of the functions of degree <= D on
the traceless Calogero-Moser space.  By Etingof-Ginzburg (Invent. Math. 147,
2002) that space's coordinate ring, filtered by degree in X and Y, has
associated graded ring C[h + h*]^{S_n}, h the reflection representation
C^n/C, and by Wilson (Invent. Math. 133, 1998) the traces generate it; so
the trace monomials of degree <= D span a space of this dimension, and a
basis that reaches it spans them all.

The scaling flow (A, B) -> (wA, B/w) keeps the space and the bracket, and
grades the functions by the weight k = #A - #B, which is the bigrading of
C[h + h*]^{S_n} by the degrees in h and h*.  The bracket adds weights and
Cayley-Hamilton reduction keeps them, so the span tests split by weight:
each weight has its own Echelon, of at most its dimension in
weight_dimensions(n, D), and one pool of the largest such dimension plus
POOL_MARGIN points tells every weight's functions apart.  Membership in the
closure is certified by solving for each weight part of the target mod p on
fresh exact points, its B-even and B-odd parts at once (every element has
one B-degree parity, by which the real structure, conjugation composed with
(X, Y) -> (X, -Y), splits its coefficient into real and imaginary parts),
lifting the coefficients to Q(i) and checking the lift at points mod a
second prime (the rank-condition ideal has no tractable symbolic normal
form at this scale), so a membership failure is always reported as "not
found at depth d", never as non-membership.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod
from typing import Iterable, Iterator

import numpy as np

from .bracket import bracket_traceless
from .flows import FAMILY_IDS, family_hamiltonian
from .grammar import format_polynomial
from .modp import CHECK_PRIME, LAMBDAS, PRIME, Echelon, ExactPool, matmul, reconstruct, to_mod_p
from .poly import TRACELESS, TracePolynomial

MEMBERSHIP_STREAM = 1  # streams of the seed: the closure pool takes 0
CHECK_STREAM = 2
CHECK_POINTS = 40  # points mod CHECK_PRIME a lifted certificate must satisfy
POOL_MARGIN = 16  # pool points beyond the dimension the pool must tell apart
PAIRING_CHUNK = 64  # candidate pairs whose columns are paired and reduced at once

Tree = tuple  # ("gen", generator_index) | ("br", left_element_index, right_element_index)


def standard_generators() -> list[TracePolynomial]:
    """The families' Hamiltonians: tr A^2, tr B^2, tr A^3, (tr AB)^2."""
    return [family_hamiltonian(f) for f in FAMILY_IDS]


def validate_degree_cap(generators: Iterable[TracePolynomial], degree_cap: int) -> None:
    """Raise ValueError when the degree cap is below every generator's degree,
    so that no generator could enter the closure."""
    smallest = min(g.degree() for g in generators)
    if degree_cap < smallest:
        raise ValueError(f"degree cap {degree_cap} is below the smallest generator degree {smallest}")


def _partitions(m: int, largest: int) -> Iterator[tuple[int, ...]]:
    """The partitions of m into parts of at most `largest`, parts descending."""
    if m == 0:
        yield ()
    for k in range(min(m, largest), 0, -1):
        for rest in _partitions(m - k, k):
            yield (k,) + rest


def weight_dimensions(n_value: int, degree_cap: int) -> dict[int, int]:
    """The dimension of the functions of degree <= degree_cap and C* weight k
    on the traceless Calogero-Moser space of n_value x n_value matrices, for
    every weight |k| <= degree_cap; the scaling (A, B) -> (wA, B/w) keeps the
    space and multiplies a function of weight k by w^k.

    The bigraded Molien series of C[h + h*]^{S_n}, by the degrees a in h and
    b in h*, is a sum over the cycle types lambda of S_n:
    sum (1/z_lambda) f_lambda(s) f_lambda(t), with
    f_lambda(s) = (1 - s) / prod_i (1 - s^{lambda_i}) and
    z_lambda = prod_k k^{m_k} m_k! for m_k parts equal to k.  The weight-k
    dimension is the sum of its coefficients of s^a t^b over a + b <= D with
    a - b = k.  Up to degree D the series does not depend on n once n >= D,
    so the sum runs over the partitions of min(n, D)."""
    totals = {k: Fraction(0) for k in range(-degree_cap, degree_cap + 1)}
    for parts in _partitions(min(n_value, degree_cap), degree_cap):
        series = [1] + [0] * degree_cap  # prod_i 1/(1 - s^{lambda_i}), truncated
        for k in parts:
            for d in range(k, degree_cap + 1):
                series[d] += series[d - k]
        f = [series[0]] + [series[d] - series[d - 1] for d in range(1, degree_cap + 1)]
        z = prod(k ** parts.count(k) * factorial(parts.count(k)) for k in set(parts))
        for a in range(degree_cap + 1):
            for b in range(degree_cap + 1 - a):
                totals[a - b] += Fraction(f[a] * f[b], z)
    return {k: int(total) for k, total in totals.items()}


def dimension(n_value: int, degree_cap: int) -> int:
    """The dimension of the functions of degree <= degree_cap on the traceless
    Calogero-Moser space of n_value x n_value matrices: the sum of
    weight_dimensions, which is the sum up to t^D of Molien's series
    sum (1/z_lambda) (1 - t)^2 / prod_i (1 - t^{lambda_i})^2."""
    return sum(weight_dimensions(n_value, degree_cap).values())


def peak_coefficient(p: TracePolynomial, n_value: int) -> Fraction:
    """The largest coefficient magnitude of p at n = n_value; 0 for p = 0."""
    return max((abs(c.evaluate(n_value)) for _, c in p.items()), default=Fraction(0))


def b_parity_parts(p: TracePolynomial) -> dict[int, TracePolynomial]:
    """p split by the parity of each term's B-degree, central exponents
    counted: (A, B) -> (A, -B) multiplies a term of B-degree b by (-1)^b.
    Keyed by 0 (even) and 1 (odd); empty for the zero polynomial."""
    parts: dict[int, dict] = {}
    for key, coeff in p.items():
        (_, b), factors = key
        b += sum(w.bidegree()[1] for w in factors)
        parts.setdefault(b % 2, {})[key] = coeff
    return {beta: TracePolynomial.from_canonical(p.mode, terms) for beta, terms in parts.items()}


def b_parity(p: TracePolynomial) -> int:
    """The B-degree parity of every term of p (0 for the zero polynomial);
    ValueError naming p when its terms' parities differ."""
    parts = b_parity_parts(p)
    if len(parts) > 1:
        raise ValueError(f"{format_polynomial(p)} mixes B-degree parities: it has terms of even and odd B-degree")
    return next(iter(parts), 0)


def reduce_pipeline(p: TracePolynomial, n_value: int) -> TracePolynomial:
    """Canonical post-bracket reduction: CH-reduce at n (which also collapses
    n in the coefficients), then renormalize.

    The exact rescaling by the largest coefficient magnitude keeps nested
    brackets' coefficients O(1), so certificate coefficients stay small
    enough to lift from F_p to Q(i)."""
    reduced = p.cayley_hamilton_reduce(n_value)
    peak = peak_coefficient(reduced, n_value)
    return reduced * (1 / peak) if peak else reduced


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


class GradientPairing:
    """The values on an exact pool of the brackets of kept elements, paired
    from their gradients.

    An element's gradient is the combination of its factors' trace gradients
    by its Leibniz weights (ExactPool.leibniz_weights), and the bracket is
    bilinear, so {e_i, e_j} is the double combination of the brackets
    {tr v, tr w} of their factor words, each paired once from two gradients
    (ExactPool.trace_bracket).  Only the weights are kept per element: the
    factor words are far fewer than the elements, so this takes less time
    and memory than keeping every element's (N, 2 n^2) gradient."""

    def __init__(self, pool: ExactPool):
        self.pool = pool
        self.weights: list[dict] = []

    def add(self, p: TracePolynomial) -> None:
        self.weights.append(self.pool.leibniz_weights(p))

    def columns(self, pairs: list[tuple[int, int]]) -> np.ndarray:
        """The (len(pairs), N) values mod p of the brackets {e_i, e_j}."""
        pool, prime = self.pool, self.pool.prime
        out = np.empty((len(pairs), len(pool)), dtype=np.int64)
        with_j: dict = {}  # factor word v -> the values of {tr v, e_j}
        for k, (i, j) in enumerate(pairs):
            if k and j != pairs[k - 1][1]:
                with_j.clear()
            column = 0
            for v, weight in self.weights[i].items():
                if v not in with_j:
                    with_j[v] = 0
                    for w, c in self.weights[j].items():
                        with_j[v] = (with_j[v] + c * pool.trace_bracket(v, w)) % prime
                column = (column + weight * with_j[v]) % prime
            out[k] = column
        return out


def default_depth_cap(n_value: int) -> int:
    return 8 if n_value <= 2 else 10


def build_closure(
    generators: Iterable[TracePolynomial],
    depth_cap: int,
    degree_cap: int,
    n_value: int,
    seed: int = 0,
) -> LieClosureBasis:
    """Breadth-first nested bracketing, pruned by exact span tests mod p, one
    per C* weight, until the basis reaches dimension(n, D).

    Every generator must be weight-homogeneous and of one B-degree parity
    (ValueError otherwise).  The bracket adds weights and Cayley-Hamilton
    reduction keeps them, so every element has the weight of its tree; the
    bracket lowers both degrees by one and the reduction keeps them, so
    every element has one B-degree parity too, as MembershipChecker needs.
    The functions of degree <= D split into a direct sum over the weights k,
    of dimensions weight_dimensions(n, D).  A candidate is judged only against the kept
    elements of its own weight, in that weight's Echelon, on one pool of
    max_k dim_k + POOL_MARGIN random points shared by all weights.  A pair
    whose weight is full, its kept elements numbering dim_k, is never paired:
    every such candidate is in the span.  That covers the weights with no
    functions, such as that of two pure-A factors, whose bracket is 0.

    The margin buys a pool on which no nonzero function of degree <= D and
    weight k vanishes everywhere, so that every independent candidate is
    kept: each new random point shrinks the weight-k functions that vanish
    on the pool so far unless they all vanish there too, with probability at
    most d/p for their degree d after clearing the denominators
    (Schwartz-Zippel).  Each weight's span test lives in a space of
    dimension dim_k <= max_k dim_k, so with k spare points, k + 1 such points
    must occur.

    A candidate {e_i, e_j} is judged by its value column before it is formed:
    the column is the pairing of the kept elements' gradients at each point
    (GradientPairing), taken for PAIRING_CHUNK candidates at a time, and each
    weight's columns in the chunk are reduced against its span in one call.
    A candidate in the span when its chunk starts stays in it, as the span
    only grows, and is dropped.  The others meet the span once, in order, in
    Echelon.add, and only one that enlarges it is bracketed and reduced.  The
    pairing equals the bracket's values up to the rescaling of reduce_pipeline,
    and a reduced row echelon form is unique, so the accepted elements, their
    trees and levels are the ones that judging by values would give.  Level L
    pairs the elements of level L - 1 with all earlier ones; a level that
    keeps nothing ends the build.  That is checked, not assumed: a kept
    element that exceeds the degree cap, has another weight than its tree's,
    or has values that are no nonzero multiple of its column, which must have
    just enlarged the span, is a defect and raises AssertionError; so no kept
    element is 0 or repeats another."""
    generators = list(generators)
    for g in generators:
        if g.mode != TRACELESS:
            raise ValueError("closure generators must be traceless-mode polynomials")
    validate_degree_cap(generators, degree_cap)
    generator_weights = [g.weight() for g in generators]
    for g in generators:
        b_parity(g)  # ValueError when its B-degree parities differ
    # every element lives in the span of its weight's degree <= cap functions on the variety
    dims = weight_dimensions(n_value, degree_cap)
    room = dict(dims)  # each weight's dimension less its kept elements
    pool_size = max(dims.values()) + POOL_MARGIN
    pool = ExactPool.sample(n_value, pool_size, seed)
    spans = {k: Echelon(pool_size) for k in dims}

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
    degrees: list[int] = []
    weights: list[int] = []
    pairing = GradientPairing(pool)

    def keep(p: TracePolynomial, tree: Tree, level: int, weight: int, column: np.ndarray) -> None:
        values = pool.values(p)
        at = np.flatnonzero(column)[0]  # column has just entered spans[weight]
        if (p.degree() > degree_cap or p.weight() != weight
                or not values[at] or ((values * column[at] - column * values[at]) % pool.prime).any()
                or spans[weight].rank != dims[weight] - room[weight] + 1):
            raise AssertionError(f"closure element {tree} exceeds the degree cap, has another weight than its "
                                 f"tree's, or is no multiple of its column or that column did not enlarge the span")
        room[weight] -= 1
        basis.elements.append(p)
        basis.trees.append(tree)
        basis.levels.append(level)
        degrees.append(p.degree())
        weights.append(weight)
        pairing.add(p)

    for gi, (g, weight) in enumerate(zip(generators, generator_weights)):
        p = reduce_pipeline(g, n_value)
        values = pool.values(p)
        if values.any() and p.degree() <= degree_cap and spans[weight].add(values):
            keep(p, ("gen", gi), 0, weight, values)

    last = range(len(basis.elements))  # the elements kept at the level before
    for level in range(1, depth_cap + 1):
        if not last or not any(room.values()):
            break  # the last level kept nothing, or the basis is saturated
        count = len(basis.elements)
        pairs = [
            (i, j)
            for j in last
            for i in range(j)
            # the bracket degree is exact: past the cap it cannot come back under it
            if degrees[i] + degrees[j] - 2 <= degree_cap and room.get(weights[i] + weights[j], 0) > 0
        ]
        for start in range(0, len(pairs), PAIRING_CHUNK):
            chunk = [(i, j) for i, j in pairs[start:start + PAIRING_CHUNK] if room[weights[i] + weights[j]]]
            targets = [weights[i] + weights[j] for i, j in chunk]
            columns = pairing.columns(chunk)
            reduced = np.empty_like(columns)
            for k in set(targets):
                rows = [r for r, t in enumerate(targets) if t == k]
                reduced[rows] = spans[k].reduce(columns[rows])
            for r in np.flatnonzero(reduced.any(axis=1)):
                k = targets[r]
                if room[k] and spans[k].add(reduced[r]):
                    i, j = chunk[r]
                    ei, ej = basis.elements[i], basis.elements[j]
                    keep(reduce_pipeline(bracket_traceless(ei, ej), n_value), ("br", i, j), level, k, columns[r])
        last = range(count, len(basis.elements))
    return basis


# ----------------------------------------------------------------------
# membership certificates
# ----------------------------------------------------------------------

@dataclass
class MembershipCertificate:
    target: TracePolynomial
    status: str  # "member" | "not_found_at_depth" | "inconclusive"
    # exact (real, imaginary) part of each element's coefficient; empty unless a member
    exact_coefficients: list[tuple[Fraction, Fraction]]
    sample_count: int
    reason: str = ""  # why the certificate is inconclusive; empty otherwise

    @property
    def coefficients(self) -> list[complex]:
        # most coefficients are 0; complex(Fraction, Fraction) is slow
        return [complex(float(re), float(im)) if re or im else 0j for re, im in self.exact_coefficients]

    @property
    def valid(self) -> bool:
        return self.status == "member"


def validate_target(target: TracePolynomial, degree_cap: int) -> None:
    """Raise ValueError unless target can be certified against a closure
    built with this degree cap."""
    if target.mode != TRACELESS:
        raise ValueError("membership targets must be traceless-mode polynomials")
    if target.degree() > degree_cap:
        raise ValueError(f"target degree {target.degree()} exceeds basis degree cap {degree_cap}")


class MembershipChecker:
    """Solves targets against the basis elements mod p on one exact pool, one
    C* weight at a time.

    Certificate coefficients lie in Q(i), where i = -lambda at the pool's
    points (X, Y).  At (X, -Y), on the locus of -lambda, i = lambda (the
    conjugate embedding), and a function of B-degree parity beta takes
    (-1)^beta times its value at (X, Y); every element has one such parity
    (ValueError otherwise).  So the target's B-even part T0 and B-odd part
    T1 are solved for u and w: an element's coefficient is u + w at (X, Y)
    and (-1)^beta (u - w) at (X, -Y), whose half sum and difference over 2i,
    the real and imaginary parts, are u and w/i for an even element and w
    and u/i for an odd one.  Rational reconstruction lifts them to Q.  The
    functions split into a direct sum over the weights, so the target's part
    of weight k is a combination of the elements of weight k alone, and is
    solved against them in that weight's echelon; a part of a weight with no
    elements must vanish on the pool.  A solve row carries each element's
    unit vector, so reducing [T0 values | 0] and [T1 values | 0] in one call
    leaves zeros on the pool exactly when both are in the span there, and
    minus u and w in the tail; an empty parity part has solution 0 and is
    not reduced.  The lift is
    accepted only if the whole combination holds exactly at CHECK_POINTS
    points mod CHECK_PRIME, where a wrong lift survives a point with
    probability at most deg/CHECK_PRIME (Schwartz-Zippel).  The pool has
    POOL_MARGIN points beyond the largest weight's element count, as
    build_closure's has beyond the largest weight's dimension."""

    def __init__(self, basis: LieClosureBasis):
        self.basis = basis
        m = len(basis.elements)
        self.members: dict[int, list[int]] = {}  # weight -> indices of its elements
        for j, e in enumerate(basis.elements):
            self.members.setdefault(e.weight(), []).append(j)
        self.odd = np.array([b_parity(e) for e in basis.elements], dtype=bool)
        largest = max(map(len, self.members.values()), default=0)
        self.sample_count = sample_count = largest + POOL_MARGIN
        n, seed = basis.n_value, basis.seed
        self.pool = ExactPool.sample(n, sample_count, seed, MEMBERSHIP_STREAM)
        self.check_pool = ExactPool.sample(n, CHECK_POINTS, seed, CHECK_STREAM, CHECK_PRIME)
        self.check_values = np.array(
            [self.check_pool.values(e) for e in basis.elements], dtype=np.int64
        ).reshape(m, CHECK_POINTS).T
        self.echelons: dict[int, Echelon] = {}
        for k, members in self.members.items():
            echelon = self.echelons[k] = Echelon(sample_count + len(members))
            for j, unit in zip(members, np.eye(len(members), dtype=np.int64)):
                echelon.add(np.concatenate([self.pool.values(basis.elements[j]), unit]))
            if max(echelon.pivots, default=0) >= sample_count:
                raise ValueError("the basis elements are linearly dependent on the membership pool")

    def check(self, target: TracePolynomial) -> MembershipCertificate:
        basis = self.basis
        validate_target(target, basis.degree_cap)
        m = len(basis.elements)
        reduced = target.cayley_hamilton_reduce(basis.n_value)
        # solve for the target at peak coefficient 1, like the elements, so
        # that its scale cannot push the coefficients past the lifting bound
        peak = peak_coefficient(reduced, basis.n_value) or Fraction(1)
        reduced = reduced * (1 / peak)
        # a prime dividing a denominator leaves the target without a value
        # mod that prime: unresolvable, not a defect
        for pool in (self.pool, self.check_pool):
            if not pool.defined(reduced):
                reason = f"the prime {pool.prime} divides a coefficient denominator of the target at peak 1"
                return MembershipCertificate(target, "inconclusive", [], self.sample_count, reason)
        solutions = np.zeros((2, m), dtype=np.int64)  # u and w, from the B-even and B-odd parts
        for k, part in reduced.weight_parts().items():
            members = self.members.get(k, [])
            halves = b_parity_parts(part)
            tail = np.zeros(len(members), dtype=np.int64)
            rows = np.array([np.concatenate([self.pool.values(half), tail]) for half in halves.values()])
            remainder = (self.echelons.get(k) or Echelon(self.sample_count)).reduce(rows)
            if remainder[:, : self.sample_count].any():
                return MembershipCertificate(target, "not_found_at_depth", [], self.sample_count)
            for beta, row in zip(halves, remainder):
                solutions[beta, members] = -row[self.sample_count:] % PRIME
        u, w = solutions
        # 1/i = -i = lambda
        re, im = np.where(self.odd, w, u), np.where(self.odd, u, w) * LAMBDAS[PRIME] % PRIME
        lifted = {j: (reconstruct(re[j]), reconstruct(im[j])) for j in np.flatnonzero(u | w)}
        no_lift = f"no lift of the coefficients holds at {CHECK_POINTS} points mod {CHECK_PRIME}"
        if any(x is None for pair in lifted.values() for x in pair):
            return MembershipCertificate(target, "inconclusive", [], self.sample_count, no_lift)
        i_check = CHECK_PRIME - LAMBDAS[CHECK_PRIME]
        combination = np.zeros(m, dtype=np.int64)
        coefficients = [(Fraction(0), Fraction(0))] * m
        for j, (a, b) in lifted.items():
            combination[j] = (to_mod_p(a, CHECK_PRIME) + i_check * to_mod_p(b, CHECK_PRIME)) % CHECK_PRIME
            coefficients[j] = (peak * a, peak * b)
        if (matmul(self.check_values, combination, CHECK_PRIME) != self.check_pool.values(reduced)).any():
            return MembershipCertificate(target, "inconclusive", [], self.sample_count, no_lift)
        return MembershipCertificate(target, "member", coefficients, self.sample_count)
