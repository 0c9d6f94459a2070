"""Shared helpers: seeded random polynomials, product targets and family images."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from cmpoisson.cm import CMPoint
from cmpoisson import flows
from cmpoisson.flows import FlowFamily, family_map
from cmpoisson.poly import TRACELESS, TracePolynomial
from cmpoisson.ring import QnCoeff
from cmpoisson.words import FIRST, SECOND, Runs, canonicalize, runs_from_letters


# the locus bounds of a float family image: it carries the rounding of the map
IMAGE_RANK_TOL = 1e-9
IMAGE_TRACE_TOL = 1e-10


def apply_family(fam: FlowFamily, pt: CMPoint) -> CMPoint:
    """A family's closed-form image of pt, checked to lie on the traceless locus."""
    X, Y = family_map(fam)(pt.pair.X, pt.pair.Y)
    out = CMPoint.from_matrices(X, Y, pt.traceless, pt.seed, pt.index)
    assert out.rank_residual < IMAGE_RANK_TOL and out.trace_residual < IMAGE_TRACE_TOL
    return out


def ode_gap(fam: FlowFamily, pt: CMPoint, steps: int = 400) -> float:
    """The largest entry gap between RK4 at `steps` steps and the closed-form
    image, relative to max(1, the image's largest entry)."""
    closed = apply_family(fam, pt)
    integ = flows.ode_flow(flows.family_hamiltonian(fam), pt, fam.t, steps)
    scale = max(1.0, float(max(np.abs(closed.pair.X).max(), np.abs(closed.pair.Y).max())))
    gap = max(np.abs(integ.pair.X - closed.pair.X).max(), np.abs(integ.pair.Y - closed.pair.Y).max())
    return float(gap / scale)


@pytest.fixture
def fresh_certificates():
    """Clear the cached exact flow certificates before and after a test that
    patches what they are built from."""
    flows.exact_certificate.cache_clear()
    yield
    flows.exact_certificate.cache_clear()


def random_word(rng: np.random.Generator, max_degree: int, min_degree: int = 1) -> Runs:
    length = int(rng.integers(min_degree, max_degree + 1))
    letters = [int(rng.integers(0, 2)) for _ in range(length)]
    return runs_from_letters(letters)


def random_polynomial(
    rng: np.random.Generator,
    mode: str,
    max_degree: int = 4,
    max_terms: int = 2,
    max_factors: int = 2,
    allow_n_powers: bool = True,
    allow_central: bool = False,
) -> TracePolynomial:
    terms = []
    min_word = 2 if mode == TRACELESS else 1
    for _ in range(int(rng.integers(1, max_terms + 1))):
        factors = []
        budget = max_degree
        central = (0, 0)
        if allow_central and mode == TRACELESS and rng.integers(0, 2):
            central = (int(rng.integers(0, 2)), int(rng.integers(0, 2)))
            budget -= central[0] + central[1]
        for _ in range(int(rng.integers(1, max_factors + 1))):
            if budget < min_word:
                break
            w = canonicalize(random_word(rng, min(budget, max_degree), min_word))
            factors.append(w)
            budget -= w.degree()
        coeff = Fraction(int(rng.integers(-4, 5)) or 1, int(rng.integers(1, 4)))
        n_power = int(rng.integers(-1, 2)) if allow_n_powers else 0
        terms.append(((central, tuple(factors)), QnCoeff.of(coeff, n_power)))
    p = TracePolynomial(mode, terms)
    if p.is_zero():
        return TracePolynomial.trace(((FIRST, min_word),), mode)
    return p


def straight_word_products(max_degree: int) -> list[tuple[tuple[int, int], ...]]:
    """All multisets of (p, q) exponent pairs with p+q >= 2 and total <= max_degree."""
    factors = [(p, d - p) for d in range(2, max_degree + 1) for p in range(d + 1)]
    out: list[tuple[tuple[int, int], ...]] = []

    def extend(start: int, remaining: int, chosen: list[tuple[int, int]]):
        if chosen:
            out.append(tuple(chosen))
        for i in range(start, len(factors)):
            p, q = factors[i]
            if p + q <= remaining:
                extend(i, remaining - (p + q), chosen + [(p, q)])

    extend(0, max_degree, [])
    return out


def straight_product_poly(words: tuple[tuple[int, int], ...]) -> TracePolynomial:
    key = (
        (0, 0),
        tuple(canonicalize(((FIRST, p), (SECOND, q))) for p, q in words),
    )
    return TracePolynomial(TRACELESS, [(key, QnCoeff.one())])


def conjugate_values(pool, p: TracePolynomial) -> np.ndarray:
    """p's values at the points (X, -Y) of an exact pool: the values at
    (X, Y) of p with B -> -B, where a term of B-degree b, central exponent
    counted, changes by (-1)^b."""
    terms = {}
    for (central, factors), coeff in p.items():
        b = central[1] + sum(w.bidegree()[1] for w in factors)
        terms[(central, factors)] = -coeff if b % 2 else coeff
    return pool.values(TracePolynomial.from_canonical(p.mode, terms))


def same(p: TracePolynomial, q: TracePolynomial) -> None:
    """Equal as polynomials, with the same term order and the same coefficients."""
    assert p.mode == q.mode
    assert list(p.items()) == list(q.items())
    assert [list(c.terms.items()) for _, c in p.items()] == [list(c.terms.items()) for _, c in q.items()]


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
