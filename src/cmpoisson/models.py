"""Model phase spaces and direct products, with exact symbolic closures.

Three two-variable algebras with their invariant Poisson brackets:

    plane    C[z, w]            {z^j, w^k} = jk z^{j-1} w^{k-1}   (dz ^ dw)
    cylinder C[z, w, w^-1]      {z^j, w^k} = jk z^{j-1} w^k       (dz ^ dw/w)
    torus    C[z^+-, w^+-]      {z^j, w^k} = jk z^j w^k           (dz/z ^ dw/w)

Brackets of monomials are single monomials, so the Lie closure of a monomial
generator set is spanned by monomials and coverage reduces to an exact
reachability search on exponent pairs.

Direct products carry the product bracket: same-factor pairs bracket by the
factor rule, cross-factor brackets vanish, and mixed products follow Leibniz.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from .bracket import bracket as trace_bracket
from .poly import TRACELESS, TracePolynomial
from .ring import QnCoeff

PLANE = "plane"
CYLINDER = "cylinder"
TORUS = "torus"
SPACES = (PLANE, CYLINDER, TORUS)

Expo = tuple[int, int]


def _check_exponent(space: str, e: Expo) -> None:
    j, k = e
    if space == PLANE and (j < 0 or k < 0):
        raise ValueError(f"plane monomials need nonnegative exponents, got {e}")
    if space == CYLINDER and j < 0:
        raise ValueError(f"cylinder monomials need z-exponent >= 0, got {e}")


def monomial_bracket(space: str, e1: Expo, e2: Expo) -> tuple[int, Expo]:
    """(coefficient, exponent) of {z^j w^k, z^p w^q} in the given space."""
    j, k = e1
    p, q = e2
    weight = j * q - k * p
    if space == PLANE:
        target = (j + p - 1, k + q - 1)
    elif space == CYLINDER:
        target = (j + p - 1, k + q)
    elif space == TORUS:
        target = (j + p, k + q)
    else:
        raise ValueError(f"unknown space {space!r}")
    if weight == 0:
        return 0, (0, 0)
    return weight, target


class LaurentPoly2:
    """Exact two-variable (Laurent) polynomial attached to a model space."""

    __slots__ = ("space", "terms")

    def __init__(self, space: str, terms: Iterable[tuple[Expo, Fraction]] = ()):
        if space not in SPACES:
            raise ValueError(f"unknown space {space!r}")
        acc: dict[Expo, Fraction] = {}
        for e, c in dict(terms).items() if isinstance(terms, dict) else terms:
            _check_exponent(space, e)
            c = Fraction(c)
            if c == 0:
                continue
            c += acc.get(e, Fraction(0))
            if c == 0:
                acc.pop(e, None)
            else:
                acc[e] = c
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "terms", acc)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly2 is immutable")

    @classmethod
    def monomial(cls, space: str, e: Expo, coeff=1) -> "LaurentPoly2":
        return cls(space, [(e, Fraction(coeff))])

    def is_zero(self) -> bool:
        return not self.terms

    def _require_space(self, other: "LaurentPoly2"):
        if self.space != other.space:
            raise ValueError(f"space mismatch: {self.space} vs {other.space}")

    def __add__(self, other: "LaurentPoly2") -> "LaurentPoly2":
        self._require_space(other)
        return LaurentPoly2(self.space, list(self.terms.items()) + list(other.terms.items()))

    def __neg__(self) -> "LaurentPoly2":
        return LaurentPoly2(self.space, [(e, -c) for e, c in self.terms.items()])

    def __sub__(self, other: "LaurentPoly2") -> "LaurentPoly2":
        return self + (-other)

    def __mul__(self, other) -> "LaurentPoly2":
        if isinstance(other, (int, Fraction)):
            return LaurentPoly2(self.space, [(e, c * Fraction(other)) for e, c in self.terms.items()])
        self._require_space(other)
        out: dict[Expo, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = (e1[0] + e2[0], e1[1] + e2[1])
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return LaurentPoly2(self.space, list(out.items()))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentPoly2":
        out = LaurentPoly2.monomial(self.space, (0, 0))
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentPoly2)
            and self.space == other.space
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.space, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return f"LaurentPoly2[{self.space}](0)"
        body = " + ".join(
            f"{c}*z^{e[0]}*w^{e[1]}" for e, c in sorted(self.terms.items())
        )
        return f"LaurentPoly2[{self.space}]({body})"


def model_bracket(f: LaurentPoly2, g: LaurentPoly2) -> LaurentPoly2:
    """Bilinear extension of the monomial bracket rule of the common space."""
    f._require_space(g)
    terms: dict[Expo, Fraction] = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            weight, target = monomial_bracket(f.space, e1, e2)
            if weight == 0:
                continue
            terms[target] = terms.get(target, Fraction(0)) + c1 * c2 * weight
    return LaurentPoly2(f.space, list(terms.items()))


# ----------------------------------------------------------------------
# exact symbolic coverage
# ----------------------------------------------------------------------

def coverage_box(space: str, degree_cap: int) -> set[Expo]:
    if space == PLANE:
        return {(a, b) for a in range(degree_cap + 1) for b in range(degree_cap + 1) if a + b <= degree_cap}
    if space == CYLINDER:
        return {(j, k) for j in range(degree_cap + 1) for k in range(-degree_cap, degree_cap + 1)}
    if space == TORUS:
        return {
            (j, k)
            for j in range(-degree_cap, degree_cap + 1)
            for k in range(-degree_cap, degree_cap + 1)
        }
    raise ValueError(f"unknown space {space!r}")


@dataclass
class ModelGenerationReport:
    space: str
    degree_cap: int
    generators: list[Expo]
    reached: set[Expo]
    unreached: list[Expo]

    @property
    def passed(self) -> bool:
        return not self.unreached


def model_generation(
    space: str, generator_exponents: Iterable[Expo], degree_cap: int
) -> ModelGenerationReport:
    """Exact symbolic Lie closure of monomial generators, as a reachability
    search: {z^a w^b, z^c w^d} is the single monomial (ad - bc) z^.. w^.., so
    the closure's monomial support is closed under nonzero-weight brackets.

    Coverage requires every monomial in the space's exponent box except the
    constant (0, 0), which corresponds to the zero Hamiltonian field (and is
    genuinely unreachable on the torus).
    """
    box = coverage_box(space, degree_cap)
    gens = []
    for e in generator_exponents:
        _check_exponent(space, tuple(e))
        gens.append(tuple(e))
    work = set(box)
    work.update(gens)
    reached: set[Expo] = set(gens)
    frontier = list(gens)
    while frontier:
        new: list[Expo] = []
        snapshot = sorted(reached)
        for e1 in sorted(frontier):
            for e2 in snapshot:
                for a, b in ((e1, e2), (e2, e1)):
                    weight, target = monomial_bracket(space, a, b)
                    if weight != 0 and target in work and target not in reached:
                        reached.add(target)
                        new.append(target)
        frontier = new
    required = box - {(0, 0)}
    unreached = sorted(required - reached)
    return ModelGenerationReport(space, degree_cap, sorted(gens), reached, unreached)


def default_generators(space: str, degree_cap: int) -> list[Expo]:
    """Pure-power generator sets matching the model-space lemmas."""
    if space == PLANE:
        return [(j, 0) for j in range(1, degree_cap + 2)] + [
            (0, k) for k in range(1, degree_cap + 2)
        ]
    if space == CYLINDER:
        return [(j, 0) for j in range(1, degree_cap + 2)] + [
            (0, k) for k in range(-degree_cap, degree_cap + 1) if k != 0
        ]
    if space == TORUS:
        return [
            (j, 0) for j in (-2, -1, 1, 2)
        ] + [(0, k) for k in (-2, -1, 1, 2)]
    raise ValueError(f"unknown space {space!r}")


# ----------------------------------------------------------------------
# direct products
# ----------------------------------------------------------------------

class LaurentAdapter:
    def __init__(self, space: str):
        self.space = space

    def one_key(self):
        return (0, 0)

    def coeff_one(self):
        return Fraction(1)

    def mul_key(self, k1, k2):
        return {(k1[0] + k2[0], k1[1] + k2[1]): Fraction(1)}

    def bracket_key(self, k1, k2):
        weight, target = monomial_bracket(self.space, k1, k2)
        return {} if weight == 0 else {target: Fraction(weight)}

    def decompose(self, poly: LaurentPoly2):
        if poly.space != self.space:
            raise ValueError("space mismatch")
        return dict(poly.terms)


class TraceAdapter:
    """Matrix-pair factor: monomial keys of traceless trace polynomials."""

    def __init__(self, mode: str = TRACELESS):
        self.mode = mode

    def one_key(self):
        return ((0, 0), ())

    def coeff_one(self):
        return QnCoeff.one()

    def mul_key(self, k1, k2):
        merged = TracePolynomial(self.mode, [(k1, QnCoeff.one())]) * TracePolynomial(
            self.mode, [(k2, QnCoeff.one())]
        )
        return dict(merged.items())

    def bracket_key(self, k1, k2):
        result = trace_bracket(
            TracePolynomial(self.mode, [(k1, QnCoeff.one())]),
            TracePolynomial(self.mode, [(k2, QnCoeff.one())]),
        )
        return dict(result.items())

    def decompose(self, poly: TracePolynomial):
        if poly.mode != self.mode:
            raise ValueError("mode mismatch")
        return dict(poly.items())


class ProductSpace:
    """Poisson algebra of a two-factor product, built from factor adapters.

    An adapter (LaurentAdapter, TraceAdapter) exposes one factor's monomials:
    one_key(), coeff_one(), mul_key(k1, k2) and bracket_key(k1, k2) as
    {key: coeff} dicts, and decompose(poly) into such a dict."""

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def zero(self) -> "ProductElement":
        return ProductElement(self, {})

    def element(self, terms: dict) -> "ProductElement":
        return ProductElement(self, terms)

    def embed_left(self, poly) -> "ProductElement":
        rk = self.right.one_key()
        return ProductElement(
            self, {(k, rk): c for k, c in self.left.decompose(poly).items()}
        )

    def embed_right(self, poly) -> "ProductElement":
        lk = self.left.one_key()
        return ProductElement(
            self, {(lk, k): c for k, c in self.right.decompose(poly).items()}
        )


class ProductElement:
    """Finite sum of pure tensors f (x) g with exact coefficients."""

    def __init__(self, space: ProductSpace, terms: dict):
        self.space = space
        clean = {}
        for key, coeff in terms.items():
            if _coeff_is_zero(coeff):
                continue
            clean[key] = coeff
        self.terms = clean

    def _require(self, other: "ProductElement"):
        if self.space is not other.space:
            raise ValueError("elements from different product spaces")

    def __add__(self, other: "ProductElement") -> "ProductElement":
        self._require(other)
        acc = dict(self.terms)
        for k, c in other.terms.items():
            s = acc.get(k)
            acc[k] = c if s is None else s + c
        return ProductElement(self.space, acc)

    def __neg__(self) -> "ProductElement":
        return ProductElement(self.space, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "ProductElement") -> "ProductElement":
        return self + (-other)

    def __mul__(self, other) -> "ProductElement":
        if not isinstance(other, ProductElement):
            return ProductElement(self.space, {k: c * other for k, c in self.terms.items()})
        self._require(other)
        acc: dict = {}
        for (l1, r1), c1 in self.terms.items():
            for (l2, r2), c2 in other.terms.items():
                for lk, lc in self.space.left.mul_key(l1, l2).items():
                    for rk, rc in self.space.right.mul_key(r1, r2).items():
                        key = (lk, rk)
                        add = c1 * c2 * lc * rc
                        s = acc.get(key)
                        acc[key] = add if s is None else s + add
        return ProductElement(self.space, acc)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "ProductElement":
        one = ProductElement(
            self.space,
            {(self.space.left.one_key(), self.space.right.one_key()): _coeff_one_like(self)},
        )
        out = one
        for _ in range(k):
            out = out * self
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ProductElement)
            and self.space is other.space
            and self.terms == other.terms
        )


def _coeff_is_zero(c) -> bool:
    if isinstance(c, QnCoeff):
        return c.is_zero()
    return c == 0


def _coeff_one_like(elem: ProductElement):
    return elem.space.left.coeff_one() * elem.space.right.coeff_one()


def product_bracket(f: ProductElement, g: ProductElement) -> ProductElement:
    """{f1 (x) g1, f2 (x) g2} = {f1,f2} (x) g1 g2 + f1 f2 (x) {g1,g2}.

    Cross-factor brackets vanish; mixed products follow Leibniz through the
    factor-level expansion.
    """
    f._require(g)
    space = f.space
    acc: dict = {}

    def put(lk, rk, coeff):
        if _coeff_is_zero(coeff):
            return
        key = (lk, rk)
        s = acc.get(key)
        acc[key] = coeff if s is None else s + coeff

    for (l1, r1), c1 in f.terms.items():
        for (l2, r2), c2 in g.terms.items():
            base = c1 * c2
            for lk, lc in space.left.bracket_key(l1, l2).items():
                for rk, rc in space.right.mul_key(r1, r2).items():
                    put(lk, rk, base * lc * rc)
            for lk, lc in space.left.mul_key(l1, l2).items():
                for rk, rc in space.right.bracket_key(r1, r2).items():
                    put(lk, rk, base * lc * rc)
    return ProductElement(space, acc)
