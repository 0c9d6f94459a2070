"""Model phase spaces and direct products, with exact symbolic closures.

Three two-variable algebras share one invariant Poisson bracket.  Writing
z^a for z^{a_1} w^{a_2}, a space's symplectic form fixes a shift s with

    {z^a, z^b} = (a_1 b_2 - a_2 b_1) z^{a + b - s}

    plane    C[z, w]            s = (1, 1)   dz ^ dw
    cylinder C[z, w, w^-1]      s = (1, 0)   dz ^ dw/w
    torus    C[z^+-, w^+-]      s = (0, 0)   dz/z ^ dw/w

and an exponent may be negative exactly where its shift is 0.

Brackets of monomials are single monomials, so the Lie closure of a monomial
generator set is spanned by monomials and coverage reduces to an exact
reachability search on exponent pairs.

One immutable Element class serves every algebra: a model space
(LaurentAdapter), the traceless trace polynomials (TraceAdapter) and the
direct product of any two (ProductSpace), which is an algebra itself, so
products nest.  The product bracket brackets same-factor pairs by the factor
rule; cross-factor brackets vanish and mixed products follow Leibniz.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable

from .bracket import bracket as trace_bracket
from .poly import TRACELESS, TracePolynomial
from .ring import QnCoeff

PLANE = "plane"
CYLINDER = "cylinder"
TORUS = "torus"
SHIFTS = {PLANE: (1, 1), CYLINDER: (1, 0), TORUS: (0, 0)}

Expo = tuple[int, int]


def _shift(space: str) -> Expo:
    if space not in SHIFTS:
        raise ValueError(f"unknown space {space!r}")
    return SHIFTS[space]


def _exponent(space: str, e) -> Expo:
    """e as an exponent pair of the space: >= 0 where the shift is 1."""
    e = tuple(e)
    if any(x < 0 and s for x, s in zip(e, _shift(space))):
        raise ValueError(f"{space} monomials need exponents >= 0 where the shift is 1, got {e}")
    return e


def monomial_bracket(space: str, e1: Expo, e2: Expo) -> tuple[int, Expo]:
    """(coefficient, exponent) of {z^j w^k, z^p w^q} in the given space."""
    (j, k), (p, q), (sz, sw) = e1, e2, _shift(space)
    weight = j * q - k * p
    if weight == 0:
        return 0, (0, 0)
    return weight, (j + p - sz, k + q - sw)


def _collect(pairs) -> dict:
    """The {key: coeff} sum of (key, coeff) pairs, without zero coefficients."""
    acc: dict = {}
    for key, c in pairs:
        total = acc.pop(key) + c if key in acc else c
        if total != 0:
            acc[key] = total
    return acc


def _bilinear(f_terms: dict, g_terms: dict, rule) -> dict:
    """Sum over term pairs (k1, c1), (k2, c2) of c1 c2 times rule(k1, k2), a {key: c} dict."""
    return _collect(
        (key, c1 * c2 * c)
        for k1, c1 in f_terms.items()
        for k2, c2 in g_terms.items()
        for key, c in rule(k1, k2).items()
    )


class Element:
    """Immutable finite sum of an algebra's monomial keys with exact coefficients.

    The algebra (LaurentAdapter, TraceAdapter or ProductSpace) gives the
    monomials' products and brackets: one_key(), mul_key(k1, k2) and
    bracket_key(k1, k2) as {key: coeff} dicts.  Elements mix only with
    elements of an equal algebra."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms: Iterable = ()):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "terms", _collect(terms))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _like(self, terms: dict) -> "Element":
        """An element of this class and algebra whose terms are the zero-free dict terms."""
        out = object.__new__(type(self))
        object.__setattr__(out, "algebra", self.algebra)
        object.__setattr__(out, "terms", terms)
        return out

    def _require(self, other: "Element") -> None:
        if self.algebra != other.algebra:
            raise ValueError(f"algebra mismatch: {self.algebra!r} vs {other.algebra!r}")

    def __add__(self, other: "Element") -> "Element":
        self._require(other)
        return self._like(_collect(chain(self.terms.items(), other.terms.items())))

    def __sub__(self, other: "Element") -> "Element":
        return self + other * -1

    def __mul__(self, other) -> "Element":
        if not isinstance(other, Element):
            return self._like(_collect((k, c * other) for k, c in self.terms.items()))
        self._require(other)
        return self._like(_bilinear(self.terms, other.terms, self.algebra.mul_key))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Element":
        if k < 1:
            raise ValueError(f"{type(self).__name__} ** {k}: the exponent must be >= 1")
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, Element) and (self.algebra, self.terms) == (other.algebra, other.terms)


def model_bracket(f: Element, g: Element) -> Element:
    """The bilinear extension of the common algebra's bracket_key.

    On a ProductSpace this is {f1 (x) g1, f2 (x) g2} = {f1,f2} (x) g1 g2 +
    f1 f2 (x) {g1,g2}: cross-factor brackets vanish and mixed products follow
    Leibniz."""
    f._require(g)
    return f._like(_bilinear(f.terms, g.terms, f.algebra.bracket_key))


product_bracket = model_bracket


class LaurentPoly2(Element):
    """Exact two-variable (Laurent) polynomial attached to a model space."""

    __slots__ = ()

    def __init__(self, space: str, terms: Iterable[tuple[Expo, Fraction]] = ()):
        _shift(space)
        super().__init__(LaurentAdapter(space), ((_exponent(space, e), Fraction(c)) for e, c in terms))

    @property
    def space(self) -> str:
        return self.algebra.space

    @classmethod
    def monomial(cls, space: str, e: Expo, coeff=1) -> "LaurentPoly2":
        return cls(space, [(e, coeff)])

    def __repr__(self) -> str:
        body = " + ".join(f"{c}*z^{e[0]}*w^{e[1]}" for e, c in sorted(self.terms.items())) or "0"
        return f"LaurentPoly2[{self.space}]({body})"


# ----------------------------------------------------------------------
# exact symbolic coverage
# ----------------------------------------------------------------------

def coverage_box(space: str, degree_cap: int) -> set[Expo]:
    """Exponents in [-cap, cap], or in [0, cap] where the shift is 1; on the
    plane, where both shifts are 1, the total degree is at most cap too."""
    sz, sw = _shift(space)
    zs, ws = (range(-degree_cap * (1 - s), degree_cap + 1) for s in (sz, sw))
    return {(a, b) for a in zs for b in ws if a + b <= degree_cap or not (sz and sw)}


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
    gens = [_exponent(space, e) for e in generator_exponents]
    work = box | set(gens)
    reached: set[Expo] = set(gens)
    frontier = list(gens)
    while frontier:
        new: list[Expo] = []
        snapshot = sorted(reached)
        fresh = set(frontier)
        for e1 in sorted(frontier):
            for e2 in snapshot:
                # {e2, e1} = -{e1, e2}: one order per unordered pair
                if e2 < e1 and e2 in fresh:
                    continue
                weight, target = monomial_bracket(space, e1, e2)
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

def _own_terms(algebra, element: Element) -> dict:
    """decompose(element) of an algebra whose elements are Elements."""
    if element.algebra != algebra:
        raise ValueError(f"{element!r} is not an element of {algebra!r}")
    return dict(element.terms)


@dataclass(frozen=True)
class LaurentAdapter:
    """Model-space factor: exponent pairs of LaurentPoly2 monomials."""

    space: str

    def one_key(self):
        return (0, 0)

    def mul_key(self, k1, k2):
        return {(k1[0] + k2[0], k1[1] + k2[1]): Fraction(1)}

    def bracket_key(self, k1, k2):
        weight, target = monomial_bracket(self.space, k1, k2)
        return {} if weight == 0 else {target: Fraction(weight)}

    decompose = _own_terms


class TraceAdapter:
    """Matrix-pair factor: monomial keys of traceless trace polynomials."""

    def one_key(self):
        return ((0, 0), ())

    def _monomial(self, key) -> TracePolynomial:
        return TracePolynomial(TRACELESS, [(key, QnCoeff.one())])

    def mul_key(self, k1, k2):
        return dict((self._monomial(k1) * self._monomial(k2)).items())

    def bracket_key(self, k1, k2):
        return dict(trace_bracket(self._monomial(k1), self._monomial(k2)).items())

    def decompose(self, poly: TracePolynomial):
        if poly.mode != TRACELESS:
            raise ValueError("mode mismatch")
        return dict(poly.items())


def _tensor(left: dict, right: dict):
    """The (key, coeff) pairs of a left {key: coeff} dict tensor a right one."""
    return (((lk, rk), lc * rc) for lk, lc in left.items() for rk, rc in right.items())


class ProductSpace:
    """Poisson algebra of a two-factor product of algebras (see Element), so
    products nest.  A monomial is a pair (left key, right key); a factor's
    decompose(poly) gives poly's {key: coeff} dict.  Elements of two
    ProductSpace objects never mix, even with equal factors."""

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def one_key(self):
        return (self.left.one_key(), self.right.one_key())

    def mul_key(self, k1, k2):
        return dict(_tensor(self.left.mul_key(k1[0], k2[0]), self.right.mul_key(k1[1], k2[1])))

    def bracket_key(self, k1, k2):
        """{f1 (x) g1, f2 (x) g2} = {f1,f2} (x) g1 g2 + f1 f2 (x) {g1,g2}."""
        left, right = self.left, self.right
        return _collect(chain(
            _tensor(left.bracket_key(k1[0], k2[0]), right.mul_key(k1[1], k2[1])),
            _tensor(left.mul_key(k1[0], k2[0]), right.bracket_key(k1[1], k2[1])),
        ))

    decompose = _own_terms

    def embed_left(self, poly) -> Element:
        rk = self.right.one_key()
        return Element(self, (((k, rk), c) for k, c in self.left.decompose(poly).items()))

    def embed_right(self, poly) -> Element:
        lk = self.left.one_key()
        return Element(self, (((lk, k), c) for k, c in self.right.decompose(poly).items()))
