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

Direct products carry the product bracket: same-factor pairs bracket by the
factor rule, cross-factor brackets vanish, and mixed products follow Leibniz.
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


def _check_exponent(space: str, e: Expo) -> None:
    if any(x < 0 and s for x, s in zip(e, _shift(space))):
        raise ValueError(f"{space} monomials need exponents >= 0 where the shift is 1, got {e}")


def monomial_bracket(space: str, e1: Expo, e2: Expo) -> tuple[int, Expo]:
    """(coefficient, exponent) of {z^j w^k, z^p w^q} in the given space."""
    (j, k), (p, q), (sz, sw) = e1, e2, _shift(space)
    weight = j * q - k * p
    if weight == 0:
        return 0, (0, 0)
    return weight, (j + p - sz, k + q - sw)


def _add(acc: dict, key, coeff) -> None:
    """acc[key] += coeff, dropping the key when the sum is zero."""
    total = acc.pop(key) + coeff if key in acc else coeff
    if total != 0:
        acc[key] = total


def _bilinear(f_terms: dict, g_terms: dict, rule) -> dict:
    """Sum over term pairs (k1, c1), (k2, c2) of c1 c2 times rule(k1, k2)'s (key, c) pairs."""
    acc: dict = {}
    for k1, c1 in f_terms.items():
        for k2, c2 in g_terms.items():
            for key, c in rule(k1, k2):
                _add(acc, key, c1 * c2 * c)
    return acc


class LaurentPoly2:
    """Exact two-variable (Laurent) polynomial attached to a model space."""

    __slots__ = ("space", "terms")

    def __init__(self, space: str, terms: Iterable[tuple[Expo, Fraction]] = ()):
        _shift(space)
        acc: dict[Expo, Fraction] = {}
        for e, c in terms:
            _check_exponent(space, e)
            _add(acc, e, Fraction(c))
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

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentPoly2)
            and self.space == other.space
            and self.terms == other.terms
        )

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
    key = LaurentAdapter(f.space).bracket_key
    return LaurentPoly2(f.space, _bilinear(f.terms, g.terms, lambda a, b: key(a, b).items()).items())


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

class LaurentAdapter:
    def __init__(self, space: str):
        self.space = space

    def one_key(self):
        return (0, 0)

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


class ProductSpace:
    """Poisson algebra of a two-factor product, built from factor adapters.

    An adapter (LaurentAdapter, TraceAdapter) exposes one factor's monomials:
    one_key(), mul_key(k1, k2) and bracket_key(k1, k2) as {key: coeff} dicts,
    and decompose(poly) into such a dict."""

    def __init__(self, left, right):
        self.left = left
        self.right = right

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


def _tensor(left: dict, right: dict):
    """The (key, coeff) pairs of a left {key: coeff} dict tensor a right one."""
    return (((lk, rk), lc * rc) for lk, lc in left.items() for rk, rc in right.items())


class ProductElement:
    """Finite sum of pure tensors f (x) g with exact coefficients."""

    def __init__(self, space: ProductSpace, terms: dict):
        self.space = space
        self.terms = {key: c for key, c in terms.items() if c != 0}

    def _require(self, other: "ProductElement"):
        if self.space is not other.space:
            raise ValueError("elements from different product spaces")

    def __add__(self, other: "ProductElement") -> "ProductElement":
        self._require(other)
        acc = dict(self.terms)
        for k, c in other.terms.items():
            _add(acc, k, c)
        return ProductElement(self.space, acc)

    def __sub__(self, other: "ProductElement") -> "ProductElement":
        return self + other * -1

    def __mul__(self, other) -> "ProductElement":
        if not isinstance(other, ProductElement):
            return ProductElement(self.space, {k: c * other for k, c in self.terms.items()})
        self._require(other)
        left, right = self.space.left, self.space.right
        return ProductElement(self.space, _bilinear(
            self.terms, other.terms,
            lambda a, b: _tensor(left.mul_key(a[0], b[0]), right.mul_key(a[1], b[1])),
        ))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "ProductElement":
        if k < 1:
            raise ValueError(f"ProductElement ** {k}: the exponent must be >= 1")
        out = self
        for _ in range(k - 1):
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


def product_bracket(f: ProductElement, g: ProductElement) -> ProductElement:
    """{f1 (x) g1, f2 (x) g2} = {f1,f2} (x) g1 g2 + f1 f2 (x) {g1,g2}.

    Cross-factor brackets vanish; mixed products follow Leibniz through the
    factor-level expansion.
    """
    f._require(g)
    left, right = f.space.left, f.space.right
    return ProductElement(f.space, _bilinear(f.terms, g.terms, lambda a, b: chain(
        _tensor(left.bracket_key(a[0], b[0]), right.mul_key(a[1], b[1])),
        _tensor(left.mul_key(a[0], b[0]), right.bracket_key(a[1], b[1])),
    )))
