"""Conjugation-invariant trace polynomials in two matrix letters.

A TracePolynomial is an exact sum of monomials
    coeff(n) * (tr X)^a (tr Y)^b * prod_k tr(W_k)
with coeff in Q[n, n^-1] and the W_k cyclic words.  Two variable modes:

* plain       -- letters are X, Y; no central symbols (a = b = 0).
* traceless   -- letters are A = X - (tr X/n) I and B = Y - (tr Y/n) I;
                 tr A and tr B vanish identically, so any length-1 factor
                 kills its monomial; the scalars tr X, tr Y survive the
                 substitution as central symbols with exponents (a, b).

The empty word's trace is the scalar n (tr I), folded into the coefficient
at construction so canonical forms stay unique.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product as iter_product
from typing import Iterable, Iterator

from .ring import QnCoeff
from .words import FIRST, SECOND, CyclicWord, Run, Word, canonicalize, merge_runs

PLAIN = "plain"
TRACELESS = "traceless"

MINUS_INF = float("-inf")

# monomial key: ((central_x, central_y), sorted tuple of CyclicWord factors)
Central = tuple[int, int]
MonKey = tuple[Central, tuple[CyclicWord, ...]]


def _factor_sort_key(w: CyclicWord):
    return (w.degree(), w.runs)


def _normalize_term(
    mode: str, coeff: QnCoeff, central: Central, factors: Iterable[CyclicWord]
) -> tuple[MonKey, QnCoeff] | None:
    """Canonicalize one raw term; returns None when the term vanishes."""
    if mode == PLAIN and central != (0, 0):
        raise ValueError("central symbols are only meaningful in traceless mode")
    kept: list[CyclicWord] = []
    for w in factors:
        if w.is_empty():
            coeff = coeff.times_n_power(1)  # tr I = n
            continue
        if mode == TRACELESS and w.degree() == 1:
            return None  # tr A = tr B = 0
        kept.append(w)
    if coeff.is_zero():
        return None
    kept.sort(key=_factor_sort_key)
    return (central, tuple(kept)), coeff


class TracePolynomial:
    """Exact trace polynomial in canonical form. Immutable."""

    __slots__ = ("mode", "_terms", "_hash")

    def __init__(self, mode: str, terms: Iterable[tuple[MonKey, QnCoeff]] = ()):
        if mode not in (PLAIN, TRACELESS):
            raise ValueError(f"unknown mode {mode!r}")
        acc: dict[MonKey, QnCoeff] = {}
        for key, coeff in terms:
            normalized = _normalize_term(mode, coeff, key[0], key[1])
            if normalized is None:
                continue
            nkey, ncoeff = normalized
            merged = acc.get(nkey, QnCoeff.zero()) + ncoeff
            if merged.is_zero():
                acc.pop(nkey, None)
            else:
                acc[nkey] = merged
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "_terms", acc)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def from_canonical(cls, mode: str, terms: dict[MonKey, QnCoeff]) -> "TracePolynomial":
        """Wrap a dict of canonical keys and nonzero coefficients without copying."""
        out = object.__new__(cls)
        object.__setattr__(out, "mode", mode)
        object.__setattr__(out, "_terms", terms)
        object.__setattr__(out, "_hash", None)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("TracePolynomial is immutable")

    # ---------------- constructors ----------------

    @classmethod
    def zero(cls, mode: str) -> "TracePolynomial":
        return cls(mode)

    @classmethod
    def constant(cls, coeff, mode: str) -> "TracePolynomial":
        c = coeff if isinstance(coeff, QnCoeff) else QnCoeff.of(coeff)
        return cls(mode, [(((0, 0), ()), c)])

    @classmethod
    def trace(cls, runs: Iterable[Run] | Word | CyclicWord, mode: str, coeff=1) -> "TracePolynomial":
        """coeff * tr(word)."""
        if isinstance(runs, CyclicWord):
            w = runs
        elif isinstance(runs, Word):
            w = canonicalize(runs)
        else:
            w = canonicalize(Word(merge_runs(runs)))
        c = coeff if isinstance(coeff, QnCoeff) else QnCoeff.of(coeff)
        return cls(mode, [(((0, 0), (w,)), c)])

    @classmethod
    def central_scalar(cls, letter: int, power: int = 1) -> "TracePolynomial":
        """(tr X)^power or (tr Y)^power as a traceless-mode central symbol."""
        central = (power, 0) if letter == FIRST else (0, power)
        return cls(TRACELESS, [((central, ()), QnCoeff.one())])

    # ---------------- inspection ----------------

    def items(self) -> Iterator[tuple[MonKey, QnCoeff]]:
        return iter(self._terms.items())

    def __len__(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, key: MonKey) -> QnCoeff:
        return self._terms.get(key, QnCoeff.zero())

    def canonical_key(self):
        """Hashable canonical identity, usable for dedup."""
        return (self.mode, tuple(sorted(self._terms.items(), key=lambda kv: _monomial_order(kv[0]))))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TracePolynomial)
            and self.mode == other.mode
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self.canonical_key()))
        return self._hash

    def __repr__(self) -> str:
        from .grammar import format_polynomial

        return f"TracePolynomial[{self.mode}]({format_polynomial(self)})"

    # ---------------- ring operations ----------------

    def _require_same_mode(self, other: "TracePolynomial") -> None:
        if self.mode != other.mode:
            raise ValueError(f"mode mismatch: {self.mode} vs {other.mode}")

    # Operands are canonical, so results are built by merging terms straight
    # into one dict (merge_terms, merge_product): the same get/add/pop sequence
    # as the constructor, in the same order, without normalizing each key again.

    def __add__(self, other: "TracePolynomial") -> "TracePolynomial":
        if not isinstance(other, TracePolynomial):
            return NotImplemented
        self._require_same_mode(other)
        acc = dict(self._terms)
        merge_terms(acc, other._terms.items())
        return TracePolynomial.from_canonical(self.mode, acc)

    def __neg__(self) -> "TracePolynomial":
        return TracePolynomial.from_canonical(self.mode, {k: -c for k, c in self._terms.items()})

    def __sub__(self, other: "TracePolynomial") -> "TracePolynomial":
        return self + (-other)

    def __mul__(self, other) -> "TracePolynomial":
        if isinstance(other, (int, Fraction, QnCoeff)):
            c = other if isinstance(other, QnCoeff) else QnCoeff.of(other)
            if c.is_zero():  # Q[n, n^-1] has no zero divisors
                return TracePolynomial.zero(self.mode)
            return TracePolynomial.from_canonical(self.mode, {k: v * c for k, v in self._terms.items()})
        if not isinstance(other, TracePolynomial):
            return NotImplemented
        self._require_same_mode(other)
        acc: dict[MonKey, QnCoeff] = {}
        for key, coeff in self._terms.items():
            merge_product(acc, key, coeff, other)
        return TracePolynomial.from_canonical(self.mode, acc)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "TracePolynomial":
        if k < 0:
            raise ValueError("negative power")
        out = TracePolynomial.constant(1, self.mode)
        for _ in range(k):
            out = out * self
        return out

    # ---------------- degree bookkeeping ----------------

    def bidegree(self):
        """Componentwise max over monomials; -inf for the zero polynomial."""
        if not self._terms:
            return MINUS_INF
        best = (0, 0)
        first = True
        for (central, factors), _ in self._terms.items():
            i, j = central
            for w in factors:
                wi, wj = w.bidegree()
                i += wi
                j += wj
            best = (i, j) if first else (max(best[0], i), max(best[1], j))
            first = False
        return best

    def degree(self):
        if not self._terms:
            return MINUS_INF
        return max(_term_degree(key) for key in self._terms)

    def truncate_below_degree(self, d: int) -> "TracePolynomial":
        """Drop all monomials of degree <= d (compare results 'mod d')."""
        return TracePolynomial.from_canonical(
            self.mode, {k: c for k, c in self._terms.items() if _term_degree(k) > d}
        )

    # ---------------- substitutions ----------------

    def to_traceless(self) -> "TracePolynomial":
        """Rewrite X = A + (tr X/n) I, Y = B + (tr Y/n) I and reduce tr A = tr B = 0.

        The scalars tr X, tr Y become central symbols of the result.
        """
        if self.mode != PLAIN:
            raise ValueError("to_traceless expects a plain-mode polynomial")
        acc: dict[MonKey, QnCoeff] = {}
        for (_, factors), coeff in self._terms.items():
            term = TracePolynomial.constant(coeff, TRACELESS)
            for w in factors:
                term = term * _expand_factor(w, sign=+1, target_mode=TRACELESS)
            merge_terms(acc, term.items())
        return TracePolynomial.from_canonical(TRACELESS, acc)

    def to_plain(self) -> "TracePolynomial":
        """Inverse substitution A = X - (tr X/n) I, B = Y - (tr Y/n) I."""
        if self.mode != TRACELESS:
            raise ValueError("to_plain expects a traceless-mode polynomial")
        one_x = TracePolynomial.trace(((FIRST, 1),), PLAIN)
        one_y = TracePolynomial.trace(((SECOND, 1),), PLAIN)
        acc: dict[MonKey, QnCoeff] = {}
        for (central, factors), coeff in self._terms.items():
            term = TracePolynomial.constant(coeff, PLAIN)
            term = term * one_x ** central[0] * one_y ** central[1]
            for w in factors:
                term = term * _expand_factor(w, sign=-1, target_mode=PLAIN)
            merge_terms(acc, term.items())
        return TracePolynomial.from_canonical(PLAIN, acc)

    def specialize_n(self, n_value: int) -> "TracePolynomial":
        """Collapse all coefficient powers of n at n = n_value."""
        terms = {}
        for k, c in self._terms.items():
            c = c.specialize(n_value)
            if not c.is_zero():
                terms[k] = c
        return TracePolynomial.from_canonical(self.mode, terms)

    def substitute_central(self, x_value=0, y_value=0) -> "TracePolynomial":
        """Replace the central symbols tr X, tr Y by exact scalars (default 0)."""
        if self.mode != TRACELESS:
            return self
        xv = x_value if isinstance(x_value, QnCoeff) else QnCoeff.of(x_value)
        yv = y_value if isinstance(y_value, QnCoeff) else QnCoeff.of(y_value)
        terms = []
        for (central, factors), coeff in self._terms.items():
            a, b = central
            scale = coeff
            for _ in range(a):
                scale = scale * xv
            for _ in range(b):
                scale = scale * yv
            terms.append((((0, 0), factors), scale))
        return TracePolynomial(TRACELESS, terms)

    def straighten(self) -> "TracePolynomial":
        """Collapse every trace factor of bidegree (i, j) to the straight word L1^i L2^j.

        Two trace polynomials that agree after straightening have the same
        leading part modulo the lower-degree identifications valid on the
        rank-condition variety.
        """
        terms = []
        for (central, factors), coeff in self._terms.items():
            straight = tuple(_straight_word(w) for w in factors)
            terms.append(((central, straight), coeff))
        return TracePolynomial(self.mode, terms)

    # ---------------- Cayley-Hamilton reduction ----------------

    def cayley_hamilton_reduce(self, n_value: int) -> "TracePolynomial":
        """Rewrite every single-letter run of exponent > n_value via the
        degree-n_value characteristic identity (sigma_k in power traces by
        Newton's identities).  Coefficients are specialized at n = n_value.
        The result agrees with the input as a function on n_value x n_value
        matrix pairs and has all run exponents <= n_value.
        """
        if n_value < 1:
            raise ValueError("n_value must be >= 1")
        work = self.specialize_n(n_value)
        while True:
            offender = _find_long_run(work, n_value)
            if offender is None:
                return work
            key, coeff, factor_idx, run_idx = offender
            central, factors = key
            w = factors[factor_idx]
            others = factors[:factor_idx] + factors[factor_idx + 1:]
            remaining = dict(work._terms)
            del remaining[key]
            replacement = _reduce_word_once(w, run_idx, n_value, self.mode)
            merge_product(remaining, (central, others), coeff, replacement)
            work = TracePolynomial.from_canonical(self.mode, remaining)


def merge_terms(acc: dict[MonKey, QnCoeff], terms: Iterable[tuple[MonKey, QnCoeff]]) -> None:
    """Add canonical terms with nonzero coefficients into acc in place, in
    order, dropping keys that cancel."""
    for key, coeff in terms:
        old = acc.get(key)
        if old is None:
            acc[key] = coeff
            continue
        coeff = old + coeff
        if coeff.is_zero():
            del acc[key]
        else:
            acc[key] = coeff


def merge_product(acc: dict[MonKey, QnCoeff], key: MonKey, coeff: QnCoeff, p: TracePolynomial) -> None:
    """Add coeff * monomial(key) * p into acc, term by term in p's order.

    key's factors must be canonical words (no empty or, in traceless mode,
    length-1 word) in any order, and coeff nonzero."""
    (cx, cy), f1 = key
    merge_terms(
        acc,
        (
            (((cx + c2x, cy + c2y), _sorted_factors(f1 + f2)), coeff * v2)
            for ((c2x, c2y), f2), v2 in p._terms.items()
        ),
    )


def _sorted_factors(factors: tuple[CyclicWord, ...]) -> tuple[CyclicWord, ...]:
    return tuple(sorted(factors, key=_factor_sort_key)) if len(factors) > 1 else factors


def _term_degree(key: MonKey) -> int:
    central, factors = key
    return central[0] + central[1] + sum(w.degree() for w in factors)


def _monomial_order(key: MonKey):
    central, factors = key
    return (
        _term_degree(key),
        len(factors) + central[0] + central[1],
        tuple(_factor_sort_key(w) for w in factors),
        central,
    )


def _straight_word(w: CyclicWord) -> CyclicWord:
    i, j = w.bidegree()
    return canonicalize(Word(merge_runs(((FIRST, i), (SECOND, j)))))


def _expand_factor(w: CyclicWord, sign: int, target_mode: str) -> TracePolynomial:
    """Expand tr(w) under letter -> letter' + sign*(scalar/n) I, one run at a time.

    sign=+1 with scalar = central symbol: plain word -> traceless expression.
    sign=-1 with scalar = tr of the length-1 word: traceless -> plain.
    """
    runs = w.runs
    per_run_choices = []
    for letter, exp in runs:
        choices = []
        for k in range(exp + 1):
            choices.append((letter, exp - k, k, Fraction(math.comb(exp, k)) * (sign ** k)))
        per_run_choices.append(choices)
    terms = []
    for combo in iter_product(*per_run_choices):
        kept_runs = tuple((letter, kept) for letter, kept, _, _ in combo if kept > 0)
        reduced = canonicalize(Word(merge_runs(kept_runs)))
        deleted_x = sum(k for letter, _, k, _ in combo if letter == FIRST)
        deleted_y = sum(k for letter, _, k, _ in combo if letter == SECOND)
        binom = Fraction(1)
        for _, _, _, c in combo:
            binom *= c
        coeff = QnCoeff.of(binom, -(deleted_x + deleted_y))
        if target_mode == TRACELESS:
            key = ((deleted_x, deleted_y), (reduced,))
        else:
            factors = [reduced]
            factors += [canonicalize(Word(((FIRST, 1),)))] * deleted_x
            factors += [canonicalize(Word(((SECOND, 1),)))] * deleted_y
            key = ((0, 0), tuple(factors))
        terms.append((key, coeff))
    return TracePolynomial(target_mode, terms)


@lru_cache(maxsize=256)
def _elementary_in_power_traces(letter: int, n_value: int, mode: str) -> tuple[TracePolynomial, ...]:
    """e_0..e_{n_value} of one letter's eigenvalues, in power traces p_i = tr L^i
    via Newton's identities k e_k = sum_{i<=k} (-1)^{i-1} e_{k-i} p_i.
    Cached: one table per (letter, n_value, mode)."""
    p = [None] + [
        TracePolynomial.trace(((letter, i),), mode) for i in range(1, n_value + 1)
    ]
    e: list[TracePolynomial] = [TracePolynomial.constant(1, mode)]
    for k in range(1, n_value + 1):
        acc = TracePolynomial.zero(mode)
        for i in range(1, k + 1):
            term = e[k - i] * p[i]
            acc = acc + (term if i % 2 == 1 else -term)
        e.append(acc * Fraction(1, k))
    return tuple(e)


def _find_long_run(p: TracePolynomial, n_value: int):
    for key, coeff in p._terms.items():
        _, factors = key
        for fi, w in enumerate(factors):
            for ri, (_, exp) in enumerate(w.runs):
                if exp > n_value:
                    return key, coeff, fi, ri
    return None


@lru_cache(maxsize=65536)
def _reduce_word_once(w: CyclicWord, run_idx: int, n_value: int, mode: str) -> TracePolynomial:
    """Apply L^n = sum_k (-1)^{k-1} e_k L^{n-k} to the run at run_idx of tr(w),
    with coefficients specialized at n = n_value.  Cached per argument tuple."""
    runs = w.runs
    letter, exp = runs[run_idx]
    elementary = _elementary_in_power_traces(letter, n_value, mode)
    rest = runs[run_idx + 1:] + runs[:run_idx]  # cut the cycle after the big run
    out = TracePolynomial.zero(mode)
    for k in range(1, n_value + 1):
        reduced = canonicalize(Word(merge_runs(((letter, exp - k),) + rest)))
        term = elementary[k] * TracePolynomial.trace(reduced, mode)
        out = out + (term if k % 2 == 1 else -term)
    return out.specialize_n(n_value)
