"""Text grammar for trace polynomials.

    poly     := term (('+'|'-') term)*
    term     := coeff | coeff? ('*'? factor)+
    factor   := 'tr(' wordExpr ')'
    wordExpr := (('A'|'B'|'X'|'Y') ('^' int)?)+
    coeff    := rational ('*'? npart)? | npart
    npart    := 'n' ('^' sint)?
    rational := sint ('/' int)?
    sint     := ('+'|'-')? int
    int      := [0-9]+

Whitespace-insensitive.  Plain mode words use letters X, Y; traceless mode
words use A, B, and tr(X), tr(Y) denote the central scalar symbols left
over by the traceless substitution.  A bare coefficient is accepted as a
constant term (the bracket {tr X, tr Y} = n needs one).

Printing of canonical forms is deterministic and round-trips bit-stably.
"""

from __future__ import annotations

from fractions import Fraction
from .poly import PLAIN, TRACELESS, MonKey, TracePolynomial, _monomial_order
from .ring import QnCoeff
from .words import FIRST, SECOND, CyclicWord, Word, canonicalize

_WORD_LETTERS = {PLAIN: {"X": FIRST, "Y": SECOND}, TRACELESS: {"A": FIRST, "B": SECOND}}
_CENTRAL_LETTERS = {"X": FIRST, "Y": SECOND}
_RENDER = {PLAIN: "XY", TRACELESS: "AB"}


class PolynomialParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


# ----------------------------------------------------------------------
# formatting
# ----------------------------------------------------------------------

def _format_word(w: CyclicWord, mode: str) -> str:
    letters = _RENDER[mode]
    parts = []
    for letter, exp in w.runs:
        parts.append(letters[letter] + (f"^{exp}" if exp > 1 else ""))
    return " ".join(parts)


def format_term(coeff_rat: Fraction, n_power: int, central, factors, mode: str) -> tuple[int, str]:
    """Render one (rational, n-power, monomial) term; returns (sign, body)."""
    sign = -1 if coeff_rat < 0 else 1
    mag = -coeff_rat if coeff_rat < 0 else coeff_rat
    pieces: list[str] = []
    atoms: list[str] = [f"tr({_format_word(w, mode)})" for w in factors]
    atoms += ["tr(X)"] * central[0] + ["tr(Y)"] * central[1]
    if n_power:
        pieces.append("n" if n_power == 1 else f"n^{n_power}")
    if mag != 1 or not (pieces or atoms):
        pieces.insert(0, str(mag))
    pieces.extend(atoms)
    return sign, "*".join(pieces)


def format_terms(terms, mode: str) -> str:
    """Render a list of (QnCoeff, central, factors) raw terms canonically."""
    expanded = []
    for coeff, central, factors in terms:
        key = (central, tuple(sorted(factors, key=lambda w: (w.degree(), w.runs))))
        for n_power, rat in sorted(coeff.terms.items(), reverse=True):
            expanded.append((_monomial_order(key), -n_power, rat, n_power, key))
    if not expanded:
        return "0"
    expanded.sort(key=lambda t: (t[0], t[1]))
    out = []
    for _, _, rat, n_power, key in expanded:
        sign, body = format_term(rat, n_power, key[0], key[1], mode)
        if not out:
            out.append(("-" if sign < 0 else "") + body)
        else:
            out.append(("- " if sign < 0 else "+ ") + body)
    return " ".join(out)


def format_polynomial(p: TracePolynomial) -> str:
    terms = [(coeff, key[0], key[1]) for key, coeff in p.items()]
    return format_terms(terms, p.mode)


# ----------------------------------------------------------------------
# parsing
# ----------------------------------------------------------------------

class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _line_col(self, pos: int) -> tuple[int, int]:
        line = self.text.count("\n", 0, pos) + 1
        last_nl = self.text.rfind("\n", 0, pos)
        return line, pos - last_nl

    def error(self, message: str, pos: int | None = None):
        line, col = self._line_col(self.pos if pos is None else pos)
        raise PolynomialParseError(message, line, col)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self, expected: str) -> bool:
        self.skip_ws()
        if self.text.startswith(expected, self.pos):
            self.pos += len(expected)
            return True
        return False

    def expect(self, expected: str):
        if not self.eat(expected):
            self.error(f"expected {expected!r}")

    def integer(self, signed: bool = True) -> int:
        self.skip_ws()
        start = self.pos
        if signed and self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if self.pos == digits:
            self.error("expected an integer", start)
        return int(self.text[start:self.pos])


def _parse_rational(sc: _Scanner) -> Fraction:
    num = sc.integer()
    if sc.eat("/"):
        den = sc.integer(signed=False)
        if den == 0:
            sc.error("zero denominator")
        return Fraction(num, den)
    return Fraction(num)


def _parse_npart(sc: _Scanner) -> int:
    # caller has checked that 'n' is next
    sc.expect("n")
    if sc.eat("^"):
        return sc.integer()
    return 1


def _parse_word(sc: _Scanner, mode: str):
    """Parse a wordExpr; returns ('word', CyclicWord) or ('central', letter)."""
    entries: list[tuple[str, int, int]] = []  # (letter char, exponent, position)
    while True:
        sc.skip_ws()
        if sc.pos == len(sc.text) or sc.text[sc.pos] not in "ABXY":
            break
        ch = sc.text[sc.pos]
        pos = sc.pos
        sc.pos += 1
        exp = 1
        if sc.eat("^"):
            exp = sc.integer()
        entries.append((ch, exp, pos))
    if not entries:
        sc.error("expected a word letter")
    word_map = _WORD_LETTERS[mode]
    if all(ch in word_map for ch, _, _ in entries):
        runs = []
        for ch, exp, pos in entries:
            if exp < 1:
                sc.error(f"word exponent must be >= 1, got {exp}", pos)
            runs.append((word_map[ch], exp))
        return "word", canonicalize(Word(tuple(runs)))
    if mode == TRACELESS and len(entries) == 1 and entries[0][0] in _CENTRAL_LETTERS:
        ch, exp, pos = entries[0]
        if exp != 1:
            sc.error(f"central symbol tr({ch}) cannot carry exponent {exp}", pos)
        return "central", _CENTRAL_LETTERS[ch]
    bad = next((e for e in entries if e[0] not in word_map), entries[0])
    sc.error(f"letter {bad[0]!r} is not valid in {mode} mode", bad[2])


def _parse_term(sc: _Scanner, mode: str, negate: bool) -> tuple[MonKey, QnCoeff]:
    """One raw term: its unsorted monomial key and its coefficient."""
    rational = Fraction(1)
    n_power = 0
    have_coeff = False
    ch = sc.peek()
    if "0" <= ch <= "9" or ch in "+-":
        rational = _parse_rational(sc)
        have_coeff = True
        sc.eat("*")
    if sc.peek() == "n":
        n_power = _parse_npart(sc)
        have_coeff = True
        sc.eat("*")
    central = [0, 0]
    factors: list[CyclicWord] = []
    have_factor = False
    while True:
        sc.skip_ws()
        if not sc.text.startswith("tr", sc.pos):
            break
        sc.pos += 2
        sc.expect("(")
        kind, value = _parse_word(sc, mode)
        sc.expect(")")
        if kind == "word":
            factors.append(value)
        else:
            central[value] += 1
        have_factor = True
        sc.eat("*")
    if not have_factor and not have_coeff:
        sc.error("expected a coefficient or tr(...) factor")
    return (tuple(central), tuple(factors)), QnCoeff.of(-rational if negate else rational, n_power)


def parse_polynomial(text: str, mode: str) -> TracePolynomial:
    """Parse the text grammar into a canonical TracePolynomial."""
    if mode not in (PLAIN, TRACELESS):
        raise ValueError(f"unknown mode {mode!r}")
    sc = _Scanner(text)
    sc.skip_ws()
    if sc.pos == len(sc.text):
        sc.error("empty input")
    terms = []
    negate = sc.eat("-")
    if not negate:
        sc.eat("+")
    while True:
        terms.append(_parse_term(sc, mode, negate))
        sc.skip_ws()
        if sc.pos >= len(sc.text):
            return TracePolynomial(mode, terms)
        if sc.eat("-"):
            negate = True
        elif sc.eat("+"):
            negate = False
        else:
            sc.error(f"unexpected character {sc.text[sc.pos]!r}")
