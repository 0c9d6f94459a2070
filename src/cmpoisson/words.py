"""Words in two noncommuting matrix letters and their cyclic canonical forms.

A Word is a finite product of the two letters (0 = first, 1 = second; rendered
X/Y in plain mode and A/B in traceless mode), stored as run-length pairs
(letter, exponent) with alternating letters and exponents >= 1.  The empty
word denotes the identity matrix.

A CyclicWord is the rotation class of a Word; traces of cyclically equivalent
words coincide, so trace factors are always kept in the canonical (least)
rotation.  Canonical form = lexicographically minimal rotation of the flat
letter sequence under 0 < 1, computed with Booth's algorithm.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

FIRST = 0
SECOND = 1

Run = tuple[int, int]          # (letter, exponent >= 1)
Runs = tuple[Run, ...]


def runs_from_letters(letters: Sequence[int]) -> Runs:
    """Run-length encode a flat letter sequence."""
    runs: list[Run] = []
    for letter in letters:
        if letter not in (FIRST, SECOND):
            raise ValueError(f"invalid letter {letter!r}")
        if runs and runs[-1][0] == letter:
            runs[-1] = (letter, runs[-1][1] + 1)
        else:
            runs.append((letter, 1))
    return tuple(runs)


def merge_runs(runs: Iterable[Run]) -> Runs:
    """Normalize a run sequence: drop zero exponents, merge adjacent equal letters."""
    out: list[Run] = []
    for letter, exp in runs:
        if exp < 0:
            raise ValueError("negative exponent in run")
        if exp == 0:
            continue
        if out and out[-1][0] == letter:
            out[-1] = (letter, out[-1][1] + exp)
        else:
            out.append((letter, exp))
    return tuple(out)


class Word:
    """Linear word over two letters, run-length encoded and immutable."""

    __slots__ = ("runs",)

    def __init__(self, runs: Iterable[Run] = ()):
        object.__setattr__(self, "runs", merge_runs(runs))

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    @classmethod
    def from_letters(cls, letters: Sequence[int]) -> "Word":
        return cls(runs_from_letters(letters))

    def letters(self) -> tuple[int, ...]:
        out: list[int] = []
        for letter, exp in self.runs:
            out.extend([letter] * exp)
        return tuple(out)

    def bidegree(self) -> tuple[int, int]:
        first = sum(e for l, e in self.runs if l == FIRST)
        second = sum(e for l, e in self.runs if l == SECOND)
        return (first, second)

    def degree(self) -> int:
        return sum(e for _, e in self.runs)

    def is_empty(self) -> bool:
        return not self.runs

    def concat(self, other: "Word") -> "Word":
        return Word(self.runs + other.runs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Word) and self.runs == other.runs

    def __hash__(self) -> int:
        return hash(("Word", self.runs))

    def __repr__(self) -> str:
        if not self.runs:
            return "Word()"
        body = " ".join(f"{'ab'[l]}^{e}" if e > 1 else "ab"[l] for l, e in self.runs)
        return f"Word({body})"


def least_rotation(letters: Sequence[int]) -> int:
    """Index of the lexicographically least rotation (Booth's algorithm)."""
    n = len(letters)
    if n == 0:
        return 0
    s = tuple(letters) + tuple(letters)
    f = [-1] * len(s)
    k = 0
    for j in range(1, len(s)):
        sj = s[j]
        i = f[j - k - 1]
        while i != -1 and sj != s[k + i + 1]:
            if sj < s[k + i + 1]:
                k = j - i - 1
            i = f[i]
        if sj != s[k + i + 1]:
            if sj < s[k]:
                k = j
            f[j - k] = -1
        else:
            f[j - k] = i + 1
    return k


class CyclicWord:
    """Rotation class of a Word, stored in the canonical (least) rotation."""

    __slots__ = ("runs", "_degree", "_hash")

    def __init__(self, runs: Runs):
        # Trusted constructor: `runs` must already be canonical. Use canonicalize().
        # Degree and hash are computed once; words are dict keys on every hot path.
        object.__setattr__(self, "runs", runs)
        object.__setattr__(self, "_degree", sum(e for _, e in runs))
        object.__setattr__(self, "_hash", hash(("CyclicWord", runs)))

    def __setattr__(self, name, value):
        raise AttributeError("CyclicWord is immutable")

    def bidegree(self) -> tuple[int, int]:
        first = sum(e for l, e in self.runs if l == FIRST)
        second = sum(e for l, e in self.runs if l == SECOND)
        return (first, second)

    def degree(self) -> int:
        return self._degree

    def is_empty(self) -> bool:
        return not self.runs

    def to_word(self) -> Word:
        return Word(self.runs)

    def letters(self) -> tuple[int, ...]:
        return self.to_word().letters()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CyclicWord) and self.runs == other.runs

    def __lt__(self, other: "CyclicWord") -> bool:
        return _sort_key(self.runs) < _sort_key(other.runs)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if not self.runs:
            return "CyclicWord(1)"
        body = " ".join(f"{'ab'[l]}^{e}" if e > 1 else "ab"[l] for l, e in self.runs)
        return f"CyclicWord({body})"


def _sort_key(runs: Runs) -> tuple:
    return (sum(e for _, e in runs), runs)


@lru_cache(maxsize=65536)
def _canonical_runs(runs: Runs) -> Runs:
    if not runs:
        return ()
    if len(runs) == 1:
        return runs
    # Close the cycle: merge first/last runs of equal letter before rotating.
    if runs[0][0] == runs[-1][0]:
        runs = (( runs[0][0], runs[0][1] + runs[-1][1]),) + runs[1:-1]
        if len(runs) == 1:
            return runs
    letters = Word(runs).letters()
    k = least_rotation(letters)
    return runs_from_letters(letters[k:] + letters[:k])


def canonicalize(word: Word | Runs) -> CyclicWord:
    """Canonical rotation of a word; all rotations map to the same CyclicWord."""
    runs = word.runs if isinstance(word, Word) else merge_runs(word)
    return CyclicWord(_canonical_runs(runs))


def rotations(word: Word) -> list[Word]:
    """All rotations of a word (by flat letters). Brute-force oracle for tests."""
    letters = word.letters()
    n = len(letters)
    if n == 0:
        return [word]
    return [Word.from_letters(letters[k:] + letters[:k]) for k in range(n)]


def splice_cuts(base: CyclicWord, letter: int) -> list[tuple[Word, int]]:
    """Splice derivative of tr(base) with respect to one letter.

    For each occurrence of `letter` in the cyclic word, cutting the cycle at
    that occurrence and deleting the letter yields a linear word; the list
    pairs each distinct cut word with its multiplicity.  The total
    multiplicity equals the letter's exponent in the base word.
    """
    runs = base.runs
    terms: dict[Word, int] = {}
    for idx, (run_letter, exp) in enumerate(runs):
        if run_letter != letter:
            continue
        rest = runs[idx + 1:] + runs[:idx]
        for pos in range(1, exp + 1):
            # delete occurrence `pos` inside this run: letter^(exp-pos) rest letter^(pos-1)
            cut = Word(((letter, exp - pos),) + rest + ((letter, pos - 1),))
            terms[cut] = terms.get(cut, 0) + 1
    return sorted(terms.items(), key=lambda kv: (kv[0].runs))
