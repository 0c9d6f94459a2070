"""Words in two noncommuting matrix letters and their cyclic canonical forms.

A linear word is a finite product of the two letters (0 = first, 1 = second;
rendered X/Y in plain mode and A/B in traceless mode), kept as a tuple of
run-length pairs (letter, exponent).  A run tuple is merged when its letters
alternate and every exponent is >= 1; merge_runs makes it so.  The empty
tuple denotes the identity matrix.

A CyclicWord is the rotation class of a linear word; traces of cyclically
equivalent words coincide, so trace factors are always kept in the canonical
(least) rotation, and canonicalize is the one way from runs to a CyclicWord.
Canonical form = lexicographically minimal rotation of the flat letter
sequence under 0 < 1; it begins with a run of the first letter, so only the
rotations starting at those runs are compared.  CyclicWords have no order of
their own: the order of trace factors in a monomial is poly's.

Words are immutable, so the exact core memoizes them in bounded lru caches:
canonicalize by its run tuple (every rotation of a word returns the one
object cached for its canonical runs) and splice_cuts by (word, letter).
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


def _letters(runs: Runs) -> tuple[int, ...]:
    """The flat letter sequence of a run tuple."""
    return tuple(letter for letter, exp in runs for _ in range(exp))


class CyclicWord:
    """Rotation class of a linear word, stored in the canonical (least) rotation."""

    __slots__ = ("runs", "_bidegree", "_degree", "_hash")

    def __init__(self, runs: Runs):
        # Trusted constructor: `runs` must already be canonical. Use canonicalize().
        # Bidegree, degree and hash are computed once; words are dict keys on
        # every hot path.
        first = sum(e for l, e in runs if l == FIRST)
        second = sum(e for l, e in runs if l == SECOND)
        object.__setattr__(self, "runs", runs)
        object.__setattr__(self, "_bidegree", (first, second))
        object.__setattr__(self, "_degree", first + second)
        object.__setattr__(self, "_hash", hash(("CyclicWord", runs)))

    def __setattr__(self, name, value):
        raise AttributeError("CyclicWord is immutable")

    def bidegree(self) -> tuple[int, int]:
        return self._bidegree

    def degree(self) -> int:
        return self._degree

    def is_empty(self) -> bool:
        return not self.runs

    def letters(self) -> tuple[int, ...]:
        return _letters(self.runs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CyclicWord) and self.runs == other.runs

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if not self.runs:
            return "CyclicWord(1)"
        body = " ".join(f"{'ab'[l]}^{e}" if e > 1 else "ab"[l] for l, e in self.runs)
        return f"CyclicWord({body})"


@lru_cache(maxsize=65536)
def _canonical_runs(runs: Runs) -> Runs:
    """The least rotation of merged runs."""
    if len(runs) <= 1:
        return runs
    # Close the cycle: merge first/last runs of equal letter before rotating.
    # Merged runs alternate, so equal end letters mean at least 3 runs and
    # the merge leaves at least 2.
    if runs[0][0] == runs[-1][0]:
        runs = ((runs[0][0], runs[0][1] + runs[-1][1]),) + runs[1:-1]
    # Both letters occur, so the least rotation of the letters begins with a
    # run of FIRST; the end runs differ, so a rotation of the runs there is
    # already merged.
    rotated = [runs[i:] + runs[:i] for i, (letter, _) in enumerate(runs) if letter == FIRST]
    return min(rotated, key=_letters)


def canonicalize(runs: Iterable[Run]) -> CyclicWord:
    """Canonical rotation of a word given by any runs; all rotations map to
    the same CyclicWord."""
    runs = runs if type(runs) is tuple else tuple(runs)
    try:
        return _canonical_word(runs)
    except TypeError:  # unhashable runs, such as [letter, exponent] lists from JSON
        return _canonical_word(merge_runs(runs))


@lru_cache(maxsize=65536)
def _canonical_word(runs: tuple) -> CyclicWord:
    """canonicalize of a run tuple.  A tuple that is not canonical returns the
    entry of its canonical runs, so every rotation shares one object."""
    canonical = _canonical_runs(merge_runs(runs))
    if canonical == runs:
        return CyclicWord(canonical)
    return _canonical_word(canonical)


def rotations(runs: Iterable[Run]) -> list[Runs]:
    """All rotations of a word (by flat letters), as merged runs.  Brute-force
    oracle for tests."""
    letters = _letters(merge_runs(runs))
    if not letters:
        return [()]
    return [runs_from_letters(letters[k:] + letters[:k]) for k in range(len(letters))]


@lru_cache(maxsize=65536)
def splice_cuts(base: CyclicWord, letter: int) -> tuple[tuple[Runs, int], ...]:
    """Splice derivative of tr(base) with respect to one letter.

    For each occurrence of `letter` in the cyclic word, cutting the cycle at
    that occurrence and deleting the letter yields a linear word; the tuple
    pairs the merged runs of each distinct cut word with its multiplicity,
    in run order.  The total multiplicity equals the letter's exponent in
    the base word.
    """
    runs = base.runs
    terms: dict[Runs, int] = {}
    for idx, (run_letter, exp) in enumerate(runs):
        if run_letter != letter:
            continue
        rest = runs[idx + 1:] + runs[:idx]
        for pos in range(1, exp + 1):
            # delete occurrence `pos` inside this run: letter^(exp-pos) rest letter^(pos-1)
            cut = merge_runs(((letter, exp - pos),) + rest + ((letter, pos - 1),))
            terms[cut] = terms.get(cut, 0) + 1
    return tuple(sorted(terms.items()))
