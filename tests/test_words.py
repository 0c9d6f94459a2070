"""Cyclic canonical forms and splice derivatives."""

import pytest
from hypothesis import given, strategies as st

from cmpoisson.words import (
    FIRST,
    SECOND,
    Word,
    canonicalize,
    rotations,
    splice_cuts,
)

letter_lists = st.lists(st.integers(0, 1), min_size=1, max_size=12)


def test_rotation_of_square_word():
    baab = Word.from_letters((SECOND, FIRST, FIRST, SECOND))
    assert canonicalize(baab).runs == ((FIRST, 2), (SECOND, 2))


def test_single_letter_fixed_point():
    a = Word(((FIRST, 1),))
    assert canonicalize(a).runs == ((FIRST, 1),)


def test_abab_and_baba_identify():
    abab = Word.from_letters((0, 1, 0, 1))
    baba = Word.from_letters((1, 0, 1, 0))
    # brute-force oracle: enumerate all rotations and take the minimum
    oracle = min(r.letters() for r in rotations(abab))
    assert canonicalize(abab) == canonicalize(baba)
    assert canonicalize(abab).letters() == oracle


def test_empty_word_canonicalizes_to_empty():
    assert canonicalize(Word()).is_empty()


@given(letter_lists)
def test_canonical_form_is_the_least_rotation(letters):
    assert canonicalize(Word.from_letters(letters)).letters() == min(
        tuple(letters[i:] + letters[:i]) for i in range(len(letters))
    )


@given(letter_lists)
def test_cyclic_invariance_exhaustive(letters):
    w = Word.from_letters(letters)
    canon = canonicalize(w)
    for r in rotations(w):
        assert canonicalize(r) == canon
    # idempotence
    assert canonicalize(canon.to_word()) == canon


def test_run_encoding_invariants():
    w = Word(((FIRST, 2), (FIRST, 1), (SECOND, 3)))  # merges adjacent runs
    assert w.runs == ((FIRST, 3), (SECOND, 3))
    with pytest.raises(ValueError):
        Word(((FIRST, -1),))


def test_splice_multiplicity_equals_exponent(rng):
    for _ in range(40):
        w = canonicalize(Word.from_letters([int(rng.integers(0, 2)) for _ in range(8)]))
        for letter in (FIRST, SECOND):
            cuts = splice_cuts(w, letter)
            total = sum(mult for _, mult in cuts)
            assert total == dict(zip((FIRST, SECOND), w.bidegree()))[letter]
            i, j = w.bidegree()
            for cut, _ in cuts:
                ci, cj = cut.bidegree()
                if letter == FIRST:
                    assert (ci, cj) == (i - 1, j)
                else:
                    assert (ci, cj) == (i, j - 1)


def test_splice_pure_power_collapses():
    w = canonicalize(Word(((FIRST, 4),)))
    cuts = splice_cuts(w, FIRST)
    assert len(cuts) == 1
    cut, mult = cuts[0]
    assert mult == 4 and cut.runs == ((FIRST, 3),)
