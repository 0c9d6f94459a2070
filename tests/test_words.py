"""Cyclic canonical forms and splice derivatives."""

import pytest
from hypothesis import given, strategies as st

from cmpoisson.words import (
    FIRST,
    SECOND,
    canonicalize,
    merge_runs,
    rotations,
    runs_from_letters,
    splice_cuts,
)

letter_lists = st.lists(st.integers(0, 1), min_size=1, max_size=12)
# raw runs: zero exponents, adjacent equal letters and equal end letters all occur
raw_runs = st.lists(st.tuples(st.integers(0, 1), st.integers(0, 3)), max_size=8)


def flat_letters(runs):
    return tuple(letter for letter, exp in runs for _ in range(exp))


def is_merged(runs):
    return all(exp >= 1 for _, exp in runs) and all(a[0] != b[0] for a, b in zip(runs, runs[1:]))


def test_rotation_of_square_word():
    baab = runs_from_letters((SECOND, FIRST, FIRST, SECOND))
    assert canonicalize(baab).runs == ((FIRST, 2), (SECOND, 2))


def test_single_letter_fixed_point():
    assert canonicalize(((FIRST, 1),)).runs == ((FIRST, 1),)


def test_abab_and_baba_identify():
    abab = runs_from_letters((0, 1, 0, 1))
    baba = runs_from_letters((1, 0, 1, 0))
    # brute-force oracle: enumerate all rotations and take the minimum
    oracle = min(flat_letters(r) for r in rotations(abab))
    assert canonicalize(abab) == canonicalize(baba)
    assert canonicalize(abab).letters() == oracle


def test_empty_word_canonicalizes_to_empty():
    assert canonicalize(()).is_empty()
    assert canonicalize(((FIRST, 0), (SECOND, 0))).is_empty()
    assert rotations(()) == [()]


@given(letter_lists)
def test_canonical_form_is_the_least_rotation(letters):
    assert canonicalize(runs_from_letters(letters)).letters() == min(
        tuple(letters[i:] + letters[:i]) for i in range(len(letters))
    )


@given(raw_runs)
def test_canonical_form_of_raw_runs_is_the_least_rotation(runs):
    letters = flat_letters(runs)
    least = min((letters[i:] + letters[:i] for i in range(len(letters))), default=())
    canon = canonicalize(runs)
    assert canon.letters() == least
    assert canon.runs == runs_from_letters(least)


@given(letter_lists)
def test_cyclic_invariance_exhaustive(letters):
    w = runs_from_letters(letters)
    canon = canonicalize(w)
    for r in rotations(w):
        assert is_merged(r)
        assert canonicalize(r) == canon
    # idempotence
    assert canonicalize(canon.runs) == canon


def test_run_encoding_invariants():
    assert merge_runs(((FIRST, 2), (FIRST, 1), (SECOND, 0), (SECOND, 3))) == ((FIRST, 3), (SECOND, 3))
    with pytest.raises(ValueError):
        merge_runs(((FIRST, -1),))
    with pytest.raises(ValueError):
        canonicalize(((FIRST, -1),))


def test_splice_multiplicity_equals_exponent(rng):
    for _ in range(40):
        w = canonicalize(runs_from_letters([int(rng.integers(0, 2)) for _ in range(8)]))
        for letter in (FIRST, SECOND):
            cuts = splice_cuts(w, letter)
            total = sum(mult for _, mult in cuts)
            assert total == dict(zip((FIRST, SECOND), w.bidegree()))[letter]
            i, j = w.bidegree()
            # distinct merged run tuples, in run order
            assert [cut for cut, _ in cuts] == sorted({cut for cut, _ in cuts})
            for cut, _ in cuts:
                assert is_merged(cut)
                ci, cj = flat_letters(cut).count(FIRST), flat_letters(cut).count(SECOND)
                if letter == FIRST:
                    assert (ci, cj) == (i - 1, j)
                else:
                    assert (ci, cj) == (i, j - 1)


def test_splice_pure_power_collapses():
    w = canonicalize(((FIRST, 4),))
    cuts = splice_cuts(w, FIRST)
    assert cuts == ((((FIRST, 3),), 4),)
