import itertools
import random

import pytest

from lspacesat import (
    BraidSign,
    BraidWord,
    braid_add_full_twists,
    braid_free_reduce,
    braid_mirror,
    braid_sign,
    closure_components,
    positive_braid_closure_genus,
)
from lspacesat.braids import closure_permutation

from oracle_helpers import one_bridge_braid_word, seifert_genus_oracle


def word(strands, *letters):
    return BraidWord(strands, tuple(letters))


class TestValidation:
    def test_names_the_first_bad_letter(self):
        """Each distinct letter is checked once, in the order of its first
        occurrence, so the error names the first bad letter of the word."""
        good = ((1, 1), (2, -1)) * 3
        with pytest.raises(ValueError, match="generator index 3 out of range"):
            BraidWord(3, good + ((3, 1), (1, 2), (3, 1)))
        with pytest.raises(ValueError, match="letter sign must be ±1, got 2"):
            BraidWord(3, good + ((1, 2), (3, 1), (1, 2)))
        with pytest.raises(ValueError, match="generator index 0 out of range"):
            BraidWord(3, ((0, 5),) + good)

    def test_needs_two_strands(self):
        for strands in (1, 0):
            with pytest.raises(ValueError, match="need at least 2 strands"):
                BraidWord(strands)


class TestFreeReduce:
    def test_adjacent_inverse_pair(self):
        assert braid_free_reduce(word(2, (1, 1), (1, -1))).letters == ()

    def test_cancellation_exposes_new_pair(self):
        got = braid_free_reduce(word(3, (1, 1), (2, 1), (2, -1), (1, 1)))
        assert got.letters == ((1, 1), (1, 1))

    def test_word_times_inverse_is_trivial(self):
        rng = random.Random(3)
        for _ in range(50):
            w = rng.randint(2, 5)
            letters = tuple(
                (rng.randint(1, w - 1), rng.choice([-1, 1]))
                for _ in range(rng.randint(0, 12))
            )
            inverse = tuple((idx, -sign) for idx, sign in reversed(letters))
            assert braid_free_reduce(BraidWord(w, letters + inverse)).letters == ()


class TestFullTwists:
    def test_zero_is_identity(self):
        bw = word(3, (1, 1))
        assert braid_add_full_twists(bw, 0) is bw

    def test_positive_full_twist_letter_count(self):
        got = braid_add_full_twists(word(3, (1, 1)), 1)
        assert len(got.letters) == 1 + 6
        assert all(sign == 1 for _, sign in got.letters)

    def test_twist_then_untwist_reduces_back(self):
        bw = word(3, (2, 1), (1, 1), (2, -1))
        round_trip = braid_add_full_twists(braid_add_full_twists(bw, -1), 1)
        assert braid_free_reduce(round_trip) == braid_free_reduce(bw)

    def test_one_bridge_word_plus_twist_letter_count(self):
        base = one_bridge_braid_word(5, 2, 3)
        assert len(base.letters) == 14
        assert len(braid_add_full_twists(base, 1).letters) == 14 + 20


class TestSign:
    def test_one_bridge_word_positive(self):
        assert braid_sign(one_bridge_braid_word(5, 2, 3)) is BraidSign.POSITIVE

    def test_all_inverse_negative(self):
        assert braid_sign(word(3, (1, -1), (2, -1))) is BraidSign.NEGATIVE

    def test_mixed(self):
        assert braid_sign(word(3, (1, 1), (2, -1))) is BraidSign.MIXED

    def test_reduction_happens_first(self):
        assert braid_sign(word(2, (1, 1), (1, -1))) is BraidSign.TRIVIAL
        assert braid_sign(word(3, (1, 1), (2, 1), (2, -1))) is BraidSign.POSITIVE


class TestClosureGenus:
    def test_unknot_closure(self):
        assert positive_braid_closure_genus(word(2, (1, 1))) == 0

    def test_trefoil(self):
        assert positive_braid_closure_genus(word(2, (1, 1), (1, 1), (1, 1))) == 1

    def test_one_bridge_example(self):
        assert positive_braid_closure_genus(one_bridge_braid_word(5, 2, 3)) == 5

    def test_not_positive(self):
        with pytest.raises(ValueError, match="not positive"):
            positive_braid_closure_genus(word(3, (1, 1), (2, -1)))

    def test_link_closure_rejected(self):
        with pytest.raises(ValueError, match="more than one component"):
            positive_braid_closure_genus(word(2, (1, 1), (1, 1)))

    def test_mirror_preserves_genus_data(self):
        bw = one_bridge_braid_word(4, 2, 1)
        assert braid_sign(braid_mirror(bw)) is BraidSign.NEGATIVE
        assert positive_braid_closure_genus(braid_mirror(braid_mirror(bw))) == (
            positive_braid_closure_genus(bw)
        )


class TestSeifertOracle:
    def test_exhaustive_small_strata(self):
        for strands in (2, 3):
            gens = range(1, strands)
            for length in range(1, 9):
                for combo in itertools.product(gens, repeat=length):
                    bw = BraidWord(strands, tuple((i, 1) for i in combo))
                    if closure_components(closure_permutation(bw)) != 1:
                        continue
                    assert positive_braid_closure_genus(bw) == seifert_genus_oracle(bw)

    def test_random_larger_words(self):
        rng = random.Random(17)
        checked = 0
        while checked < 400:
            strands = rng.randint(2, 5)
            length = rng.randint(1, 12)
            bw = BraidWord(
                strands, tuple((rng.randint(1, strands - 1), 1) for _ in range(length))
            )
            if closure_components(closure_permutation(bw)) != 1:
                continue
            assert positive_braid_closure_genus(bw) == seifert_genus_oracle(bw)
            checked += 1
