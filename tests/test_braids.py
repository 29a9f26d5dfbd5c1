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
    @pytest.mark.parametrize(
        "bw, letters",
        [
            (word(2, (1, 1), (1, -1)), ()),
            # A cancellation exposes a new pair.
            (word(3, (1, 1), (2, 1), (2, -1), (1, 1)), ((1, 1), (1, 1))),
        ],
    )
    def test_worked_words(self, bw, letters):
        assert braid_free_reduce(bw).letters == letters

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

    @pytest.mark.parametrize(
        "bw, letters",
        [(word(3, (1, 1)), 1 + 6), (one_bridge_braid_word(5, 2, 3), 14 + 20)],
        ids=["one_letter", "one_bridge"],
    )
    def test_positive_full_twist_letter_count(self, bw, letters):
        got = braid_add_full_twists(bw, 1)
        assert len(got.letters) == letters
        assert all(sign == 1 for _, sign in got.letters)

    def test_twist_then_untwist_reduces_back(self):
        bw = word(3, (2, 1), (1, 1), (2, -1))
        round_trip = braid_add_full_twists(braid_add_full_twists(bw, -1), 1)
        assert braid_free_reduce(round_trip) == braid_free_reduce(bw)


class TestSign:
    @pytest.mark.parametrize(
        "bw, sign",
        [
            (one_bridge_braid_word(5, 2, 3), BraidSign.POSITIVE),
            (word(3, (1, -1), (2, -1)), BraidSign.NEGATIVE),
            (word(3, (1, 1), (2, -1)), BraidSign.MIXED),
            # Reduction happens first.
            (word(2, (1, 1), (1, -1)), BraidSign.TRIVIAL),
            (word(3, (1, 1), (2, 1), (2, -1)), BraidSign.POSITIVE),
        ],
    )
    def test_worked_words(self, bw, sign):
        assert braid_sign(bw) is sign


class TestClosureGenus:
    @pytest.mark.parametrize(
        "bw, genus",
        [
            (word(2, (1, 1)), 0),
            (word(2, (1, 1), (1, 1), (1, 1)), 1),
            (one_bridge_braid_word(5, 2, 3), 5),
        ],
        ids=["unknot", "trefoil", "one_bridge"],
    )
    def test_worked_words(self, bw, genus):
        assert positive_braid_closure_genus(bw) == genus

    @pytest.mark.parametrize(
        "bw, message",
        [
            (word(3, (1, 1), (2, -1)), "not positive"),
            (word(2, (1, 1), (1, 1)), "more than one component"),
        ],
    )
    def test_refusals(self, bw, message):
        with pytest.raises(ValueError, match=message):
            positive_braid_closure_genus(bw)

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
