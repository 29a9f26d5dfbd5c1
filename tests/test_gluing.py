import random

import pytest
from hypothesis import given

from lspacesat import (
    Arc,
    GluingMap,
    SlopeSet,
    farey_enumerate,
    meridian_longitude_swap,
)
from lspacesat.cli import random_slope_set
from lspacesat.slopes import slope_swap

from oracle_helpers import complete_sample
from strategies import slope_set_arcs

SWAP = meridian_longitude_swap()
BIG = 10**30 + 7


class TestGluingMap:
    def test_takes_no_settings(self):
        with pytest.raises(TypeError):
            GluingMap(0, 1, 1, 0)
        assert not hasattr(GluingMap(), "__dict__")


class TestImageOfSet:
    def test_full_is_fixed(self):
        assert SWAP.image_of_set(SlopeSet(is_full=True)).is_full

    @pytest.mark.parametrize("seed, count", [(5, 25), (9, 50)])
    def test_involution_and_membership(self, seed, count):
        rng = random.Random(seed)
        endpoints = farey_enumerate(6)
        for _ in range(count):
            s = random_slope_set(rng, endpoints)
            img = SWAP.image_of_set(s)
            assert SWAP.image_of_set(img) == s
            # SWAP keeps heights, so it maps the sample onto itself.
            for x in complete_sample(s, img):
                assert img.contains(slope_swap(x)) == s.contains(x)

    @given(slope_set_arcs)
    def test_image_is_canonical(self, arcs):
        """image_of_set() skips the merge; the merge must leave every
        image as it is."""
        img = SWAP.image_of_set(SlopeSet.from_arcs(arcs))
        if not img.is_full:
            assert SlopeSet.from_arcs(img.arcs) == img

    @pytest.mark.parametrize(
        "text, image",
        [
            # ∞ starts the last arc.
            ("[-1, 0] ∪ [1, 2]", "[-inf, -1/1] ∪ [1/2, 1/1]"),
            # ∞ comes first; the arc after it is no descent.
            ("[1, 2] ∪ [3, 0]", "[-inf, 1/3] ∪ [1/2, 1/1]"),
            # The descent is at index 0.
            ("[2, 3] ∪ [5, 7]", "[1/7, 1/5] ∪ [1/3, 1/2]"),
            # The descent is in the middle.
            ("[-3, -2] ∪ [2, 3] ∪ [5, 7]", "[-1/2, -1/3] ∪ [1/7, 1/5] ∪ [1/3, 1/2]"),
            # One arc wraps through ∞.
            ("[0, 1] ∪ [3, -3]", "[-1/3, 1/3] ∪ [1/1, inf]"),
            ("[-inf, 1/7) ∪ (1/2, inf]", "(7/1, inf] ∪ [-inf, 2/1)"),
            ("{inf}", "{0/1}"),
            # Reversal flips which end is closed.
            ("[2, 3)", "(1/3, 1/2]"),
            (f"[-{BIG}/3, 1/{BIG}) ∪ {{1/2}}", f"{{2/1}} ∪ ({BIG}/1, inf] ∪ [-inf, -3/{BIG}]"),
        ],
    )
    def test_rotation_to_the_merge_order(self, text, image):
        s = SlopeSet.parse(text)
        img = SWAP.image_of_set(s)
        assert str(img) == image
        mapped = [
            Arc(slope_swap(a.end), slope_swap(a.start), a.end_closed, a.start_closed)
            for a in s.arcs
        ]
        assert img == SlopeSet.from_arcs(mapped)
