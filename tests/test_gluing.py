import random

import pytest
from hypothesis import given

from lspacesat import (
    Arc,
    GluingMap,
    INFINITY,
    Slope,
    SlopeSet,
    farey_enumerate,
    meridian_longitude_swap,
)
from lspacesat.cli import random_slope_set

from oracle_helpers import complete_sample
from strategies import slope_set_arcs

SWAP = meridian_longitude_swap()


class TestApply:
    def test_swap_is_reciprocal(self):
        assert SWAP.apply(Slope(3, 5)) == Slope(5, 3)
        assert SWAP.apply(Slope(-3, 5)) == Slope(-5, 3)

    def test_swap_meridian_to_longitude(self):
        assert SWAP.apply(INFINITY) == Slope(0)

    def test_swap_twice_is_identity(self):
        for x in farey_enumerate(10):
            assert SWAP.apply(SWAP.apply(x)) == x

    def test_is_the_constructor_on_the_swapped_pair(self):
        big = 10**30 + 7
        for x in farey_enumerate(12) + [Slope(-big, 3), Slope(3, -big)]:
            y = SWAP.apply(x)
            assert (y.num, y.den) == (Slope(x.den, x.num).num, Slope(x.den, x.num).den)
        s = SlopeSet.parse(f"[-{big}/3, 1/{big}) ∪ {{1/2}}")
        assert str(SWAP.image_of_set(s)) == f"{{2/1}} ∪ ({big}/1, inf] ∪ [-inf, -3/{big}]"

    def test_takes_no_settings(self):
        with pytest.raises(TypeError):
            GluingMap(0, 1, 1, 0)
        assert not hasattr(GluingMap(), "__dict__")


class TestImageOfSet:
    def test_worked_interval_image(self):
        s = SlopeSet.parse("[-inf, 1/7) ∪ (1/2, inf]")
        assert SWAP.image_of_set(s) == SlopeSet.parse("[-inf, 2) ∪ (7, inf]")

    def test_swap_full_and_point(self):
        assert SWAP.image_of_set(SlopeSet(is_full=True)).is_full
        point = SlopeSet.from_arcs([Arc(INFINITY, INFINITY)])
        assert SWAP.image_of_set(point) == SlopeSet.parse("{0}")

    def test_swap_set_involution(self):
        rng = random.Random(5)
        endpoints = farey_enumerate(6)
        for _ in range(25):
            s = random_slope_set(rng, endpoints)
            assert SWAP.image_of_set(SWAP.image_of_set(s)) == s

    def test_membership_commutes(self):
        rng = random.Random(9)
        endpoints = farey_enumerate(6)
        for _ in range(50):
            s = random_slope_set(rng, endpoints)
            img = SWAP.image_of_set(s)
            # SWAP keeps heights, so it maps the sample onto itself.
            for x in complete_sample(s, img):
                assert img.contains(SWAP.apply(x)) == s.contains(x)

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
        ],
    )
    def test_rotation_to_the_merge_order(self, text, image):
        s = SlopeSet.parse(text)
        img = SWAP.image_of_set(s)
        assert str(img) == image
        mapped = [
            Arc(SWAP.apply(a.end), SWAP.apply(a.start), a.end_closed, a.start_closed)
            for a in s.arcs
        ]
        assert img == SlopeSet.from_arcs(mapped)

    def test_endpoint_closure_flip_on_reversal(self):
        s = SlopeSet.parse("[2, 3)")
        img = SWAP.image_of_set(s)
        assert img == SlopeSet.from_arcs([Arc(Slope(1, 3), Slope(1, 2), False, True)])
