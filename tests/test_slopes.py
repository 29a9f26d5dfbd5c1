import dataclasses
from fractions import Fraction
from functools import cmp_to_key
from math import gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lspacesat import INFINITY, Slope, SlopeSet, farey_enumerate, slope_ccw, slope_det
from lspacesat.projective import Arc
from lspacesat.slopes import slope_swap


nonzero_pairs = st.tuples(
    st.integers(-200, 200), st.integers(-200, 200)
).filter(lambda pq: pq != (0, 0))
slopes = nonzero_pairs.map(lambda pq: Slope(*pq))


class TestNormalization:
    def test_gcd_reduction(self):
        assert Slope(2, 4) == Slope(1, 2)

    def test_infinity_mod_sign(self):
        assert Slope(-3, 0) == Slope(1, 0) == INFINITY

    def test_sign_normalization(self):
        s = Slope(5, -10)
        assert (s.num, s.den) == (-1, 2)

    def test_zero_zero_rejected(self):
        with pytest.raises(ValueError, match="does not represent a slope"):
            Slope(0, 0)

    @given(nonzero_pairs)
    def test_idempotent(self, pq):
        s = Slope(*pq)
        assert Slope(s.num, s.den) == s

    @given(nonzero_pairs)
    def test_mod_plus_minus_one(self, pq):
        p, q = pq
        assert Slope(p, q) == Slope(-p, -q)

    def test_string_round_trip(self):
        for text in ["13/1", "1/0", "-5/3", "7", "inf", "-inf", "+∞"]:
            s = SlopeSet.parse(f"{{{text}}}")
            assert SlopeSet.parse(str(s)) == s


def reference_normal(p, q):
    """(p, q) reduced by the gcd, den >= 0, and ∞ written (1, 0)."""
    g = gcd(p, q)
    p, q = p // g, q // g
    if q < 0 or (q == 0 and p < 0):
        p, q = -p, -q
    return p, q


class TestValueType:
    @given(st.integers(), st.integers())
    @example(0, 0)
    @example(0, -7)
    @example(-9, 0)
    @example(-6, -4)
    def test_constructor_is_the_reference_normalization(self, p, q):
        if p == q == 0:
            with pytest.raises(ValueError, match="does not represent a slope"):
                Slope(p, q)
            return
        s = Slope(p, q)
        assert (s.num, s.den) == reference_normal(p, q)
        if q == 0:
            assert (s.num, s.den) == (1, 0)

    def test_default_denominator_is_one(self):
        assert (Slope(-4).num, Slope(-4).den) == (-4, 1)

    def test_immutable_and_slotted(self):
        s = Slope(2, 3)
        for name in ("num", "den"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(s, name, 5)
        # A new name is refused too (as TypeError where CPython's frozen
        # __setattr__ refers to the class before slots were added).
        with pytest.raises((AttributeError, TypeError)):
            s.extra = 5
        assert not hasattr(s, "__dict__")
        assert (s.num, s.den) == (2, 3)

    @given(nonzero_pairs, st.integers(-50, 50).filter(bool))
    def test_equal_values_hash_equal(self, pq, k):
        p, q = pq
        a, b = Slope(p, q), Slope(k * p, k * q)
        assert a == b and hash(a) == hash(b)


BIG = 10**30 + 7  # 31 digits, coprime to the denominators below

# Slopes the swap must take to Slope(den, num), grouped by what they test.
SWAP_CASES = {
    "farey_24": farey_enumerate(24),
    "zero": [Slope(0), Slope(0, -5)],
    "infinity": [INFINITY, Slope(-7, 0)],
    "negative": [Slope(-1), Slope(-3, 5), Slope(5, -3), Slope(-1, 24), Slope(-24)],
    "big": [Slope(BIG, 3), Slope(-BIG, 3), Slope(3, BIG), Slope(-3, BIG), Slope(-BIG, BIG - 1)],
}


class TestSwap:
    """slope_swap builds q/p of a normalized p/q without a gcd; it must be
    the constructor's Slope(den, num), field for field."""

    @pytest.mark.parametrize("xs", list(SWAP_CASES.values()), ids=list(SWAP_CASES))
    def test_is_the_constructor_on_the_swapped_pair(self, xs):
        for x in xs:
            y, expected = slope_swap(x), Slope(x.den, x.num)
            assert type(y) is Slope
            assert (y.num, y.den) == (expected.num, expected.den)
            assert y == expected and hash(y) == hash(expected)

    @given(st.integers(), st.integers())
    @example(0, 1)
    @example(1, 0)
    @example(-(10**40), 3)
    def test_keeps_the_normal_form(self, p, q):
        if p == q == 0:
            return
        y = slope_swap(Slope(p, q))
        assert (y.num, y.den) == reference_normal(q, p)
        assert slope_swap(y) == Slope(p, q)

    def test_zero_and_infinity_trade_places(self):
        assert (slope_swap(Slope(0)).num, slope_swap(Slope(0)).den) == (1, 0)
        assert (slope_swap(INFINITY).num, slope_swap(INFINITY).den) == (0, 1)

    def test_is_frozen_like_a_constructed_slope(self):
        y = slope_swap(Slope(-2, 7))
        with pytest.raises(dataclasses.FrozenInstanceError):
            y.num = 1
        assert not hasattr(y, "__dict__") and str(y) == "-7/2"


class TestDet:
    def test_standard_basis(self):
        assert slope_det(INFINITY, Slope(0)) == 1

    def test_equal_is_zero(self):
        assert slope_det(Slope(1, 2), Slope(1, 2)) == 0

    def test_direct_evaluation(self):
        assert slope_det(Slope(2, 3), Slope(3, 4)) == -1

    @given(slopes, slopes)
    def test_antisymmetry(self, a, b):
        assert slope_det(a, b) == -slope_det(b, a)

    @given(slopes, slopes)
    def test_zero_iff_equal(self, a, b):
        assert (slope_det(a, b) == 0) == (a == b)


class TestCcw:
    def test_one_between_zero_and_infinity(self):
        assert slope_ccw(Slope(0), Slope(1), INFINITY)

    def test_wrap_through_infinity(self):
        assert slope_ccw(Slope(0), INFINITY, Slope(-1))

    def test_not_between(self):
        assert not slope_ccw(Slope(1, 2), Slope(1, 3), INFINITY)

    def test_distinct_required(self):
        with pytest.raises(ValueError, match="pairwise distinct"):
            slope_ccw(Slope(0), Slope(0), Slope(1))

    @given(slopes, slopes, slopes)
    def test_exactly_one_orientation(self, a, b, c):
        if len({a, b, c}) < 3:
            return
        assert slope_ccw(a, b, c) != slope_ccw(a, c, b)

    @given(slopes, slopes, slopes)
    def test_rotation_invariance(self, a, b, c):
        if len({a, b, c}) < 3:
            return
        assert slope_ccw(a, b, c) == slope_ccw(b, c, a)


def unit_interval(ball: list[Slope]) -> list[Slope]:
    """The slopes of a Farey ball in [0, 1], in the ball's order."""
    return [x for x in ball if 0 <= x.num <= x.den]


class TestFarey:
    """The Farey ball's slopes in the window [0, 1] are the Farey
    sequence F_n, in increasing order."""

    def test_f1_window(self):
        assert unit_interval(farey_enumerate(1)) == [Slope(0), Slope(1)]
        # 1 is the smallest denominator bound.
        with pytest.raises(ValueError, match="max_den must be >= 1"):
            farey_enumerate(0)

    def test_f3_window(self):
        got = unit_interval(farey_enumerate(3))
        assert got == [Slope(0), Slope(1, 3), Slope(1, 2), Slope(2, 3), Slope(1)]

    def test_f5_count(self):
        assert len(unit_interval(farey_enumerate(5))) == 11

    def test_ball_starts_at_infinity_and_is_sorted(self):
        ball = farey_enumerate(6)
        assert ball[0] == INFINITY
        values = [Fraction(s.num, s.den) for s in ball[1:]]
        assert values == sorted(values)
        assert len(set(ball)) == len(ball)

    def test_ball_contents(self):
        ball = set(farey_enumerate(4))
        assert Slope(1, 4) in ball and Slope(-4, 1) in ball
        assert Slope(5, 1) not in ball


# -- the exact sort key --------------------------------------------------

BIG = 10**40
big_slopes = st.one_of(
    st.just(INFINITY),
    st.builds(Slope, st.integers(-BIG, BIG), st.integers(1, BIG)),
    # Huge numerators over small denominators.
    st.builds(Slope, st.integers(-BIG, BIG), st.integers(1, 9)),
)


@st.composite
def farey_neighbours(draw):
    """Two slopes with |det| = 1, denominators up to about 10**40."""
    q = draw(st.integers(2, BIG))
    p = draw(st.integers(-3 * q, 3 * q).filter(lambda p: gcd(p, q) == 1))
    s = pow(p, -1, q)  # p·s - q·r = 1
    r = (p * s - 1) // q
    k = draw(st.integers(0, 3))
    return Slope(p, q), Slope(r + k * p, s + k * q)


def circular_sorted(points):
    """Reference order: ∞ first, then finite slopes by slope_det."""
    def cmp(a, b):
        if a.is_infinity or b.is_infinity:
            return a.den - b.den
        return slope_det(a, b)

    return sorted(set(points), key=cmp_to_key(cmp))


def canonical_point_order(points):
    """The points of SlopeSet.from_arcs over the given points, in arc order,
    which is the order of the merge's integer key."""
    return [a.start for a in SlopeSet.from_arcs([Arc(x, x) for x in points]).arcs]


class TestSortKey:
    """The merge of SlopeSet.from_arcs sorts by num·Q² // den with Q the
    largest denominator; it must order every pair as slope_det does."""

    @given(st.lists(big_slopes, min_size=1, max_size=6))
    def test_key_order_agrees_with_det(self, points):
        assert canonical_point_order(points) == circular_sorted(points)

    @given(farey_neighbours(), big_slopes)
    def test_farey_neighbours_stay_apart(self, pair, other):
        a, b = pair
        assert abs(slope_det(a, b)) == 1
        for points in ([a, b], [b, a], [b, a, other, INFINITY]):
            assert canonical_point_order(points) == circular_sorted(points)

    @given(st.tuples(st.integers(-BIG, BIG), st.integers(1, BIG)))
    def test_equal_slopes_share_a_key(self, pq):
        p, q = pq
        x = Slope(p, q)
        assert canonical_point_order([x, Slope(3 * p, 3 * q), Slope(-p, -q)]) == [x]

    @pytest.mark.parametrize("max_den", [1, 2, 5, 9, 12, 24])
    def test_farey_order_unchanged(self, max_den):
        ball = [INFINITY] + [
            Slope(p, q)
            for q in range(1, max_den + 1)
            for p in range(-max_den, max_den + 1)
            if gcd(p, q) == 1
        ]
        assert farey_enumerate(max_den) == circular_sorted(ball)
