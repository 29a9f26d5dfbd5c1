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
    @example(2, 4)
    @example(5, -10)
    @example(-3, 0)
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

    @pytest.mark.parametrize("value", [True, 1.5, Fraction(1), "1", None], ids=repr)
    @pytest.mark.parametrize("field", ["num", "den"])
    def test_refuses_a_field_that_is_not_an_int(self, field, value):
        """As in json_object, a bool is not an integer, and neither is a
        float, a Fraction or a str: none is stored or reaches gcd."""
        args = {"num": 1, "den": 2}
        args[field] = value
        message = f"^{field} must be an integer, got {type(value).__name__}$"
        with pytest.raises(ValueError, match=message):
            Slope(**args)

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
            assert slope_swap(y) == x

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

class TestDet:
    @pytest.mark.parametrize(
        "a, b, det",
        [(INFINITY, Slope(0), 1), (Slope(1, 2), Slope(1, 2), 0), (Slope(2, 3), Slope(3, 4), -1)],
        ids=["standard_basis", "equal_is_zero", "direct_evaluation"],
    )
    def test_worked_values(self, a, b, det):
        assert slope_det(a, b) == det

    @given(slopes, slopes)
    def test_antisymmetry(self, a, b):
        assert slope_det(a, b) == -slope_det(b, a)

    @given(slopes, slopes)
    def test_zero_iff_equal(self, a, b):
        assert (slope_det(a, b) == 0) == (a == b)


class TestCcw:
    @pytest.mark.parametrize(
        "a, b, c, inside",
        [
            (Slope(0), Slope(1), INFINITY, True),
            (Slope(0), INFINITY, Slope(-1), True),  # wraps through ∞
            (Slope(1, 2), Slope(1, 3), INFINITY, False),
        ],
    )
    def test_worked_triples(self, a, b, c, inside):
        assert slope_ccw(a, b, c) is inside

    @pytest.mark.parametrize(
        "a, b, c", [(Slope(0), Slope(0), Slope(1)), (INFINITY, Slope(-2), INFINITY)]
    )
    def test_distinct_required(self, a, b, c):
        with pytest.raises(ValueError, match="pairwise distinct"):
            slope_ccw(a, b, c)

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

    @pytest.mark.parametrize(
        "n, window",
        [(1, [Slope(0), Slope(1)]), (3, [Slope(0), Slope(1, 3), Slope(1, 2), Slope(2, 3), Slope(1)])],
    )
    def test_window(self, n, window):
        assert unit_interval(farey_enumerate(n)) == window

    def test_max_den_at_least_one(self):
        with pytest.raises(ValueError, match="max_den must be >= 1"):
            farey_enumerate(0)

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
        if a.den == 0 or b.den == 0:
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

    @pytest.mark.parametrize("max_den", [1, 2, 4, 5, 6, 9, 12, 24])
    def test_farey_order_unchanged(self, max_den):
        ball = [INFINITY] + [
            Slope(p, q)
            for q in range(1, max_den + 1)
            for p in range(-max_den, max_den + 1)
            if gcd(p, q) == 1
        ]
        assert farey_enumerate(max_den) == circular_sorted(ball)
