from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lspacesat import INFINITY, Slope, farey_enumerate, slope, slope_ccw, slope_det
from lspacesat.slopes import NotDistinctError, ZeroZeroError


nonzero_pairs = st.tuples(
    st.integers(-200, 200), st.integers(-200, 200)
).filter(lambda pq: pq != (0, 0))
slopes = nonzero_pairs.map(lambda pq: Slope(*pq))


class TestNormalization:
    def test_gcd_reduction(self):
        assert slope(2, 4) == slope(1, 2)

    def test_infinity_mod_sign(self):
        assert slope(-3, 0) == slope(1, 0) == INFINITY

    def test_sign_normalization(self):
        s = slope(5, -10)
        assert (s.num, s.den) == (-1, 2)

    def test_zero_zero_rejected(self):
        with pytest.raises(ZeroZeroError):
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
            s = Slope.from_string(text)
            assert Slope.from_string(str(s)) == s


class TestDet:
    def test_standard_basis(self):
        assert slope_det(INFINITY, slope(0)) == 1

    def test_equal_is_zero(self):
        assert slope_det(slope(1, 2), slope(1, 2)) == 0

    def test_direct_evaluation(self):
        assert slope_det(slope(2, 3), slope(3, 4)) == -1

    @given(slopes, slopes)
    def test_antisymmetry(self, a, b):
        assert slope_det(a, b) == -slope_det(b, a)

    @given(slopes, slopes)
    def test_zero_iff_equal(self, a, b):
        assert (slope_det(a, b) == 0) == (a == b)


class TestCcw:
    def test_one_between_zero_and_infinity(self):
        assert slope_ccw(slope(0), slope(1), INFINITY)

    def test_wrap_through_infinity(self):
        assert slope_ccw(slope(0), INFINITY, slope(-1))

    def test_not_between(self):
        assert not slope_ccw(slope(1, 2), slope(1, 3), INFINITY)

    def test_distinct_required(self):
        with pytest.raises(NotDistinctError):
            slope_ccw(slope(0), slope(0), slope(1))

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


class TestFarey:
    def test_f1_window(self):
        got = farey_enumerate(1, (Fraction(0), Fraction(1)))
        assert got == [slope(0), slope(1)]

    def test_f3_window(self):
        got = farey_enumerate(3, (Fraction(0), Fraction(1)))
        assert got == [slope(0), slope(1, 3), slope(1, 2), slope(2, 3), slope(1)]

    def test_f5_count(self):
        assert len(farey_enumerate(5, (Fraction(0), Fraction(1)))) == 11

    def test_ball_starts_at_infinity_and_is_sorted(self):
        ball = farey_enumerate(6)
        assert ball[0] == INFINITY
        values = [s.value for s in ball[1:]]
        assert values == sorted(values)
        assert len(set(ball)) == len(ball)

    def test_ball_contents(self):
        ball = set(farey_enumerate(4))
        assert slope(1, 4) in ball and slope(-4, 1) in ball
        assert slope(5, 1) not in ball
