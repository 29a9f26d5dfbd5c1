import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lspacesat import INFINITY, Slope, SlopeSet, covers_circle, farey_enumerate, rr_shape_check, slope
from lspacesat.projective import Arc

from oracle_helpers import brute_force_covers, random_slope_set


class TestContains:
    def test_full(self):
        assert SlopeSet.full().contains(INFINITY)

    def test_closed_arc_endpoints(self):
        s = SlopeSet.arc(slope(1), INFINITY)
        assert s.contains(slope(1))
        assert not s.contains(slope(0))

    def test_open_arc_through_positives(self):
        s = SlopeSet.arc(slope(1, 2), INFINITY, False, False)
        assert s.contains(slope(3))
        assert not s.contains(slope(1, 2)) and not s.contains(INFINITY)

    def test_point(self):
        s = SlopeSet.point(slope(5, 7))
        assert s.contains(slope(5, 7)) and not s.contains(slope(5, 8))


class TestUnion:
    def test_merge_at_shared_endpoint(self):
        got = SlopeSet.arc(slope(0), slope(1)).union(SlopeSet.arc(slope(1), slope(2)))
        assert got == SlopeSet.arc(slope(0), slope(2))

    def test_worked_cover_union_is_full(self):
        # strict companion slopes for genus 1 against the glued pattern
        # side with b = 7
        s1 = SlopeSet.arc(slope(1), INFINITY, False, False)
        s2 = SlopeSet.parse("[-inf, 2) ∪ (7, inf]")
        assert s1.union(s2).is_full

    def test_empty_identity(self):
        s = SlopeSet.parse("[1/3, 4)")
        assert SlopeSet.empty().union(s) == s
        assert s.union(SlopeSet.empty()) == s

    def test_half_open_pair_merges(self):
        got = SlopeSet.parse("[0, 1)").union(SlopeSet.parse("[1, 2]"))
        assert got == SlopeSet.arc(slope(0), slope(2))

    def test_two_arcs_leaving_a_hole_become_copoint(self):
        got = SlopeSet.parse("[0, 1)").union(SlopeSet.parse("(1, 0]"))
        assert got == SlopeSet.copoint(slope(1))
        assert str(got) == "QP1 \\ {1/1}"


class TestInterior:
    def test_closed_companion_arc(self):
        got = SlopeSet.arc(slope(1), INFINITY).interior()
        assert got == SlopeSet.arc(slope(1), INFINITY, False, False)
        assert not got.contains(INFINITY)

    def test_point_vanishes(self):
        assert SlopeSet.point(slope(0)).interior().is_empty

    def test_full_fixed(self):
        assert SlopeSet.full().interior().is_full

    def test_idempotent_and_subset(self):
        rng = random.Random(7)
        endpoints = farey_enumerate(8)
        sample = farey_enumerate(12)
        for _ in range(60):
            s = random_slope_set(rng, endpoints)
            inner = s.interior()
            assert inner.interior() == inner
            for x in sample:
                if inner.contains(x):
                    assert s.contains(x)


class TestCoversCircle:
    def test_worked_example(self):
        s1 = SlopeSet.parse("(1, inf)")
        s2 = SlopeSet.parse("[-inf, 2) ∪ (7, inf]")
        assert covers_circle(s1, s2)

    def test_shared_open_endpoint_fails(self):
        s1 = SlopeSet.parse("(1, inf)")
        s2 = SlopeSet.parse("[-inf, 1)")
        assert not covers_circle(s1, s2)

    def test_full_empty(self):
        assert covers_circle(SlopeSet.full(), SlopeSet.empty())


class TestRRShape:
    def test_closed_arc_through_infinity(self):
        assert rr_shape_check(SlopeSet.arc(slope(1, 2), slope(1, 7)), slope(0))

    def test_complement_of_longitude(self):
        assert rr_shape_check(SlopeSet.copoint(slope(0)), slope(0))
        assert not rr_shape_check(SlopeSet.copoint(slope(0)), slope(1))

    def test_two_arcs_rejected(self):
        s = SlopeSet.parse("[0, 1]").union(SlopeSet.parse("[3, 4]"))
        assert not rr_shape_check(s, slope(0))

    def test_open_arc_rejected(self):
        assert not rr_shape_check(SlopeSet.parse("(0, 1)"), slope(0))

    def test_empty_and_point(self):
        assert rr_shape_check(SlopeSet.empty(), slope(0))
        assert rr_shape_check(SlopeSet.point(slope(3)), slope(0))


class TestCanonicalForm:
    def test_arc_order_independent(self):
        arcs = [
            Arc(slope(0), slope(1)),
            Arc(slope(3), slope(4), False, True),
            Arc(slope(1), slope(2)),
        ]
        a = SlopeSet.from_arcs(arcs)
        b = SlopeSet.from_arcs(reversed(arcs))
        assert a == b
        assert str(a) == str(b)

    def test_union_membership_oracle(self):
        rng = random.Random(11)
        endpoints = farey_enumerate(8)
        sample = farey_enumerate(16)
        for _ in range(40):
            s1 = random_slope_set(rng, endpoints)
            s2 = random_slope_set(rng, endpoints)
            u = s1.union(s2)
            for x in sample:
                assert u.contains(x) == (s1.contains(x) or s2.contains(x))

    def test_covers_matches_brute_force(self):
        rng = random.Random(13)
        endpoints = farey_enumerate(8)
        for _ in range(60):
            s1 = random_slope_set(rng, endpoints)
            s2 = random_slope_set(rng, endpoints)
            assert covers_circle(s1, s2) == brute_force_covers(s1, s2, 20)


POOL = farey_enumerate(4)
SAMPLE = farey_enumerate(12)

# Points, complements of a point, and arcs between distinct pool slopes
# (about half of which run through ∞).
pool_arcs = st.lists(
    st.one_of(
        st.sampled_from(POOL).map(lambda x: Arc(x, x)),
        st.sampled_from(POOL).map(lambda x: Arc(x, x, False, False)),
        st.tuples(st.sampled_from(POOL), st.sampled_from(POOL), st.booleans(), st.booleans())
        .filter(lambda t: t[0] != t[1])
        .map(lambda t: Arc(*t)),
    ),
    max_size=6,
)


class TestCanonicalProperties:
    @given(pool_arcs)
    def test_membership_matches_arcs(self, arcs):
        s = SlopeSet.from_arcs(arcs)
        for x in SAMPLE:
            assert s.contains(x) == any(a.contains(x) for a in arcs)

    @given(pool_arcs, st.data())
    def test_canonical_form_is_a_fixed_point(self, arcs, data):
        s = SlopeSet.from_arcs(arcs)
        assert SlopeSet.from_arcs(data.draw(st.permutations(arcs))) == s
        if not s.is_full:
            assert SlopeSet.from_arcs(s.arcs) == s

    @given(pool_arcs)
    def test_text_round_trip(self, arcs):
        s = SlopeSet.from_arcs(arcs)
        assert SlopeSet.parse(str(s)) == s


class TestSerialization:
    @pytest.mark.parametrize(
        "text",
        [
            "EMPTY",
            "FULL",
            "QP1 \\ {0/1}",
            "{1/0}",
            "[1/2, 3/4]",
            "(1/2, 3/4]",
            "[-inf, 2)",
            "(7, inf]",
            "[1/2, inf] ∪ [-inf, 1/7]",
            "[-inf, 1/7) ∪ (1/2, inf]",
        ],
    )
    def test_round_trip(self, text):
        s = SlopeSet.parse(text)
        assert SlopeSet.parse(str(s)) == s

    def test_degenerate_open_arc_rejected(self):
        with pytest.raises(ValueError):
            SlopeSet.parse("(1/2, 1/2)")

    def test_infinity_interval_forms(self):
        assert SlopeSet.parse("[-inf, inf]").is_full
        assert SlopeSet.parse("(-inf, inf)") == SlopeSet.copoint(INFINITY)
