import dataclasses
import random
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lspacesat import INFINITY, Slope, SlopeSet, covers_circle, farey_enumerate
from lspacesat.cli import random_slope_set
from lspacesat.projective import Arc

from oracle_helpers import brute_force_covers, complete_sample
from strategies import CLOSE_POOL, arcs_over, pool_arcs, slope_set_arcs

# Slope sets for cover properties: FULL, EMPTY and the canonical sets of
# the arc strategies, which draw points and complements of points too.
slope_sets = st.one_of(
    st.just(SlopeSet(is_full=True)),
    st.just(SlopeSet()),
    slope_set_arcs.map(SlopeSet.from_arcs),
)


class TestContains:
    def test_full(self):
        assert SlopeSet(is_full=True).contains(INFINITY)

    def test_closed_arc_endpoints(self):
        s = SlopeSet.from_arcs([Arc(Slope(1), INFINITY)])
        assert s.contains(Slope(1))
        assert not s.contains(Slope(0))

    def test_open_arc_through_positives(self):
        s = SlopeSet.from_arcs([Arc(Slope(1, 2), INFINITY, False, False)])
        assert s.contains(Slope(3))
        assert not s.contains(Slope(1, 2)) and not s.contains(INFINITY)

    def test_point(self):
        s = SlopeSet.parse("{5/7}")
        assert s.contains(Slope(5, 7)) and not s.contains(Slope(5, 8))


class TestUnion:
    def test_merge_at_shared_endpoint(self):
        got = SlopeSet.from_arcs([Arc(Slope(0), Slope(1))]).union(
            SlopeSet.from_arcs([Arc(Slope(1), Slope(2))])
        )
        assert got == SlopeSet.from_arcs([Arc(Slope(0), Slope(2))])

    def test_worked_cover_union_is_full(self):
        # strict companion slopes for genus 1 against the glued pattern
        # side with b = 7
        s1 = SlopeSet.from_arcs([Arc(Slope(1), INFINITY, False, False)])
        s2 = SlopeSet.parse("[-inf, 2) ∪ (7, inf]")
        assert s1.union(s2).is_full

    def test_empty_identity(self):
        s = SlopeSet.parse("[1/3, 4)")
        assert SlopeSet().union(s) == s
        assert s.union(SlopeSet()) == s

    def test_half_open_pair_merges(self):
        got = SlopeSet.parse("[0, 1)").union(SlopeSet.parse("[1, 2]"))
        assert got == SlopeSet.from_arcs([Arc(Slope(0), Slope(2))])

    def test_two_arcs_leaving_a_hole_become_copoint(self):
        got = SlopeSet.parse("[0, 1)").union(SlopeSet.parse("(1, 0]"))
        assert got == SlopeSet.from_arcs([Arc(Slope(1), Slope(1), False, False)])
        assert str(got) == "QP1 \\ {1/1}"


class TestInterior:
    def test_closed_companion_arc(self):
        got = SlopeSet.from_arcs([Arc(Slope(1), INFINITY)]).interior()
        assert got == SlopeSet.from_arcs([Arc(Slope(1), INFINITY, False, False)])
        assert not got.contains(INFINITY)

    def test_point_vanishes(self):
        assert SlopeSet.parse("{0}").interior() == SlopeSet()

    def test_full_fixed(self):
        assert SlopeSet(is_full=True).interior().is_full

    def test_idempotent_and_subset(self):
        rng = random.Random(7)
        endpoints = farey_enumerate(8)
        for _ in range(60):
            s = random_slope_set(rng, endpoints)
            inner = s.interior()
            assert inner.interior() == inner
            for x in complete_sample(s, inner):
                if inner.contains(x):
                    assert s.contains(x)


class TestValueTypes:
    @pytest.mark.parametrize(
        "value, field",
        [
            (Arc(Slope(0), Slope(1), False, True), "start_closed"),
            (SlopeSet.parse("[0, 1] ∪ {3}"), "arcs"),
            (SlopeSet(is_full=True), "is_full"),
        ],
        ids=["arc", "slope_set", "full"],
    )
    def test_immutable_and_slotted(self, value, field):
        before = getattr(value, field)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field, None)
        # A new name is refused too (as TypeError where CPython's frozen
        # __setattr__ refers to the class before slots were added).
        with pytest.raises((AttributeError, TypeError)):
            value.extra = None
        assert not hasattr(value, "__dict__")
        assert getattr(value, field) == before

    def test_equal_values_hash_equal(self):
        a = Arc(Slope(2, 4), Slope(-3, 0), True, False)
        b = Arc(Slope(1, 2), INFINITY, True, False)
        assert a == b and hash(a) == hash(b)
        s = SlopeSet.parse("[1/2, inf) ∪ {-3}")
        t = SlopeSet.from_arcs([Arc(Slope(-6, 2), Slope(-3, 1)), b])
        assert s == t and hash(s) == hash(t)

    @pytest.mark.parametrize("flags", [(True, False), (False, True)])
    @pytest.mark.parametrize("x", [Slope(0), Slope(-5, 3), INFINITY])
    def test_mixed_flags_at_one_point_rejected(self, x, flags):
        with pytest.raises(ValueError, match="degenerate arc"):
            Arc(x, Slope(x.num, x.den), *flags)

    def test_open_arc_is_the_interior_of_the_closed_one(self):
        """The cover stage builds its pattern side as the open arc; it must
        equal the interior of the closed arc for every pair of distinct
        endpoints."""
        pool = farey_enumerate(6)
        for x in pool:
            for y in pool:
                if x != y:
                    closed = SlopeSet.from_arcs([Arc(x, y)])
                    assert SlopeSet.from_arcs([Arc(x, y, False, False)]) == closed.interior()


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
        assert covers_circle(SlopeSet(is_full=True), SlopeSet())

    @given(slope_sets, slope_sets)
    def test_agrees_with_the_union(self, s1, s2):
        """covers_circle stops at the merged runs; the union makes arcs of
        them, so the two must agree on whether nothing is left out."""
        assert covers_circle(s1, s2) == s1.union(s2).is_full


class TestCanonicalForm:
    @pytest.mark.parametrize(
        "arcs, text",
        [
            (
                [Arc(Slope(0), Slope(1)), Arc(Slope(3), Slope(4), False, True), Arc(Slope(1), Slope(2))],
                "[0/1, 2/1] ∪ (3/1, 4/1]",
            ),
            ([Arc(Slope(0), Slope(1)), Arc(Slope(1), Slope(2))], "[0/1, 2/1]"),
            ([Arc(Slope(0), Slope(1), True, False), Arc(Slope(1), Slope(0), False, True)], "QP1 \\ {1/1}"),
            ([Arc(Slope(-6, 2), Slope(-3, 1)), Arc(Slope(1, 2), INFINITY, True, False)], "{-3/1} ∪ [1/2, inf)"),
            (
                [
                    Arc(Slope(1), INFINITY, False, False),
                    Arc(INFINITY, Slope(2), True, False),
                    Arc(Slope(7), INFINITY, False, True),
                ],
                "FULL",
            ),
            ([Arc(Slope(1), INFINITY, False, False), Arc(INFINITY, Slope(1), True, False)], "QP1 \\ {1/1}"),
            (
                [Arc(Slope(3), Slope(1)), Arc(Slope(3, 2), Slope(2), False, False)],
                "(3/2, 2/1) ∪ [3/1, inf] ∪ [-inf, 1/1]",
            ),
            ([Arc(INFINITY, Slope(1), True, False), Arc(Slope(2), Slope(5, 2))], "[-inf, 1/1) ∪ [2/1, 5/2]"),
            ([Arc(Slope(-1), INFINITY, False, False), Arc(INFINITY, INFINITY)], "(-1/1, inf]"),
            ([Arc(INFINITY, INFINITY)], "{1/0}"),
            ([], "EMPTY"),
            ([Arc(Slope(5), Slope(1), True, False)], "[5/1, inf] ∪ [-inf, 1/1)"),
            ([Arc(INFINITY, INFINITY, False, False)], "QP1 \\ {1/0}"),
            ([Arc(INFINITY, INFINITY, False, False), Arc(INFINITY, INFINITY)], "FULL"),
            ([Arc(Slope(0), Slope(1), 1, 2), Arc(Slope(1), Slope(2), 0, 0)], "[0/1, 2/1)"),
        ],
        ids=[
            "order", "shared-end", "hole", "point-and-arc", "worked-cover",
            "shared-open-end", "wrap", "from-inf", "to-inf", "point-inf", "empty",
            "wrap-open-at-least-key", "copoint-inf", "copoint-and-point-inf", "truthy-flags",
        ],
    )
    def test_text_of_worked_sets(self, arcs, text):
        """The text of each worked set, byte for byte: a run through the
        gap where the line of positions closes into the circle (from its
        last key round to its first) joins into one arc, which comes
        last.  The line's ends lie beyond every endpoint, so a wrap that
        ends open at the least key keeps the gap before it; a flag reads
        by its truth value."""
        assert str(SlopeSet.from_arcs(arcs)) == text

    def test_a_run_that_is_one_arc_keeps_it(self):
        longest = Arc(Slope(0), Slope(2))
        inner = [Arc(Slope(0), Slope(1)), Arc(Slope(1, 2), Slope(1), False, False)]
        for arcs in (inner + [longest], [longest] + inner):
            assert SlopeSet.from_arcs(arcs).arcs[0] is longest

    def test_arc_order_independent(self):
        arcs = [
            Arc(Slope(0), Slope(1)),
            Arc(Slope(3), Slope(4), False, True),
            Arc(Slope(1), Slope(2)),
        ]
        a = SlopeSet.from_arcs(arcs)
        b = SlopeSet.from_arcs(reversed(arcs))
        assert a == b
        assert str(a) == str(b)

    def test_union_membership_oracle(self):
        rng = random.Random(11)
        endpoints = farey_enumerate(8)
        for _ in range(40):
            s1 = random_slope_set(rng, endpoints)
            s2 = random_slope_set(rng, endpoints)
            u = s1.union(s2)
            for x in complete_sample(s1, s2, u):
                assert u.contains(x) == (s1.contains(x) or s2.contains(x))

    def test_covers_matches_brute_force(self):
        rng = random.Random(13)
        endpoints = farey_enumerate(8)
        for _ in range(60):
            s1 = random_slope_set(rng, endpoints)
            s2 = random_slope_set(rng, endpoints)
            assert covers_circle(s1, s2) == brute_force_covers(s1, s2)

    def test_brute_force_pair_left_open_below_the_complete_sample(self):
        """The pair leaves (3/5, 5/8) open, whose mediant 8/13 has height
        13: a sample of height 12 misses the gap."""
        s1 = SlopeSet.parse("[5/8, inf] ∪ [-inf, 2/7)")
        s2 = SlopeSet.parse("(7/3, inf] ∪ [-inf, 3/5]")

        def covered_at(height):
            return all(s1.contains(x) or s2.contains(x) for x in farey_enumerate(height))

        assert covered_at(12) and not covered_at(24)
        assert brute_force_covers(s1, s2) is covers_circle(s1, s2) is False


def empty_gaps(h: int, n: int) -> tuple[int, int]:
    """How many of the circular gaps between the slopes of
    farey_enumerate(h) hold no slope of farey_enumerate(n) strictly
    inside, and how many gaps there are.  ∞ closes the line at both
    ends; every other slope is compared as a Fraction."""

    def line(height):
        return sorted(Fraction(x.num, x.den) for x in farey_enumerate(height) if x.den)

    ends, sample = line(h), line(n)
    bounds = [None, *ends, None]
    empty = 0
    for lo, hi in zip(bounds, bounds[1:]):
        first = 0 if lo is None else bisect_right(sample, lo)
        stop = len(sample) if hi is None else bisect_left(sample, hi)
        empty += first == stop
    return empty, len(bounds) - 1


class TestCompleteSample:
    @pytest.mark.parametrize("h", range(1, 13))
    def test_double_height_fills_every_gap(self, h):
        assert empty_gaps(h, 2 * h) == (0, len(farey_enumerate(h)))

    def test_height_22_misses_gaps_of_height_12(self):
        assert empty_gaps(12, 22) == (8, 184)

    def test_height_is_read_off_the_arc_ends(self):
        assert complete_sample(SlopeSet.parse("[1/3, 5/2]")) == farey_enumerate(10)
        assert complete_sample(SlopeSet(), SlopeSet(is_full=True)) == farey_enumerate(2)
        with pytest.raises(ValueError, match="height 51 > 50"):
            complete_sample(SlopeSet.parse("[0, 1/51]"))


SAMPLE = farey_enumerate(12)


def endpoints_and_gap_witnesses(arcs):
    """Every endpoint of the arcs, and one slope strictly inside each gap
    between circularly consecutive endpoints (the mediant, or ∞ for the
    gap that runs through it)."""
    ends = {x for a in arcs for x in (a.start, a.end) if not x.is_infinity}
    finite = sorted(ends, key=lambda x: Fraction(x.num, x.den))
    witnesses = [Slope(a.num + b.num, a.den + b.den) for a, b in zip(finite, finite[1:])]
    if finite:
        # Inside (last, ∞) and (∞, first); ∞ itself is tested as a point.
        lo, hi = finite[0], finite[-1]
        witnesses += [Slope(hi.num + 1, hi.den), Slope(lo.num - 1, lo.den)]
    return finite + [INFINITY] + witnesses


class TestCanonicalProperties:
    @given(pool_arcs)
    def test_membership_matches_arcs(self, arcs):
        s = SlopeSet.from_arcs(arcs)
        for x in SAMPLE:
            assert s.contains(x) == any(a.contains(x) for a in arcs)

    @given(arcs_over(CLOSE_POOL))
    def test_membership_matches_arcs_at_large_denominators(self, arcs):
        s = SlopeSet.from_arcs(arcs)
        for x in endpoints_and_gap_witnesses(arcs):
            assert s.contains(x) == any(a.contains(x) for a in arcs)

    @given(pool_arcs, st.data())
    def test_canonical_form_is_a_fixed_point(self, arcs, data):
        s = SlopeSet.from_arcs(arcs)
        assert SlopeSet.from_arcs(data.draw(st.permutations(arcs))) == s
        if not s.is_full:
            again = SlopeSet.from_arcs(s.arcs)
            assert again == s
            # Each run is exactly one canonical arc's span, which is kept.
            assert all(kept is arc for kept, arc in zip(again.arcs, s.arcs))

    @given(slope_set_arcs)
    def test_interior_is_canonical(self, arcs):
        """interior() skips the merge; the merge must leave it as it is."""
        inner = SlopeSet.from_arcs(arcs).interior()
        if not inner.is_full:
            assert SlopeSet.from_arcs(inner.arcs) == inner

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
        all_but_infinity = SlopeSet.from_arcs([Arc(INFINITY, INFINITY, False, False)])
        assert SlopeSet.parse("(-inf, inf)") == all_but_infinity
        assert SlopeSet.parse("{+∞}") == SlopeSet.from_arcs([Arc(INFINITY, INFINITY)])
        assert SlopeSet.parse("QP1 \\ {+∞}") == all_but_infinity


class TestParseGrammar:
    @pytest.mark.parametrize(
        "text",
        [
            "[1, 2] [3, 4]",  # no separator between the pieces
            "{1} {2}",
            "[1, 2]x",
            "[1, 2, 3]",
            "{}",
            "[0/0, 1]",
            "[1/2/3, 4]",
            "(1/2, 1/2)",
            "(1, 1]",
            "[inf, 1/0)",  # 1/0 is a fraction, so the arc is degenerate
            "[inf/2, 3]",
            "[1 2, 3]",
            "[٣, 4]",  # digits are ASCII, though int() reads any decimal digit
            "[1, 2)]",
            "[1,\n2]",  # no newline inside a piece
            "{1\n}",
            "",
            " ∪ u U ",
            "EMPTY ∪ [1, 2]",
            "QP1 \\ {1} ∪ {2}",
            "[1, 2] ∪ QP1 \\ {3}",
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            SlopeSet.parse(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("(1, 1)", "degenerate open arc '(1, 1)'"),
            # The piece alone is quoted, not the separators after it.
            ("(1, 1) ∪ [2, 3]", "degenerate open arc '(1, 1)'"),
            ("[1, 2] ∪ (5/3 , 10/6]  u [0, 1]", "degenerate open arc '(5/3 , 10/6]'"),
            ("[1, 2] [3, 4]", "slope set '[1, 2] [3, 4]' needs ∪ at position 7"),
            ("{1}  {2}", "slope set '{1}  {2}' needs ∪ at position 5"),
            ("[1, 2] ∪ x", "cannot parse slope set '[1, 2] ∪ x' at position 9"),
            ("[1, 2, 3]", "cannot parse slope set '[1, 2, 3]' at position 0"),
            ("", "cannot parse slope set ''"),
            (" ∪ u U ", "cannot parse slope set ' ∪ u U '"),
        ],
    )
    def test_error_text(self, text, message):
        with pytest.raises(ValueError) as info:
            SlopeSet.parse(text)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "text, canonical",
        [
            ("∪ [1, 2] ∪ ∪ [3, 4] ∪", "[1/1, 2/1] ∪ [3/1, 4/1]"),
            ("[1, 2] U [3, 4]", "[1/1, 2/1] ∪ [3/1, 4/1]"),
            ("[1, 2]u[3, 4]", "[1/1, 2/1] ∪ [3/1, 4/1]"),
            ("\n[1, 2]\n∪\n(3, 4)\n", "[1/1, 2/1] ∪ (3/1, 4/1)"),
            ("[2/4, +5]", "[1/2, 5/1]"),
            ("[1 / -2, inf]", "[-1/2, inf]"),
            ("[003, 007]", "[3/1, 7/1]"),
            ("{ 0 / 7 }", "{0/1}"),
            ("[3, 1]", "[3/1, inf] ∪ [-inf, 1/1]"),
            ("(-∞, 0/5]", "(-inf, 0/1]"),
            # Two ends spelled as ∞ make QP1 \ {∞}, or FULL with a closed
            # bracket; 1/0 is a fraction, so [-inf, 1/0] is the point ∞.
            ("(inf, +∞)", "QP1 \\ {1/0}"),
            ("[inf, -inf)", "FULL"),
            ("[-inf, 1/0]", "{1/0}"),
            ("empty", "EMPTY"),
            ("Full", "FULL"),
            ("QP1\n\\ { -3 }", "QP1 \\ {-3/1}"),
        ],
    )
    def test_accepts(self, text, canonical):
        assert str(SlopeSet.parse(text)) == canonical

    @pytest.mark.parametrize(
        "text",
        [
            "[1" + " " * 200_000 + "x",
            "{1" + " " * 200_000 + "x",
            "QP1" + " " * 200_000 + "x",
            " ∪ ".join(["[100/201, 300/401]"] * 10_000) + " x",
        ],
        ids=["arc-whitespace", "point-whitespace", "copoint-whitespace", "trailing-garbage"],
    )
    def test_malformed_long_text_fails_fast(self, text):
        """A failed match must not backtrack over long runs: each of these
        texts of 2·10⁵ characters is rejected in well under a second."""
        assert len(text) >= 200_000
        start = time.perf_counter()
        with pytest.raises(ValueError):
            SlopeSet.parse(text)
        assert time.perf_counter() - start < 1.0
