import dataclasses
import json
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lspacesat import (
    BraidSign,
    BraidWord,
    Certificate,
    KnotFacts,
    PatternFacts,
    braid_add_full_twists,
    braid_free_reduce,
    braid_mirror,
    braid_sign,
    certify_satellite,
    closure_components,
    genus_twist_bound,
    one_bridge_braid,
    pattern_from_json,
    positive_braid_closure_genus,
    replay_certificate,
    table_pattern,
    torus_knot,
    torus_pattern,
)
from lspacesat.braids import closure_permutation
from lspacesat.patterns import (
    MAX_BRIDGE_WIDTH,
    ConsistencyError,
    UnknownTwistError,
    _BraidPattern,
    _TablePattern,
    pattern_to_text,
)

import strategies
from oracle_helpers import one_bridge_braid_word


class TestTorusPattern:
    def test_untwisting_to_unknot(self):
        pat = torus_pattern(2, 3)
        assert pat.twisted_facts(-2).is_unknot

    def test_zero_twist(self):
        facts = torus_pattern(2, 3).twisted_facts(0)
        assert facts == torus_knot(2, 3)
        assert facts.genus == 1

    def test_negative_side(self):
        facts = torus_pattern(3, 7).twisted_facts(-4)
        assert facts == torus_knot(3, -5)
        assert facts.is_neg_lspace and not facts.is_lspace

    def test_threshold(self):
        assert torus_pattern(2, 3).neg_lspace_threshold == 1
        assert torus_pattern(3, 7).neg_lspace_threshold == 2
        assert torus_pattern(2, -5).neg_lspace_threshold == 0

    def test_threshold_is_least(self):
        for p, q in [(2, 3), (3, 7), (4, 9), (5, 13)]:
            pat = torus_pattern(p, q)
            n = pat.neg_lspace_threshold
            assert pat.twisted_facts(-n).is_neg_lspace
            if n > 0:
                assert not pat.twisted_facts(-(n - 1)).is_neg_lspace

    def test_coprime_required(self):
        with pytest.raises(ValueError, match="needs gcd"):
            torus_pattern(4, 6)

    def test_exact_family_consistency(self):
        """The braided rule at b = 0 against knots.torus_knot: P(U, n) of
        T(p, q) is T(p, q + n·p), in name, genus and all four flags."""
        from math import gcd

        checked = 0
        for p in range(2, 13):
            for q in range(-60, 61):
                if gcd(p, q) != 1:
                    continue
                pat = torus_pattern(p, q)
                for n in range(-8, 9):
                    assert pat.twisted_facts(n) == torus_knot(p, q + n * p)
                    checked += 1
        assert checked == 13226

    def test_twist_composition(self):
        pat = torus_pattern(2, 3)
        for m in range(-3, 4):
            rebased = torus_pattern(2, 3 + 2 * m)
            for n in range(-3, 4):
                assert pat.twisted_facts(m + n) == rebased.twisted_facts(n)


class TestOneBridgeBraid:
    def test_basic_facts(self):
        pat = one_bridge_braid(5, 2, 3)
        assert pat.winding == 5
        assert pat.genus_s3 == 5
        f = pat.twisted_facts(0)
        assert f.is_lspace and f.is_fibered and not f.is_unknot

    def test_positive_twist_stays_positive(self):
        pat = one_bridge_braid(5, 2, 3)
        assert pat.twisted_facts(1).is_lspace
        word = one_bridge_braid_word(5, 2, 3)
        assert braid_sign(braid_add_full_twists(word, 1)) is BraidSign.POSITIVE

    def test_negative_twist_reduces_to_negative_word(self):
        # Untwisting once cancels a full strand cycle, leaving an
        # all-negative word, so the mirror Bennequin bound applies.
        f = one_bridge_braid(5, 2, 3).twisted_facts(-1)
        assert f.is_neg_lspace and not f.is_lspace

    def test_twists_match_the_braid_engine(self):
        """P(U, n) of B(w, b, t) read off B(w, b, t + n·w) agrees with
        twisting, reducing and measuring the literal word."""
        checked = 0
        for w in range(3, 8):
            for b in range(1, w - 1):
                for t in range(-15, 16):
                    word = one_bridge_braid_word(w, b, t)
                    if closure_components(closure_permutation(word)) != 1:
                        with pytest.raises(UnknownTwistError):
                            one_bridge_braid(w, b, t)
                        continue
                    pat = one_bridge_braid(w, b, t)
                    for n in range(-4, 5):
                        twisted = braid_free_reduce(braid_add_full_twists(word, n))
                        sign = braid_sign(twisted)
                        assert sign is not BraidSign.MIXED
                        positive = sign in (BraidSign.POSITIVE, BraidSign.TRIVIAL)
                        g = positive_braid_closure_genus(
                            twisted if positive else braid_mirror(twisted)
                        )
                        name = f"closure of B({w},{b},{t + n * w})"
                        expected = KnotFacts(
                            name, g, positive or g == 0, not positive or g == 0, True, g == 0
                        )
                        assert pat.twisted_facts(n) == expected
                        checked += 1
        assert checked == 96 * 9  # 96 of the 465 (w, b, t) close to knots

    def test_word_equals_the_letter_by_letter_build(self):
        """The word repeats one pass tuple; its letters are those of the
        word built one letter at a time."""
        for w in range(3, 13):
            for b in range(1, w - 1):
                for t in range(-2 * w, 3 * w):
                    letters = [(i, 1) for i in range(b, 0, -1)]
                    if t >= 0:
                        letters += [(i, 1) for _ in range(t) for i in range(w - 1, 0, -1)]
                    else:
                        letters += [(i, -1) for _ in range(-t) for i in range(1, w)]
                    assert one_bridge_braid_word(w, b, t) == BraidWord(w, tuple(letters))

    def test_knot_agrees_with_the_word_permutation(self):
        """Pins the strand map's convention: B(w, b, t) is accepted exactly
        when the permutation of its word B(w, b, t mod w) is one cycle.
        Reversing the bridge cycle or the passes in the map breaks this."""
        for w in range(3, 13):
            for b in range(1, w - 1):
                for t in range(-2 * w, 3 * w):
                    word = one_bridge_braid_word(w, b, t % w)
                    knot = closure_components(closure_permutation(word)) == 1
                    try:
                        one_bridge_braid(w, b, t)
                    except UnknownTwistError:
                        assert not knot, (w, b, t)
                    else:
                        assert knot, (w, b, t)

    def test_knot_check_memory(self):
        """The knot check of B(w, 1, w - 2) builds no word, only a
        permutation of w strands, so its traced peak grows as w: under
        8 MiB at w = 500 and at w = 10⁵, where the word would have about
        10¹⁰ letters."""
        for w in (500, 10**5):
            tracemalloc.start()
            try:
                one_bridge_braid(w, 1, w - 2)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * 2**20, w

    def test_bridge_range(self):
        with pytest.raises(ValueError, match="bridge width"):
            one_bridge_braid(5, 4, 1)
        with pytest.raises(ValueError, match="strands"):
            one_bridge_braid(2, 1, 1)
        # Refused before the knot check builds a permutation of w strands.
        with pytest.raises(ValueError, match=r"^need w <= 1000000 strands, got 1000001$"):
            one_bridge_braid(MAX_BRIDGE_WIDTH + 1, 1, 0)
        with pytest.raises(ValueError, match=r"^need w <= 1000000 strands, got 10{20}$"):
            one_bridge_braid(10**20, 1, 10**20 - 1)

    def test_genus_grows_by_full_twist_increment(self):
        pat = one_bridge_braid(4, 2, 1)
        g0 = pat.genus_s3
        for n in (1, 2, 3):
            assert pat.twisted_facts(n).genus == g0 + n * 4 * 3 // 2


# The base fields (name, winding, genus_s3, disk, threshold) that a
# table refuses, with its message.
BAD_BASE_FIELDS = [
    (("x", -1, 0, False, None), "winding and genus_s3 must be nonnegative"),
    (("x", 2, -1, True, None), "winding and genus_s3 must be nonnegative"),
    (("x", 0, 0, True, None), "forces winding >= 1"),
    (("x", 2, 1, True, -1), "neg_lspace_threshold must be nonnegative"),
    ((5, 2, 1, True, 1), r"^a table's name must be a string, got int$"),
    (("x", 2.0, 1, True, 7), r"^winding must be an integer, got float$"),
    (("x", 2, True, True, 7), r"^genus_s3 must be an integer, got bool$"),
    (("x", 2, 1, True, 7.0), r"^neg_lspace_threshold must be an integer, got float$"),
    (("x", 2, 1, True, True), r"^neg_lspace_threshold must be an integer, got bool$"),
    # The disk flag is a bool or the int 0 or 1: a truthy "no" is refused.
    (("x", 2, 1, "no", None), r"^has_minimal_meridional_disk must be a bool, 0 or 1, got 'no'$"),
    (("x", 2, 1, 2, None), r"^has_minimal_meridional_disk must be a bool, 0 or 1, got 2$"),
    (("x", 2, 1, None, None), r"^has_minimal_meridional_disk must be a bool, 0 or 1, got None$"),
]
BASE_NAMES = ["name", "winding", "genus_s3", "has_minimal_meridional_disk", "neg_lspace_threshold"]

# Braid inputs (winding, b, t, threshold) that torus_pattern (b = 0) or
# one_bridge_braid refuses, with the error and its message.
BAD_BRAIDS = [
    ((1, 0, 3, None), ValueError, r"^longitudinal winding p must be >= 2, got 1$"),
    ((4, 0, 2, None), ValueError, r"^T\(4,2\) needs gcd\(p, m\) = 1$"),
    ((2, 1, 1, None), ValueError, r"^need w >= 3 strands, got 2$"),
    ((MAX_BRIDGE_WIDTH + 1, 1, 0, None), ValueError, r"^need w <= 1000000 strands, got 1000001$"),
    ((5, 4, 1, None), ValueError, r"^bridge width must satisfy 1 <= b <= w-2, got 4$"),
    ((5, 2, 15, None), UnknownTwistError, r"closure is a link, not a knot"),
    ((5, 2, 21, -1), ValueError, r"^neg_lspace_threshold must be nonnegative$"),
    ((5.0, 2, 21, None), ValueError, r"^winding must be an integer, got float$"),
    ((5, 2, 21, 3.0), ValueError, r"^neg_lspace_threshold must be an integer, got float$"),
    ((5, 2, 21, True), ValueError, r"^neg_lspace_threshold must be an integer, got bool$"),
    ((2, 0, True, None), ValueError, r"^t must be an integer, got bool$"),
]
BRAID_NAMES = ["winding", "b", "t", "neg_lspace_threshold"]
TREFOIL = torus_knot(2, 3)

# Each integer input of each pattern kind, on a record that holds it,
# and the types that stand for the int it holds yet are not int.
TABLE = table_pattern("t", 2, 1, True, {0: TREFOIL}, neg_threshold=7, pos_from=-2)
INTEGER_INPUTS = [
    pytest.param(torus_pattern(2, 3), "winding", id="torus-winding"),
    pytest.param(torus_pattern(2, 3), "t", id="torus-t"),
    *(
        pytest.param(one_bridge_braid(5, 2, 21, 3), name, id=f"braid-{name}")
        for name in BRAID_NAMES
    ),
    *(
        pytest.param(TABLE, name, id=f"table-{name}")
        for name in ["winding", "genus_s3", "neg_lspace_threshold", "pos_tail_from"]
    ),
]
NOT_INTS = [float, Fraction, str, bool]


def built_publicly(pattern, changes):
    """The pattern the public constructor of its kind builds from its
    inputs with changes: torus_pattern for b = 0, one_bridge_braid for
    other b, table_pattern for a table."""
    inputs = {f.name: getattr(pattern, f.name) for f in dataclasses.fields(pattern) if f.init}
    inputs.update(changes)
    if isinstance(pattern, _TablePattern):
        name, winding, genus_s3, disk, threshold = (inputs[name] for name in BASE_NAMES)
        return table_pattern(
            name, winding, genus_s3, disk, inputs["entries"], threshold, inputs["pos_tail_from"]
        )
    w, b, t, threshold = (inputs[name] for name in BRAID_NAMES)
    return torus_pattern(w, t) if b == 0 else one_bridge_braid(w, b, t, threshold)


def outcome(build):
    """The pattern build returns with its text, or its refusal."""
    try:
        pattern = build()
    except (ValueError, UnknownTwistError) as e:
        return type(e), str(e)
    return pattern, pattern_to_text(pattern)


@st.composite
def replaced_inputs(draw):
    """A pattern of tests/strategies and changes to some of its inputs:
    winding, b, t or threshold of a braided pattern; winding, entries (the
    same ones reordered, or others) or a tail of a table."""
    pattern = draw(strategies.patterns)
    threshold = st.none() | st.integers(-2, 8)
    if isinstance(pattern, _BraidPattern):
        options = {"b": st.integers(-1, 10), "t": st.integers(-40, 40)}
    else:
        options = {
            "entries": st.just(dict(reversed(pattern.entries.items())))
            | st.dictionaries(st.integers(-6, 6), strategies.companions, max_size=3),
            "pos_tail_from": st.none() | st.integers(-6, 4),
        }
    options.update(winding=st.integers(-3, 12), neg_lspace_threshold=threshold)
    return pattern, draw(st.fixed_dictionaries({}, optional=options))


class TestConstructors:
    """Each pattern kind's class is its one constructor, built from the
    kind's inputs by position or by name; the public constructors each
    call one, and dataclasses.replace re-derives every derived fact."""

    @pytest.mark.parametrize("base, message", BAD_BASE_FIELDS)
    def test_base_refusals_by_position_and_by_name(self, base, message):
        with pytest.raises(ValueError, match=message):
            _TablePattern(*base[:4], {}, base[4])
        with pytest.raises(ValueError, match=message):
            _TablePattern(**dict(zip(BASE_NAMES, base)), entries={})
        with pytest.raises(ValueError, match=message):
            table_pattern(*base[:4], {}, base[4])

    @pytest.mark.parametrize("inputs, error, message", BAD_BRAIDS)
    def test_braid_refusals_by_position_and_by_name(self, inputs, error, message):
        w, b, t, threshold = inputs
        with pytest.raises(error, match=message):
            _BraidPattern(*inputs)
        with pytest.raises(error, match=message):
            _BraidPattern(**dict(zip(BRAID_NAMES, inputs)))
        with pytest.raises(error, match=message):
            torus_pattern(w, t) if b == 0 else one_bridge_braid(w, b, t, threshold)

    @pytest.mark.parametrize("kind", NOT_INTS, ids=lambda kind: kind.__name__)
    @pytest.mark.parametrize("pattern, name", INTEGER_INPUTS)
    def test_replace_refuses_an_integer_that_is_not_an_int(self, pattern, name, kind):
        """The int an input holds rebuilds the record; the same number as
        a float, a Fraction, a str or a bool is refused, naming the input
        and the type, as json_object refuses it."""
        value = getattr(pattern, name)
        assert dataclasses.replace(pattern, **{name: value}) == pattern
        message = f"^{name} must be an integer, got {kind.__name__}$"
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(pattern, **{name: kind(value)})

    @pytest.mark.parametrize("kind", NOT_INTS, ids=lambda kind: kind.__name__)
    def test_replace_refuses_a_twist_key_that_is_not_an_int(self, kind):
        assert dataclasses.replace(TABLE, entries={0: TREFOIL}) == TABLE
        with pytest.raises(ValueError, match=f"^a twist key must be an integer, got {kind.__name__}$"):
            dataclasses.replace(TABLE, entries={kind(0): TREFOIL})

    def test_one_bridge_braid_refuses_b_0(self):
        with pytest.raises(ValueError, match=r"^bridge width must satisfy 1 <= b <= w-2, got 0$"):
            one_bridge_braid(5, 0, 2)
        with pytest.raises(ValueError, match=r"^need w >= 3 strands, got 2$"):
            one_bridge_braid(2, 0, 1)

    def test_replace_goes_through_the_checks(self):
        with pytest.raises(ValueError, match="neg_lspace_threshold must be nonnegative"):
            dataclasses.replace(one_bridge_braid(5, 2, 21), neg_lspace_threshold=-1)
        with pytest.raises(ValueError, match="neg_lspace_threshold must be nonnegative"):
            dataclasses.replace(table_pattern("t", 2, 1, True, {}), neg_lspace_threshold=-1)
        # A torus pattern derives its threshold and reads no given one.
        assert dataclasses.replace(torus_pattern(3, 2), neg_lspace_threshold=-1) == torus_pattern(3, 2)
        replaced = dataclasses.replace(torus_pattern(3, 2), t=5)
        assert replaced == torus_pattern(3, 5)
        assert replaced.name == "T(3,5)-pattern"
        assert (replaced.genus_s3, replaced.neg_lspace_threshold) == (4, 2)

    def test_a_replaced_width_is_refused_before_anything_is_built(self):
        """A permutation of 10⁸ strands would take about 800 MB."""
        pattern = one_bridge_braid(5, 2, 21)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"^need w <= 1000000 strands, got 100000000$"):
                dataclasses.replace(pattern, winding=10**8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("field", ["name", "genus_s3", "has_minimal_meridional_disk"])
    def test_a_derived_field_cannot_be_replaced(self, field):
        for pattern in (torus_pattern(3, 2), one_bridge_braid(5, 2, 21, 3)):
            with pytest.raises(ValueError, match=f"^field {field} is declared with init=False"):
                dataclasses.replace(pattern, **{field: getattr(pattern, field)})

    @settings(max_examples=200, deadline=None)
    @given(replaced_inputs(), strategies.companions)
    @example((one_bridge_braid(5, 2, 21, 3), {"t": 15}), TREFOIL)
    @example((one_bridge_braid(5, 2, 21, 3), {"t": 22}), TREFOIL)
    @example((torus_pattern(3, 2), {"t": 5}), TREFOIL)
    @example(
        (
            table_pattern("t", 2, 1, True, {0: TREFOIL, 1: torus_knot(2, 5)}, 2, 1),
            {"entries": {1: torus_knot(2, 5), 0: TREFOIL}},
        ),
        TREFOIL,
    )
    def test_replace_builds_what_the_public_constructor_builds(self, case, companion):
        """replace gives the pattern, and text, of the public constructor
        on the same inputs, or its refusal; each certificate written for
        the pattern replays to its verdict."""
        pattern, changes = case
        got = outcome(lambda: dataclasses.replace(pattern, **changes))
        assert got == outcome(lambda: built_publicly(pattern, changes))
        if isinstance(got[0], PatternFacts):
            cert = certify_satellite(got[0], companion)
            assert replay_certificate(Certificate.from_json(cert.to_json())) == cert.verdict

    def test_positional_and_keyword_builds_are_equal(self):
        by_name = _BraidPattern(winding=3, b=0, t=2)
        assert by_name == torus_pattern(3, 2) == _BraidPattern(3, 0, 2)
        assert hash(by_name) == hash(torus_pattern(3, 2))
        braid = _BraidPattern(winding=4, b=1, t=10, neg_lspace_threshold=2)
        assert braid == one_bridge_braid(4, 1, 10, 2) == _BraidPattern(4, 1, 10, 2)
        assert one_bridge_braid(4, 1, 10, 2) == one_bridge_braid(4, 1, 10, 2)
        assert hash(one_bridge_braid(4, 1, 10, 2)) == hash(one_bridge_braid(4, 1, 10, 2))
        assert torus_pattern(3, 2) != torus_pattern(3, 4)
        assert one_bridge_braid(4, 1, 10, 2) != one_bridge_braid(4, 1, 10, 3)
        table = table_pattern("t", 2, 1, True, {0: torus_knot(2, 3)}, 1)
        assert table == table_pattern("t", 2, 1, True, {0: torus_knot(2, 3)}, 1)
        assert table != table_pattern("t", 2, 1, True, {0: torus_knot(2, 3)}, 2)
        by_name = _TablePattern(
            name="t",
            winding=2,
            genus_s3=1,
            has_minimal_meridional_disk=True,
            entries={0: torus_knot(2, 3)},
            neg_lspace_threshold=1,
        )
        assert by_name == table == _TablePattern("t", 2, 1, True, {0: torus_knot(2, 3)}, 1)


class TestGenusTwistBound:
    def test_values(self):
        assert genus_twist_bound(1, 2, -2) == 3
        assert genus_twist_bound(5, 3, 0) == 5
        assert genus_twist_bound(0, 4, 1) == 6
        with pytest.raises(ValueError, match="winding must be nonnegative"):
            genus_twist_bound(0, -1, 1)

    def test_bound_holds_on_builtin_families(self):
        pats = [torus_pattern(2, 3), torus_pattern(3, 7), one_bridge_braid(4, 2, 1)]
        for pat in pats:
            for n in range(-10, 11):
                try:
                    facts = pat.twisted_facts(n)
                except UnknownTwistError:
                    continue
                assert facts.genus <= genus_twist_bound(pat.genus_s3, pat.winding, n)

    def test_torus_untwist_example(self):
        assert torus_pattern(2, 3).twisted_facts(-2).genus == 0 <= genus_twist_bound(1, 2, -2)

    class Lying(_BraidPattern):
        # The torus pattern T(2,3) (b = 0), of winding 2 and genus 1,
        # answering T(2, 99), of genus 49, for every twist: its bound at
        # twist n is 1 + |n|.
        def _twist(self, n):
            return torus_knot(2, 99)

    def test_violating_answer_is_rejected(self):
        pat = self.Lying(winding=2, b=0, t=3)
        assert pat.twisted_facts(48) == torus_knot(2, 99)  # bound 1 + 48 = 49
        with pytest.raises(ConsistencyError, match="genus 49 at twist 2 exceeds bound 3"):
            pat.twisted_facts(2)

    @pytest.mark.parametrize("n", [48, -48])
    def test_genus_at_the_bound_passes(self, n):
        assert self.Lying(winding=2, b=0, t=3).twisted_facts(n) == torus_knot(2, 99)

    @pytest.mark.parametrize("n", [47, -47])
    def test_genus_one_over_the_bound_is_rejected(self, n):
        with pytest.raises(ConsistencyError, match=f"genus 49 at twist {n} exceeds bound 48"):
            self.Lying(winding=2, b=0, t=3).twisted_facts(n)


class TestTablePattern:
    def build(self):
        return table_pattern(
            name="demo-table",
            winding=2,
            genus_s3=1,
            has_disk=True,
            twists={0: torus_knot(2, 3), -2: torus_knot(2, -1)},
            neg_threshold=5,
            pos_from=3,
        )

    def test_explicit_entries(self):
        pat = self.build()
        assert pat.twisted_facts(0) == torus_knot(2, 3)
        assert pat.twisted_facts(-2).is_unknot

    def test_tails(self):
        pat = self.build()
        assert pat.twisted_facts(-7).is_neg_lspace
        assert pat.twisted_facts(4).is_lspace

    def test_tail_at_genus_bound_zero_is_the_unknot(self):
        # Winding 1 adds no genus under twisting, so every tail twist of a
        # genus-0 pattern is bounded by genus 0.
        pat = table_pattern("t", 1, 0, True, {}, neg_threshold=0, pos_from=1)
        for n in (-3, 0, 2):
            assert pat.twisted_facts(n) == KnotFacts(
                f"table tail n={n}", 0, True, True, True, True
            )
        assert certify_satellite(pat, torus_knot(2, 3)).reason == "thm1.2"

    @pytest.mark.parametrize(
        "genus_s3, twists, neg_threshold, pos_from, message",
        [
            (
                1,
                {-8: torus_knot(2, 3)},
                7,
                -2,
                "entry n=-8 lies in the negative tail n <= -7 but is not a negative",
            ),
            (1, {1: torus_knot(2, -3)}, 7, 1, "entry n=1 lies in the positive tail n >= 1 but is not an"),
            (1, {}, 2, -10, "tails n <= -2 and n >= -10 overlap at n=-10, whose genus bound 11"),
            # P(U) is the trefoil, of genus 1, not 5.
            (5, {0: torus_knot(2, 3)}, 7, -2, r"entry n=0 is P\(U\), of genus 1, not 5"),
            # One full twist on 2 strands changes the genus by at most 1,
            # so P(U, -1) of a genus-5 P(U) has genus at least 4.
            (
                5,
                {0: torus_knot(2, 11), -1: torus_knot(2, 1)},
                7,
                -2,
                "entry n=-1 has genus 0, under the lower genus twist bound 4",
            ),
            # A twist key or a tail that is not exactly an int.
            (1, {0.0: torus_knot(2, 3)}, 7, -2, r"^a twist key must be an integer, got float$"),
            (1, {}, 7, -2.0, r"^pos_tail_from must be an integer, got float$"),
            # A twist value that is not KnotFacts, after good entries.
            (1, {0: torus_knot(2, 3), 1: "trefoil"}, 7, -2, r"^table entry n=1 must be KnotFacts, got str$"),
            (1, {-1: None}, 7, -2, r"^table entry n=-1 must be KnotFacts, got NoneType$"),
        ],
        ids=[
            "entry_in_negative_tail",
            "entry_in_positive_tail",
            "overlapping_tails",
            "p_of_u_genus",
            "under_the_lower_bound",
            "float_twist_key",
            "float_pos_from",
            "str_twist_value",
            "none_twist_value",
        ],
    )
    def test_refuses_a_table_that_contradicts_itself(
        self, genus_s3, twists, neg_threshold, pos_from, message
    ):
        with pytest.raises(ValueError, match=message):
            table_pattern(
                "t", 2, genus_s3, True, twists, neg_threshold=neg_threshold, pos_from=pos_from
            )

    def test_disk_flag_one_and_zero_are_stored_as_bools(self):
        for given, stored in ((1, True), (0, False)):
            disk = table_pattern("t", 2, 1, given, {}).has_minimal_meridional_disk
            assert type(disk) is bool and disk is stored

    def test_tails_may_overlap_where_the_bound_is_zero(self):
        # Winding 1 adds no genus, so both tails of a genus-0 pattern give
        # the unknot.  The overlap is decided at one twist, not walked.
        pat = table_pattern("t", 1, 0, True, {}, neg_threshold=0, pos_from=-(10**18))
        assert pat.twisted_facts(-5) == KnotFacts("table tail n=-5", 0, True, True, True, True)
        # Winding 2 adds genus at every twist but 0; tails that meet at
        # one twist overlap there.
        table_pattern("t", 2, 0, True, {}, neg_threshold=0, pos_from=0)
        with pytest.raises(ValueError, match="overlap at n=-1, whose genus bound 1"):
            table_pattern("t", 2, 0, True, {}, neg_threshold=1, pos_from=-1)

    def test_one_text_whatever_the_order_of_twists(self):
        """Twists given in either order make one table: its entries in
        order of n, and one certificate."""
        twists = {0: torus_knot(2, 3), 1: torus_knot(2, 5)}
        orders = (twists.items(), reversed(twists.items()))
        tables = [table_pattern("t", 2, 1, True, dict(order)) for order in orders]
        assert [list(pat.entries) for pat in tables] == [[0, 1], [0, 1]]
        texts = [certify_satellite(pat, torus_knot(2, 3)).to_json() for pat in tables]
        assert texts[0] == texts[1]
        assert list(json.loads(texts[0])["pattern"]["table"]["twists"]) == ["0", "1"]

    def test_errors_name_the_first_twist_at_fault_in_the_order_given(self):
        # Both entries break the genus twist bound of a genus-1 pattern.
        bad = {3: torus_knot(2, 21), -3: torus_knot(2, 21)}
        for twists in (bad, dict(reversed(bad.items()))):
            n = next(iter(twists))
            with pytest.raises(ValueError, match=f"entry n={n} violates"):
                table_pattern("t", 2, 1, True, twists)

    def test_gap_errors(self):
        pat = self.build()
        with pytest.raises(UnknownTwistError):
            pat.twisted_facts(-3)
        with pytest.raises(UnknownTwistError):
            pat.twisted_facts(2)


class TestJson:
    def test_torus_form(self):
        pat = pattern_from_json({"torus_pattern": [2, 3]})
        assert pat.winding == 2 and pat.genus_s3 == 1

    def test_one_bridge_form(self):
        pat = pattern_from_json(
            {"one_bridge_braid": {"w": 5, "b": 2, "t": 3, "neg_threshold": 9}}
        )
        assert pat.winding == 5 and pat.neg_lspace_threshold == 9

    def test_table_form(self):
        pat = pattern_from_json(
            {
                "table": {
                    "winding": 2,
                    "genus_s3": 1,
                    "has_disk": True,
                    "twists": {"0": {"torus_knot": [2, 3]}},
                    "neg_threshold": 4,
                    "pos_from": 1,
                }
            }
        )
        assert pat.twisted_facts(0) == torus_knot(2, 3)
        assert pat.twisted_facts(-4).is_neg_lspace

    def test_unknown_form(self):
        with pytest.raises(ValueError):
            pattern_from_json({"mystery": 1})

    @pytest.mark.parametrize(
        "obj, error",
        [
            (
                {"one_bridge_braid": {"w": 4, "b": 1, "t": 10, "neg_treshold": 3}},
                "unknown key 'neg_treshold'",
            ),
            (
                {"one_bridge_braid": {"w": 5, "b": 2, "t": 3, "overrides": {"-1": "trefoil"}}},
                "unknown key 'overrides'",
            ),
            (
                {"table": {"winding": 2, "genus_s3": 1, "has_disk": True, "neg_treshold": 7}},
                "unknown key 'neg_treshold'",
            ),
            (
                {"torus_pattern": [2, 3], "table": {}},
                r"exactly one kind key, got \['table', 'torus_pattern'\]",
            ),
            ({"one_bridge_braid": {"w": 4, "b": 1}}, "missing key 't'"),
            (
                {"table": {"name": 7, "winding": 2, "genus_s3": 1, "has_disk": True}},
                "a name is a JSON string, got 7",
            ),
            # Each value has its documented shape, and the error names the key.
            ({"torus_pattern": [2, 3, 4]}, r"^expected \[p, q\], two integers, got \[2, 3, 4\]$"),
            (
                {"torus_pattern": {"p": 2, "q": 3}},
                r"^expected \[p, q\], two integers, got \{'p': 2, 'q': 3\}$",
            ),
            (
                {"table": {"winding": 2, "genus_s3": 1, "has_disk": True, "twists": []}},
                r"^expected a JSON object, got \[\] under 'twists'$",
            ),
            (
                {"table": {"winding": 2, "genus_s3": 1, "has_disk": True, "twists": None}},
                "^expected a JSON object, got None under 'twists'$",
            ),
            (
                {"table": {"name": None, "winding": 2, "genus_s3": 1, "has_disk": True}},
                "^a name is a JSON string, got None under 'name'$",
            ),
            (
                {"table": {"winding": 2, "genus_s3": 1, "has_disk": True, "twists": {"x": "trefoil"}}},
                "^twist keys are decimal integers, got 'x'$",
            ),
        ],
        ids=[
            "braid_misspelt_threshold",
            "braid_overrides",
            "table_misspelt_threshold",
            "two_kinds",
            "braid_missing_t",
            "table_name_not_a_string",
            "torus_three_integers",
            "torus_pair_as_object",
            "table_twists_a_list",
            "table_twists_null",
            "table_name_null",
            "table_twist_key_not_a_number",
        ],
    )
    def test_only_documented_keys(self, obj, error):
        with pytest.raises(ValueError, match=error):
            pattern_from_json(obj)

    @pytest.mark.parametrize("kind", [float, bool], ids=lambda kind: kind.__name__)
    @pytest.mark.parametrize(
        "form, key, built",
        [
            *(({"torus_pattern": [2, 3]}, i, torus_pattern(2, 3)) for i in (0, 1)),
            *(
                (
                    {"one_bridge_braid": {"w": 5, "b": 2, "t": 21, "neg_threshold": 3}},
                    key,
                    one_bridge_braid(5, 2, 21, 3),
                )
                for key in ["w", "b", "t", "neg_threshold"]
            ),
            *(
                (
                    {
                        "table": {
                            "name": "t",
                            "winding": 2,
                            "genus_s3": 1,
                            "has_disk": True,
                            "twists": {"0": "trefoil"},
                            "neg_threshold": 7,
                            "pos_from": -2,
                        }
                    },
                    key,
                    TABLE,
                )
                for key in ["winding", "genus_s3", "neg_threshold", "pos_from"]
            ),
        ],
        ids=["torus-p", "torus-q", "braid-w", "braid-b", "braid-t", "braid-neg_threshold",
             "table-winding", "table-genus_s3", "table-neg_threshold", "table-pos_from"],
    )
    def test_an_integer_key_refuses_a_float_and_a_bool(self, form, key, built, kind):
        """The form builds the record; the same number as a float or a
        bool under any one integer key is refused, naming the key, before
        a record constructor sees it."""
        assert pattern_from_json(form) == built
        ((name, spec),) = form.items()
        spec = list(spec) if isinstance(spec, list) else dict(spec)
        spec[key] = kind(spec[key])
        if isinstance(spec, list):
            message = rf"^expected \[p, q\], two integers, got {re.escape(repr(spec))}$"
        else:
            got = re.escape(repr(spec[key]))
            message = rf"^expected an integer(?: or null)?, got {got} under '{key}'$"
        with pytest.raises(ValueError, match=message):
            pattern_from_json({name: spec})

    @pytest.mark.parametrize(
        "pat",
        [
            torus_pattern(2, 3),
            torus_pattern(3, -7),
            one_bridge_braid(5, 2, 3),
            one_bridge_braid(5, 2, 21, neg_lspace_threshold=3),
            table_pattern(
                "tabled",
                2,
                1,
                True,
                {0: torus_knot(2, 3), -2: torus_knot(2, -1)},
                neg_threshold=4,
                pos_from=-3,
            ),
            table_pattern("bare", 0, 0, False, {}),
        ],
        ids=["torus", "torus_negative", "braid", "braid_threshold", "table", "table_bare"],
    )
    def test_to_json_round_trip(self, pat):
        text = pattern_to_text(pat)
        assert pattern_from_json(json.loads(text)) == pat
