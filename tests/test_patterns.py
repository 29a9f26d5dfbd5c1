import pytest

from lspacesat import (
    BraidSign,
    braid_sign,
    genus_twist_bound,
    one_bridge_braid,
    pattern_from_json,
    table_pattern,
    torus_knot,
    torus_pattern,
)
from lspacesat.braids import BraidWord
from lspacesat.patterns import (
    BraidTwistFamily,
    BridgeOutOfRangeError,
    InvalidTwistFactsError,
    UnknownTwistError,
    one_bridge_braid_word,
)
from lspacesat.knots import NotCoprimeError


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
        with pytest.raises(NotCoprimeError):
            torus_pattern(4, 6)

    def test_exact_family_consistency(self):
        from math import gcd

        for p in (2, 3, 5):
            for q in (3, 7, -4, 11):
                if gcd(p, q) != 1:
                    continue
                pat = torus_pattern(p, q)
                for n in range(-5, 6):
                    assert pat.twisted_facts(n) == torus_knot(p, q + n * p)

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
        from lspacesat import braid_add_full_twists

        assert braid_sign(braid_add_full_twists(word, 1)) is BraidSign.POSITIVE

    def test_negative_twist_reduces_to_negative_word(self):
        # Untwisting once cancels a full strand cycle, leaving an
        # all-negative word, so the mirror Bennequin bound applies.
        f = one_bridge_braid(5, 2, 3).twisted_facts(-1)
        assert f.is_neg_lspace and not f.is_lspace

    def test_mixed_twist_unknown_without_override(self):
        from lspacesat.patterns import PatternFacts

        family = BraidTwistFamily(BraidWord(3, ((1, 1),) * 5), {})
        pat = PatternFacts("mixed-after-untwist", 3, 2, True, family)
        with pytest.raises(UnknownTwistError):
            pat.twisted_facts(-1)

    def test_override_supplies_mixed_twist(self):
        pat = one_bridge_braid(5, 2, 3, overrides={-1: torus_knot(2, 3)})
        assert pat.twisted_facts(-1) == torus_knot(2, 3)

    def test_bridge_range(self):
        with pytest.raises(BridgeOutOfRangeError):
            one_bridge_braid(5, 4, 1)
        with pytest.raises(BridgeOutOfRangeError):
            one_bridge_braid(2, 1, 1)

    def test_genus_grows_by_full_twist_increment(self):
        pat = one_bridge_braid(4, 2, 1)
        g0 = pat.genus_s3
        for n in (1, 2, 3):
            assert pat.twisted_facts(n).genus == g0 + n * 4 * 3 // 2


class TestGenusTwistBound:
    def test_values(self):
        assert genus_twist_bound(1, 2, -2) == 3
        assert genus_twist_bound(5, 3, 0) == 5
        assert genus_twist_bound(0, 4, 1) == 6

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

    def test_violating_answer_is_rejected(self):
        family = BraidTwistFamily(
            one_bridge_braid_word(4, 1, 1), {2: torus_knot(2, 99)}
        )
        from lspacesat.patterns import PatternFacts

        pat = PatternFacts("bad", 4, 2, True, family)
        with pytest.raises(InvalidTwistFactsError):
            pat.twisted_facts(2)


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
