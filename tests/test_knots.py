import dataclasses
import json
import re
from fractions import Fraction
from math import gcd

import pytest

from lspacesat import (
    Arc,
    INFINITY,
    KnotFacts,
    Slope,
    SlopeSet,
    UNKNOT,
    cable_facts,
    cable_is_lspace_exact,
    companion_from_json,
    lspace_slope_set,
    torus_knot,
)

from lspacesat.knots import companion_to_text, facts_from_json
from oracle_helpers import companion_to_json, seifert_genus_oracle
from lspacesat import BraidWord


# Types that stand for an int's value yet are not int.
NOT_INTS = [float, Fraction, str, bool]


class TestTorusKnot:
    def test_trefoil(self):
        t = torus_knot(2, 3)
        assert t.genus == 1 and t.is_lspace and not t.is_neg_lspace

    def test_unknot_case(self):
        t = torus_knot(2, -1)
        assert t.is_unknot and t.genus == 0 and t.is_lspace and t.is_neg_lspace

    def test_negative_side(self):
        t = torus_knot(3, -4)
        assert t.is_neg_lspace and not t.is_lspace

    def test_errors(self):
        with pytest.raises(ValueError, match="needs gcd"):
            torus_knot(4, 6)
        with pytest.raises(ValueError, match="needs gcd"):
            torus_knot(2, 0)
        with pytest.raises(ValueError, match="must be >= 2"):
            torus_knot(1, 5)

    @pytest.mark.parametrize("kind", NOT_INTS, ids=lambda kind: kind.__name__)
    @pytest.mark.parametrize("field", ["p", "m"])
    def test_refuses_a_parameter_that_is_not_an_int(self, field, kind):
        """As in json_object, a bool is not an integer and 3.0 is not 3."""
        args = {"p": 2, "m": 3}
        args[field] = kind(args[field])
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {kind.__name__}$"):
            torus_knot(**args)

    @pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_genus_formula_against_seifert_oracle(self, p, m):
        # Standard braid diagram of T(p, m): (s_1 ... s_{p-1})^m.
        from math import gcd

        if gcd(p, m) != 1:
            return
        word = BraidWord(p, tuple((i, 1) for _ in range(m) for i in range(1, p)))
        assert torus_knot(p, m).genus == seifert_genus_oracle(word)

    def test_mirror_duality(self):
        for p in (2, 3, 5):
            for m in (3, 4, 7, -3, -8):
                from math import gcd

                if gcd(p, m) != 1:
                    continue
                assert torus_knot(p, m).is_lspace == torus_knot(p, -m).is_neg_lspace


class TestKnotFactsInvariants:
    def test_nontrivial_cannot_have_both_flags(self):
        with pytest.raises(ValueError, match="both positive and negative"):
            KnotFacts("bad", 2, True, True, True, False)

    def test_lspace_forces_fibered(self):
        with pytest.raises(ValueError, match="are fibered"):
            KnotFacts("bad", 1, True, False, False, False)

    def test_unknot_shape(self):
        with pytest.raises(ValueError, match="unknot facts"):
            KnotFacts("bad", 1, True, False, True, True)

    def test_genus_zero_is_the_unknot(self):
        with pytest.raises(ValueError, match="genus 0 is the unknot"):
            KnotFacts("bad", 0, True, False, True, False)

    def test_immutable_and_slotted(self):
        k = torus_knot(2, 5)
        for name in ("genus", "name"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(k, name, 1)
        # A new name is refused too (as TypeError where CPython's frozen
        # __setattr__ refers to the class before slots were added).
        with pytest.raises((AttributeError, TypeError)):
            k.extra = 1
        assert not hasattr(k, "__dict__")
        assert k.genus == 2

    def test_equal_values_hash_equal(self):
        a, b = torus_knot(2, 3), companion_from_json({"torus_knot": [2, 3]})
        c = KnotFacts("T(2,3)", 1, True, False, True, False)
        assert a is not b and a == b == c and hash(a) == hash(b) == hash(c)
        assert KnotFacts("T(2,3)", 2, True, False, True, False) != a

    def test_positional_and_keyword_construction_agree(self):
        positional = KnotFacts("T(2,3)", 1, True, False, True, False)
        keyword = KnotFacts(
            name="T(2,3)",
            genus=1,
            is_lspace=True,
            is_neg_lspace=False,
            is_fibered=True,
            is_unknot=False,
        )
        assert positional == keyword == torus_knot(2, 3)
        assert hash(positional) == hash(keyword) == hash(torus_knot(2, 3))
        assert repr(keyword) == (
            "KnotFacts(name='T(2,3)', genus=1, is_lspace=True, is_neg_lspace=False, "
            "is_fibered=True, is_unknot=False)"
        )

    def test_replace_checks_the_facts(self):
        trefoil = torus_knot(2, 3)
        with pytest.raises(ValueError, match="^a knot of genus 0 is the unknot$"):
            dataclasses.replace(trefoil, genus=0)
        renamed = dataclasses.replace(trefoil, name="3_1")
        assert renamed == KnotFacts("3_1", 1, True, False, True, False)
        assert trefoil.name == "T(2,3)"

    def test_flags_one_and_zero_are_stored_as_bools(self):
        k = KnotFacts("K", 1, 1, 0, 1, 0)
        flags = (k.is_lspace, k.is_neg_lspace, k.is_fibered, k.is_unknot)
        assert all(type(flag) is bool for flag in flags) and flags == (True, False, True, False)
        assert k == dataclasses.replace(torus_knot(2, 3), name="K")
        assert hash(k) == hash(dataclasses.replace(torus_knot(2, 3), name="K"))

    @pytest.mark.parametrize(
        "facts, text",
        [
            (("bad", -1, False, False, True, False), "genus must be nonnegative"),
            (("bad", 1, True, False, True, True), "unknot facts are genus 0 with all flags set"),
            (("bad", 0, True, False, True, False), "a knot of genus 0 is the unknot"),
            (
                ("bad", 2, True, True, True, False),
                "a nontrivial knot cannot admit both positive and negative L-space surgeries",
            ),
            (("bad", 1, True, False, False, False), "L-space knots are fibered"),
            # As in JSON, a bool is not an integer and 1.0 is not 1.
            (("bad", 1.0, True, False, True, False), "genus must be an integer, got float"),
            (("bad", True, True, False, True, False), "genus must be an integer, got bool"),
            (("bad", Fraction(1), True, False, True, False), "genus must be an integer, got Fraction"),
            (("bad", "1", True, False, True, False), "genus must be an integer, got str"),
            ((5, 1, True, False, True, False), "a knot's name must be a string, got int"),
            ((b"K", 1, True, False, True, False), "a knot's name must be a string, got bytes"),
            ((None, 1, True, False, True, False), "a knot's name must be a string, got NoneType"),
            # A flag is a bool or the int 0 or 1: a truthy "false" is refused.
            (("bad", 1, "false", False, True, False), "is_lspace must be a bool, 0 or 1, got 'false'"),
            (("bad", 1, True, None, True, False), "is_neg_lspace must be a bool, 0 or 1, got None"),
            (("bad", 1, True, False, 2, False), "is_fibered must be a bool, 0 or 1, got 2"),
            (("bad", 1, True, False, True, 0.0), "is_unknot must be a bool, 0 or 1, got 0.0"),
        ],
        ids=[
            "negative_genus",
            "unknot_shape",
            "genus_zero",
            "both_flags",
            "unfibered",
            "float_genus",
            "bool_genus",
            "fraction_genus",
            "str_genus",
            "int_name",
            "bytes_name",
            "none_name",
            "str_flag",
            "none_flag",
            "two_flag",
            "float_flag",
        ],
    )
    def test_every_refusal_keeps_its_text(self, facts, text):
        """Positional, keyword and dataclasses.replace construction refuse
        bad facts with the same whole message."""
        named = dict(zip((f.name for f in dataclasses.fields(KnotFacts)), facts))
        for build in (
            lambda: KnotFacts(*facts),
            lambda: KnotFacts(**named),
            lambda: dataclasses.replace(torus_knot(2, 3), **named),
        ):
            with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
                build()


class TestLspaceSlopeSet:
    def test_trefoil_closed_arc(self):
        assert lspace_slope_set(torus_knot(2, 3)) == SlopeSet.from_arcs([Arc(Slope(1), INFINITY)])

    def test_negative_trefoil(self):
        got = lspace_slope_set(torus_knot(2, -3))
        assert got == SlopeSet.from_arcs([Arc(INFINITY, Slope(-1))])
        assert got.contains(Slope(-5)) and not got.contains(Slope(0))

    def test_non_lspace_knot_empty(self):
        figure8 = KnotFacts("4_1", 1, False, False, True, False)
        assert lspace_slope_set(figure8) == SlopeSet()

    def test_unknot_rejected(self):
        with pytest.raises(ValueError, match="nontrivial"):
            lspace_slope_set(UNKNOT)

    @pytest.mark.parametrize("p,m", [(2, 3), (2, 5), (3, 5), (4, 7)])
    def test_interior_formula(self, p, m):
        got = lspace_slope_set(torus_knot(p, m)).interior()
        assert got == SlopeSet.from_arcs([Arc(Slope(p * m - p - m), INFINITY, False, False)])


class TestCableCriterion:
    def test_trefoil_examples(self):
        tref = torus_knot(2, 3)
        assert cable_is_lspace_exact(tref, 2, 3)
        assert cable_is_lspace_exact(tref, 3, 4)
        assert not cable_is_lspace_exact(tref, 2, 1)

    def test_non_lspace_companion(self):
        figure8 = KnotFacts("4_1", 1, False, False, True, False)
        assert not cable_is_lspace_exact(figure8, 5, 101)

    def test_monotone_in_q(self):
        tref = torus_knot(2, 3)
        verdicts = [cable_is_lspace_exact(tref, 3, q) for q in (1, 2, 4, 5, 7, 8)]
        assert verdicts == sorted(verdicts)

    def test_coprime_required(self):
        with pytest.raises(ValueError, match="needs gcd"):
            cable_is_lspace_exact(torus_knot(2, 3), 4, 6)

    def test_cable_of_unknot_is_torus_knot(self):
        for p in range(2, 7):
            for q in range(-9, 10):
                if gcd(p, q) == 1:
                    facts = cable_facts(UNKNOT, p, q)
                    assert facts == torus_knot(p, q)
                    assert cable_is_lspace_exact(UNKNOT, p, q) == facts.is_lspace

    @pytest.mark.parametrize("companion", [UNKNOT, torus_knot(2, 3)], ids=["unknot", "trefoil"])
    @pytest.mark.parametrize(
        ("p", "q", "error"),
        [
            pytest.param(1, 3, "winding p must be", id="p_too_small"),
            pytest.param(4, 6, "needs gcd", id="not_coprime"),
        ],
    )
    def test_cable_facts_rejects_bad_p_q(self, companion, p, q, error):
        with pytest.raises(ValueError, match=error):
            cable_facts(companion, p, q)

    @pytest.mark.parametrize("companion", [UNKNOT, torus_knot(2, 3)], ids=["unknot", "trefoil"])
    @pytest.mark.parametrize("kind", NOT_INTS, ids=lambda kind: kind.__name__)
    @pytest.mark.parametrize("field", ["p", "q"])
    def test_cable_facts_refuses_a_parameter_that_is_not_an_int(self, companion, field, kind):
        args = {"p": 2, "q": 3}
        args[field] = kind(args[field])
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {kind.__name__}$"):
            cable_facts(companion, **args)


class TestJson:
    def test_torus_knot_form(self):
        assert companion_from_json({"torus_knot": [2, 3]}) == torus_knot(2, 3)

    def test_shortcuts(self):
        assert companion_from_json("trefoil") == torus_knot(2, 3)
        assert companion_from_json("T(3,5)") == torus_knot(3, 5)

    def test_explicit_round_trip(self):
        t = torus_knot(3, 5)
        assert companion_from_json(companion_to_json(t)) == t
        assert facts_from_json(json.loads(companion_to_text(t))) == t

    def test_cable_form(self):
        got = companion_from_json(
            {"cable": {"companion": {"torus_knot": [2, 3]}, "p": 2, "q": 3}}
        )
        assert got.genus == 2 * 1 + (2 - 1) * (3 - 1) // 2 == 3
        assert got.is_lspace

    def test_cable_genus_convention(self):
        tref = torus_knot(2, 3)
        c = cable_facts(tref, 3, 4)
        assert c.genus == 3 * 1 + 2 * 3 // 2 == 6
        assert c.is_lspace and not c.is_neg_lspace

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            companion_from_json("granny")

    @pytest.mark.parametrize(
        "obj, error",
        [
            ({**companion_to_json(torus_knot(2, 3)), "note": "x"}, "unknown key 'note'"),
            ({**companion_to_json(torus_knot(2, 3)), "name": 7}, "a name is a JSON string, got 7"),
            ({"torus_knot": [2, 3], "name": "x"}, "unknown key 'name'"),
            ({"cable": {"companion": "trefoil", "p": 2, "q": 3, "r": 1}}, "unknown key 'r'"),
            ({"cable": {"companion": "trefoil", "p": 2}}, "missing key 'q'"),
            # Each value has its documented shape, and the error names the key.
            ({"torus_knot": [2, 3, 4]}, r"^expected \[p, q\], two integers, got \[2, 3, 4\]$"),
            (
                {"torus_knot": {"p": 2, "q": 3}},
                r"^expected \[p, q\], two integers, got \{'p': 2, 'q': 3\}$",
            ),
            (
                {**companion_to_json(torus_knot(2, 3)), "name": None},
                "^a name is a JSON string, got None under 'name'$",
            ),
        ],
        ids=[
            "extra_field",
            "name_not_a_string",
            "torus_knot_extra",
            "cable_extra",
            "cable_missing",
            "torus_knot_three_integers",
            "torus_knot_pair_as_object",
            "name_null",
        ],
    )
    def test_only_documented_keys(self, obj, error):
        with pytest.raises(ValueError, match=error):
            companion_from_json(obj)

    @pytest.mark.parametrize("kind", [float, bool], ids=lambda kind: kind.__name__)
    @pytest.mark.parametrize(
        "form, outer, key, built",
        [
            ({"torus_knot": [2, 3]}, "torus_knot", 0, torus_knot(2, 3)),
            ({"torus_knot": [2, 3]}, "torus_knot", 1, torus_knot(2, 3)),
            (
                {"cable": {"companion": "trefoil", "p": 2, "q": 3}},
                "cable",
                "p",
                cable_facts(torus_knot(2, 3), 2, 3),
            ),
            (
                {"cable": {"companion": "trefoil", "p": 2, "q": 3}},
                "cable",
                "q",
                cable_facts(torus_knot(2, 3), 2, 3),
            ),
            (companion_to_json(torus_knot(2, 3)), None, "genus", torus_knot(2, 3)),
        ],
        ids=["torus_knot-p", "torus_knot-m", "cable-p", "cable-q", "facts-genus"],
    )
    def test_an_integer_key_refuses_a_float_and_a_bool(self, form, outer, key, built, kind):
        """The form builds the knot; the same number as a float or a bool
        under any one integer key is refused, naming the key, before
        KnotFacts sees it."""
        assert companion_from_json(form) == built
        form = dict(form)
        if outer is not None:
            inner = form[outer]
            form[outer] = inner = list(inner) if isinstance(inner, list) else dict(inner)
        else:
            inner = form
        inner[key] = kind(inner[key])
        if isinstance(inner, list):
            message = rf"^expected \[p, q\], two integers, got {re.escape(repr(inner))}$"
        else:
            message = rf"^expected an integer, got {re.escape(repr(inner[key]))} under '{key}'$"
        with pytest.raises(ValueError, match=message):
            companion_from_json(form)
