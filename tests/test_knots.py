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


# What stands for an int's value yet is not an int, made from the int;
# None stands for no value at all.
NOT_INTS = [float, Fraction, str, bool, lambda _: None]


class TestTorusKnot:
    @pytest.mark.parametrize(
        "p, m, facts",
        [
            (2, 3, KnotFacts("T(2,3)", 1, True, False, True, False)),
            (2, -1, KnotFacts("T(2,-1)", 0, True, True, True, True)),
            (3, -4, KnotFacts("T(3,-4)", 3, False, True, True, False)),
        ],
    )
    def test_worked_facts(self, p, m, facts):
        assert torus_knot(p, m) == facts

    @pytest.mark.parametrize(
        "p, m, message",
        [(4, 6, "needs gcd"), (2, 0, "needs gcd"), (1, 5, "must be >= 2")],
    )
    def test_errors(self, p, m, message):
        with pytest.raises(ValueError, match=message):
            torus_knot(p, m)

    @pytest.mark.parametrize("kind", NOT_INTS, ids=lambda kind: type(kind(1)).__name__)
    @pytest.mark.parametrize("field", ["p", "m"])
    def test_refuses_a_parameter_that_is_not_an_int(self, field, kind):
        """As in json_object, a bool is not an integer and 3.0 is not 3."""
        args = {"p": 2, "m": 3}
        args[field] = value = kind(args[field])
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {type(value).__name__}$"):
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
            (("bad", 1, True, True, True, True), "unknot facts are genus 0 with all flags set"),
            (("bad", 0, False, True, True, True), "unknot facts are genus 0 with all flags set"),
            (("bad", 0, True, False, True, False), "a knot of genus 0 is the unknot"),
            (
                ("bad", 2, True, True, True, False),
                "a nontrivial knot cannot admit both positive and negative L-space surgeries",
            ),
            (
                ("bad", 1, True, True, True, False),
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
            "unknot_shape_at_genus_1",
            "unknot_without_lspace",
            "genus_zero",
            "both_flags",
            "both_flags_at_genus_1",
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
    @pytest.mark.parametrize(
        "knot, text",
        [
            (torus_knot(2, 3), "[1/1, inf]"),
            (torus_knot(2, -3), "[-inf, -1/1]"),
            (KnotFacts("4_1", 1, False, False, True, False), "EMPTY"),
        ],
        ids=["trefoil", "negative_trefoil", "non_lspace"],
    )
    def test_worked_sets(self, knot, text):
        assert str(lspace_slope_set(knot)) == text

    def test_unknot_rejected(self):
        with pytest.raises(ValueError, match="nontrivial"):
            lspace_slope_set(UNKNOT)

    @pytest.mark.parametrize("p,m", [(2, 3), (2, 5), (3, 5), (4, 7)])
    def test_interior_formula(self, p, m):
        got = lspace_slope_set(torus_knot(p, m)).interior()
        assert got == SlopeSet.from_arcs([Arc(Slope(p * m - p - m), INFINITY, False, False)])


class TestCableCriterion:
    @pytest.mark.parametrize(
        "companion, p, q, lspace",
        [
            (torus_knot(2, 3), 2, 3, True),
            (torus_knot(2, 3), 3, 4, True),
            (torus_knot(2, 3), 2, 1, False),
            (KnotFacts("4_1", 1, False, False, True, False), 5, 101, False),
        ],
    )
    def test_worked_pairs(self, companion, p, q, lspace):
        assert cable_is_lspace_exact(companion, p, q) is lspace

    def test_monotone_in_q(self):
        tref = torus_knot(2, 3)
        verdicts = [cable_is_lspace_exact(tref, 3, q) for q in (1, 2, 4, 5, 7, 8)]
        assert verdicts == sorted(verdicts)

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

    @pytest.mark.parametrize("function", [cable_facts, cable_is_lspace_exact])
    @pytest.mark.parametrize("companion", [UNKNOT, torus_knot(2, 3)], ids=["unknot", "trefoil"])
    @pytest.mark.parametrize("kind", NOT_INTS, ids=lambda kind: type(kind(1)).__name__)
    @pytest.mark.parametrize("field", ["p", "q"])
    def test_refuses_a_parameter_that_is_not_an_int(self, function, companion, field, kind):
        """Refused before the range test: q = True is not read as 1, which
        would answer False, and p = True is not reported as too small."""
        args = {"p": 2, "q": 3}
        args[field] = value = kind(args[field])
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {type(value).__name__}$"):
            function(companion, **args)


class TestJson:
    @pytest.mark.parametrize(
        "obj, knot",
        [
            ("trefoil", torus_knot(2, 3)),
            ("T(3,5)", torus_knot(3, 5)),
            ({"cable": {"companion": {"torus_knot": [2, 3]}, "p": 2, "q": 3}},
             cable_facts(torus_knot(2, 3), 2, 3)),
        ],
    )
    def test_each_form_builds_its_knot(self, obj, knot):
        assert companion_from_json(obj) == knot

    def test_explicit_round_trip(self):
        t = torus_knot(3, 5)
        assert companion_from_json(companion_to_json(t)) == t
        assert facts_from_json(json.loads(companion_to_text(t))) == t

    @pytest.mark.parametrize(
        "companion, p, q, facts",
        [
            # Genus p·g + (p-1)(|q|-1)/2 = 3·1 + 2·3/2.
            (torus_knot(2, 3), 3, 4, KnotFacts("(T(2,3))_{3,4}", 6, True, False, True, False)),
            # A negative L-space companion: -q > p(2g - 1) = 3 decides.
            (torus_knot(2, -3), 3, -4, KnotFacts("(T(2,-3))_{3,-4}", 6, False, True, True, False)),
            (torus_knot(2, -3), 3, -2, KnotFacts("(T(2,-3))_{3,-2}", 4, False, False, True, False)),
        ],
    )
    def test_cable_facts(self, companion, p, q, facts):
        assert cable_facts(companion, p, q) == facts

    @pytest.mark.parametrize(
        "obj, error",
        [
            ({**companion_to_json(torus_knot(2, 3)), "note": "x"}, "unknown key 'note'"),
            ({**companion_to_json(torus_knot(2, 3)), "name": 7}, "a name is a JSON string, got 7"),
            ({"torus_knot": [2, 3], "name": "x"}, "unknown key 'name'"),
            ({"cable": {"companion": "trefoil", "p": 2, "q": 3, "r": 1}}, "unknown key 'r'"),
            ({"cable": {"companion": "trefoil", "p": 2}}, "missing key 'q'"),
            ("granny", "^unknown companion name 'granny'$"),
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
            "unknown_name",
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
