import ast
import dataclasses
import functools
import hashlib
import itertools
import json
import re
import tracemalloc
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings

from lspacesat import (
    Arc,
    CERTIFIED,
    NOT_CERTIFIED,
    REJECTED,
    Certificate,
    KnotFacts,
    LemmaParams,
    Slope,
    SlopeSet,
    UNKNOT,
    certify_cable,
    certify_satellite,
    check_lemma,
    choose_lemma_params,
    companion_from_json,
    covers_circle,
    lspace_slope_set,
    meridian_longitude_swap,
    necessary_check,
    one_bridge_braid,
    replay_certificate,
    table_pattern,
    torus_knot,
    torus_pattern,
)
from lspacesat import certify
from lspacesat.certify import (
    STATEMENTS,
    ConsistencyError,
    ReplayMismatchError,
    render_statement,
)
from lspacesat.knots import companion_to_text
from lspacesat.patterns import MAX_BRIDGE_WIDTH, UnknownTwistError, pattern_to_text

import strategies
from oracle_helpers import CHECK_ID_SEQUENCES, certificate_dict, check_dict, pattern_to_json

TREFOIL = torus_knot(2, 3)
FIGURE8 = KnotFacts("4_1", 1, False, False, True, False)
UNFIBERED = KnotFacts("unfibered", 2, False, False, False, False)


# The checks of a certified certificate, in order.
CERTIFIED_CHECK_IDS = [
    "necessary.fibered",
    "necessary.winding",
    "thm1.1",
    "thm1.2",
    "thm1.3",
    "thm1.4",
    "lem.4",
    "lem.5",
    "lem.7",
    "lem.sandwich",
    "hrrw.cover",
]


def failed(checks):
    """The ids of the failing check records (id, passed, values), in
    order."""
    return [id for id, passed, _ in checks if not passed]


def seed_lemma_bug(monkeypatch, id):
    """Seed an engine bug: check_lemma, as certify_satellite calls it,
    records the check id as failing."""
    check_lemma = certify.check_lemma

    def flipped(*args):
        return [(c[0], False, c[2]) if c[0] == id else c for c in check_lemma(*args)]

    monkeypatch.setattr(certify, "check_lemma", flipped)


class TestCheckLemma:
    @pytest.mark.parametrize(
        "pattern, a, b, r, failing",
        [
            (torus_pattern(2, 3), 2, 7, 13, []),
            # a = 1: P(U, -1) = T(2, 1) is the unknot, which is an L-space
            # knot, but the sandwich needs r > a·w² and lem.4 compensates.
            (torus_pattern(2, 3), 1, 7, 13, []),
            (torus_pattern(2, 3), 2, 7, 12, ["lem.4"]),
            (torus_pattern(2, 3), 2, 6, 13, ["lem.5"]),
            # The sandwich is strict on both sides: r = a·w², then r = b·w².
            (torus_pattern(2, 3), 2, 10, 8, ["lem.4", "lem.sandwich"]),
            (torus_pattern(2, 3), 2, 3, 12, ["lem.4", "lem.5", "lem.sandwich"]),
            (torus_pattern(3, 7), 4, 2, 200, ["lem.5", "lem.sandwich"]),
        ],
    )
    def test_failing_checks(self, pattern, a, b, r, failing):
        assert failed(check_lemma(pattern, a, b, r)) == failing

    @pytest.mark.parametrize("a, b, r", [(0, 7, 13), (2, 0, 13), (2, 7, 0), (2, 7, -13)])
    def test_parameters_below_one_are_refused(self, a, b, r):
        with pytest.raises(ValueError, match="a, b, r must be positive integers"):
            check_lemma(torus_pattern(2, 3), a, b, r)

    def test_unknown_twist_propagates(self):
        pat = table_pattern(
            "sparse", 2, 1, True, {0: torus_knot(2, 3)}, neg_threshold=None
        )
        with pytest.raises(UnknownTwistError):
            check_lemma(pat, 2, 7, 13)


class TestChooseParams:
    @pytest.mark.parametrize(
        "pattern, params",
        [
            (torus_pattern(2, 3), LemmaParams(2, 7, 13)),
            # g(T(3,7)) = 6, w = 3: r = 12 + 2*3*5 - 1 = 41, b = ceil(52/3) = 18.
            (torus_pattern(3, 7), LemmaParams(2, 18, 41)),
            # The threshold dominates.
            (table_pattern("tabled", 2, 1, True, {}, neg_threshold=100, pos_from=-10),
             LemmaParams(2, 100, 13)),
            # Winding 1 and genus 0 put both other bounds at 0, so b = 1.
            (table_pattern("t", 1, 0, True, {0: UNKNOT}, 0), LemmaParams(2, 1, 1)),
        ],
    )
    def test_minimal_params(self, pattern, params):
        assert choose_lemma_params(pattern, 1) == params

    @pytest.mark.parametrize(
        "pattern, g_k, message",
        [
            (table_pattern("bare", 2, 1, True, {0: TREFOIL}), 1, "no negative-side tail"),
            (torus_pattern(2, 3), 0, "companion genus must be positive"),
            (torus_pattern(2, 3), -1, "companion genus must be positive"),
        ],
    )
    def test_refusals(self, pattern, g_k, message):
        with pytest.raises(ValueError, match=message):
            choose_lemma_params(pattern, g_k)

    def test_chosen_params_pass_lemma(self):
        from math import gcd

        for p in (2, 3, 5):
            for q in (3, 7, 9, 11):
                if gcd(p, q) != 1:
                    continue
                for g_k in (1, 2, 4):
                    pat = torus_pattern(p, q)
                    if not pat.twisted_facts(-2 * g_k).is_lspace:
                        continue  # the pipeline screens this out via thm1.3
                    params = choose_lemma_params(pat, g_k)
                    checks = check_lemma(pat, params.a, params.b, params.r)
                    assert not failed(checks)


class TestNecessaryCheck:
    @pytest.mark.parametrize(
        "pattern, failing",
        [
            (table_pattern("core-less", 0, 1, False, {0: TREFOIL}), ["necessary.winding"]),
            (torus_pattern(2, 3), []),
            (table_pattern("nf", 2, 2, True, {0: UNFIBERED}), ["necessary.fibered"]),
        ],
        ids=["zero_winding", "all_fibered", "non_fibered_pattern"],
    )
    def test_first_failing_check(self, pattern, failing):
        assert failed(necessary_check(pattern, TREFOIL))[:1] == failing


class TestCertifySatellite:
    def test_companion_side_is_keyed_on_every_fact(self):
        """Two companions with one name but different genus get their own
        strict slope sets and written texts in one process, not the first
        one's, and read back as their own facts: the companion table holds
        an entry per distinct set of facts."""
        certify._COMPANIONS.clear()
        texts = []
        for genus in (1, 2, 1):
            k = KnotFacts("K", genus, True, False, True, False)
            cert = certify_satellite(torus_pattern(2, 9), k)
            assert cert.verdict == CERTIFIED
            text = cert.to_json()
            data = json.loads(text)
            assert data["companion"]["genus"] == genus
            assert Certificate.from_json(text).companion == k
            cover = data["checks"][-1]["values"]
            assert cover["s1"] == str(lspace_slope_set(k).interior())
            texts.append(cover["s1"])
        assert texts == ["(1/1, inf)", "(3/1, inf)", "(1/1, inf)"]
        assert [k.genus for k in kept_companions()] == [1, 2]

    def test_certificate_same_with_cold_and_warm_companion_cache(self):
        """Writing a certificate neither reads nor fills the companion
        table, so a second write gives the same text."""
        k, pat = torus_knot(2, 5), torus_pattern(3, 17)
        certify._COMPANIONS.clear()
        cold = certify_satellite(pat, k).to_json()
        warm = certify_satellite(pat, k).to_json()
        assert cold == warm and kept_companions() == []
        assert json.loads(cold)["verdict"] == CERTIFIED

    @pytest.mark.parametrize(
        "pattern, companion, reason",
        [(torus_pattern(3, 4), TREFOIL, "thm1.3"), (torus_pattern(2, 3), UNKNOT, "thm1.1")],
        ids=["sufficient_but_not_necessary", "unknot_companion"],
    )
    def test_not_certified_names_the_failing_theorem(self, pattern, companion, reason):
        cert = certify_satellite(pattern, companion)
        assert (cert.verdict, cert.reason) == (NOT_CERTIFIED, reason)

    def test_trusted_inputs_are_companion_and_asserted(self):
        """Torus and one-bridge patterns derive every fact, so only the
        companion is trusted; a table asserts its facts, so its pattern is
        trusted too."""
        for pat, k in GENUINE:
            trusted = json.loads(certify_satellite(pat, k).to_json())["trusted_inputs"]
            if "table" in pattern_to_json(pat):
                assert trusted == ["companion", "pattern"]
            else:
                assert trusted == ["companion"]

    @pytest.mark.parametrize(
        "twists, pos_from, verdict, reason",
        [
            # thm1.3 reads the entry at -2, lem.7 the negative tail.
            ({0: TREFOIL, -2: torus_knot(2, -1)}, -1, CERTIFIED, ""),
            # P(U, 0) is neither an entry nor in a tail, so the run stops at
            # the first twist it reads, having read no other.
            ({1: TREFOIL, -2: torus_knot(2, -1)}, 2, NOT_CERTIFIED, "unknown-twist:necessary"),
        ],
        ids=["certified", "unknown_twist_necessary"],
    )
    def test_trusted_inputs_of_a_table(self, twists, pos_from, verdict, reason):
        """A table's certificate trusts its companion and its pattern,
        however far the run reads, and restates neither: the entries and
        tails stand once, in the pattern, the entries in order of n
        although each table gives them in the other order."""
        pat = table_pattern("t", 2, 1, True, twists, neg_threshold=7, pos_from=pos_from)
        cert = certify_satellite(pat, TREFOIL)
        assert cert.verdict == verdict and (cert.reason or "").startswith(reason)
        n_trefoil, n_unknot = twists
        assert n_unknot < n_trefoil
        data = json.loads(cert.to_json())
        assert data["trusted_inputs"] == ["companion", "pattern"]
        table = data["pattern"]["table"]
        assert list(table["twists"]) == [str(n_unknot), str(n_trefoil)]
        assert (table["neg_threshold"], table["pos_from"]) == (7, pos_from)


class TestCertifyCable:
    @pytest.mark.parametrize(
        "p, q, verdict, exact, gap",
        [
            (2, 3, CERTIFIED, True, False),
            (3, 4, NOT_CERTIFIED, True, True),
            (2, 1, NOT_CERTIFIED, False, False),
        ],
        ids=["agreeing", "gap", "both_negative"],
    )
    def test_worked_pairs(self, p, q, verdict, exact, gap):
        cmp = certify_cable(TREFOIL, p, q)
        assert (cmp.certificate.verdict, cmp.exact, cmp.gap) == (verdict, exact, gap)

    @pytest.mark.parametrize(
        "p, q, message",
        [
            (2, True, "q must be an integer, got bool"),
            (2, 3.0, "q must be an integer, got float"),
            (True, 3, "p must be an integer, got bool"),
            (2.0, 3, "p must be an integer, got float"),
        ],
    )
    def test_refuses_a_parameter_that_is_not_an_int(self, p, q, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            certify_cable(TREFOIL, p, q)


# Pairs whose certificates cover every pattern family, CERTIFIED, REJECTED
# and the NOT_CERTIFIED reasons thm1.1, thm1.3, thm1.4 and unknown-twist.
GENUINE = [
    (torus_pattern(2, 3), TREFOIL),
    (torus_pattern(3, 4), TREFOIL),
    (torus_pattern(2, 3), FIGURE8),
    (torus_pattern(2, 3), KnotFacts("unfibered", 2, False, False, False, False)),
    (one_bridge_braid(5, 2, 21, neg_lspace_threshold=3), torus_knot(2, 5)),
    (one_bridge_braid(5, 2, 21), torus_knot(2, 5)),
    (
        table_pattern(
            "tabled", 2, 1, True, {0: TREFOIL, -2: torus_knot(2, -1)},
            neg_threshold=100, pos_from=-10,
        ),
        TREFOIL,
    ),
    (table_pattern("sparse", 2, 1, True, {0: TREFOIL}, neg_threshold=50), TREFOIL),
]


class TestCertificateSerialization:
    def test_json_round_trip(self):
        """from_json reads back the two inputs and keeps the text, less the
        newline a file ends with; replay reproduces the verdict."""
        for pat, k in GENUINE:
            cert = certify_satellite(pat, k)
            for text in (cert.to_json(), cert.to_json() + "\n"):
                again = Certificate.from_json(text)
                assert (again.pattern, again.companion) == (cert.pattern, cert.companion)
                assert again.text == cert.to_json()
                assert replay_certificate(again) == cert.verdict

    def test_tampered_certificate_detected(self):
        cert = certify_satellite(torus_pattern(2, 3), TREFOIL)
        data = json.loads(cert.to_json())
        data["checks"][-1]["values"]["s1"] = "EMPTY"
        with pytest.raises(ReplayMismatchError):
            replay_certificate(Certificate.from_json(json.dumps(data)))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("verdict", "NOT_CERTIFIED"),
            ("reason", "thm1.3"),
            ("params", {"a": 2, "b": 7, "r": 14}),
            ("checks", []),
            ("trusted_inputs", []),
        ],
    )
    def test_mismatch_names_the_tampered_field(self, field, value):
        cert = certify_satellite(torus_pattern(2, 3), TREFOIL)
        assert cert.verdict == CERTIFIED
        data = json.loads(cert.to_json())
        data[field] = value
        with pytest.raises(ReplayMismatchError, match=f"^field '{field}' differs"):
            replay_certificate(Certificate.from_json(json.dumps(data)))


# The exact certificate text.  A change of representation that moves a
# single byte of it breaks stored certificates' replay.
CABLE_2_3_OF_TREFOIL = (
    r'{"format": 5, "pattern": {"torus_pattern": [2, 3]}, "companion": {"name": "T(2,3)", '
    r'"genus": 1, "is_lspace": true, "is_neg_lspace": false, "is_fibered": true, '
    r'"is_unknot": false}, "verdict": "CERTIFIED", "reason": null, "params": {"a": 2, "b": 7, '
    r'"r": 13}, "checks": ['
    r'{"id": "necessary.fibered", "pass": true, "values": {"companion_fibered": true, '
    r'"pattern_fibered": true}}, '
    r'{"id": "necessary.winding", "pass": true, "values": {"winding": 2}}, '
    r'{"id": "thm1.1", "pass": true, "values": {"is_lspace": true, "is_unknot": false}}, '
    r'{"id": "thm1.2", "pass": true, "values": {"winding": 2, "disk": true}}, '
    r'{"id": "thm1.3", "pass": true, "values": {"twist": -2, "knot": "T(2,-1)"}}, '
    r'{"id": "thm1.4", "pass": true, "values": {"threshold": 1}}, '
    r'{"id": "lem.4", "pass": true, "values": {"rhs": 13, "g": 1}}, '
    r'{"id": "lem.5", "pass": true, "values": {"lhs": 14, "rhs": 14}}, '
    r'{"id": "lem.7", "pass": true, "values": {"twist": -7, "knot": "T(2,-11)"}}, '
    r'{"id": "lem.sandwich", "pass": true, "values": {"aw2": 8, "bw2": 28}}, '
    r'{"id": "hrrw.cover", "pass": true, "values": {"s1": "(1/1, inf)", "s2": "(7/1, '
    r'inf] \u222a [-inf, 2/1)"}}], '
    r'"trusted_inputs": ["companion"]}'
)
CABLE_3_2_OF_TREFOIL = (
    r'{"format": 5, "pattern": {"torus_pattern": [3, 2]}, "companion": {"name": "T(2,3)", '
    r'"genus": 1, "is_lspace": true, "is_neg_lspace": false, "is_fibered": true, '
    r'"is_unknot": false}, "verdict": "NOT_CERTIFIED", "reason": "thm1.3", "params": null, '
    r'"checks": ['
    r'{"id": "necessary.fibered", "pass": true, "values": {"companion_fibered": true, '
    r'"pattern_fibered": true}}, '
    r'{"id": "necessary.winding", "pass": true, "values": {"winding": 3}}, '
    r'{"id": "thm1.1", "pass": true, "values": {"is_lspace": true, "is_unknot": false}}, '
    r'{"id": "thm1.2", "pass": true, "values": {"winding": 3, "disk": true}}, '
    r'{"id": "thm1.3", "pass": false, "values": {"twist": -2, "knot": "T(3,-4)"}}, '
    r'{"id": "thm1.4", "pass": true, "values": {"threshold": 1}}], '
    r'"trusted_inputs": ["companion"]}'
)


# One certificate for each other exit path of certify_satellite.
EXIT_UNKNOWN_TWIST_NECESSARY = (
    r'{"format": 5, "pattern": {"table": {"name": "gap", "winding": 2, "genus_s3": 1, '
    r'"has_disk": true, "twists": {}, "neg_threshold": 7, "pos_from": null}}, '
    r'"companion": {"name": "T(2,3)", "genus": 1, "is_lspace": true, "is_neg_lspace": false, '
    r'"is_fibered": true, "is_unknot": false}, "verdict": "NOT_CERTIFIED", '
    r'"reason": "unknown-twist:necessary (twist family cannot answer n = 0 (outside table and '
    r'asserted tails))", '
    r'"params": null, "checks": [], '
    r'"trusted_inputs": ["companion", "pattern"]}'
)
EXIT_REJECTED_FIBERED = (
    r'{"format": 5, "pattern": {"torus_pattern": [2, 3]}, "companion": {"name": "unfibered", '
    r'"genus": 2, "is_lspace": false, "is_neg_lspace": false, "is_fibered": false, '
    r'"is_unknot": false}, "verdict": "REJECTED", "reason": "necessary.fibered", '
    r'"params": null, "checks": ['
    r'{"id": "necessary.fibered", "pass": false, "values": {"companion_fibered": false, '
    r'"pattern_fibered": true}}, '
    r'{"id": "necessary.winding", "pass": true, "values": {"winding": 2}}], '
    r'"trusted_inputs": ["companion"]}'
)
EXIT_REJECTED_WINDING = (
    r'{"format": 5, "pattern": {"table": {"name": "core-less", "winding": 0, "genus_s3": 1, '
    r'"has_disk": false, "twists": {"0": {"name": "T(2,3)", "genus": 1, "is_lspace": true, '
    r'"is_neg_lspace": false, "is_fibered": true, "is_unknot": false}}, '
    r'"neg_threshold": null, "pos_from": null}}, "companion": {"name": "T(2,3)", "genus": 1, '
    r'"is_lspace": true, "is_neg_lspace": false, "is_fibered": true, "is_unknot": false}, '
    r'"verdict": "REJECTED", "reason": "necessary.winding", "params": null, "checks": ['
    r'{"id": "necessary.fibered", "pass": true, "values": {"companion_fibered": true, '
    r'"pattern_fibered": true}}, '
    r'{"id": "necessary.winding", "pass": false, "values": {"winding": 0}}], '
    r'"trusted_inputs": ["companion", "pattern"]}'
)
EXIT_UNKNOWN_TWIST_THM1_3 = (
    r'{"format": 5, "pattern": {"table": {"name": "sparse", "winding": 2, "genus_s3": 1, '
    r'"has_disk": true, "twists": {"0": {"name": "T(2,3)", "genus": 1, "is_lspace": true, '
    r'"is_neg_lspace": false, "is_fibered": true, "is_unknot": false}}, "neg_threshold": 50, '
    r'"pos_from": null}}, "companion": {"name": "T(2,3)", "genus": 1, "is_lspace": true, '
    r'"is_neg_lspace": false, "is_fibered": true, "is_unknot": false}, '
    r'"verdict": "NOT_CERTIFIED", '
    r'"reason": "unknown-twist:thm1.3 (twist family cannot answer n = -2 (outside table and '
    r'asserted tails))", '
    r'"params": null, "checks": ['
    r'{"id": "necessary.fibered", "pass": true, "values": {"companion_fibered": true, '
    r'"pattern_fibered": true}}, '
    r'{"id": "necessary.winding", "pass": true, "values": {"winding": 2}}, '
    r'{"id": "thm1.1", "pass": true, "values": {"is_lspace": true, "is_unknot": false}}, '
    r'{"id": "thm1.2", "pass": true, "values": {"winding": 2, "disk": true}}, '
    r'{"id": "thm1.3", "pass": false, "values": {"twist": -2, '
    r'"error": "twist family cannot answer n = -2 (outside table and asserted tails)"}}], '
    r'"trusted_inputs": ["companion", "pattern"]}'
)
EXIT_THM1_1 = (
    r'{"format": 5, "pattern": {"torus_pattern": [2, 3]}, "companion": {"name": "4_1", '
    r'"genus": 1, "is_lspace": false, "is_neg_lspace": false, "is_fibered": true, '
    r'"is_unknot": false}, "verdict": "NOT_CERTIFIED", "reason": "thm1.1", "params": null, '
    r'"checks": ['
    r'{"id": "necessary.fibered", "pass": true, "values": {"companion_fibered": true, '
    r'"pattern_fibered": true}}, '
    r'{"id": "necessary.winding", "pass": true, "values": {"winding": 2}}, '
    r'{"id": "thm1.1", "pass": false, "values": {"is_lspace": false, "is_unknot": false}}, '
    r'{"id": "thm1.2", "pass": true, "values": {"winding": 2, "disk": true}}, '
    r'{"id": "thm1.3", "pass": true, "values": {"twist": -2, "knot": "T(2,-1)"}}, '
    r'{"id": "thm1.4", "pass": true, "values": {"threshold": 1}}], '
    r'"trusted_inputs": ["companion"]}'
)
EXIT_THM1_2 = (
    r'{"format": 5, "pattern": {"table": {"name": "no-disk", "winding": 2, "genus_s3": 1, '
    r'"has_disk": false, "twists": {"0": {"name": "T(2,3)", "genus": 1, "is_lspace": true, '
    r'"is_neg_lspace": false, "is_fibered": true, "is_unknot": false}}, "neg_threshold": 7, '
    r'"pos_from": -2}}, "companion": {"name": "T(2,3)", "genus": 1, "is_lspace": true, '
    r'"is_neg_lspace": false, "is_fibered": true, "is_unknot": false}, '
    r'"verdict": "NOT_CERTIFIED", "reason": "thm1.2", "params": null, "checks": ['
    r'{"id": "necessary.fibered", "pass": true, "values": {"companion_fibered": true, '
    r'"pattern_fibered": true}}, '
    r'{"id": "necessary.winding", "pass": true, "values": {"winding": 2}}, '
    r'{"id": "thm1.1", "pass": true, "values": {"is_lspace": true, "is_unknot": false}}, '
    r'{"id": "thm1.2", "pass": false, "values": {"winding": 2, "disk": false}}, '
    r'{"id": "thm1.3", "pass": true, "values": {"twist": -2, "knot": "table tail n=-2"}}, '
    r'{"id": "thm1.4", "pass": true, "values": {"threshold": 7}}], '
    r'"trusted_inputs": ["companion", "pattern"]}'
)
EXIT_THM1_4 = (
    r'{"format": 5, "pattern": {"one_bridge_braid": {"w": 5, "b": 2, "t": 21, '
    r'"neg_threshold": null}}, "companion": {"name": "T(2,5)", "genus": 2, "is_lspace": true, '
    r'"is_neg_lspace": false, "is_fibered": true, "is_unknot": false}, '
    r'"verdict": "NOT_CERTIFIED", "reason": "thm1.4", "params": null, "checks": ['
    r'{"id": "necessary.fibered", "pass": true, "values": {"companion_fibered": true, '
    r'"pattern_fibered": true}}, '
    r'{"id": "necessary.winding", "pass": true, "values": {"winding": 5}}, '
    r'{"id": "thm1.1", "pass": true, "values": {"is_lspace": true, "is_unknot": false}}, '
    r'{"id": "thm1.2", "pass": true, "values": {"winding": 5, "disk": true}}, '
    r'{"id": "thm1.3", "pass": true, "values": {"twist": -4, "knot": "closure of B(5,2,1)"}}, '
    r'{"id": "thm1.4", "pass": false, "values": {"threshold": null}}], '
    r'"trusted_inputs": ["companion"]}'
)
EXIT_TABLE_CERTIFIED = (
    r'{"format": 5, "pattern": {"table": {"name": "t", "winding": 2, "genus_s3": 1, '
    r'"has_disk": true, "twists": {}, "neg_threshold": 7, "pos_from": -2}}, '
    r'"companion": {"name": "T(2,3)", "genus": 1, "is_lspace": true, "is_neg_lspace": false, '
    r'"is_fibered": true, "is_unknot": false}, "verdict": "CERTIFIED", "reason": null, '
    r'"params": {"a": 2, "b": 7, "r": 13}, "checks": ['
    r'{"id": "necessary.fibered", "pass": true, "values": {"companion_fibered": true, '
    r'"pattern_fibered": true}}, '
    r'{"id": "necessary.winding", "pass": true, "values": {"winding": 2}}, '
    r'{"id": "thm1.1", "pass": true, "values": {"is_lspace": true, "is_unknot": false}}, '
    r'{"id": "thm1.2", "pass": true, "values": {"winding": 2, "disk": true}}, '
    r'{"id": "thm1.3", "pass": true, "values": {"twist": -2, "knot": "table tail n=-2"}}, '
    r'{"id": "thm1.4", "pass": true, "values": {"threshold": 7}}, '
    r'{"id": "lem.4", "pass": true, "values": {"rhs": 13, "g": 1}}, '
    r'{"id": "lem.5", "pass": true, "values": {"lhs": 14, "rhs": 14}}, '
    r'{"id": "lem.7", "pass": true, "values": {"twist": -7, "knot": "table tail n=-7"}}, '
    r'{"id": "lem.sandwich", "pass": true, "values": {"aw2": 8, "bw2": 28}}, '
    r'{"id": "hrrw.cover", "pass": true, "values": {"s1": "(1/1, inf)", "s2": "(7/1, '
    r'inf] \u222a [-inf, 2/1)"}}], '
    r'"trusted_inputs": ["companion", "pattern"]}'
)


# One genuine certificate of each format before 5, the (2,3)-cable of
# the trefoil.  from_json refuses each by its format key before it
# reads another key; the text without the key is format 1.
FORMAT_1_CABLE_2_3_OF_TREFOIL = (
    r'{"pattern": {"torus_pattern": [2, 3]}, '
    r'"companion": {"name": "T(2,3)", "genus": 1, "is_lspace": true, '
    r'"is_neg_lspace": false, "is_fibered": true, "is_unknot": false}, '
    r'"verdict": "CERTIFIED", "reason": null, "params": {"a": 2, "b": 7, "r": 13}, '
    r'"checks": ['
    r'{"id": "necessary.fibered", "statement": "companion and P(U) are fibered", '
    r'"pass": true, "values": {"companion_fibered": true, "pattern_fibered": true}}, '
    r'{"id": "necessary.winding", "statement": "winding number is nonzero", '
    r'"pass": true, "values": {"winding": 2}}, '
    r'{"id": "thm1.1", "statement": "companion is a nontrivial L-space knot", '
    r'"pass": true, "values": {"is_lspace": true, "is_unknot": false}}, '
    r'{"id": "thm1.2", "statement": "winding >= 2 with a minimal meridional disk", '
    r'"pass": true, "values": {"winding": 2, "disk": true}}, '
    r'{"id": "thm1.3", "statement": "P(U, -2) is an L-space knot", '
    r'"pass": true, "values": {"twist": -2, "knot": "T(2,-1)"}}, '
    r'{"id": "thm1.4", "statement": "negative L-space tail asserted for large negative twists", '
    r'"pass": true, "values": {"threshold": 1}}, '
    r'{"id": "lem.2", "statement": "winding number w >= 2", '
    r'"pass": true, "values": {"lhs": 2, "rhs": 2, "w": 2}}, '
    r'{"id": "lem.3", "statement": "axis bounds a disk meeting the pattern in w points", '
    r'"pass": true, "values": {}}, '
    r'{"id": "lem.4", "statement": "r >= 2g(P) + a\u00b7w(2w-1) - 1", '
    r'"pass": true, "values": {"lhs": 13, "rhs": 13, "a": 2, "g": 1, "w": 2}}, '
    r'{"id": "lem.5", "statement": "b\u00b7w >= 2g(P) + r - 1 (exact form of b >= (2g(P)+r-1)/w)", '
    r'"pass": true, "values": {"lhs": 14, "rhs": 14, "b": 7, "g": 1, "w": 2, "r": 13}}, '
    r'{"id": "lem.6", "statement": "P(U, -2) is an L-space knot", '
    r'"pass": true, "values": {"twist": -2, "knot": "T(2,-1)"}}, '
    r'{"id": "lem.7", "statement": "P(U, -7) is a negative L-space knot", '
    r'"pass": true, "values": {"twist": -7, "knot": "T(2,-11)"}}, '
    r'{"id": "lem.sandwich", "statement": "a\u00b7w\u00b2 < r < b\u00b7w\u00b2 (so 1/b < w\u00b2/r < 1/a)", '
    r'"pass": true, "values": {"aw2": 8, "r": 13, "bw2": 28}}, '
    r'{"id": "hrrw.cover", "statement": "strict slope sets of the two sides jointly cover QP^1", '
    r'"pass": true, "values": {"s1": "(1/1, inf)", "s2": "(7/1, inf] \u222a [-inf, 2/1)"}}], '
    r'"trusted_inputs": ['
    r'"companion facts: T(2,3) (genus=1, is_lspace=True, is_neg_lspace=False, '
    r'is_fibered=True, is_unknot=False)"]}'
)
FORMAT_2_CABLE_2_3_OF_TREFOIL = (
    r'{"format": 2, "pattern": {"torus_pattern": [2, 3]}, '
    r'"companion": {"name": "T(2,3)", "genus": 1, "is_lspace": true, '
    r'"is_neg_lspace": false, "is_fibered": true, "is_unknot": false}, '
    r'"verdict": "CERTIFIED", "reason": null, "params": {"a": 2, "b": 7, "r": 13}, '
    r'"checks": ['
    r'{"id": "necessary.fibered", "statement": "companion and P(U) are fibered", '
    r'"pass": true, "values": {"companion_fibered": true, "pattern_fibered": true}}, '
    r'{"id": "necessary.winding", "statement": "winding number is nonzero", '
    r'"pass": true, "values": {"winding": 2}}, '
    r'{"id": "thm1.1", "statement": "companion is a nontrivial L-space knot", '
    r'"pass": true, "values": {"is_lspace": true, "is_unknot": false}}, '
    r'{"id": "thm1.2", "statement": "winding >= 2 with a minimal meridional disk", '
    r'"pass": true, "values": {"winding": 2, "disk": true}}, '
    r'{"id": "thm1.3", "statement": "P(U, -2) is an L-space knot", '
    r'"pass": true, "values": {"twist": -2, "knot": "T(2,-1)"}}, '
    r'{"id": "thm1.4", "statement": "negative L-space tail asserted for large negative twists", '
    r'"pass": true, "values": {"threshold": 1}}, '
    r'{"id": "lem.4", "statement": "r >= 2g(P) + a\u00b7w(2w-1) - 1", '
    r'"pass": true, "values": {"lhs": 13, "rhs": 13, "a": 2, "g": 1, "w": 2}}, '
    r'{"id": "lem.5", "statement": "b\u00b7w >= 2g(P) + r - 1 (exact form of b >= (2g(P)+r-1)/w)", '
    r'"pass": true, "values": {"lhs": 14, "rhs": 14, "b": 7, "g": 1, "w": 2, "r": 13}}, '
    r'{"id": "lem.7", "statement": "P(U, -7) is a negative L-space knot", '
    r'"pass": true, "values": {"twist": -7, "knot": "T(2,-11)"}}, '
    r'{"id": "lem.sandwich", "statement": "a\u00b7w\u00b2 < r < b\u00b7w\u00b2 (so 1/b < w\u00b2/r < 1/a)", '
    r'"pass": true, "values": {"aw2": 8, "r": 13, "bw2": 28}}, '
    r'{"id": "hrrw.cover", "statement": "strict slope sets of the two sides jointly cover QP^1", '
    r'"pass": true, "values": {"s1": "(1/1, inf)", "s2": "(7/1, inf] \u222a [-inf, 2/1)"}}], '
    r'"trusted_inputs": ['
    r'"companion facts: T(2,3) (genus=1, is_lspace=True, is_neg_lspace=False, '
    r'is_fibered=True, is_unknot=False)"]}'
)
FORMAT_3_CABLE_2_3_OF_TREFOIL = (
    r'{"format": 3, "pattern": {"torus_pattern": [2, 3]}, "companion": {"name": "T(2,3)", '
    r'"genus": 1, "is_lspace": true, "is_neg_lspace": false, "is_fibered": true, '
    r'"is_unknot": false}, "verdict": "CERTIFIED", "reason": null, "params": {"a": 2, "b": 7, '
    r'"r": 13}, "checks": ['
    r'{"id": "necessary.fibered", "pass": true, "values": {"companion_fibered": true, '
    r'"pattern_fibered": true}}, '
    r'{"id": "necessary.winding", "pass": true, "values": {"winding": 2}}, '
    r'{"id": "thm1.1", "pass": true, "values": {"is_lspace": true, "is_unknot": false}}, '
    r'{"id": "thm1.2", "pass": true, "values": {"winding": 2, "disk": true}}, '
    r'{"id": "thm1.3", "pass": true, "values": {"twist": -2, "knot": "T(2,-1)"}}, '
    r'{"id": "thm1.4", "pass": true, "values": {"threshold": 1}}, '
    r'{"id": "lem.4", "pass": true, "values": {"lhs": 13, "rhs": 13, "a": 2, "g": 1, '
    r'"w": 2}}, '
    r'{"id": "lem.5", "pass": true, "values": {"lhs": 14, "rhs": 14, "b": 7, "g": 1, "w": 2, '
    r'"r": 13}}, '
    r'{"id": "lem.7", "pass": true, "values": {"twist": -7, "knot": "T(2,-11)"}}, '
    r'{"id": "lem.sandwich", "pass": true, "values": {"aw2": 8, "r": 13, "bw2": 28}}, '
    r'{"id": "hrrw.cover", "pass": true, "values": {"s1": "(1/1, inf)", "s2": "(7/1, '
    r'inf] \u222a [-inf, 2/1)"}}], '
    r'"trusted_inputs": ["companion facts: T(2,3) (genus=1, is_lspace=True, '
    r'is_neg_lspace=False, is_fibered=True, is_unknot=False)"]}'
)
FORMAT_4_CABLE_2_3_OF_TREFOIL = (
    r'{"format": 4, "pattern": {"torus_pattern": [2, 3]}, "companion": {"name": "T(2,3)", '
    r'"genus": 1, "is_lspace": true, "is_neg_lspace": false, "is_fibered": true, '
    r'"is_unknot": false}, "verdict": "CERTIFIED", "reason": null, "params": {"a": 2, "b": 7, '
    r'"r": 13}, "checks": ['
    r'{"id": "necessary.fibered", "pass": true, "values": {"companion_fibered": true, '
    r'"pattern_fibered": true}}, '
    r'{"id": "necessary.winding", "pass": true, "values": {"winding": 2}}, '
    r'{"id": "thm1.1", "pass": true, "values": {"is_lspace": true, "is_unknot": false}}, '
    r'{"id": "thm1.2", "pass": true, "values": {"winding": 2, "disk": true}}, '
    r'{"id": "thm1.3", "pass": true, "values": {"twist": -2, "knot": "T(2,-1)"}}, '
    r'{"id": "thm1.4", "pass": true, "values": {"threshold": 1}}, '
    r'{"id": "lem.4", "pass": true, "values": {"rhs": 13, "g": 1}}, '
    r'{"id": "lem.5", "pass": true, "values": {"lhs": 14, "rhs": 14}}, '
    r'{"id": "lem.7", "pass": true, "values": {"twist": -7, "knot": "T(2,-11)"}}, '
    r'{"id": "lem.sandwich", "pass": true, "values": {"aw2": 8, "bw2": 28}}, '
    r'{"id": "hrrw.cover", "pass": true, "values": {"s1": "(1/1, inf)", "s2": "(7/1, '
    r'inf] \u222a [-inf, 2/1)"}}], '
    r'"trusted_inputs": ["companion facts: T(2,3) (genus=1, is_lspace=True, '
    r'is_neg_lspace=False, is_fibered=True, is_unknot=False)"]}'
)


class _NoTable:
    """Stands in for certify._COMPANIONS and refuses any use of it."""

    def _refuse(self, *args):
        raise AssertionError("the companion table was used")

    __getattr__ = __getitem__ = __setitem__ = __delitem__ = _refuse
    __contains__ = __iter__ = __len__ = __bool__ = _refuse


# Each exit path of certify_satellite: the pattern, the companion and
# the text the pipeline writes for them.
GOLDEN_CERTIFICATES = [
    pytest.param(
        torus_pattern(2, 3), TREFOIL, CABLE_2_3_OF_TREFOIL, id="cable_2_3_certified"
    ),
    pytest.param(
        torus_pattern(3, 2), TREFOIL, CABLE_3_2_OF_TREFOIL, id="cable_3_2_thm1.3"
    ),
    pytest.param(
        table_pattern("gap", 2, 1, True, {}, neg_threshold=7),
        TREFOIL,
        EXIT_UNKNOWN_TWIST_NECESSARY,
        id="unknown_twist_necessary",
    ),
    pytest.param(
        torus_pattern(2, 3), UNFIBERED, EXIT_REJECTED_FIBERED, id="rejected_fibered"
    ),
    pytest.param(
        table_pattern("core-less", 0, 1, False, {0: TREFOIL}),
        TREFOIL,
        EXIT_REJECTED_WINDING,
        id="rejected_winding",
    ),
    pytest.param(
        table_pattern("sparse", 2, 1, True, {0: TREFOIL}, neg_threshold=50),
        TREFOIL,
        EXIT_UNKNOWN_TWIST_THM1_3,
        id="unknown_twist_thm1.3",
    ),
    pytest.param(torus_pattern(2, 3), FIGURE8, EXIT_THM1_1, id="thm1.1"),
    pytest.param(
        table_pattern(
            "no-disk", 2, 1, False, {0: TREFOIL}, neg_threshold=7, pos_from=-2
        ),
        TREFOIL,
        EXIT_THM1_2,
        id="thm1.2",
    ),
    pytest.param(
        one_bridge_braid(5, 2, 21), torus_knot(2, 5), EXIT_THM1_4, id="thm1.4"
    ),
    pytest.param(
        table_pattern("t", 2, 1, True, {}, neg_threshold=7, pos_from=-2),
        TREFOIL,
        EXIT_TABLE_CERTIFIED,
        id="table_certified",
    ),
]


class TestCertificateText:
    @pytest.mark.parametrize("pattern, companion, text", GOLDEN_CERTIFICATES)
    def test_golden_json(self, pattern, companion, text, monkeypatch):
        """Each exit's text, written with the companion table replaced by
        an object that refuses any use: writing reads no module state."""
        monkeypatch.setattr(certify, "_COMPANIONS", _NoTable())
        assert certify_satellite(pattern, companion).to_json() == text

    def test_lem_7_exit_table_is_refused(self):
        """The one table that reached lem.7 and failed it asserts the
        trefoil at -7, inside its own negative tail n <= -7."""
        with pytest.raises(ValueError, match="entry n=-7 lies in the negative tail n <= -7"):
            table_pattern("t", 2, 1, True, {0: TREFOIL, -7: TREFOIL}, neg_threshold=7, pos_from=-2)


def kept_companions() -> list[KnotFacts]:
    """The companions the companion table holds, oldest first, each kept
    under the text to_json writes for it."""
    for text, k in certify._COMPANIONS.items():
        assert type(k) is KnotFacts and text == companion_to_text(k)
    return list(certify._COMPANIONS.values())


class TestCompanionTable:
    """from_json decodes each distinct companion text once; a later read
    of the same text returns the object the first one built, and replay
    leaves the table as it is."""

    def test_two_reads_of_one_companion_return_one_object(self):
        k = KnotFacts("K-shared", 2, True, False, True, False)
        texts = [certify_satellite(torus_pattern(p, q), k).to_json() for p, q in ((2, 3), (3, 17))]
        certify._COMPANIONS.clear()
        first, second = map(Certificate.from_json, texts)
        assert first.companion == k and second.companion is first.companion
        assert kept_companions() == [k] and kept_companions()[0] is first.companion
        replay_certificate(first)
        assert replay_certificate(second) == CERTIFIED
        assert kept_companions()[0] is first.companion

    def test_the_table_holds_at_most_256_companions(self):
        certify._COMPANIONS.clear()
        for i in range(300):
            k = KnotFacts(f"K{i}", 1, True, False, True, False)
            last = Certificate.from_json(certify_satellite(torus_pattern(2, 3), k).to_json())
        # The oldest went first; the latest is kept.
        assert [k.name for k in kept_companions()] == [f"K{i}" for i in range(44, 300)]
        assert kept_companions()[-1] is last.companion


class TestTotality:
    @settings(max_examples=300, deadline=None)
    @given(pair=strategies.pairs)
    # Fixed certified one-bridge and table pairs, besides the drawn ones.
    @example(pair=(one_bridge_braid(5, 2, 21, neg_lspace_threshold=3), torus_knot(2, 5)))
    @example(pair=(table_pattern("t", 2, 1, True, {}, neg_threshold=7, pos_from=-2), TREFOIL))
    def test_certify_satellite_is_total(self, pair):
        """Every valid pattern of each family with torus, cable and explicit
        companion facts gets a certificate that replays to its verdict.
        Necessary conditions reject and Theorem 1 decides: past thm1.4 no
        check gives a reason, and once thm1.4 passes, the lemma and the
        cover hold by the choice of (a, b, r) and by the tables' own
        consistency.  The cover is the general route's."""
        cert = certify_satellite(*pair)
        assert isinstance(cert, Certificate)
        assert replay_certificate(Certificate.from_json(cert.to_json())) == cert.verdict
        if cert.verdict == REJECTED:
            assert cert.reason.startswith("necessary.")
        elif cert.verdict == NOT_CERTIFIED:
            assert cert.reason.startswith(("thm1.", "unknown-twist:"))
        else:
            assert cert.reason is None
        ids = [c[0] for c in cert.records]
        if "thm1.4" in ids:
            assert failed(cert.records[ids.index("thm1.4") + 1 :]) == []
        matches_general_route(cert)

    @settings(max_examples=300, deadline=None)
    @given(pair=strategies.certified_pairs)
    def test_certified_pairs_certify(self, pair):
        cert = certify_satellite(*pair)
        assert cert.verdict == CERTIFIED
        assert [c["id"] for c in cert.checks] == CERTIFIED_CHECK_IDS


class TestSeededEngineBugs:
    """Past thm1.4 every check holds by construction, so one that fails
    there is an engine bug: certify_satellite raises ConsistencyError
    naming it, the pattern and the companion, and returns no verdict."""

    def test_failing_lemma_check_raises(self, monkeypatch):
        seed_lemma_bug(monkeypatch, "lem.7")
        with pytest.raises(ConsistencyError, match=r"^lem\.7 .*T\(2,3\)-pattern.* T\(2,3\)$"):
            certify_satellite(torus_pattern(2, 3), TREFOIL)

    def test_failing_cover_raises(self, monkeypatch):
        """a = 2g(K) - 1 keeps every lemma inequality, so the cover is the
        first check to fail."""
        choose = certify.choose_lemma_params
        monkeypatch.setattr(
            certify,
            "choose_lemma_params",
            lambda p, g: dataclasses.replace(choose(p, g), a=2 * g - 1),
        )
        with pytest.raises(ConsistencyError, match=r"^hrrw\.cover "):
            certify_satellite(torus_pattern(2, 3), TREFOIL)


def matches_general_route(cert) -> bool:
    """Assert that hrrw.cover, if cert reaches it, holds the pass, s1 and
    s2 of the general route: the companion's strict L-space slopes, and
    the open arc 1/a → ∞ → 1/b carried across by the meridian-longitude
    swap, joined by covers_circle.  Returns whether cert reaches it."""
    if not cert.checks or cert.checks[-1]["id"] != "hrrw.cover":
        return False
    s1 = lspace_slope_set(cert.companion).interior()
    arc = SlopeSet.from_arcs([Arc(Slope(1, cert.params.a), Slope(1, cert.params.b), False, False)])
    s2 = meridian_longitude_swap().image_of_set(arc)
    cover = cert.checks[-1]
    assert cover["pass"] == covers_circle(s1, s2)
    assert cover["values"] == {"s1": str(s1), "s2": str(s2)}
    assert cert.verdict == (CERTIFIED if cover["pass"] else NOT_CERTIFIED)
    return True


def sweep_grid_certificates():
    """The certificates of `sweep --p-max 8 --q-max 60` on the trefoil,
    T(2,5) and T(3,5)."""
    for name in ("trefoil", "T(2,5)", "T(3,5)"):
        k = companion_from_json(name)
        for p in range(2, 9):
            for q in range(-60, 61):
                if gcd(p, q) == 1:
                    yield certify_cable(k, p, q).certificate


class TestClosedFormCover:
    """certify_satellite computes hrrw.cover in closed form; the general
    slope-set route is its oracle."""

    def test_sweep_grid_matches_general_route(self):
        """Every certificate of the sweep grid that reaches the cover."""
        assert sum(matches_general_route(cert) for cert in sweep_grid_certificates()) > 0

    def test_certify_imports_no_general_cover_route(self):
        imported = set()
        for node in ast.walk(ast.parse(Path(certify.__file__).read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                imported.add((node.module or "").rpartition(".")[2])
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update(alias.name.rpartition(".")[2] for alias in node.names)
        assert imported.isdisjoint({"gluing", "projective", "covers_circle", "lspace_slope_set"})


class TestCertificateFormat:
    """A certificate names its format in its first key; text of any
    format but 5 is refused before its key set is read."""

    @pytest.mark.parametrize(
        "text, shown",
        [
            (FORMAT_1_CABLE_2_3_OF_TREFOIL, "1"),
            (FORMAT_2_CABLE_2_3_OF_TREFOIL, "2"),
            (FORMAT_3_CABLE_2_3_OF_TREFOIL, "3"),
            (FORMAT_4_CABLE_2_3_OF_TREFOIL, "4"),
            (CABLE_2_3_OF_TREFOIL.replace('"format": 5', '"format": 6'), "6"),
            (CABLE_2_3_OF_TREFOIL.replace('"format": 5', '"format": true'), "true"),
            (CABLE_2_3_OF_TREFOIL.replace('"format": 5', '"format": "5"'), '"5"'),
        ],
        ids=["format_1", "format_2", "format_3", "format_4", "6", "true", "string"],
    )
    def test_other_formats_are_refused(self, text, shown):
        """A format bump rewrites the golden texts above and keeps one
        genuine text of the old format here."""
        with pytest.raises(ValueError, match=f"^certificate format {shown} is not 5$"):
            Certificate.from_json(text)

    def test_every_check_id_has_a_statement(self):
        assert list(STATEMENTS) == CERTIFIED_CHECK_IDS

    @pytest.mark.parametrize(
        "pattern, edit, refusal",
        [
            (torus_pattern(2, 3), {"companion": "T(2,3)"}, "companion: "),
            (torus_pattern(2, 3), {"companion": {"torus_knot": [2, 3]}}, "companion: "),
            (
                torus_pattern(2, 3),
                {"companion": {"cable": {"companion": "unknot", "p": 2, "q": 3}}},
                "companion: ",
            ),
            (
                table_pattern("t", 2, 1, True, {0: TREFOIL}, neg_threshold=7, pos_from=-2),
                {
                    "pattern": {
                        "table": {
                            "name": "t",
                            "winding": 2,
                            "genus_s3": 1,
                            "has_disk": True,
                            "twists": {"0": "trefoil"},
                            "neg_threshold": 7,
                            "pos_from": -2,
                        }
                    }
                },
                "field 'pattern' differs from a re-run",
            ),
        ],
        ids=["companion_name", "companion_torus_knot", "companion_cable", "table_twist_name"],
    )
    def test_inputs_in_a_form_to_json_does_not_write_are_refused(self, pattern, edit, refusal):
        """Each edit reads back as the same inputs, so without the refusal
        a second text would replay as the genuine certificate.  from_json
        reads the companion only as its six facts; a pattern it reads is
        refused by replay, whose re-run writes it otherwise."""
        cert = certify_satellite(pattern, TREFOIL)
        assert cert.verdict == CERTIFIED
        with pytest.raises(ValueError, match=f"^{re.escape(refusal)}"):
            replay_certificate(
                Certificate.from_json(json.dumps({**json.loads(cert.to_json()), **edit}))
            )

    def test_format_5_with_an_extra_key_gets_the_key_set_error(self):
        data = {**json.loads(CABLE_2_3_OF_TREFOIL), "note": "x"}
        with pytest.raises(
            ReplayMismatchError, match="^unknown key 'note': expected only format, "
        ):
            replay_certificate(Certificate.from_json(json.dumps(data)))

    def test_sweep_grid_states_each_fact_once(self):
        """Every certificate of the sweep grid holds the checks of the
        stages it reached, in order, and a certified one all 11; every
        certificate replays."""
        certified = 0
        for cert in sweep_grid_certificates():
            ids = [c["id"] for c in cert.checks]
            assert tuple(ids) in CHECK_ID_SEQUENCES
            if cert.verdict == CERTIFIED:
                assert ids == CERTIFIED_CHECK_IDS
                certified += 1
            assert replay_certificate(Certificate.from_json(cert.to_json())) == cert.verdict
        assert certified > 0


# Each pattern kind; against TREFOIL, FIGURE8, UNFIBERED and a trefoil
# with 1/0 flags they reach every verdict path between them.
RECORD_PATTERNS = [
    torus_pattern(3, 2),
    torus_pattern(2, -5),
    one_bridge_braid(4, 1, 10, 2),
    one_bridge_braid(5, 2, 21),
    # certifies on the trefoil; its name is written as a JSON escape
    table_pattern("τ", 2, 1, True, {0: TREFOIL, -2: torus_knot(2, -1)}, 5, 3),
    # no P(U): unknown-twist:necessary
    table_pattern("e", 2, 1, True, {}),
    # P(U) only: unknown-twist:thm1.3
    table_pattern("p", 2, 1, True, {0: TREFOIL}),
    # winding 0: REJECTED on necessary.winding
    table_pattern("w0", 0, 0, False, {0: KnotFacts("unknot", 0, True, True, True, True)}),
    # flags given as the integers 1 and 0, which Python callers may pass
    table_pattern(
        "i", 2, 1, 1, {0: KnotFacts("3_1", 1, 1, 0, 1, 0), -2: torus_knot(2, -1)}, 5, 3
    ),
]


class TestCheckRecords:
    def certificates(self):
        return [
            certify_satellite(p, k)
            for p in RECORD_PATTERNS
            for k in [TREFOIL, FIGURE8, UNFIBERED, KnotFacts("3_1", 1, 1, 0, 1, 0)]
        ]

    def test_every_verdict_path_is_reached(self):
        reasons = {(c.verdict, (c.reason or "").split(" ")[0]) for c in self.certificates()}
        assert reasons >= {
            (CERTIFIED, ""),
            (REJECTED, "necessary.fibered"),
            (REJECTED, "necessary.winding"),
            (NOT_CERTIFIED, "thm1.1"),
            (NOT_CERTIFIED, "thm1.3"),
            (NOT_CERTIFIED, "thm1.4"),
            (NOT_CERTIFIED, "unknown-twist:necessary"),
            (NOT_CERTIFIED, "unknown-twist:thm1.3"),
        }

    def test_every_check_has_the_stored_shape(self):
        """Each check is stored as a record (id, passed, values) and
        written as {"id", "pass", "values"} in that order, passes or
        fails as a bool even when the facts hold 1 and 0, holds only
        JSON scalars and renders its statement."""
        checked = 0
        for cert in self.certificates():
            assert len(cert.records) == len(cert.checks)
            for (id, passed, values), c in zip(cert.records, cert.checks):
                assert type(passed) is bool and type(values) is tuple
                assert all(type(v) in (int, bool, str, type(None)) for v in values)
                assert list(c) == ["id", "pass", "values"]
                assert (c["id"], c["pass"]) == (id, passed)
                assert type(c["pass"]) is bool
                assert all(type(v) in (int, bool, str, type(None)) for v in c["values"].values())
                assert render_statement(c)
                checked += 1
        assert checked > 0

    def test_checks_are_the_written_checks_decoded(self):
        """checks is the certificate's text decoded, not stored state:
        changing the list it returns changes neither the text nor the
        next read.  Facts given 1 and 0 store true and false, so every
        certificate replays."""
        for cert in self.certificates():
            text = cert.to_json()
            assert replay_certificate(Certificate.from_json(text)) == cert.verdict
            checks = cert.checks
            assert checks == json.loads(text)["checks"]
            checks.clear()
            if cert.records:
                cert.checks[0]["pass"] = not cert.records[0][1]
            assert cert.to_json() == text
            assert cert.checks == json.loads(text)["checks"]


# The companions of the benchmark's cable grid: four named knots and the
# non-fibered 5_2 as explicit facts.
GRID_COMPANIONS = [
    *(companion_from_json(name) for name in ("trefoil", "T(2,5)", "T(3,5)", "figure8")),
    KnotFacts("5_2", 1, False, False, False, False),
]


def cable_grid_certificates():
    """The 7 770 certificates of certify_cable over GRID_COMPANIONS,
    2 <= p <= 12 and coprime |q| <= 120."""
    for k in GRID_COMPANIONS:
        for p in range(2, 13):
            for q in range(-120, 121):
                if gcd(p, q) == 1:
                    yield certify_cable(k, p, q).certificate


def one_bridge_grid_certificates():
    """The certificates of each knotted B(w, b, t), 3 <= w <= 9,
    1 <= b <= w - 2, -30 <= t < 40, with threshold t mod 4 (0 among them),
    over GRID_COMPANIONS."""
    for w in range(3, 10):
        for b in range(1, w - 1):
            for t in range(-30, 40):
                try:
                    pattern = one_bridge_braid(w, b, t, t % 4)
                except UnknownTwistError:
                    continue
                for k in GRID_COMPANIONS:
                    yield certify_satellite(pattern, k)


# Table names that json's ASCII escape writes as escapes: a quote, a
# backslash, control characters, non-ASCII and astral characters; and the
# empty name.
TABLE_NAMES = ["t", 'q"uote', "back\\slash", "ctl\x00\x08\x1f\x7f", "τ é", "\U0001d517", ""]
# No entry, and entries at zero, negative and positive twists, one of
# them named with the same characters.
TABLE_ENTRIES = [
    {},
    {0: TREFOIL},
    {0: TREFOIL, -2: torus_knot(2, -1)},
    {0: TREFOIL, 1: torus_knot(2, 5), -1: KnotFacts('e"\\τ\U0001d517\n', 0, True, True, True, True)},
    {-3: torus_knot(2, -3), 2: torus_knot(2, 5)},
]


def table_grid_patterns():
    """Each table of winding 2 and genus 1 over TABLE_NAMES and
    TABLE_ENTRIES, with and without a disk, each tail absent or present
    (pos_from <= 0 among them), that table_pattern accepts."""
    for name, twists, neg, pos, disk in itertools.product(
        TABLE_NAMES, TABLE_ENTRIES, (None, 0, 2, 7), (None, -3, 0, 2), (True, False)
    ):
        try:
            yield table_pattern(name, 2, 1, disk, twists, neg, pos)
        except ValueError:
            pass


class TestRecordMemory:
    def test_certificates_retain_less_than_half_their_checks_as_dicts(self):
        """A certificate stores each check as a tuple and writes its keys
        only in to_json: the certificates of the cable grid for p <= 6
        retain less than half the bytes their checks take as dicts.  The
        patterns and companions are inputs, built outside the count."""
        pairs = [
            (torus_pattern(p, q), k)
            for k in GRID_COMPANIONS
            for p in range(2, 7)
            for q in range(-120, 121)
            if gcd(p, q) == 1
        ]
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            certificates = [certify_satellite(*pair) for pair in pairs]
            retained = tracemalloc.get_traced_memory()[0] - start
            as_dicts = [[check_dict(r) for r in cert.records] for cert in certificates]
            dict_bytes = tracemalloc.get_traced_memory()[0] - start - retained
        finally:
            tracemalloc.stop()
        assert len(as_dicts) == len(certificates) == 3360
        assert retained < dict_bytes / 2


def lemma_values_once(text: str) -> dict | None:
    """Check that the certificate text states each lemma fact once, from
    the text alone: no lem.* check restates a, b, r or w, g is written
    once, and each kept value and pass is recomputed from a, b and r in
    params, w in thm1.2 and g in lem.4.  Returns the lemma checks'
    values by id, or None when the certificate holds no lemma check."""
    data = json.loads(text)
    checks = {c["id"]: c for c in data["checks"]}
    if "lem.4" not in checks:
        assert not any(id.startswith("lem.") for id in checks)
        return None
    lemma = {id: c["values"] for id, c in checks.items() if id.startswith("lem.")}
    assert all(key not in ("a", "b", "r", "w") for values in lemma.values() for key in values)
    assert sum("g" in c["values"] for c in data["checks"]) == 1
    a, b, r = (data["params"][key] for key in ("a", "b", "r"))
    w, g = checks["thm1.2"]["values"]["winding"], lemma["lem.4"]["g"]
    lem4, lem5, sandwich = lemma["lem.4"], lemma["lem.5"], lemma["lem.sandwich"]
    assert lem4 == {"rhs": 2 * g + a * w * (2 * w - 1) - 1, "g": g}
    assert checks["lem.4"]["pass"] == (r >= lem4["rhs"])
    assert lem5 == {"lhs": b * w, "rhs": 2 * g + r - 1}
    assert checks["lem.5"]["pass"] == (lem5["lhs"] >= lem5["rhs"])
    assert sandwich == {"aw2": a * w * w, "bw2": b * w * w}
    assert checks["lem.sandwich"]["pass"] == (sandwich["aw2"] < r < sandwich["bw2"])
    assert lemma["lem.7"]["twist"] == -b
    return lemma


def trusted_inputs_once(text: str, braided: bool) -> None:
    """Check that the certificate text names the head keys it takes as
    given and restates none of their facts: ["companion"] for a braided
    pattern, ["companion", "pattern"] for a table, and no fact line or
    companion object from the verdict on."""
    trusted = json.loads(text)["trusted_inputs"]
    assert trusted == (["companion"] if braided else ["companion", "pattern"])
    tail = text[text.index(', "verdict": ') :]
    assert not any(fact in tail for fact in ("genus=", "is_lspace=", '{"name": '))


def facts_once(certificates, braided: bool) -> list[dict]:
    """The lemma values of each certificate that holds lemma checks, once
    each certificate is checked to state each fact once."""
    lemmas = []
    for cert in certificates:
        text = cert.to_json()
        trusted_inputs_once(text, braided)
        if (lemma := lemma_values_once(text)) is not None:
            lemmas.append(lemma)
    return lemmas


class TestWriterOracle:
    """to_json writes from fixed key texts the bytes json.dumps writes
    for the certificate's record built as a dict.  A certificate states
    each fact once: the values a lemma check keeps are only the sides it
    compares, recomputed from the text alone, and trusted_inputs names the
    head keys taken as given.  The cable and one-bridge grids hold a lem.5
    whose two sides differ, so a writer that swaps them shows, as a swap
    within lem.4 or lem.sandwich does."""

    def assert_written_as_json_dumps(self, certificates) -> int:
        count = 0
        for cert in certificates:
            assert cert.to_json() == json.dumps(certificate_dict(cert))
            count += 1
        return count

    @pytest.mark.parametrize(
        "grid, size", [(cable_grid_certificates, 7770), (one_bridge_grid_certificates, 2325)]
    )
    def test_braided_grid(self, grid, size):
        certificates = list(grid())
        assert {c.verdict for c in certificates} == {CERTIFIED, NOT_CERTIFIED, REJECTED}
        assert self.assert_written_as_json_dumps(certificates) == size
        lemmas = facts_once(certificates, braided=True)
        assert any(lemma["lem.5"]["lhs"] != lemma["lem.5"]["rhs"] for lemma in lemmas)

    def test_lemma_checks_off_the_chosen_parameters(self):
        """The pipeline picks r as the right side of lem.4, so in every
        certificate it writes lem.4's rhs is params.r; the lemma's checks
        at other (a, b, r), stored with those params in place of the
        certified list's lemma checks, differ from it, passing and
        failing."""
        certificates = []
        for pattern in (torus_pattern(2, 3), torus_pattern(3, 7), one_bridge_braid(4, 1, 10, 2)):
            cert = certify_satellite(pattern, TREFOIL)
            lemma_ids = [id for id, _, _ in cert.records[6:10]]
            assert lemma_ids == ["lem.4", "lem.5", "lem.7", "lem.sandwich"]
            for a, b, r in itertools.product((1, 2, 4), (2, 7, 18), (12, 13, 41, 200)):
                records = [*cert.records[:6], *check_lemma(pattern, a, b, r), cert.records[10]]
                certificates.append(
                    dataclasses.replace(cert, params=LemmaParams(a, b, r), records=records)
                )
        assert any(
            values[0] != cert.params.r
            for cert in certificates
            for id, _, values in cert.records
            if id == "lem.4"
        )
        records = [r for cert in certificates for r in cert.records[6:10]]
        assert {passed for _, passed, _ in records} == {True, False}
        assert self.assert_written_as_json_dumps(certificates) == 3 * 36

    def test_every_stage_shape(self):
        """The check ids of the certificates of the cable, one-bridge and
        table grids are exactly the five sequences the pipeline writes,
        and to_json writes a certificate of each as json.dumps does."""
        tables = (certify_satellite(p, k) for p in table_grid_patterns() for k in GRID_COMPANIONS)
        grids = (cable_grid_certificates(), one_bridge_grid_certificates(), tables)
        shapes = {}
        for cert in itertools.chain(*grids):
            shapes.setdefault(tuple(id for id, _, _ in cert.records), cert)
        assert set(shapes) == CHECK_ID_SEQUENCES
        assert shapes[()].reason.startswith("unknown-twist:necessary")
        assert self.assert_written_as_json_dumps(shapes.values()) == 5

    @pytest.mark.parametrize("count", [1, 3, 4, 7, 10, 12])
    def test_a_record_list_the_pipeline_never_makes_is_refused(self, count):
        """The stage writers read records by position, so to_json refuses
        a list of any other length, naming the lengths it writes, and
        writes nothing of it."""
        cert = certify_satellite(torus_pattern(2, 3), TREFOIL)
        records = (cert.records * 2)[:count]
        message = rf"^a certificate holds 0, 2, 5, 6 or 11 checks, not {count}$"
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(cert, records=records).to_json()

    def test_table_grid(self):
        """pattern_to_text writes each table of the grid, and to_json its
        certificates, as json.dumps writes the dicts."""
        patterns = list(table_grid_patterns())
        assert {p.name for p in patterns} == set(TABLE_NAMES)
        assert {p.neg_lspace_threshold for p in patterns} == {None, 0, 2, 7}
        assert {p.pos_tail_from for p in patterns} == {None, -3, 0, 2}
        assert {tuple(p.entries) for p in patterns} == {(), (0,), (-2, 0), (-1, 0, 1), (-3, 2)}
        for pattern in patterns:
            assert pattern_to_text(pattern) == json.dumps(pattern_to_json(pattern))
        certificates = [certify_satellite(p, k) for p in patterns for k in GRID_COMPANIONS]
        assert {c.verdict for c in certificates} == {CERTIFIED, NOT_CERTIFIED, REJECTED}
        assert self.assert_written_as_json_dumps(certificates) == 5 * len(patterns)
        assert facts_once(certificates, braided=False)

    def test_record_patterns(self):
        """Every pattern kind, every verdict path, a table named τ and
        facts given as 1 and 0."""
        certificates = TestCheckRecords().certificates()
        assert any("\\u03c4" in c.to_json() for c in certificates)
        assert self.assert_written_as_json_dumps(certificates) == 4 * len(RECORD_PATTERNS)


def constructor_outcomes():
    """What each public pattern constructor gives over a grid of inputs,
    valid or not: the pattern's text, or the refusal's type and message."""
    calls = [
        *(functools.partial(torus_pattern, p, q) for p in range(-1, 9) for q in range(-20, 21)),
        *(
            functools.partial(one_bridge_braid, w, b, t, threshold)
            for w in range(10)
            for b in range(-1, w)
            for t in range(-12, 13)
            for threshold in (None, -1, 0, 2)
        ),
        functools.partial(one_bridge_braid, MAX_BRIDGE_WIDTH + 1, 0, 1),
        *(
            functools.partial(table_pattern, "t", *args)
            for args in itertools.product(
                range(-1, 4),
                range(-1, 3),
                (True, False),
                TABLE_ENTRIES,
                (None, -1, 0, 2, 7),
                (None, -3, 0, 2),
            )
        ),
    ]
    for call in calls:
        try:
            yield pattern_to_text(call())
        except (ValueError, UnknownTwistError) as e:
            yield f"{type(e).__name__}: {e}"


def digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\n")
    return h.hexdigest()


# The digests of the texts the grids wrote when each was first pinned.
CABLE_GRID_SHA256 = "9ea3d4ccf9eb328d8bfa4f061ab341beb7f0db7db6dd73edc002aa33fee9e205"
ONE_BRIDGE_GRID_SHA256 = "e7990650bb1a7c78c5d58ca1c433fef29a798697fdf4d12525547c574fcc22d1"
TABLE_GRID_SHA256 = "ccf0df0d42d5d931c41ab2a4b848eabcee12493c19072458507874f16efa6134"
CONSTRUCTOR_GRID_SHA256 = "d99042740bfea5dff08cb678b0b9be9aa30a8132bf44ce5ba36049b2a648cab5"


class TestGridDigests:
    """One sha256 per grid over every text it writes, so that a change
    that should keep the bytes is checked for it: every certificate of the
    cable, one-bridge and table grids, and every pattern or refusal of the
    constructors' grid.  A change that alters these bytes on purpose
    recomputes the digests and says why."""

    def test_cable_grid(self):
        texts = (cert.to_json() for cert in cable_grid_certificates())
        assert digest(texts) == CABLE_GRID_SHA256

    def test_one_bridge_grid(self):
        texts = (cert.to_json() for cert in one_bridge_grid_certificates())
        assert digest(texts) == ONE_BRIDGE_GRID_SHA256

    def test_table_grid(self):
        patterns = table_grid_patterns()
        texts = (certify_satellite(p, k).to_json() for p in patterns for k in GRID_COMPANIONS)
        assert digest(texts) == TABLE_GRID_SHA256

    def test_constructor_grid(self):
        assert digest(constructor_outcomes()) == CONSTRUCTOR_GRID_SHA256
