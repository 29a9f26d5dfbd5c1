import random

import pytest

from lspacesat import (
    CERTIFIED,
    NOT_CERTIFIED,
    REJECTED,
    Certificate,
    INFINITY,
    KnotFacts,
    SlopeSet,
    certified_twist_range,
    certify_cable,
    certify_satellite,
    check_lemma,
    choose_lemma_params,
    homology_order,
    necessary_check,
    replay_certificate,
    slope,
    table_pattern,
    torus_knot,
    torus_pattern,
    twisted_surgery_coefficient,
)
from lspacesat.certify import NoThresholdError, NotCertifiedError, ReplayMismatchError
from lspacesat.patterns import UnknownTwistError

from oracle_helpers import linking_matrix_order_oracle

TREFOIL = torus_knot(2, 3)
FIGURE8 = KnotFacts("4_1", 1, False, False, True, False)


class TestHomologyOrder:
    def test_reducible_filling(self):
        assert homology_order(slope(13), slope(4, 13), 2) == 0

    def test_generic_filling(self):
        assert homology_order(slope(13), slope(1, 2), 2) == 5

    def test_infinity_filling_recovers_r(self):
        assert homology_order(slope(13), INFINITY, 2) == 13

    def test_matches_linking_matrix_oracle(self):
        rng = random.Random(23)
        for _ in range(100):
            r = slope(rng.randint(-30, 30) or 1, rng.randint(0, 9))
            s = slope(rng.randint(-30, 30) or 1, rng.randint(0, 9))
            w = rng.randint(0, 6)
            assert homology_order(r, s, w) == linking_matrix_order_oracle(r, s, w)


class TestTwistedCoefficient:
    def test_values(self):
        assert twisted_surgery_coefficient(13, 2, 2) == 5
        assert twisted_surgery_coefficient(13, 0, 2) == 13
        assert twisted_surgery_coefficient(13, 7, 2) == -15


class TestCheckLemma:
    def test_worked_instance(self):
        res = check_lemma(torus_pattern(2, 3), 2, 7, 13)
        assert res.ok
        assert res.arc == SlopeSet.arc(slope(1, 2), slope(1, 7))
        assert res.arc.contains(INFINITY)
        sandwich = next(c for c in res.checks if c.id == "lem.sandwich")
        assert sandwich.values == {"op": "sandwich", "aw2": 8, "r": 13, "bw2": 28}

    def test_r_too_small(self):
        res = check_lemma(torus_pattern(2, 3), 2, 7, 12)
        assert not res.ok and "lem.4" in res.failed

    def test_b_too_small(self):
        res = check_lemma(torus_pattern(2, 3), 2, 6, 13)
        assert not res.ok and "lem.5" in res.failed

    def test_wrong_twist_flags_fail(self):
        # a = 1: P(U, -1) = T(2, 1) is the unknot, which is an L-space
        # knot, but the sandwich needs r > a·w² and lem.4 compensates.
        res = check_lemma(torus_pattern(2, 3), 1, 7, 13)
        assert res.ok
        res2 = check_lemma(torus_pattern(3, 7), 4, 2, 200)
        assert not res2.ok

    def test_unknown_twist_propagates(self):
        pat = table_pattern(
            "sparse", 2, 1, True, {0: torus_knot(2, 3)}, neg_threshold=None
        )
        with pytest.raises(UnknownTwistError):
            check_lemma(pat, 2, 7, 13)


class TestChooseParams:
    def test_worked_instance(self):
        assert choose_lemma_params(torus_pattern(2, 3), 1).to_dict() == {
            "a": 2,
            "b": 7,
            "r": 13,
        }

    def test_larger_pattern(self):
        # g(T(3,7)) = 6, w = 3: r = 12 + 2*3*5 - 1 = 41, b = ceil(52/3) = 18.
        assert choose_lemma_params(torus_pattern(3, 7), 1).to_dict() == {
            "a": 2,
            "b": 18,
            "r": 41,
        }

    def test_threshold_dominates(self):
        pat = table_pattern(
            "tabled", 2, 1, True, {}, neg_threshold=100, pos_from=-10
        )
        assert choose_lemma_params(pat, 1).b == 100

    def test_no_threshold(self):
        pat = table_pattern("bare", 2, 1, True, {0: torus_knot(2, 3)})
        with pytest.raises(NoThresholdError):
            choose_lemma_params(pat, 1)

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
                    assert check_lemma(pat, params.a, params.b, params.r).ok


class TestNecessaryCheck:
    def test_zero_winding(self):
        pat = table_pattern(
            "core-less", 0, 1, False, {0: torus_knot(2, 3)}
        )
        res = necessary_check(pat, TREFOIL)
        assert not res.possibly_lspace and res.reason == "necessary.winding"

    def test_all_fibered(self):
        assert necessary_check(torus_pattern(2, 3), TREFOIL).possibly_lspace

    def test_non_fibered_pattern(self):
        unfibered = KnotFacts("unfibered", 2, False, False, False, False)
        pat = table_pattern("nf", 2, 2, True, {0: unfibered})
        res = necessary_check(pat, TREFOIL)
        assert not res.possibly_lspace and res.reason == "necessary.fibered"


class TestCertifySatellite:
    def test_worked_pipeline(self):
        cert = certify_satellite(torus_pattern(2, 3), TREFOIL)
        assert cert.verdict == CERTIFIED
        assert cert.params is not None and cert.params.r == 13
        assert SlopeSet.parse(cert.pattern_side_set) == SlopeSet.arc(
            slope(1, 2), slope(1, 7)
        )
        assert SlopeSet.parse(cert.glued_image) == SlopeSet.parse(
            "[-inf, 2) ∪ (7, inf]"
        )

    def test_worked_pipeline_canonical_text(self):
        # Golden strings: the certificate text of the worked example must
        # not move when the slope-set internals change.
        cert = certify_satellite(torus_pattern(2, 3), TREFOIL)
        assert cert.companion_set == "[1/1, inf]"
        assert cert.pattern_side_set == "[1/2, inf] ∪ [-inf, 1/7]"
        assert cert.glued_image == "(7/1, inf] ∪ [-inf, 2/1)"
        cover = cert.checks[-1]
        assert cover.id == "hrrw.cover" and cover.values["s1"] == "(1/1, inf)"

    def test_sufficient_but_not_necessary(self):
        cert = certify_satellite(torus_pattern(3, 4), TREFOIL)
        assert cert.verdict == NOT_CERTIFIED
        assert cert.reason == "thm1.3"

    def test_non_fibered_companion_rejected(self):
        unfibered = KnotFacts("unfibered", 2, False, False, False, False)
        cert = certify_satellite(torus_pattern(2, 3), unfibered)
        assert cert.verdict == REJECTED

    def test_non_lspace_companion(self):
        cert = certify_satellite(torus_pattern(2, 3), FIGURE8)
        assert cert.verdict == NOT_CERTIFIED and cert.reason == "thm1.1"

    def test_unknot_companion(self):
        from lspacesat import UNKNOT

        cert = certify_satellite(torus_pattern(2, 3), UNKNOT)
        assert cert.verdict == NOT_CERTIFIED and cert.reason == "thm1.1"

    def test_unknown_twist_distinct_from_false(self):
        pat = table_pattern(
            "sparse", 2, 1, True, {0: torus_knot(2, 3)}, neg_threshold=50
        )
        cert = certify_satellite(pat, TREFOIL)
        assert cert.verdict == NOT_CERTIFIED
        assert cert.reason.startswith("unknown-twist:")

    def test_trusted_inputs_recorded(self):
        cert = certify_satellite(torus_pattern(2, 3), TREFOIL)
        assert any("meridional-disk" in t for t in cert.trusted_inputs)


class TestTwistRange:
    def test_worked_value(self):
        assert certified_twist_range(torus_pattern(2, 3), TREFOIL) == -2

    def test_formula(self):
        t25 = torus_knot(2, 5)  # genus 2
        assert certified_twist_range(torus_pattern(2, 9), t25) == -4

    def test_requires_certified(self):
        with pytest.raises(NotCertifiedError):
            certified_twist_range(torus_pattern(3, 4), TREFOIL)


class TestCertifyCable:
    def test_agreeing_pair(self):
        cmp = certify_cable(TREFOIL, 2, 3)
        assert cmp.certificate.verdict == CERTIFIED and cmp.exact and not cmp.gap

    def test_gap_pair(self):
        cmp = certify_cable(TREFOIL, 3, 4)
        assert cmp.certificate.verdict == NOT_CERTIFIED and cmp.exact and cmp.gap

    def test_both_negative(self):
        cmp = certify_cable(TREFOIL, 2, 1)
        assert cmp.certificate.verdict == NOT_CERTIFIED and not cmp.exact


class TestCertificateSerialization:
    def test_json_round_trip(self):
        cert = certify_satellite(torus_pattern(2, 3), TREFOIL)
        again = Certificate.from_json(cert.to_json())
        assert again == cert

    def test_replay_reproduces_verdict(self):
        for pat, k in [
            (torus_pattern(2, 3), TREFOIL),
            (torus_pattern(3, 4), TREFOIL),
            (torus_pattern(2, 3), FIGURE8),
        ]:
            cert = certify_satellite(pat, k)
            assert replay_certificate(cert) == cert.verdict

    def test_tampered_certificate_detected(self):
        cert = certify_satellite(torus_pattern(2, 3), TREFOIL)
        data = cert.to_dict()
        data["checks"][-1]["values"]["s1"] = "EMPTY"
        with pytest.raises(ReplayMismatchError):
            replay_certificate(Certificate.from_dict(data))
