"""End-to-end acceptance checks.

Each test exercises one headline property of the certification engine at
desk scale and prints a single ACCEPTANCE pass line; run with ``-s`` to
see them.  Everything is exact — a single disagreement anywhere fails.
"""

import itertools
import random
from math import gcd

from lspacesat import (
    Arc,
    BraidSign,
    BraidWord,
    CERTIFIED,
    INFINITY,
    Slope,
    SlopeSet,
    braid_add_full_twists,
    braid_sign,
    certify_satellite,
    choose_lemma_params,
    closure_components,
    covers_circle,
    farey_enumerate,
    meridian_longitude_swap,
    one_bridge_braid,
    positive_braid_closure_genus,
    torus_knot,
    torus_pattern,
)
from lspacesat.braids import closure_permutation
from lspacesat.cli import random_slope_set

from oracle_helpers import (
    brute_force_covers,
    linking_matrix_order_oracle,
    one_bridge_braid_word,
    seifert_genus_oracle,
)

COMPANIONS = [torus_knot(2, 3), torus_knot(2, 5), torus_knot(3, 5)]


def _cable_grid(p_max=12, q_abs=120):
    for k in COMPANIONS:
        for p in range(2, p_max + 1):
            for q in range(-q_abs, q_abs + 1):
                if gcd(p, q) == 1:
                    yield k, p, q


def _certified_instances():
    """Certified (pattern, companion, certificate) triples from a small
    representative slice of the cable grid."""
    out = []
    for k in COMPANIONS:
        for p in range(2, 7):
            for q in range(p, 5 * p):
                if gcd(p, q) != 1:
                    continue
                cert = certify_satellite(torus_pattern(p, q), k)
                if cert.verdict == CERTIFIED:
                    out.append((torus_pattern(p, q), k, cert))
    assert out
    return out


def test_1_cable_boundary_reproduction():
    certified = set()
    gap_ps = set()
    for k, p, q in _cable_grid():
        g = k.genus
        cert = certify_satellite(torus_pattern(p, q), k)
        is_certified = cert.verdict == CERTIFIED
        # The sufficient conditions certify exactly the half-line q >= 2pg - 1.
        assert is_certified == (q >= 2 * p * g - 1), (k.name, p, q)
        if is_certified:
            # Soundness: certified pairs satisfy the exact criterion.
            assert q > p * (2 * g - 1), (k.name, p, q)
            certified.add((k.name, p, q))
        if p * (2 * g - 1) < q < 2 * p * g - 1:
            gap_ps.add((k.name, p))
    assert certified
    # The conditions are not necessary: a gap exists for every p >= 3.
    for k in COMPANIONS:
        for p in range(3, 13):
            assert (k.name, p) in gap_ps, (k.name, p)
    print(
        "\nACCEPTANCE 1: PASS — certified cable set equals {q >= 2pg-1} on "
        f"{sum(1 for _ in _cable_grid())} pairs, sound, with a nonempty gap "
        "for every p >= 3"
    )


def test_2_lemma_parameter_sandwich():
    rng = random.Random(1000)
    checked = 0
    while checked < 1000:
        p = rng.randint(2, 10)
        q = rng.randint(-60, 60)
        if q == 0 or gcd(p, q) != 1:
            continue
        g_k = rng.randint(1, 6)
        params = choose_lemma_params(torus_pattern(p, q), g_k)
        w2 = p * p
        assert params.a * w2 < params.r < params.b * w2, (p, q, g_k, params)
        checked += 1
    print(
        "ACCEPTANCE 2: PASS — a·w² < r < b·w² on 1000 generated torus-pattern "
        "instances"
    )


def test_3_worked_lemma_instance():
    cert = certify_satellite(torus_pattern(2, 3), torus_knot(2, 3))
    assert cert.verdict == CERTIFIED
    assert cert.params is not None
    assert (cert.params.a, cert.params.b, cert.params.r) == (2, 7, 13)
    side = SlopeSet.from_arcs([Arc(Slope(1, cert.params.a), Slope(1, cert.params.b))])
    assert side == SlopeSet.from_arcs([Arc(Slope(1, 2), Slope(1, 7))])
    assert side.contains(INFINITY)
    glued = SlopeSet.parse(cert.checks[-1]["values"]["s2"])
    assert glued == SlopeSet.parse("[-inf, 2) ∪ (7, inf]")
    assert covers_circle(SlopeSet.from_arcs([Arc(Slope(1), INFINITY, False, False)]), glued)
    print(
        "ACCEPTANCE 3: PASS — (a,b,r)=(2,7,13), arc [1/2 → ∞ → 1/7], image "
        "[-inf,2) ∪ (7,inf], cover with (1,∞), verdict CERTIFIED"
    )


def test_4_cover_oracle_and_truncation():
    rng = random.Random(4)
    endpoints = farey_enumerate(12)
    for _ in range(500):
        s1 = random_slope_set(rng, endpoints)
        s2 = random_slope_set(rng, endpoints)
        assert covers_circle(s1, s2) == brute_force_covers(s1, s2, max_den=50)
    truncated_failures = 0
    for pat, k, cert in _certified_instances():
        assert cert.params is not None
        glued = SlopeSet.parse(cert.checks[-1]["values"]["s2"])
        # Truncating the companion arc at 2g(K) removes the overlap
        # interval (2g(K)-1, 2g(K)) and must break the cover.
        truncated = SlopeSet.from_arcs([Arc(Slope(2 * k.genus), INFINITY, False, False)])
        assert not covers_circle(truncated, glued), (pat.name, k.name)
        truncated_failures += 1
    print(
        "ACCEPTANCE 4: PASS — exact cover test agrees with Farey brute force "
        f"on 500 random pairs; all {truncated_failures} certified covers "
        "break when truncated at 2g(K)"
    )


def test_5_homology_obstruction():
    instances = _certified_instances()
    for pat, k, cert in instances:
        assert cert.params is not None
        a, r, w = cert.params.a, cert.params.r, pat.winding
        assert linking_matrix_order_oracle(Slope(r), Slope(w * w, r), w) == 0
        assert linking_matrix_order_oracle(Slope(r), Slope(1, a), w) == abs(r - a * w * w)
    print(
        f"ACCEPTANCE 5: PASS — linking-matrix order 0 at w²/r and |r-aw²| at 1/a "
        f"on {len(instances)} certified instances"
    )


def test_6_twist_range_remark():
    instances = _certified_instances()
    for pat, k, _ in instances:
        n0 = -2 * k.genus
        for n in range(n0, n0 + 21):
            assert pat.twisted_facts(n).is_lspace, (pat.name, k.name, n)
    print(
        f"ACCEPTANCE 6: PASS — P(U, n) is an L-space knot for all "
        f"n in [-2g(K), -2g(K)+20] on {len(instances)} certified instances"
    )


def test_7_braid_engine():
    checked = 0
    # Exhaustive on small strata, then a deterministic random sample of
    # the full <= 12 letters / <= 5 strands range.
    for strands in (2, 3):
        for length in range(1, 9):
            for combo in itertools.product(range(1, strands), repeat=length):
                bw = BraidWord(strands, tuple((i, 1) for i in combo))
                if closure_components(closure_permutation(bw)) != 1:
                    continue
                assert positive_braid_closure_genus(bw) == seifert_genus_oracle(bw)
                checked += 1
    rng = random.Random(7)
    sampled = 0
    while sampled < 600:
        strands = rng.randint(2, 5)
        length = rng.randint(1, 12)
        bw = BraidWord(
            strands, tuple((rng.randint(1, strands - 1), 1) for _ in range(length))
        )
        if closure_components(closure_permutation(bw)) != 1:
            continue
        assert positive_braid_closure_genus(bw) == seifert_genus_oracle(bw)
        sampled += 1
    pat = one_bridge_braid(5, 2, 3)
    assert pat.winding == 5 and pat.genus_s3 == 5
    word = one_bridge_braid_word(5, 2, 3)
    assert braid_sign(word) is BraidSign.POSITIVE
    assert braid_sign(braid_add_full_twists(word, 1)) is BraidSign.POSITIVE
    print(
        f"ACCEPTANCE 7: PASS — Bennequin genus matches the Seifert oracle on "
        f"{checked} exhaustive and {sampled} sampled positive knot words; "
        "B(5,2,3) has winding 5, genus 5, stays Positive under +1 twist"
    )


def test_8_gluing_involution_and_transport():
    swap = meridian_longitude_swap()
    slopes = farey_enumerate(30)
    for x in slopes:
        assert swap.apply(swap.apply(x)) == x
    rng = random.Random(8)
    endpoints = farey_enumerate(8)
    for _ in range(20):
        s = random_slope_set(rng, endpoints)
        img = swap.image_of_set(s)
        for x in slopes:
            assert img.contains(swap.apply(x)) == s.contains(x)
    print(
        f"ACCEPTANCE 8: PASS — swap is an involution on {len(slopes)} Farey "
        "slopes and membership commutes with image_of_set"
    )
