"""lspacesat: exact certification of satellite L-space knots.

The package implements the full slope calculus behind a sufficient-
condition certificate that a satellite knot is an L-space knot: exact
rational slopes on QP^1, circular-arc slope sets with an exact cover
test, the meridian-longitude gluing map, torus-knot and braid pattern
families, and an auditable certification pipeline with replayable
certificates.
"""

from .braids import (
    BraidSign,
    BraidWord,
    braid_add_full_twists,
    braid_free_reduce,
    braid_mirror,
    braid_sign,
    closure_components,
    positive_braid_closure_genus,
)
from .certify import (
    CERTIFIED,
    NOT_CERTIFIED,
    REJECTED,
    CableComparison,
    Certificate,
    LemmaParams,
    certify_cable,
    certify_satellite,
    check_lemma,
    choose_lemma_params,
    necessary_check,
    render_statement,
    replay_certificate,
)
from .gluing import GluingMap, meridian_longitude_swap
from .knots import (
    UNKNOT,
    KnotFacts,
    cable_facts,
    cable_is_lspace_exact,
    companion_from_json,
    lspace_slope_set,
    torus_knot,
)
from .patterns import (
    PatternFacts,
    genus_twist_bound,
    one_bridge_braid,
    pattern_from_json,
    table_pattern,
    torus_pattern,
)
from .projective import Arc, SlopeSet, covers_circle
from .slopes import INFINITY, Slope, farey_enumerate, slope_ccw, slope_det

__version__ = "0.1.0"

__all__ = [
    "Arc",
    "BraidSign",
    "BraidWord",
    "CableComparison",
    "Certificate",
    "CERTIFIED",
    "GluingMap",
    "INFINITY",
    "KnotFacts",
    "LemmaParams",
    "NOT_CERTIFIED",
    "PatternFacts",
    "REJECTED",
    "Slope",
    "SlopeSet",
    "UNKNOT",
    "braid_add_full_twists",
    "braid_free_reduce",
    "braid_mirror",
    "braid_sign",
    "cable_facts",
    "cable_is_lspace_exact",
    "certify_cable",
    "certify_satellite",
    "check_lemma",
    "choose_lemma_params",
    "closure_components",
    "companion_from_json",
    "covers_circle",
    "farey_enumerate",
    "genus_twist_bound",
    "lspace_slope_set",
    "meridian_longitude_swap",
    "necessary_check",
    "one_bridge_braid",
    "pattern_from_json",
    "positive_braid_closure_genus",
    "render_statement",
    "replay_certificate",
    "slope_ccw",
    "slope_det",
    "table_pattern",
    "torus_knot",
    "torus_pattern",
]
