"""Hypothesis strategies for valid patterns and companions.

Companions come with one of their documented JSON forms (a shortcut name,
{"torus_knot": …}, {"cable": …} or an explicit field dictionary), so the
same draws serve the library and the command line.  Patterns are built by
torus_pattern, one_bridge_braid and table_pattern; pattern_to_text gives
their JSON text, and oracle_helpers.pattern_to_json the same form as a
dict; certified_pairs draws pairs of each pattern kind that meet the
sufficient conditions by construction.  Slope-set inputs are
lists of arcs over a small Farey pool, over a pool of slopes with
denominators near 10**20, or over its image next to ∞.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from hypothesis import strategies as st

from lspacesat import (
    INFINITY,
    KnotFacts,
    Slope,
    cable_facts,
    farey_enumerate,
    one_bridge_braid,
    table_pattern,
    torus_knot,
    torus_pattern,
)
from lspacesat.braids import closure_components, closure_permutation
from lspacesat.knots import companion_from_json
from lspacesat.patterns import genus_twist_bound
from lspacesat.projective import Arc

from oracle_helpers import one_bridge_braid_word


def _coprime_pairs(p_values, q_values):
    return st.tuples(p_values, q_values).filter(lambda pq: gcd(*pq) == 1)


def _torus_companion(pm):
    p, m = pm
    return st.sampled_from([f"T({p},{m})", {"torus_knot": [p, m]}]).map(
        lambda form: (torus_knot(p, m), form)
    )


def _explicit_companion(fields):
    try:
        return KnotFacts(**fields), fields
    except ValueError:
        return None


def _cable(inner, pq):
    (k, form), (p, q) = inner, pq
    return cable_facts(k, p, q), {"cable": {"companion": form, "p": p, "q": q}}


_named = st.sampled_from(["trefoil", "figure8", "unknot"]).map(
    lambda name: (companion_from_json(name), name)
)
_explicit = st.fixed_dictionaries(
    {
        "name": st.text(max_size=4),
        "genus": st.integers(0, 12),
        "is_lspace": st.booleans(),
        "is_neg_lspace": st.booleans(),
        "is_fibered": st.booleans(),
        "is_unknot": st.booleans(),
    }
).map(_explicit_companion).filter(lambda pair: pair is not None)

# (KnotFacts, JSON form) pairs: shortcut names, torus knots, explicit facts
# and cables of them.
companion_pairs = st.recursive(
    _named | _coprime_pairs(st.integers(2, 7), st.integers(-30, 30)).flatmap(_torus_companion) | _explicit,
    lambda inner: st.builds(
        _cable, inner, _coprime_pairs(st.integers(2, 5), st.integers(-30, 30))
    ),
    max_leaves=3,
)
companions = companion_pairs.map(lambda pair: pair[0])

torus_patterns = _coprime_pairs(st.integers(2, 8), st.integers(-40, 40)).map(
    lambda pq: torus_pattern(*pq)
)

# (w, b, t mod w) whose braid closes to a knot; full twists keep the
# number of components, so every t with that residue is a knot too.
_KNOTTED = [
    (w, b, r)
    for w in range(3, 10)
    for b in range(1, w - 1)
    for r in range(w)
    if closure_components(closure_permutation(one_bridge_braid_word(w, b, r))) == 1
]
one_bridge_patterns = st.builds(
    lambda wbr, k, threshold: one_bridge_braid(wbr[0], wbr[1], wbr[2] + k * wbr[0], threshold),
    st.sampled_from(_KNOTTED),
    st.integers(-4, 5),
    st.none() | st.integers(0, 60),
)


@st.composite
def table_patterns(draw):
    """Tables that do not contradict themselves: a tabled P(U) gives
    genus_s3 its genus, entries outside the genus twist bounds or without
    the flag of a tail they lie in are dropped, and a positive tail that
    overlaps the negative one where the bound allows a nontrivial knot is
    clamped to start past it."""
    winding = draw(st.integers(0, 5))
    drawn = draw(st.dictionaries(st.integers(-12, 12), companions, max_size=4))
    genus_s3 = drawn[0].genus if 0 in drawn else draw(st.integers(0, 6))
    # -1 and 3 stand for an absent tail.
    neg_threshold = draw(st.integers(-1, 12).map(lambda n: None if n < 0 else n))
    pos_from = draw(st.integers(-12, 3).map(lambda n: None if n > 2 else n))
    if (
        neg_threshold is not None
        and pos_from is not None
        and pos_from <= -neg_threshold
        and genus_twist_bound(genus_s3, winding, pos_from) >= 1
    ):
        pos_from = 1 - neg_threshold
    twists = {
        n: k
        for n, k in drawn.items()
        if abs(k.genus - genus_s3) <= genus_twist_bound(0, winding, n)
        and (neg_threshold is None or n > -neg_threshold or k.is_neg_lspace)
        and (pos_from is None or n < pos_from or k.is_lspace)
    }
    return table_pattern(
        draw(st.text(max_size=4)),
        winding,
        genus_s3,
        winding >= 1 and draw(st.booleans()),
        twists,
        neg_threshold=neg_threshold,
        pos_from=pos_from,
    )


patterns = torus_patterns | one_bridge_patterns | table_patterns()


# Certified pairs: each draw meets the sufficient conditions by
# construction, so the lemma and the cover run on every kind of pattern.
# The companion is an L-space torus knot T(p, m), m >= 2, of genus g; the
# pattern's P(U, -2g) is an L-space knot (thm1.3), and its negative tail
# answers the lemma's P(U, -b).
_lspace_torus_knots = _coprime_pairs(st.integers(2, 5), st.integers(2, 13)).map(
    lambda pm: torus_knot(*pm)
)


def _certified_torus(draw, g):
    """T(p, q) with q >= 2g·p - 1, so that P(U, -2g) = T(p, q - 2g·p)
    has q - 2g·p >= -1."""
    p = draw(st.integers(2, 8))
    low = 2 * g * p - 1
    q = draw(st.sampled_from([q for q in range(low, low + 41) if gcd(p, q) == 1]))
    return torus_pattern(p, q)


def _certified_one_bridge(draw, g):
    """B(w, b, t), w 4-9, with t >= 2g·w, so that P(U, -2g) is a
    positive word; the lemma's b·w exceeds t, so P(U, -b) is negative."""
    w, b, r = draw(st.sampled_from([wbr for wbr in _KNOTTED if wbr[0] >= 4]))
    passes = -(-(2 * g * w - r) // w) + draw(st.integers(0, 3))
    return one_bridge_braid(w, b, r + passes * w, draw(st.integers(0, 4)))


def _certified_table(draw, g):
    """A table with a negative tail n <= -N that answers P(U) and
    P(U, -2g) with an L-space knot.  Inside the tail an entry at -2g
    needs both flags, so it is the unknot; past it, it is a tabled
    L-space knot or lies in a positive tail that starts after -N.
    genus_s3 is at most the genus twist bound's reach at -2g, so that the
    unknot may sit there."""
    winding = draw(st.integers(2, 5))
    genus_s3 = draw(st.integers(0, min(genus_twist_bound(0, winding, -2 * g), 6)))
    neg_threshold = draw(st.integers(0, 12))
    twists, pos_from = {}, None
    if neg_threshold <= 2 * g:
        twists[-2 * g] = torus_knot(2, 1)
    elif draw(st.booleans()):
        pos_from = draw(st.integers(1 - neg_threshold, -2 * g))
    else:
        bound = genus_twist_bound(genus_s3, winding, -2 * g)
        twists[-2 * g] = torus_knot(2, 2 * draw(st.integers(0, min(bound, 6))) + 1)
    if neg_threshold > 0 and pos_from is None:
        # P(U): a fibered knot of genus genus_s3.
        m = 2 * genus_s3 + 1
        twists[0] = torus_knot(2, draw(st.sampled_from([-m, m])))
    return table_pattern(
        draw(st.text(max_size=4)),
        winding,
        genus_s3,
        True,
        twists,
        neg_threshold=neg_threshold,
        pos_from=pos_from,
    )


@st.composite
def _certified_pair(draw):
    k = draw(_lspace_torus_knots)
    build = draw(st.sampled_from([_certified_torus, _certified_one_bridge, _certified_table]))
    return build(draw, k.genus), k


certified_pairs = _certified_pair()

# (pattern, companion) pairs for properties of the pipeline: any valid
# pair, or a certified one about half the time.
pairs = st.tuples(patterns, companions) | certified_pairs


def close_pool():
    """Slopes with denominators near 10**20, 0 and ∞.  A pair of Farey
    neighbours and five of their mediants lie within 10**-39 of each
    other; their negatives form a second such cluster."""
    q = 10**20 + 39
    p = 31415926535897932384
    s = pow(p, -1, q)
    r = (p * s - 1) // q  # p·s - q·r = 1
    near = [Slope(p, q), Slope(r, s)]
    near += [Slope(p + k * r, q + k * s) for k in (1, 2, 3)]
    near += [Slope(k * p + r, k * q + s) for k in (2, 3)]
    return near + [Slope(-x.num, x.den) for x in near] + [Slope(0), INFINITY]


CLOSE_POOL = close_pool()
# The same clusters carried next to ∞ by p/q ↦ q/p: within 10**-39 of ∞
# on both sides, with numerators near 10**20.
FAR_POOL = [Slope(x.den, x.num) for x in CLOSE_POOL]


def arcs_over(pool):
    """Points, complements of a point, and arcs between distinct pool
    slopes (about half of which run through ∞)."""
    return st.lists(
        st.one_of(
            st.sampled_from(pool).map(lambda x: Arc(x, x)),
            st.sampled_from(pool).map(lambda x: Arc(x, x, False, False)),
            st.tuples(st.sampled_from(pool), st.sampled_from(pool), st.booleans(), st.booleans())
            .filter(lambda t: t[0] != t[1])
            .map(lambda t: Arc(*t)),
        ),
        max_size=6,
    )


pool_arcs = arcs_over(farey_enumerate(4))


@st.composite
def disjoint_arcs(draw, pool):
    """Separated arcs, and a point when the draw is odd, between slopes
    of the pool taken in circular order from a random first slope, so
    that their canonical set keeps every one of them."""
    ordered = sorted(pool, key=lambda x: (x.den != 0, Fraction(x.num, x.den or 1)))
    shift = draw(st.integers(0, len(ordered) - 1))
    ordered = ordered[shift:] + ordered[:shift]
    picks = draw(st.sets(st.integers(0, len(ordered) - 1), min_size=1, max_size=8))
    ends = [ordered[i] for i in sorted(picks)]
    arcs = [Arc(x, y, draw(st.booleans()), draw(st.booleans())) for x, y in zip(ends[::2], ends[1::2])]
    return arcs + [Arc(ends[-1], ends[-1])] if len(ends) % 2 else arcs


# Arc lists for slope-set properties: overlapping arcs over the three
# pools, and separated ones, which survive as several canonical arcs.
slope_set_arcs = st.one_of(
    pool_arcs,
    arcs_over(CLOSE_POOL),
    arcs_over(FAR_POOL),
    disjoint_arcs(farey_enumerate(4)),
    disjoint_arcs(CLOSE_POOL),
    disjoint_arcs(FAR_POOL),
)
