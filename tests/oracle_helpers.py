"""Independent oracles used by the test suite.

These deliberately take different routes than the library code they
check: a one-bridge braid is built as its braid word, which the library
never builds; the Seifert-algorithm genus goes through Euler
characteristic of the smoothed diagram, the cover oracle samples a
Farey ball, and the homology oracle clears denominators in a rational
2x2 determinant, and a certificate's record, its pattern and its
companion are built as dicts for json.dumps to write, beside the
library's writers from fixed key texts.
"""

from __future__ import annotations

from fractions import Fraction

from lspacesat import (
    BraidWord,
    Certificate,
    KnotFacts,
    PatternFacts,
    SlopeSet,
    Slope,
    farey_enumerate,
)
from lspacesat.patterns import _BraidPattern


def one_bridge_braid_word(w: int, b: int, t: int) -> BraidWord:
    """The word (σ_b ⋯ σ_1)(σ_{w-1} ⋯ σ_1)^t on w strands; negative t
    contributes the formal inverse of the positive power.  The passes
    repeat one tuple of letters, so the word shares its letter objects.
    The library counts the cycles of B(w, b, t)'s strand permutation
    without building this word; the word engine checks that count."""
    bridge = tuple((i, 1) for i in range(b, 0, -1))
    if t >= 0:
        pass_ = tuple((i, 1) for i in range(w - 1, 0, -1))
    else:
        pass_ = tuple((i, -1) for i in range(1, w))
    return BraidWord(w, bridge + pass_ * abs(t))


def seifert_state(strands: int, letters) -> tuple[int, int]:
    """(number of Seifert circles, number of crossings) for the closure
    of a braid diagram, by oriented smoothing of every crossing.

    Each node is a strand segment (level, position); smoothing a
    crossing joins same-position segments across its level, and the
    closure joins top to bottom.  Circles are connected components.
    """
    c = len(letters)
    parent = list(range((c + 1) * strands))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def join(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    def node(level: int, pos: int) -> int:
        return level * strands + pos

    for level in range(c):
        for pos in range(strands):
            join(node(level, pos), node(level + 1, pos))
    for pos in range(strands):
        join(node(c, pos), node(0, pos))
    circles = len({find(node(0, pos)) for pos in range(strands)})
    return circles, c


def closure_component_count(strands: int, letters) -> int:
    perm = list(range(strands))
    for idx, _ in letters:
        perm[idx - 1], perm[idx] = perm[idx], perm[idx - 1]
    seen = [False] * strands
    count = 0
    for i in range(strands):
        if not seen[i]:
            count += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
    return count


def seifert_genus_oracle(bw: BraidWord) -> int:
    """Genus from Seifert's algorithm on the closed braid diagram:
    chi = circles - crossings, genus = (2 - components - chi)/2."""
    components = closure_component_count(bw.strands, bw.letters)
    circles, crossings = seifert_state(bw.strands, bw.letters)
    chi = circles - crossings
    num = 2 - components - chi
    assert num % 2 == 0
    return num // 2


_FAREY_BALLS: dict[int, list[Slope]] = {}


def brute_force_covers(s1: SlopeSet, s2: SlopeSet, max_den: int) -> bool:
    """Sampled cover test over the Farey ball of the given order."""
    if max_den not in _FAREY_BALLS:
        _FAREY_BALLS[max_den] = farey_enumerate(max_den)
    sample = _FAREY_BALLS[max_den]
    return all(s1.contains(x) or s2.contains(x) for x in sample)


def linking_matrix_order_oracle(r: Slope, s: Slope, w: int) -> int:
    """|H_1| via the rational linking-matrix determinant [[r, w], [w, s]]
    with denominators cleared."""
    if r.is_infinity and s.is_infinity:
        return 1
    if r.is_infinity:
        return abs(s.num)
    if s.is_infinity:
        return abs(r.num)
    det = Fraction(r.num, r.den) * Fraction(s.num, s.den) - w * w
    cleared = det * r.den * s.den
    assert cleared.denominator == 1
    return abs(int(cleared))


# The value keys of each check id, in the order a check record holds its
# values.  thm1.3 holds a knot or an error, the other None, and writes
# only the one it holds.
VALUE_KEYS = {
    "necessary.fibered": ("companion_fibered", "pattern_fibered"),
    "necessary.winding": ("winding",),
    "thm1.1": ("is_lspace", "is_unknot"),
    "thm1.2": ("winding", "disk"),
    "thm1.3": ("twist", "knot", "error"),
    "thm1.4": ("threshold",),
    "lem.4": ("rhs", "g"),
    "lem.5": ("lhs", "rhs"),
    "lem.7": ("twist", "knot"),
    "lem.sandwich": ("aw2", "bw2"),
    "hrrw.cover": ("s1", "s2"),
}


# The check ids of every certificate the pipeline writes, by how far it
# got: none (unknown-twist:necessary), the necessary checks (REJECTED),
# through thm1.3 (unknown-twist:thm1.3), through thm1.4 (NOT_CERTIFIED)
# and all eleven (CERTIFIED).  VALUE_KEYS lists the ids in pipeline order.
CHECK_ID_SEQUENCES = {tuple(VALUE_KEYS)[:n] for n in (0, 2, 5, 6, 11)}


def check_dict(record: tuple) -> dict:
    """A check record (id, passed, values) as the dict a certificate
    writes, {"id", "pass", "values"}, with its value keys from VALUE_KEYS."""
    id, passed, values = record
    keys = VALUE_KEYS[id]
    assert len(keys) == len(values), (id, values)
    named = dict(zip(keys, values))
    if id == "thm1.3":
        named.pop("error" if named["error"] is None else "knot")
    return {"id": id, "pass": passed, "values": named}


def companion_to_json(k: KnotFacts) -> dict:
    """The six facts of k as a dict, which companion_from_json reads
    back to k."""
    return {
        "name": k.name,
        "genus": k.genus,
        "is_lspace": k.is_lspace,
        "is_neg_lspace": k.is_neg_lspace,
        "is_fibered": k.is_fibered,
        "is_unknot": k.is_unknot,
    }


def pattern_to_json(p: PatternFacts) -> dict:
    """The JSON form that pattern_from_json reads back to p, as a dict,
    for patterns built by torus_pattern, one_bridge_braid and
    table_pattern."""
    threshold = p.neg_lspace_threshold
    if isinstance(p, _BraidPattern):
        if p.b == 0:
            return {"torus_pattern": [p.winding, p.t]}
        return {"one_bridge_braid": {"w": p.winding, "b": p.b, "t": p.t, "neg_threshold": threshold}}
    return {
        "table": {
            "name": p.name,
            "winding": p.winding,
            "genus_s3": p.genus_s3,
            "has_disk": p.has_minimal_meridional_disk,
            "twists": {str(n): companion_to_json(k) for n, k in p.entries.items()},
            "neg_threshold": threshold,
            "pos_from": p.pos_tail_from,
        }
    }


def certificate_dict(cert: Certificate) -> dict:
    """The record of cert as a dict, whose json.dumps is the text
    Certificate.to_json writes from fixed key texts."""
    params = cert.params
    braided = isinstance(cert.pattern, _BraidPattern)
    return {
        "format": 5,
        "pattern": pattern_to_json(cert.pattern),
        "companion": companion_to_json(cert.companion),
        "verdict": cert.verdict,
        "reason": cert.reason,
        "params": None if params is None else {"a": params.a, "b": params.b, "r": params.r},
        "checks": [check_dict(r) for r in cert.records],
        "trusted_inputs": ["companion"] if braided else ["companion", "pattern"],
    }
