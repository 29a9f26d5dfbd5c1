"""Pattern knots in the solid torus and their twist families.

A pattern is summarized by its winding number, the Seifert genus of its
untwisted satellite of the unknot, the meridional-disk flag, and a twist
family answering "what knot is P(U, n)?".  Three families are built in:

* torus patterns, where P(U, n) = T(p, q + n·p) exactly;
* 1-bridge braid words, where positively (or negatively) literal words
  give L-space (or negative L-space) knots with Bennequin genus, and
  mixed words require user overrides;
* explicit tables with asserted tail behavior.

Everything the engine cannot derive is a trusted input and is recorded
as such by the certifier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

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
from .knots import KnotFacts, NotCoprimeError, companion_from_json, torus_knot
from math import gcd


class UnknownTwistError(LookupError):
    """The twist family cannot answer this twisting parameter."""

    def __init__(self, n: int, why: str = ""):
        self.n = n
        super().__init__(f"twist family cannot answer n = {n}" + (f" ({why})" if why else ""))


class BridgeOutOfRangeError(ValueError):
    pass


class InvalidTwistFactsError(ValueError):
    """A twist family answer violated the genus-under-twisting bound."""


def genus_twist_bound(g_p: int, w: int, n: int) -> int:
    """Upper bound g_p + |n|·w(w-1)/2 for the genus after |n| full twists
    (each full twist changes the genus by at most w(w-1)/2)."""
    if w < 0:
        raise ValueError("winding must be nonnegative")
    return g_p + abs(n) * w * (w - 1) // 2


@dataclass(frozen=True)
class TorusTwistFamily:
    p: int
    q: int

    def facts(self, n: int) -> KnotFacts:
        return torus_knot(self.p, self.q + n * self.p)


@dataclass(frozen=True)
class BraidTwistFamily:
    word: BraidWord
    overrides: Mapping[int, KnotFacts] = field(default_factory=dict)

    def facts(self, n: int) -> KnotFacts:
        if n in self.overrides:
            return self.overrides[n]
        twisted = braid_free_reduce(braid_add_full_twists(self.word, n))
        sign = braid_sign(twisted)
        name = f"closure({self.word}; {n} twists)"
        if sign in (BraidSign.POSITIVE, BraidSign.TRIVIAL):
            if closure_components(twisted) != 1:
                raise UnknownTwistError(n, "closure is a link, not a knot")
            g = positive_braid_closure_genus(twisted)
            return KnotFacts(name, g, True, g == 0, True, g == 0)
        if sign is BraidSign.NEGATIVE:
            g = positive_braid_closure_genus(braid_mirror(twisted))
            return KnotFacts(name, g, g == 0, True, True, g == 0)
        raise UnknownTwistError(n, "mixed-sign word and no override supplied")


@dataclass(frozen=True)
class TableTwistFamily:
    entries: Mapping[int, KnotFacts]
    winding: int
    genus_s3: int
    neg_tail_from: int | None = None  # is_neg_lspace asserted for n <= -this
    pos_tail_from: int | None = None  # is_lspace asserted for n >= this

    def facts(self, n: int) -> KnotFacts:
        if n in self.entries:
            return self.entries[n]
        # Tail assertions pin the flags only; the genus field carries the
        # twisting upper bound, which is all downstream checks consume.
        bound = genus_twist_bound(self.genus_s3, self.winding, n)
        if self.neg_tail_from is not None and n <= -self.neg_tail_from:
            return KnotFacts(f"table tail n={n}", bound, False, True, True, False)
        if self.pos_tail_from is not None and n >= self.pos_tail_from:
            return KnotFacts(f"table tail n={n}", bound, True, False, True, False)
        raise UnknownTwistError(n, "outside table and asserted tails")


@dataclass(frozen=True)
class PatternFacts:
    """Combinatorial data of a pattern knot P ⊂ D^2 × S^1."""

    name: str
    winding: int
    genus_s3: int
    has_minimal_meridional_disk: bool
    family: TorusTwistFamily | BraidTwistFamily | TableTwistFamily
    neg_lspace_threshold: int | None = None

    def __post_init__(self) -> None:
        if self.winding < 0:
            raise ValueError("winding must be nonnegative")
        if self.has_minimal_meridional_disk and self.winding < 1:
            raise ValueError(
                "a meridional disk meeting P in w points forces winding >= 1"
            )
        if self.neg_lspace_threshold is not None and self.neg_lspace_threshold < 0:
            raise ValueError("neg_lspace_threshold must be nonnegative")

    def twisted_facts(self, n: int) -> KnotFacts:
        """Full facts of the n-twisted satellite of the unknot P(U, n)."""
        facts = self.family.facts(n)
        bound = genus_twist_bound(self.genus_s3, self.winding, n)
        if facts.genus > bound:
            raise InvalidTwistFactsError(
                f"{self.name}: genus {facts.genus} at twist {n} exceeds "
                f"bound {bound}"
            )
        return facts


def torus_pattern(p: int, q: int) -> PatternFacts:
    """The (p, q)-torus knot in its standard solid-torus embedding;
    p is the longitudinal winding and P(U, n) = T(p, q + n·p)."""
    if p < 2:
        raise ValueError(f"longitudinal winding p must be >= 2, got {p}")
    if gcd(p, q) != 1:
        raise NotCoprimeError(f"torus pattern needs gcd(p, q) = 1, got ({p}, {q})")
    genus_s3 = (p - 1) * (abs(q) - 1) // 2
    # Least N with q - N·p <= 1, clamped to be nonnegative.
    threshold = max(-(-(q - 1) // p), 0)
    return PatternFacts(
        name=f"T({p},{q})-pattern",
        winding=p,
        genus_s3=genus_s3,
        has_minimal_meridional_disk=True,
        family=TorusTwistFamily(p, q),
        neg_lspace_threshold=threshold,
    )


def one_bridge_braid_word(w: int, b: int, t: int) -> BraidWord:
    """The word (σ_b ⋯ σ_1)(σ_{w-1} ⋯ σ_1)^t on w strands; negative t
    contributes the formal inverse of the positive power."""
    letters = [(i, 1) for i in range(b, 0, -1)]
    if t >= 0:
        letters += [(i, 1) for _ in range(t) for i in range(w - 1, 0, -1)]
    else:
        letters += [(i, -1) for _ in range(-t) for i in range(1, w)]
    return BraidWord(w, tuple(letters))


def one_bridge_braid(
    w: int,
    b: int,
    t: int,
    overrides: Mapping[int, KnotFacts] | None = None,
    neg_lspace_threshold: int | None = None,
) -> PatternFacts:
    """A 1-bridge braid pattern B(w, b, t) with bridge width b and t
    extra passes of the strand cycle.

    The literal word sign decides the L-space flags of each twist; mixed
    words need per-twist overrides, and the negative tail must be
    asserted through neg_lspace_threshold to certify anything.
    """
    if w < 3:
        raise BridgeOutOfRangeError(f"need w >= 3 strands, got {w}")
    if not 1 <= b <= w - 2:
        raise BridgeOutOfRangeError(f"bridge width must satisfy 1 <= b <= w-2, got {b}")
    family = BraidTwistFamily(one_bridge_braid_word(w, b, t), dict(overrides or {}))
    genus_s3 = family.facts(0).genus
    return PatternFacts(
        name=f"B({w},{b},{t})",
        winding=w,
        genus_s3=genus_s3,
        has_minimal_meridional_disk=True,
        family=family,
        neg_lspace_threshold=neg_lspace_threshold,
    )


def table_pattern(
    name: str,
    winding: int,
    genus_s3: int,
    has_disk: bool,
    twists: Mapping[int, KnotFacts],
    neg_threshold: int | None = None,
    pos_from: int | None = None,
) -> PatternFacts:
    family = TableTwistFamily(
        dict(twists), winding, genus_s3, neg_threshold, pos_from
    )
    for n, facts in twists.items():
        if facts.genus > genus_twist_bound(genus_s3, winding, n):
            raise InvalidTwistFactsError(
                f"table entry n={n} violates the genus twist bound"
            )
    return PatternFacts(
        name=name,
        winding=winding,
        genus_s3=genus_s3,
        has_minimal_meridional_disk=has_disk,
        family=family,
        neg_lspace_threshold=neg_threshold,
    )


def pattern_from_json(obj) -> PatternFacts:
    """Build PatternFacts from the documented JSON forms."""
    if not isinstance(obj, dict):
        raise ValueError(f"cannot parse pattern from {obj!r}")
    if "torus_pattern" in obj:
        p, q = obj["torus_pattern"]
        return torus_pattern(int(p), int(q))
    if "one_bridge_braid" in obj:
        spec = obj["one_bridge_braid"]
        overrides = {
            int(n): companion_from_json(facts)
            for n, facts in spec.get("overrides", {}).items()
        }
        threshold = spec.get("neg_threshold")
        return one_bridge_braid(
            int(spec["w"]),
            int(spec["b"]),
            int(spec["t"]),
            overrides=overrides,
            neg_lspace_threshold=None if threshold is None else int(threshold),
        )
    if "table" in obj:
        spec = obj["table"]
        twists = {
            int(n): companion_from_json(facts)
            for n, facts in spec.get("twists", {}).items()
        }
        return table_pattern(
            name=str(spec.get("name", "table-pattern")),
            winding=int(spec["winding"]),
            genus_s3=int(spec["genus_s3"]),
            has_disk=bool(spec["has_disk"]),
            twists=twists,
            neg_threshold=(
                None if spec.get("neg_threshold") is None else int(spec["neg_threshold"])
            ),
            pos_from=(
                None if spec.get("pos_from") is None else int(spec["pos_from"])
            ),
        )
    raise ValueError(f"unrecognized pattern description: {sorted(obj)}")
