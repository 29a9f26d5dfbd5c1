"""Pattern knots in the solid torus and their twist families.

A pattern is summarized by its winding number, the Seifert genus of its
untwisted satellite of the unknot, the meridional-disk flag, and a twist
family answering "what knot is P(U, n)?".  Three families are built in:

* torus patterns, where P(U, n) = T(p, q + n·p) exactly;
* 1-bridge braids B(w, b, t), where P(U, n) is the closure of
  B(w, b, t + n·w): a positive word (an L-space knot) for t + n·w >= 0,
  a negative one (a negative L-space knot) otherwise, with Bennequin
  genus read off the letter count;
* explicit tables with asserted tail behavior.

Everything the engine cannot derive is a trusted input and is recorded
as such by the certifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .braids import BraidWord, closure_components
from .knots import (
    KnotFacts,
    NotCoprimeError,
    companion_from_json,
    companion_to_json,
    json_flag,
    json_int,
    torus_knot,
)
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


@dataclass(frozen=True, slots=True)
class TorusTwistFamily:
    p: int
    q: int

    def facts(self, n: int) -> KnotFacts:
        return torus_knot(self.p, self.q + n * self.p)


@dataclass(frozen=True, slots=True)
class OneBridgeTwistFamily:
    """P(U, n) of B(w, b, t) is the closure of B(w, b, t + n·w), since a
    full twist is w more passes of the strand cycle.

    With t' = t + n·w the freely reduced word is positive with
    b + t'(w-1) letters when t' >= 0; when t' < 0 the b bridge letters
    cancel against the first inverse pass, leaving a negative word of
    -t'(w-1) - b letters.  The Bennequin genus (c - w + 1)/2 of the
    closure (or of its mirror) follows from the letter count c alone.
    """

    w: int
    b: int
    t: int

    def __post_init__(self) -> None:
        if self.w < 3:
            raise BridgeOutOfRangeError(f"need w >= 3 strands, got {self.w}")
        if not 1 <= self.b <= self.w - 2:
            raise BridgeOutOfRangeError(
                f"bridge width must satisfy 1 <= b <= w-2, got {self.b}"
            )
        # Full twists permute the strands trivially, so every P(U, n) has
        # as many components as B(w, b, t mod w).
        word = one_bridge_braid_word(self.w, self.b, self.t % self.w)
        if closure_components(word) != 1:
            raise UnknownTwistError(0, "closure is a link, not a knot")

    def facts(self, n: int) -> KnotFacts:
        w, b, t = self.w, self.b, self.t + n * self.w
        name = f"closure of B({w},{b},{t})"
        c = b + t * (w - 1) if t >= 0 else -t * (w - 1) - b
        g = (c - w + 1) // 2
        if t >= 0:
            return KnotFacts(name, g, True, g == 0, True, g == 0)
        return KnotFacts(name, g, g == 0, True, True, g == 0)


@dataclass(frozen=True, slots=True)
class TableTwistFamily:
    entries: Mapping[int, KnotFacts]
    winding: int
    genus_s3: int
    neg_tail_from: int | None = None  # is_neg_lspace asserted for n <= -this
    pos_tail_from: int | None = None  # is_lspace asserted for n >= this

    def tail(self, n: int) -> str | None:
        """The asserted tail that answers P(U, n), "negative" or
        "positive"; None for a table entry or a twist no tail covers."""
        if n in self.entries:
            return None
        if self.neg_tail_from is not None and n <= -self.neg_tail_from:
            return "negative"
        if self.pos_tail_from is not None and n >= self.pos_tail_from:
            return "positive"
        return None

    def facts(self, n: int) -> KnotFacts:
        if n in self.entries:
            return self.entries[n]
        tail = self.tail(n)
        if tail is None:
            raise UnknownTwistError(n, "outside table and asserted tails")
        # Tail assertions pin the flags only; the genus field carries the
        # twisting upper bound, which is all downstream checks consume.  A
        # bound of 0 pins the knot itself: genus 0 is the unknot.
        bound = genus_twist_bound(self.genus_s3, self.winding, n)
        name = f"table tail n={n}"
        unknot = bound == 0
        if tail == "negative":
            return KnotFacts(name, bound, unknot, True, True, unknot)
        return KnotFacts(name, bound, True, unknot, True, unknot)


@dataclass(frozen=True, slots=True)
class PatternFacts:
    """Combinatorial data of a pattern knot P ⊂ D^2 × S^1."""

    name: str
    winding: int
    genus_s3: int
    has_minimal_meridional_disk: bool
    family: TorusTwistFamily | OneBridgeTwistFamily | TableTwistFamily
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
    w: int, b: int, t: int, neg_lspace_threshold: int | None = None
) -> PatternFacts:
    """A 1-bridge braid pattern B(w, b, t) with bridge width b and t
    extra passes of the strand cycle; its closure must be a knot.

    Each twist P(U, n) is B(w, b, t + n·w) (see OneBridgeTwistFamily);
    the negative tail must be asserted through neg_lspace_threshold to
    certify anything.
    """
    family = OneBridgeTwistFamily(w, b, t)
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


def _optional_int(value) -> int | None:
    return None if value is None else json_int(value)


def pattern_from_json(obj) -> PatternFacts:
    """Build PatternFacts from the documented JSON forms."""
    if not isinstance(obj, dict):
        raise ValueError(f"cannot parse pattern from {obj!r}")
    if "torus_pattern" in obj:
        p, q = obj["torus_pattern"]
        return torus_pattern(json_int(p), json_int(q))
    if "one_bridge_braid" in obj:
        spec = obj["one_bridge_braid"]
        if "overrides" in spec:
            raise ValueError("one_bridge_braid takes no overrides: every twist is derived")
        return one_bridge_braid(
            json_int(spec["w"]),
            json_int(spec["b"]),
            json_int(spec["t"]),
            neg_lspace_threshold=_optional_int(spec.get("neg_threshold")),
        )
    if "table" in obj:
        spec = obj["table"]
        twists = {}
        for n, facts in spec.get("twists", {}).items():
            if str(int(n)) != n:
                raise ValueError(f"twist keys are decimal integers, got {n!r}")
            twists[int(n)] = companion_from_json(facts)
        return table_pattern(
            name=str(spec.get("name", "table-pattern")),
            winding=json_int(spec["winding"]),
            genus_s3=json_int(spec["genus_s3"]),
            has_disk=json_flag(spec["has_disk"]),
            twists=twists,
            neg_threshold=_optional_int(spec.get("neg_threshold")),
            pos_from=_optional_int(spec.get("pos_from")),
        )
    raise ValueError(f"unrecognized pattern description: {sorted(obj)}")


def pattern_to_json(p: PatternFacts) -> dict:
    """The JSON form that pattern_from_json reads back to p, for patterns
    built by torus_pattern, one_bridge_braid and table_pattern."""
    f = p.family
    if isinstance(f, TorusTwistFamily):
        return {"torus_pattern": [f.p, f.q]}
    threshold = p.neg_lspace_threshold
    if isinstance(f, OneBridgeTwistFamily):
        return {"one_bridge_braid": {"w": f.w, "b": f.b, "t": f.t, "neg_threshold": threshold}}
    return {
        "table": {
            "name": p.name,
            "winding": p.winding,
            "genus_s3": p.genus_s3,
            "has_disk": p.has_minimal_meridional_disk,
            "twists": {str(n): companion_to_json(k) for n, k in f.entries.items()},
            "neg_threshold": threshold,
            "pos_from": f.pos_tail_from,
        }
    }
