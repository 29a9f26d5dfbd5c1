"""Pattern knots in the solid torus, one record per pattern kind.

A pattern is summarized by its winding number, the Seifert genus of its
untwisted satellite of the unknot, the meridional-disk flag and the
threshold of its negative L-space tail, and answers "what knot is
P(U, n)?".  Each kind is a subclass of PatternFacts.  There are two:

* braided patterns B(w, b, t), where P(U, n) is the closure of
  B(w, b, t + n·w): a positive word (an L-space knot) for t + n·w >= 0,
  a negative one (a negative L-space knot) otherwise, with Bennequin
  genus read off the letter count.  The 0-bridge braid B(p, 0, q) is
  the torus pattern, P(U, n) = T(p, q + n·p) (Gabai's convention).
  The flags of a closure rest on 1-bridge braid closures being L-space
  knots (Greene, Lewallen and Vafaee, "(1,1) L-space knots", Compositio
  Math. 154 (2018)), and their mirrors negative L-space knots;
* explicit tables with asserted tails, whose negative tail is the
  threshold itself.

Each kind says by one class flag, asserts_facts, whether it takes facts
as given: a braided pattern derives every fact, a table asserts its
facts, entries and declared tails, so a table's certificate names its
pattern among its trusted inputs.

Like KnotFacts, each kind is a slotted, frozen dataclass whose class is
its one constructor, built from the kind's inputs alone, that stores
through the slot descriptors' setters, past the frozen __setattr__.  A
braided pattern takes (winding, b, t) and a one-bridge threshold and
derives its name, genus_s3, disk flag and a torus threshold, fields with
init=False; a table checks its facts and sorts its entries by n.
torus_pattern (b = 0), one_bridge_braid (b >= 1) and table_pattern each
call one.  Every integer input, a table's twist keys included, must be
exactly an int, as json_object reads one, a table's disk flag a bool, 0
or 1, and each of its twist values KnotFacts; each refusal is a
ValueError naming the field or the twist.  So dataclasses.replace
re-runs every check and re-derives every derived fact, and refuses a
derived field.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _string
from typing import ClassVar, Mapping

from .braids import closure_components
from .knots import (
    _FLAG,
    KnotFacts,
    _flags_as_bools,
    companion_from_json,
    companion_to_text,
    json_object,
    json_pair,
    torus_knot_genus,
)
from .slopes import _refuse_non_integers


class ConsistencyError(AssertionError):
    """A check that holds by construction failed: an engine bug, not bad input."""


class UnknownTwistError(LookupError):
    """The pattern cannot answer this twisting parameter."""

    def __init__(self, n: int, why: str):
        # Stored certificates quote this text in their reasons.
        super().__init__(f"twist family cannot answer n = {n} ({why})")


def genus_twist_bound(g_p: int, w: int, n: int) -> int:
    """Upper bound g_p + |n|·w(w-1)/2 for the genus after |n| full twists
    (each full twist changes the genus by at most w(w-1)/2, so the genus
    is also at least g_p - |n|·w(w-1)/2)."""
    if w < 0:
        raise ValueError("winding must be nonnegative")
    return g_p + abs(n) * w * (w - 1) // 2


@dataclass(frozen=True, slots=True, init=False)
class PatternFacts:
    """Combinatorial data of a pattern knot P ⊂ D^2 × S^1: each kind
    stores name, winding, genus_s3, has_minimal_meridional_disk and
    neg_lspace_threshold, and answers P(U, n) through _twist."""

    # Whether the kind takes facts as given; a braided pattern, torus
    # (b = 0) or one-bridge, derives every fact.
    asserts_facts: ClassVar[bool] = False

    def _twist(self, n: int) -> KnotFacts:
        raise NotImplementedError

    def twisted_facts(self, n: int) -> KnotFacts:
        """Full facts of the n-twisted satellite of the unknot P(U, n)."""
        facts = self._twist(n)
        bound = genus_twist_bound(self.genus_s3, self.winding, n)
        if facts.genus > bound:
            raise ConsistencyError(
                f"{self.name}: genus {facts.genus} at twist {n} exceeds bound {bound}"
            )
        return facts


def _braid_genus(w: int, b: int, t: int) -> int:
    """Genus of the closure of B(w, b, t), a knot.

    The freely reduced word is positive with b + t(w-1) letters when
    t >= 0; when t < 0 the b bridge letters cancel against the first
    inverse pass, leaving a negative word of -t(w-1) - b letters.  The
    Bennequin genus (c - w + 1)/2 of the closure (or of its mirror)
    follows from the letter count c alone.
    """
    c = b + t * (w - 1) if t >= 0 else -t * (w - 1) - b
    return (c - w + 1) // 2


def _braid_closure(w: int, b: int, t: int) -> KnotFacts:
    """Facts of the closure of B(w, b, t), a knot; B(w, 0, t) is the
    torus knot T(w, t), and is named so."""
    name = f"T({w},{t})" if b == 0 else f"closure of B({w},{b},{t})"
    g = _braid_genus(w, b, t)
    if t >= 0:
        return KnotFacts(name, g, True, g == 0, True, g == 0)
    return KnotFacts(name, g, g == 0, True, True, g == 0)


# The knot check walks a permutation of w strands, O(w) in time and
# memory: at w = 10⁶ it takes under 0.5 s and a traced peak of 40 MiB.
MAX_BRIDGE_WIDTH = 10**6


def _check_bridge(w: int, b: int) -> None:
    """Refuse a one-bridge width w or bridge b out of range."""
    if w < 3:
        raise ValueError(f"need w >= 3 strands, got {w}")
    if w > MAX_BRIDGE_WIDTH:
        raise ValueError(f"need w <= {MAX_BRIDGE_WIDTH} strands, got {w}")
    if not 1 <= b <= w - 2:
        raise ValueError(f"bridge width must satisfy 1 <= b <= w-2, got {b}")


@dataclass(frozen=True, slots=True, init=False)
class _BraidPattern(PatternFacts):
    """P(U, n) of B(w, b, t) is the closure of B(w, b, t + n·w), since a
    full twist is w more passes of the strand cycle; b = 0 is the torus
    pattern, whose twists are T(w, t + n·w), and whose threshold is
    derived: a given one is not read.  Without a threshold thm1.4 fails
    and nothing is certified; with one, it only picks b, and lem.7
    derives P(U, -b) whatever threshold was given."""

    winding: int
    b: int
    t: int
    neg_lspace_threshold: int | None
    name: str = field(init=False)
    genus_s3: int = field(init=False)
    has_minimal_meridional_disk: bool = field(init=False)

    def __init__(
        self, winding: int, b: int, t: int, neg_lspace_threshold: int | None = None
    ) -> None:
        if (
            type(winding) is not int
            or type(b) is not int
            or type(t) is not int
            or (neg_lspace_threshold is not None and type(neg_lspace_threshold) is not int)
        ):
            _refuse_non_integers(
                {"winding": winding, "b": b, "t": t},
                {"neg_lspace_threshold": neg_lspace_threshold},
            )
        if b == 0:
            name = f"T({winding},{t})-pattern"
            genus_s3 = torus_knot_genus(winding, t)  # refuses w < 2 and gcd(w, t) != 1
            neg_lspace_threshold = max(-(-(t - 1) // winding), 0)  # least N: t - N·w <= 1
        else:
            _check_bridge(winding, b)
            # Full twists permute the strands trivially, so every P(U, n)
            # has as many components as B(w, b, k), k = t mod w.  Its
            # strand map is the bridge's (b+1)-cycle, i -> i + 1 for i < b
            # and b -> 0, followed by k passes, each a rotation by one:
            # i -> i + 1 + k (mod w) for i < b, b -> k and i -> i + k
            # (mod w) for i > b.  So it is the rotation by k + 1 with k
            # inserted at b, the images after it shifted one place.
            k = t % winding
            perm = [*range(k + 1, winding), *range(k + 1)]
            perm.insert(b, k)
            perm.pop()
            if closure_components(perm) != 1:
                raise UnknownTwistError(0, "closure is a link, not a knot")
            if neg_lspace_threshold is not None and neg_lspace_threshold < 0:
                raise ValueError("neg_lspace_threshold must be nonnegative")
            name = f"B({winding},{b},{t})"
            genus_s3 = _braid_genus(winding, b, t)
        _set_braid_winding(self, winding)
        _set_b(self, b)
        _set_t(self, t)
        _set_braid_threshold(self, neg_lspace_threshold)
        _set_braid_name(self, name)
        _set_braid_genus_s3(self, genus_s3)
        _set_braid_disk(self, True)

    def _twist(self, n: int) -> KnotFacts:
        return _braid_closure(self.winding, self.b, self.t + n * self.winding)


# The slot descriptors' setters, which skip the frozen __setattr__; only
# the constructors call them.
_set_braid_winding = _BraidPattern.winding.__set__
_set_b = _BraidPattern.b.__set__
_set_t = _BraidPattern.t.__set__
_set_braid_threshold = _BraidPattern.neg_lspace_threshold.__set__
_set_braid_name = _BraidPattern.name.__set__
_set_braid_genus_s3 = _BraidPattern.genus_s3.__set__
_set_braid_disk = _BraidPattern.has_minimal_meridional_disk.__set__


@dataclass(frozen=True, slots=True, init=False)
class _TablePattern(PatternFacts):
    """Tabled twists; is_neg_lspace is asserted for n <= -threshold and
    is_lspace for n >= pos_tail_from.  The tails may overlap only where
    the genus bound is 0, and both give the unknot."""

    name: str
    winding: int
    genus_s3: int
    has_minimal_meridional_disk: bool
    entries: Mapping[int, KnotFacts]
    neg_lspace_threshold: int | None
    pos_tail_from: int | None
    asserts_facts: ClassVar[bool] = True

    def __init__(
        self,
        name: str,
        winding: int,
        genus_s3: int,
        has_minimal_meridional_disk: bool,
        entries: Mapping[int, KnotFacts],
        neg_lspace_threshold: int | None = None,
        pos_tail_from: int | None = None,
    ) -> None:
        neg, pos = neg_lspace_threshold, pos_tail_from
        if not isinstance(name, str):
            raise ValueError(f"a table's name must be a string, got {type(name).__name__}")
        if (
            type(winding) is not int
            or type(genus_s3) is not int
            or (neg is not None and type(neg) is not int)
            or (pos is not None and type(pos) is not int)
        ):
            _refuse_non_integers(
                {"winding": winding, "genus_s3": genus_s3},
                {"neg_lspace_threshold": neg, "pos_tail_from": pos},
            )
        disk = has_minimal_meridional_disk
        if disk is not True and disk is not False:
            (disk,) = _flags_as_bools({"has_minimal_meridional_disk": disk})
        if winding < 0 or genus_s3 < 0:
            raise ValueError("winding and genus_s3 must be nonnegative")
        if disk and winding < 1:
            raise ValueError("a meridional disk meeting P in w points forces winding >= 1")
        if neg is not None and neg < 0:
            raise ValueError("neg_lspace_threshold must be nonnegative")
        for n, facts in entries.items():
            if type(n) is not int:
                raise ValueError(f"a twist key must be an integer, got {type(n).__name__}")
            if not isinstance(facts, KnotFacts):
                raise ValueError(f"table entry n={n} must be KnotFacts, got {type(facts).__name__}")
            reach = genus_twist_bound(0, winding, n)  # |n|·w(w-1)/2
            if facts.genus > genus_s3 + reach:
                raise ValueError(f"table entry n={n} violates the genus twist bound")
            if n == 0 and facts.genus != genus_s3:
                raise ValueError(
                    f"table entry n=0 is P(U), of genus {facts.genus}, not {genus_s3}"
                )
            if facts.genus < genus_s3 - reach:
                raise ValueError(
                    f"table entry n={n} has genus {facts.genus}, under the lower genus twist "
                    f"bound {genus_s3 - reach}"
                )
            if neg is not None and n <= -neg and not facts.is_neg_lspace:
                raise ValueError(
                    f"table entry n={n} lies in the negative tail n <= -{neg} "
                    "but is not a negative L-space knot"
                )
            if pos is not None and n >= pos and not facts.is_lspace:
                raise ValueError(
                    f"table entry n={n} lies in the positive tail n >= {pos} "
                    "but is not an L-space knot"
                )
        # The tails overlap on [pos, -neg], twists n <= 0, so the bound,
        # which grows with |n|, is largest at n = pos.
        if (
            neg is not None
            and pos is not None
            and pos <= -neg
            and (bound := genus_twist_bound(genus_s3, winding, pos)) >= 1
        ):
            raise ValueError(
                f"tails n <= -{neg} and n >= {pos} overlap at n={pos}, "
                f"whose genus bound {bound} allows a nontrivial knot"
            )
        _set_table_name(self, name)
        _set_table_winding(self, winding)
        _set_table_genus_s3(self, genus_s3)
        _set_table_disk(self, disk)
        _set_entries(self, dict(sorted(entries.items())))
        _set_table_threshold(self, neg)
        _set_pos_tail_from(self, pos)

    def _twist(self, n: int) -> KnotFacts:
        if n in self.entries:
            return self.entries[n]
        # Tail assertions pin the flags only; the genus field carries the
        # twisting upper bound, which is all downstream checks consume.  A
        # bound of 0 pins the knot itself: genus 0 is the unknot.
        bound = genus_twist_bound(self.genus_s3, self.winding, n)
        name = f"table tail n={n}"
        unknot = bound == 0
        if self.neg_lspace_threshold is not None and n <= -self.neg_lspace_threshold:
            return KnotFacts(name, bound, unknot, True, True, unknot)
        if self.pos_tail_from is not None and n >= self.pos_tail_from:
            return KnotFacts(name, bound, True, unknot, True, unknot)
        raise UnknownTwistError(n, "outside table and asserted tails")


_set_table_name = _TablePattern.name.__set__
_set_table_winding = _TablePattern.winding.__set__
_set_table_genus_s3 = _TablePattern.genus_s3.__set__
_set_table_disk = _TablePattern.has_minimal_meridional_disk.__set__
_set_entries = _TablePattern.entries.__set__
_set_table_threshold = _TablePattern.neg_lspace_threshold.__set__
_set_pos_tail_from = _TablePattern.pos_tail_from.__set__


def torus_pattern(p: int, q: int) -> PatternFacts:
    """The (p, q)-torus knot in its standard solid-torus embedding, the
    0-bridge braid B(p, 0, q); p is the longitudinal winding and
    P(U, n) = T(p, q + n·p)."""
    return _BraidPattern(p, 0, q)


def one_bridge_braid(
    w: int, b: int, t: int, neg_lspace_threshold: int | None = None
) -> PatternFacts:
    """A 1-bridge braid pattern B(w, b, t) with bridge width b and t
    extra passes of the strand cycle; its closure must be a knot.

    Each twist P(U, n) is B(w, b, t + n·w); thm1.4 certifies nothing
    without neg_lspace_threshold, which picks the lemma's b.  The knot
    check counts the cycles of the braid's strand permutation, and a w
    over MAX_BRIDGE_WIDTH is refused before it is built.
    """
    if b == 0:
        _check_bridge(w, b)  # B(w, 0, t) is torus_pattern's: refused
    return _BraidPattern(w, b, t, neg_lspace_threshold)


def table_pattern(
    name: str,
    winding: int,
    genus_s3: int,
    has_disk: bool,
    twists: Mapping[int, KnotFacts],
    neg_threshold: int | None = None,
    pos_from: int | None = None,
) -> PatternFacts:
    """A pattern known by tabled twists and asserted tails: P(U, n) is a
    negative L-space knot for n <= -neg_threshold and an L-space knot for
    n >= pos_from.  The entries are stored in order of n, so a table has
    one text whatever order its twists are given in.  Raises ValueError
    for a table that contradicts itself, naming the first twist at fault
    in the order given: an entry over the genus twist bound or under
    genus_s3 - |n|·w(w-1)/2, P(U) at n = 0 of a genus other than
    genus_s3, an entry in a tail that lacks the tail's flag, or tails that
    overlap where the bound allows a nontrivial knot, which cannot have
    both flags, and for a name that is not a string."""
    return _TablePattern(name, winding, genus_s3, has_disk, twists, neg_threshold, pos_from)


def pattern_from_json(obj) -> PatternFacts:
    """Build PatternFacts from the documented JSON forms, each an object
    with exactly one kind key, whose spec json_object reads:

    * {"torus_pattern": [p, q]}, exactly two integers;
    * {"one_bridge_braid": {"w", "b", "t"}}, and optionally
      "neg_threshold";
    * {"table": {"winding", "genus_s3", "has_disk"}}, and optionally
      "name" (a JSON string), "twists" (decimal twist keys to companion
      forms), "neg_threshold" and "pos_from": table_pattern's parameters.

    Integers are JSON integers, and an optional one may be absent or null.
    Any other key, beside the kind key or in its spec, or a value of
    another type raises ValueError naming the key."""
    optional_int = (int, type(None))
    if not isinstance(obj, dict):
        raise ValueError(f"cannot parse pattern from {obj!r}")
    if len(obj) != 1:
        raise ValueError(f"a pattern object has exactly one kind key, got {sorted(obj)}")
    ((kind, spec),) = obj.items()
    if kind == "torus_pattern":
        return torus_pattern(*json_pair(spec))
    if kind == "one_bridge_braid":
        spec = json_object(spec, {"w": int, "b": int, "t": int}, {"neg_threshold": optional_int})
        return one_bridge_braid(spec["w"], spec["b"], spec["t"], spec.get("neg_threshold"))
    if kind == "table":
        spec = json_object(
            spec,
            {"winding": int, "genus_s3": int, "has_disk": bool},
            {"name": str, "twists": dict, "neg_threshold": optional_int, "pos_from": optional_int},
        )
        twists = {}
        for n, facts in spec.get("twists", {}).items():
            if not re.fullmatch(r"0|-?[1-9][0-9]*", n):
                raise ValueError(f"twist keys are decimal integers, got {n!r}")
            twists[int(n)] = companion_from_json(facts)
        return table_pattern(**{"name": "table-pattern", **spec, "twists": twists})
    raise ValueError(f"unrecognized pattern description: {sorted(obj)}")


def pattern_to_text(p: PatternFacts) -> str:
    """The text json.dumps writes for the JSON form pattern_from_json
    reads back to p, from fixed key texts."""
    threshold = "null" if p.neg_lspace_threshold is None else p.neg_lspace_threshold
    if isinstance(p, _BraidPattern):
        if p.b == 0:
            return f'{{"torus_pattern": [{p.winding}, {p.t}]}}'
        return (
            f'{{"one_bridge_braid": {{"w": {p.winding}, "b": {p.b}, "t": {p.t}, '
            f'"neg_threshold": {threshold}}}}}'
        )
    twists = ", ".join(f'"{n}": {companion_to_text(k)}' for n, k in p.entries.items())
    pos = "null" if p.pos_tail_from is None else p.pos_tail_from
    return (
        f'{{"table": {{"name": {_string(p.name)}, "winding": {p.winding}, "genus_s3": '
        f'{p.genus_s3}, "has_disk": {_FLAG[p.has_minimal_meridional_disk]}, '
        f'"twists": {{{twists}}}, "neg_threshold": {threshold}, "pos_from": {pos}}}}}'
    )
