"""Facts about companion knots in the three-sphere.

The engine never computes Heegaard Floer homology: KnotFacts is a
declarative record (genus, L-space flags, fiberedness) that the caller
asserts, with the torus-knot family built in.  The slope set a companion
complement contributes to the gluing argument, and the exact cable
criterion used as ground truth in tests, both live here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from math import gcd

from .projective import SlopeSet
from .slopes import INFINITY, Slope


@dataclass(frozen=True, slots=True)
class KnotFacts:
    """Seifert genus and surgery flags of a knot in S^3.

    is_lspace: admits a positive L-space surgery.
    is_neg_lspace: the mirror admits one.
    """

    name: str
    genus: int
    is_lspace: bool
    is_neg_lspace: bool
    is_fibered: bool
    is_unknot: bool

    def __post_init__(self) -> None:
        if self.genus < 0:
            raise ValueError("genus must be nonnegative")
        if self.is_unknot and not (
            self.genus == 0
            and self.is_lspace
            and self.is_neg_lspace
            and self.is_fibered
        ):
            raise ValueError("unknot facts are genus 0 with all flags set")
        if self.genus == 0 and not self.is_unknot:
            raise ValueError("a knot of genus 0 is the unknot")
        if self.genus >= 1 and self.is_lspace and self.is_neg_lspace:
            raise ValueError(
                "a nontrivial knot cannot admit both positive and negative "
                "L-space surgeries"
            )
        if (self.is_lspace or self.is_neg_lspace) and not self.is_fibered:
            raise ValueError("L-space knots are fibered")


UNKNOT = KnotFacts("unknot", 0, True, True, True, True)


def facts_note(k: KnotFacts) -> str:
    """k's name and every fact, as trusted-input lines quote a knot."""
    return (
        f"{k.name} (genus={k.genus}, is_lspace={k.is_lspace}, "
        f"is_neg_lspace={k.is_neg_lspace}, is_fibered={k.is_fibered}, "
        f"is_unknot={k.is_unknot})"
    )


def torus_knot_genus(p: int, m: int) -> int:
    """Genus (p-1)(|m|-1)/2 of the (p, m) torus knot; raises ValueError
    unless p >= 2 and gcd(p, m) = 1."""
    if p < 2:
        raise ValueError(f"longitudinal winding p must be >= 2, got {p}")
    if gcd(p, m) != 1:
        raise ValueError(f"T({p},{m}) needs gcd(p, m) = 1")
    return (p - 1) * (abs(m) - 1) // 2


def torus_knot(p: int, m: int) -> KnotFacts:
    """The (p, m) torus knot, p >= 2; m = ±1 gives the unknot.

    Genus torus_knot_genus(p, m); admits a positive L-space surgery iff
    m >= -1 and a negative one iff m <= 1.
    """
    return KnotFacts(
        name=f"T({p},{m})",
        genus=torus_knot_genus(p, m),
        is_lspace=m >= -1,
        is_neg_lspace=m <= 1,
        is_fibered=True,
        is_unknot=abs(m) == 1,
    )


def lspace_slope_set(k: KnotFacts) -> SlopeSet:
    """The set of L-space filling slopes of the knot complement.

    [2g-1, ∞] for an L-space knot, [-∞, -2g+1] for a negative one (both
    closed arcs containing the ∞ filling, which gives back S^3), empty
    otherwise.  Strict slopes are the interior.
    """
    if k.is_unknot:
        raise ValueError("companion must be nontrivial")
    if k.is_lspace:
        return SlopeSet.arc(Slope(2 * k.genus - 1), INFINITY)
    if k.is_neg_lspace:
        return SlopeSet.arc(INFINITY, Slope(-2 * k.genus + 1))
    return SlopeSet()


def cable_is_lspace_exact(companion: KnotFacts, p: int, q: int) -> bool:
    """The exact cabling criterion: the (p, q)-cable of a nontrivial K is
    an L-space knot iff K is an L-space knot and q > p(2g(K) - 1).  The
    cable of the unknot is T(p, q), an L-space knot iff q >= -1."""
    if p <= 1:
        raise ValueError(f"longitudinal winding p must be > 1, got {p}")
    if gcd(p, q) != 1:
        raise ValueError(f"cable needs gcd(p, q) = 1, got ({p}, {q})")
    if companion.is_unknot:
        return q >= -1
    return companion.is_lspace and q > p * (2 * companion.genus - 1)


def cable_facts(companion: KnotFacts, p: int, q: int) -> KnotFacts:
    """Derived facts of the (p, q)-cable, as a convenience for building
    companions out of cables.  Genus p·g + (p-1)(|q|-1)/2; L-space flags
    from the exact criterion on each side.  That criterion is for
    nontrivial companions: a cable of the unknot is the torus knot T(p, q)."""
    if companion.is_unknot:
        return torus_knot(p, q)
    return KnotFacts(
        name=f"({companion.name})_{{{p},{q}}}",
        genus=p * companion.genus + (p - 1) * (abs(q) - 1) // 2,
        is_lspace=cable_is_lspace_exact(companion, p, q),
        is_neg_lspace=companion.is_neg_lspace and -q > p * (2 * companion.genus - 1),
        is_fibered=companion.is_fibered,
        is_unknot=False,
    )


_NAMED = {
    "unknot": UNKNOT,
    "trefoil": torus_knot(2, 3),
    "figure8": KnotFacts("4_1", 1, False, False, True, False),
}


def json_int(value) -> int:
    """A JSON integer, read as is: a float or a bool is refused, not
    rounded or coerced."""
    if type(value) is not int:
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def json_flag(value) -> bool:
    """A JSON true or false, read as is: nothing else is coerced."""
    if type(value) is not bool:
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def json_name(value) -> str:
    """A name, which is a JSON string read as is: nothing else is coerced."""
    if type(value) is not str:
        raise ValueError(f"a name is a JSON string, got {value!r}")
    return value


def json_object(value, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> dict:
    """A JSON object that holds every key of required and no key outside
    required and optional.  Raises ValueError naming the first key that
    breaks this: an unknown key is refused, not ignored."""
    if not isinstance(value, dict):
        raise ValueError(f"expected a JSON object, got {value!r}")
    for key in value:
        if key not in required and key not in optional:
            raise ValueError(f"unknown key {key!r}: expected only {', '.join(required + optional)}")
    for key in required:
        if key not in value:
            raise ValueError(f"missing key {key!r}")
    return value


_FACT_KEYS = tuple(f.name for f in fields(KnotFacts))


def companion_from_json(obj) -> KnotFacts:
    """Build KnotFacts from the documented JSON forms.

    Accepts {"torus_knot": [p, m]}, {"cable": {"companion": ..., "p": p,
    "q": q}}, an explicit field dictionary (exactly the six KnotFacts
    fields, name a JSON string), or a shortcut name like "trefoil" or
    "T(2,3)".  An object with any other key raises ValueError naming it.
    """
    if isinstance(obj, str):
        key = obj.strip()
        if key in _NAMED:
            return _NAMED[key]
        m = re.fullmatch(r"T\(\s*([+-]?\d+)\s*,\s*([+-]?\d+)\s*\)", key)
        if m:
            return torus_knot(int(m.group(1)), int(m.group(2)))
        raise ValueError(f"unknown companion name {obj!r}")
    if not isinstance(obj, dict):
        raise ValueError(f"cannot parse companion from {obj!r}")
    if "torus_knot" in obj:
        p, m = json_object(obj, ("torus_knot",))["torus_knot"]
        return torus_knot(json_int(p), json_int(m))
    if "cable" in obj:
        spec = json_object(json_object(obj, ("cable",))["cable"], ("companion", "p", "q"))
        inner = companion_from_json(spec["companion"])
        return cable_facts(inner, json_int(spec["p"]), json_int(spec["q"]))
    json_object(obj, _FACT_KEYS)
    return KnotFacts(
        name=json_name(obj["name"]),
        genus=json_int(obj["genus"]),
        is_lspace=json_flag(obj["is_lspace"]),
        is_neg_lspace=json_flag(obj["is_neg_lspace"]),
        is_fibered=json_flag(obj["is_fibered"]),
        is_unknot=json_flag(obj["is_unknot"]),
    )


def companion_to_json(k: KnotFacts) -> dict:
    return {
        "name": k.name,
        "genus": k.genus,
        "is_lspace": k.is_lspace,
        "is_neg_lspace": k.is_neg_lspace,
        "is_fibered": k.is_fibered,
        "is_unknot": k.is_unknot,
    }
