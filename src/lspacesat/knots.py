"""Facts about companion knots in the three-sphere.

The engine never computes Heegaard Floer homology: KnotFacts is a
declarative record (genus, L-space flags, fiberedness) that the caller
asserts, with the torus-knot family built in.  Like Slope, it is a
slotted, frozen dataclass whose one constructor checks the facts against
each other and then stores them through the slot descriptors' setters,
past the frozen __setattr__, each flag as a bool.  A flag must be a bool
or the int 0 or 1, which a Python caller may pass, the genus exactly an
int and the name a str; anything else raises ValueError naming the
field, so a truthy "false" is never read as True.  torus_knot and
cable_facts take exactly ints too, checked by _refuse_non_integers,
which the pattern kinds also call.  dataclasses.replace goes through the
same checks.  The slope set a companion complement contributes to the
gluing argument, and the exact cable criterion used as ground truth in
tests, both live here.
So do json_object, which reads every JSON object lspacesat reads, each
key checked for its type, the one writer and reader of the six-fact
companion object, companion_to_text and facts_from_json, and _FLAG, the
JSON text of a flag, which every writer of a certificate uses.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _string
from math import gcd
from typing import get_type_hints

from .projective import Arc, SlopeSet
from .slopes import INFINITY, Slope


@dataclass(frozen=True, slots=True, init=False)
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

    def __init__(
        self,
        name: str,
        genus: int,
        is_lspace: bool,
        is_neg_lspace: bool,
        is_fibered: bool,
        is_unknot: bool,
    ) -> None:
        # As in json_object, a bool is not an integer and 3.0 is not 3.
        if type(genus) is not int:
            raise ValueError(f"genus must be an integer, got {type(genus).__name__}")
        if not isinstance(name, str):
            raise ValueError(f"a knot's name must be a string, got {type(name).__name__}")
        if not (
            (is_lspace is True or is_lspace is False)
            and (is_neg_lspace is True or is_neg_lspace is False)
            and (is_fibered is True or is_fibered is False)
            and (is_unknot is True or is_unknot is False)
        ):
            is_lspace, is_neg_lspace, is_fibered, is_unknot = _flags_as_bools(
                {
                    "is_lspace": is_lspace,
                    "is_neg_lspace": is_neg_lspace,
                    "is_fibered": is_fibered,
                    "is_unknot": is_unknot,
                }
            )
        if genus < 0:
            raise ValueError("genus must be nonnegative")
        if is_unknot and not (genus == 0 and is_lspace and is_neg_lspace and is_fibered):
            raise ValueError("unknot facts are genus 0 with all flags set")
        if genus == 0 and not is_unknot:
            raise ValueError("a knot of genus 0 is the unknot")
        if genus >= 1 and is_lspace and is_neg_lspace:
            raise ValueError(
                "a nontrivial knot cannot admit both positive and negative "
                "L-space surgeries"
            )
        if (is_lspace or is_neg_lspace) and not is_fibered:
            raise ValueError("L-space knots are fibered")
        _set_name(self, name)
        _set_genus(self, genus)
        _set_is_lspace(self, is_lspace)
        _set_is_neg_lspace(self, is_neg_lspace)
        _set_is_fibered(self, is_fibered)
        _set_is_unknot(self, is_unknot)


# The slot descriptors' setters, which skip the frozen __setattr__; only
# the constructor calls them.
_set_name = KnotFacts.name.__set__
_set_genus = KnotFacts.genus.__set__
_set_is_lspace = KnotFacts.is_lspace.__set__
_set_is_neg_lspace = KnotFacts.is_neg_lspace.__set__
_set_is_fibered = KnotFacts.is_fibered.__set__
_set_is_unknot = KnotFacts.is_unknot.__set__


def _flags_as_bools(flags: dict) -> list[bool]:
    """The values of flags as bools; raises ValueError naming the first
    that is neither a bool nor the int 0 or 1.  KnotFacts and the table
    pattern call it once an identity test, which builds no dict, has
    found a value that is not True or False."""
    for field, value in flags.items():
        if type(value) is not bool and not (type(value) is int and value in (0, 1)):
            raise ValueError(f"{field} must be a bool, 0 or 1, got {value!r}")
    return [value == 1 for value in flags.values()]


def _refuse_non_integers(required: dict, optional: dict) -> None:
    """Raise ValueError naming the first value of required that is not
    exactly an int, or of optional that is neither an int nor None: as in
    json_object, a bool is not an integer and 3.0 is not 3.  The
    constructors call it once an inline test, which builds no dict, has
    found such a value."""
    for field, value in (*required.items(), *optional.items()):
        if type(value) is not int and (value is not None or field in required):
            raise ValueError(f"{field} must be an integer, got {type(value).__name__}")


UNKNOT = KnotFacts("unknot", 0, True, True, True, True)


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
    m >= -1 and a negative one iff m <= 1.  p and m must be exactly ints.
    """
    if type(p) is not int or type(m) is not int:
        _refuse_non_integers({"p": p, "m": m}, {})
    return KnotFacts(f"T({p},{m})", torus_knot_genus(p, m), m >= -1, m <= 1, True, abs(m) == 1)


def lspace_slope_set(k: KnotFacts) -> SlopeSet:
    """The set of L-space filling slopes of the knot complement.

    [2g-1, ∞] for an L-space knot, [-∞, -2g+1] for a negative one (both
    closed arcs containing the ∞ filling, which gives back S^3), empty
    otherwise.  Strict slopes are the interior.
    """
    if k.is_unknot:
        raise ValueError("companion must be nontrivial")
    if k.is_lspace:
        return SlopeSet.from_arcs([Arc(Slope(2 * k.genus - 1), INFINITY)])
    if k.is_neg_lspace:
        return SlopeSet.from_arcs([Arc(INFINITY, Slope(-2 * k.genus + 1))])
    return SlopeSet()


def cable_is_lspace_exact(companion: KnotFacts, p: int, q: int) -> bool:
    """The exact cabling criterion: the (p, q)-cable of a nontrivial K is
    an L-space knot iff K is an L-space knot and q > p(2g(K) - 1).  The
    cable of the unknot is T(p, q), an L-space knot iff q >= -1."""
    if p <= 1:
        raise ValueError(f"longitudinal winding p must be >= 2, got {p}")
    if gcd(p, q) != 1:
        raise ValueError(f"cable needs gcd(p, q) = 1, got ({p}, {q})")
    if companion.is_unknot:
        return q >= -1
    return companion.is_lspace and q > p * (2 * companion.genus - 1)


def cable_facts(companion: KnotFacts, p: int, q: int) -> KnotFacts:
    """Derived facts of the (p, q)-cable, as a convenience for building
    companions out of cables.  Genus p·g + (p-1)(|q|-1)/2; L-space flags
    from the exact criterion on each side.  That criterion is for
    nontrivial companions: a cable of the unknot is the torus knot T(p, q).
    p and q must be exactly ints."""
    if type(p) is not int or type(q) is not int:
        _refuse_non_integers({"p": p, "q": q}, {})
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
_FACT_TYPES = get_type_hints(KnotFacts)  # the six fields, as json_object reads them


# What a type error says each JSON type is; several types join with "or".
_EXPECTED = {
    int: "expected an integer",
    bool: "expected true or false",
    str: "a name is a JSON string",
    dict: "expected a JSON object",
    type(None): "null",
}


def json_object(value, fields: dict, optional: dict = {}) -> dict:
    """value, if it is a JSON object with every key of fields and no key
    outside fields and optional.  Each dict maps a key to its value's
    type or tuple of types, checked as type(v) is t: a bool is not an
    integer, 3.0 is not 3, and object admits any value.  Raises
    ValueError naming the first key that breaks this."""
    if type(value) is not dict:
        raise ValueError(f"expected a JSON object, got {value!r}")
    for key, v in value.items():
        t = fields.get(key) or optional.get(key)
        if type(v) is t or t is object:
            continue
        if t is None:
            expected = ", ".join([*fields, *optional])
            raise ValueError(f"unknown key {key!r}: expected only {expected}")
        if type(t) is not tuple or type(v) not in t:
            expected = " or ".join(_EXPECTED[u] for u in (t if type(t) is tuple else (t,)))
            raise ValueError(f"{expected}, got {v!r} under {key!r}")
    if not fields.keys() <= value.keys():
        raise ValueError(f"missing key {next(k for k in fields if k not in value)!r}")
    return value


def json_pair(value) -> list[int]:
    """[p, q], a JSON array of exactly two JSON integers."""
    if type(value) is list and len(value) == 2 and type(value[0]) is type(value[1]) is int:
        return value
    raise ValueError(f"expected [p, q], two integers, got {value!r}")


def companion_from_json(obj) -> KnotFacts:
    """Build KnotFacts from the documented JSON forms, read by json_object.

    Accepts {"torus_knot": [p, m]}, {"cable": {"companion": ..., "p": p,
    "q": q}}, an explicit field dictionary (exactly the six KnotFacts
    fields, each of its type), or a shortcut name like "trefoil" or
    "T(2,3)", in ASCII digits.  Any other key raises ValueError naming it.
    """
    if isinstance(obj, str):
        key = obj.strip()
        if key in _NAMED:
            return _NAMED[key]
        if m := re.fullmatch(r"T\(\s*([+-]?[0-9]+)\s*,\s*([+-]?[0-9]+)\s*\)", key):
            return torus_knot(int(m.group(1)), int(m.group(2)))
        raise ValueError(f"unknown companion name {obj!r}")
    if not isinstance(obj, dict):
        raise ValueError(f"cannot parse companion from {obj!r}")
    if "torus_knot" in obj:
        return torus_knot(*json_pair(json_object(obj, {"torus_knot": object})["torus_knot"]))
    if "cable" in obj:
        spec = json_object(obj, {"cable": dict})["cable"]
        spec = json_object(spec, {"companion": object, "p": int, "q": int})
        return cable_facts(companion_from_json(spec["companion"]), spec["p"], spec["q"])
    return facts_from_json(obj)


def facts_from_json(obj, where: str = "") -> KnotFacts:
    """KnotFacts from the six fields, each of its type; a key or type
    error is prefixed with where, a contradiction among the facts not."""
    try:
        fields = json_object(obj, _FACT_TYPES)
    except ValueError as e:
        raise ValueError(f"{where}{e}") from None
    return KnotFacts(**fields)


_FLAG = {True: "true", False: "false"}  # a flag's JSON text


def companion_to_text(k: KnotFacts) -> str:
    """The text json.dumps writes for k's six facts, from fixed key
    texts; facts_from_json reads it back to k."""
    return (
        f'{{"name": {_string(k.name)}, "genus": {k.genus}, '
        f'"is_lspace": {_FLAG[k.is_lspace]}, "is_neg_lspace": {_FLAG[k.is_neg_lspace]}, '
        f'"is_fibered": {_FLAG[k.is_fibered]}, "is_unknot": {_FLAG[k.is_unknot]}}}'
    )
