"""Exact surgery slopes on a torus boundary.

After fixing a basis of H_1 of the boundary torus, the set of slopes is
QP^1 = Q ∪ {1/0}.  A slope is stored as a coprime integer pair (num, den)
taken mod ±1, normalized so that den >= 0 and the point at infinity is
(1, 0).  Slope's one constructor does that normalization, so every Slope
is normalized, and two slopes are equal exactly when their normalized
pairs are equal field by field.  Slope is a slotted, frozen dataclass,
immutable and without a __dict__.  The constructor stores its fields
through the slot descriptors themselves (_set_num, _set_den), which skip
the frozen __setattr__ and cost less than object.__setattr__.  The one
other writer is slope_swap, the meridian–longitude swap p/q ↦ q/p: it
builds the swapped pair of a normalized slope without a gcd, since a
swapped coprime pair stays coprime and only the sign needs moving to the
new denominator, with 0 = 0/1 and ∞ = 1/0 trading places.  So the normal
form holds for every Slope, and nothing outside this module writes
num or den.  All arithmetic is exact; nothing in this module (or
anything built on it) touches floating point.

The circle QP^1 carries a fixed positive orientation: rationals in
increasing order, wrapping through ∞ (so ∞ sits between arbitrarily large
positive and arbitrarily negative slopes).  slope_det is the one order
comparison of two slopes: slope_ccw orders three slopes round the circle
through it, and farey_enumerate lists the Farey ball of bounded height,
the sample of the brute-force oracles, with ∞ first and the finite
slopes sorted by it.  The one integer key of a slope is the slope-set
merge's (projective._spans); nothing here needs fractions or floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key
from math import gcd


# The one text grammar of a slope: [+-]inf, [+-]∞, or p with an optional /q
# (groups 1 and 2; p is None for ∞).  Digits are ASCII: \d would take any
# Unicode digit, which int() reads too.  No newline inside; the whitespace
# before "/" sits inside the optional group, since a second \s* next to a
# piece's own would backtrack quadratically on a failed match.
SLOPE_GRAMMAR = r"(?:[+-]?(?:inf|∞)|([+-]?[0-9]+)(?:[^\S\n]*/[^\S\n]*([+-]?[0-9]+))?)"


@dataclass(frozen=True, slots=True, init=False)
class Slope:
    """A point of QP^1, normalized by its one constructor.

    Slope(p, q) and Slope(-p, -q) are the same point; den = 0 encodes
    ∞ = 1/0.  Slope(0, 0) raises ValueError.
    """

    num: int
    den: int

    def __init__(self, num: int, den: int = 1) -> None:
        # One gcd: its sign flips the pair to den >= 0 (∞ = 1/0), and the
        # division runs only when the pair needs it.
        g = gcd(num, den)
        if not g:
            raise ValueError("(0, 0) does not represent a slope")
        if den < 0 or (den == 0 and num < 0):
            g = -g
        if g != 1:
            num //= g
            den //= g
        _set_num(self, num)
        _set_den(self, den)

    @property
    def is_infinity(self) -> bool:
        return self.den == 0

    @classmethod
    def from_groups(cls, num: str | None, den: str | None) -> "Slope":
        """The slope that one match of SLOPE_GRAMMAR spells, from its groups."""
        return INFINITY if num is None else cls(int(num), int(den) if den else 1)

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"


# The slot descriptors' setters, which skip the frozen __setattr__; only
# the constructor and slope_swap call them.
_set_num = Slope.num.__set__
_set_den = Slope.den.__set__
_new = object.__new__

INFINITY = Slope(1, 0)


def slope_swap(x: Slope) -> Slope:
    """q/p for x = p/q, equal to Slope(x.den, x.num): 0 and ∞ trade places.

    x's pair is coprime with den >= 0, so the swapped pair is coprime
    too and needs no gcd; when num < 0 both signs flip, making the new
    den = -num positive.
    """
    num, den = x.num, x.den
    y = _new(Slope)
    if num < 0:
        _set_num(y, -den)
        _set_den(y, -num)
    else:
        _set_num(y, den)
        _set_den(y, num)
    return y


def slope_det(a: Slope, b: Slope) -> int:
    """The pairing a.num*b.den - b.num*a.den.

    Zero exactly when a = b; |det| = 1 characterizes Farey neighbors.
    For normalized representatives the sign orders slopes with ∞ largest,
    which induces the positive circular orientation.
    """
    return a.num * b.den - b.num * a.den


def slope_ccw(a: Slope, b: Slope, c: Slope) -> bool:
    """True iff b lies strictly inside the positively oriented arc a -> c."""
    if a == b or b == c or a == c:
        raise ValueError("slope_ccw needs pairwise distinct slopes")
    # slope_det(x, y) < 0 orders x before y with ∞ greatest; wrapping that
    # line up gives the circular order.
    if slope_det(a, c) < 0:
        return slope_det(a, b) < 0 and slope_det(b, c) < 0
    return slope_det(a, b) < 0 or slope_det(b, c) < 0


def farey_enumerate(max_den: int) -> list[Slope]:
    """All slopes p/q with gcd(p, q) = 1, 0 <= q <= max_den and
    |p| <= max_den (the point ∞ comes from q = 0), in circular order
    starting at ∞."""
    if max_den < 1:
        raise ValueError("max_den must be >= 1")
    finite = [
        Slope(p, q)
        for q in range(1, max_den + 1)
        for p in range(-max_den, max_den + 1)
        if gcd(p, q) == 1
    ]
    return [INFINITY] + sorted(finite, key=cmp_to_key(slope_det))
