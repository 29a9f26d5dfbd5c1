"""Exact surgery slopes on a torus boundary.

After fixing a basis of H_1 of the boundary torus, the set of slopes is
QP^1 = Q ∪ {1/0}.  A slope is stored as a coprime integer pair (num, den)
taken mod ±1, normalized so that den >= 0 and the point at infinity is
(1, 0).  All arithmetic is exact; nothing in this module (or anything
built on it) touches floating point.

The circle QP^1 carries a fixed positive orientation: rationals in
increasing order, wrapping through ∞ (so ∞ sits between arbitrarily large
positive and arbitrarily negative slopes).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from math import gcd


class ZeroZeroError(ValueError):
    """(0, 0) is not a point of QP^1."""


class NotDistinctError(ValueError):
    """Circular orientation is only defined for pairwise distinct slopes."""


@dataclass(frozen=True)
class Slope:
    """A point of QP^1, normalized on construction.

    Slope(p, q) and Slope(-p, -q) are the same point; den = 0 encodes
    ∞ = 1/0.
    """

    num: int
    den: int = 1

    def __post_init__(self) -> None:
        p, q = self.num, self.den
        if p == 0 and q == 0:
            raise ZeroZeroError("(0, 0) does not represent a slope")
        g = gcd(p, q)
        p //= g
        q //= g
        if q < 0 or (q == 0 and p < 0):
            p, q = -p, -q
        object.__setattr__(self, "num", p)
        object.__setattr__(self, "den", q)

    @property
    def is_infinity(self) -> bool:
        return self.den == 0

    @property
    def value(self) -> Fraction | None:
        """The slope as a rational number, or None for ∞."""
        if self.den == 0:
            return None
        return Fraction(self.num, self.den)

    @classmethod
    def from_string(cls, text: str) -> "Slope":
        """Parse "p/q", a bare integer, or an infinity token."""
        t = text.strip()
        if t in ("inf", "+inf", "-inf", "∞", "-∞", "1/0"):
            return INFINITY
        m = re.fullmatch(r"([+-]?\d+)\s*(?:/\s*([+-]?\d+))?", t)
        if m is None:
            raise ValueError(f"cannot parse slope {text!r}")
        num = int(m.group(1))
        den = int(m.group(2)) if m.group(2) is not None else 1
        return cls(num, den)

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"


INFINITY = Slope(1, 0)


def slope(p: int, q: int = 1) -> Slope:
    """Shorthand constructor for the normalized slope p/q."""
    return Slope(p, q)


def slope_det(a: Slope, b: Slope) -> int:
    """The pairing a.num*b.den - b.num*a.den.

    Zero exactly when a = b; |det| = 1 characterizes Farey neighbors.
    For normalized representatives the sign orders slopes with ∞ largest,
    which induces the positive circular orientation.
    """
    return a.num * b.den - b.num * a.den


def _lt(a: Slope, b: Slope) -> bool:
    # Total order with ∞ greatest; wrapping it up gives the circular order.
    return slope_det(a, b) < 0


def slope_ccw(a: Slope, b: Slope, c: Slope) -> bool:
    """True iff b lies strictly inside the positively oriented arc a -> c."""
    if a == b or b == c or a == c:
        raise NotDistinctError("slope_ccw needs pairwise distinct slopes")
    if _lt(a, c):
        return _lt(a, b) and _lt(b, c)
    return _lt(a, b) or _lt(b, c)


def farey_enumerate(
    max_den: int,
    window: tuple[Fraction, Fraction] | None = None,
) -> list[Slope]:
    """Enumerate slopes of bounded complexity, in circular order.

    With no window: all p/q with gcd(p, q) = 1, 0 <= q <= max_den and
    |p| <= max_den (the point ∞ comes from q = 0), sorted circularly
    starting at ∞.  With window = (lo, hi): the finite slopes in
    [lo, hi], i.e. the Farey-type sequence of order max_den on that
    window, sorted increasingly.
    """
    if max_den < 1:
        raise ValueError("max_den must be >= 1")
    out: list[Slope] = []
    if window is None:
        out.append(INFINITY)
        for q in range(1, max_den + 1):
            for p in range(-max_den, max_den + 1):
                if gcd(p, q) == 1:
                    out.append(Slope(p, q))
    else:
        lo, hi = window
        for q in range(1, max_den + 1):
            p_lo = -((-lo.numerator * q) // lo.denominator)  # ceil(lo*q)
            p_hi = (hi.numerator * q) // hi.denominator      # floor(hi*q)
            for p in range(p_lo, p_hi + 1):
                if gcd(p, q) == 1:
                    out.append(Slope(p, q))
    seen: set[Slope] = set()
    unique = []
    for s in out:
        if s not in seen:
            seen.add(s)
            unique.append(s)
    unique.sort(key=circular_key)
    return unique


def _circular_cmp(a: Slope, b: Slope) -> int:
    # ∞ first, then the rationals in increasing order.
    if a.den == 0 or b.den == 0:
        return a.den - b.den
    return slope_det(a, b)


# Sort key realizing the circular order starting at ∞.
circular_key = cmp_to_key(_circular_cmp)
