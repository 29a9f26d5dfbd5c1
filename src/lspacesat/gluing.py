"""The gluing map on the boundary torus: the meridian–longitude swap.

Gluing a pattern complement to a companion complement identifies the
meridian of one side with the 0-framed longitude of the other, which on
slopes is p/q ↦ q/p.  That map has determinant -1: it reverses the
circular orientation of QP^1, so the image of an arc from α to β is the
arc from the image of β to the image of α, with the closure flags
travelling along.  On one slope the map is slopes.slope_swap, the one
writer of a Slope's num and den besides its constructor: a swapped
coprime pair stays coprime, so it needs no gcd, only the sign moved to
the new denominator, and the image is normalized like every Slope.

The swap is a homeomorphism of the circle, so the image of a canonical
slope set needs no merge: its arcs stay disjoint and maximal, in reversed
circular order.  Only the first arc changes: the merge's order starts at
∞, and the reversed starts increase round the circle, so a rotation to
the arc that starts at ∞, or else to the arc at the single descent of
the starts by slope_det, restores it.
"""

from __future__ import annotations

from .projective import Arc, SlopeSet
from .slopes import Slope, slope_det, slope_swap


class GluingMap:
    """The swap p/q ↦ q/p; it has no settings."""

    __slots__ = ()

    def apply(self, x: Slope) -> Slope:
        return slope_swap(x)

    def image_of_set(self, s: SlopeSet) -> SlopeSet:
        if s.is_full:
            return s
        arcs = [
            Arc(slope_swap(a.end), slope_swap(a.start), a.end_closed, a.start_closed)
            for a in reversed(s.arcs)
        ]
        if len(arcs) > 1:
            # The merge's order, ∞ first: the arc that starts at ∞, or else
            # the one whose finite predecessor starts after it.
            prev = arcs[-1].start
            for first, a in enumerate(arcs):
                x = a.start
                if not x.den or (prev.den and slope_det(prev, x) > 0):
                    break
                prev = x
            arcs = arcs[first:] + arcs[:first]
        return SlopeSet(tuple(arcs))


def meridian_longitude_swap() -> GluingMap:
    """The gluing p/q ↦ q/p identifying the meridian of one side with the
    0-framed longitude of the other."""
    return GluingMap()
