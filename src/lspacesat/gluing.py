"""The gluing map on the boundary torus: the meridian–longitude swap.

Gluing a pattern complement to a companion complement identifies the
meridian of one side with the 0-framed longitude of the other, which on
slopes is p/q ↦ q/p.  That map has determinant -1: it reverses the
circular orientation of QP^1, so the image of an arc from α to β is the
arc from the image of β to the image of α, with the closure flags
travelling along.

The swap is a homeomorphism of the circle, so the image of a canonical
slope set needs no merge: its arcs stay disjoint and maximal, in reversed
circular order.  Only the first arc changes, which a rotation to the
smallest start, ∞ first, restores.
"""

from __future__ import annotations

from .projective import Arc, SlopeSet
from .slopes import Slope, circular_keys


class GluingMap:
    """The swap p/q ↦ q/p; it has no settings."""

    __slots__ = ()

    def apply(self, x: Slope) -> Slope:
        return Slope(x.den, x.num)

    def image_of_set(self, s: SlopeSet) -> SlopeSet:
        if s.is_full:
            return s
        f = self.apply
        arcs = [
            Arc(f(a.end), f(a.start), a.end_closed, a.start_closed) for a in reversed(s.arcs)
        ]
        if len(arcs) > 1:
            # The merge's order: the smallest start by circular_keys, ∞ first.
            keys = circular_keys([a.start for a in arcs])
            first = keys.index(min(keys))
            arcs = arcs[first:] + arcs[:first]
        return SlopeSet(tuple(arcs))


def meridian_longitude_swap() -> GluingMap:
    """The gluing p/q ↦ q/p identifying the meridian of one side with the
    0-framed longitude of the other."""
    return GluingMap()
