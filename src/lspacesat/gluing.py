"""Integer change-of-basis maps on the boundary torus.

A gluing map is a 2x2 integer matrix of determinant ±1 acting on slopes
by p/q ↦ (a·p + b·q)/(c·p + d·q).  Determinant -1 maps reverse the
circular orientation of QP^1, so the image of an arc from α to β is the
arc from the image of β to the image of α, with the closure flags
travelling along.

Such a map is a homeomorphism of the circle, so the image of a canonical
slope set needs no sweep: its arcs stay disjoint and maximal, and their
circular order is kept (det 1) or reversed (det -1).  Only the first arc
changes, which a rotation to the smallest start, ∞ first, restores.

The map used to glue a pattern complement to a companion complement
swaps meridian and longitude: p/q ↦ q/p.
"""

from __future__ import annotations

from dataclasses import dataclass

from .projective import Arc, SlopeSet
from .slopes import Slope, circular_keys


@dataclass(frozen=True, slots=True)
class GluingMap:
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        if abs(self.det) != 1:
            raise ValueError(f"gluing map must have determinant ±1, got {self.det}")

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def apply(self, x: Slope) -> Slope:
        return Slope(self.a * x.num + self.b * x.den, self.c * x.num + self.d * x.den)

    def image_of_set(self, s: SlopeSet) -> SlopeSet:
        if s.is_full:
            return s
        f = self.apply
        if self.det == 1:
            arcs = [Arc(f(a.start), f(a.end), a.start_closed, a.end_closed) for a in s.arcs]
        else:
            arcs = [
                Arc(f(a.end), f(a.start), a.end_closed, a.start_closed)
                for a in reversed(s.arcs)
            ]
        if len(arcs) > 1:
            # The sweep's order: the smallest start by circular_keys, ∞ first.
            keys, order = circular_keys([a.start for a in arcs])
            first = keys.index(order[0])
            arcs = arcs[first:] + arcs[:first]
        return SlopeSet(tuple(arcs))


def meridian_longitude_swap() -> GluingMap:
    """The gluing p/q ↦ q/p identifying the meridian of one side with the
    0-framed longitude of the other."""
    return GluingMap(0, 1, 1, 0)
