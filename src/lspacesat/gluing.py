"""Integer change-of-basis maps on the boundary torus.

A gluing map is a 2x2 integer matrix of determinant ±1 acting on slopes
by p/q ↦ (a·p + b·q)/(c·p + d·q).  Determinant -1 maps reverse the
circular orientation of QP^1, so the image of an arc from α to β is the
arc from the image of β to the image of α, with the closure flags
travelling along.

The map used to glue a pattern complement to a companion complement
swaps meridian and longitude: p/q ↦ q/p.
"""

from __future__ import annotations

from dataclasses import dataclass

from .projective import Arc, SlopeSet
from .slopes import Slope


@dataclass(frozen=True)
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

    def compose(self, other: "GluingMap") -> "GluingMap":
        """Matrix product; apply(compose(m1, m2), x) = apply(m1, apply(m2, x))."""
        return GluingMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "GluingMap":
        # The adjugate inverts any determinant-±1 matrix up to sign,
        # which is all a projective action can see.
        return GluingMap(self.d, -self.b, -self.c, self.a)

    def image_of_set(self, s: SlopeSet) -> SlopeSet:
        if s.is_full:
            return s
        f = self.apply
        if self.det == 1:
            mapped = (Arc(f(a.start), f(a.end), a.start_closed, a.end_closed) for a in s.arcs)
        else:
            mapped = (Arc(f(a.end), f(a.start), a.end_closed, a.start_closed) for a in s.arcs)
        return SlopeSet.from_arcs(mapped)

    def __str__(self) -> str:
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]"


def identity_map() -> GluingMap:
    return GluingMap(1, 0, 0, 1)


def meridian_longitude_swap() -> GluingMap:
    """The gluing p/q ↦ q/p identifying the meridian of one side with the
    0-framed longitude of the other."""
    return GluingMap(0, 1, 1, 0)

