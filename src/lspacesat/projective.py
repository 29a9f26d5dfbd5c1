"""Circular-arc subsets of QP^1.

A SlopeSet is a canonical tuple of arcs, or all of QP^1 (is_full).  An
arc runs from its start slope to its end slope in the positive
orientation of the circle, with independent closure flags at the two
endpoints.  Two arcs have start = end: a single point (both ends
closed) and the complement of a point, the open arc h -> h that runs
once round the circle.

Canonical form is one integer sweep: the m distinct endpoints of all
contributing arcs cut the circle into 2m pieces (each endpoint, then the
open gap after it), every arc covers a cyclic run of pieces, a
difference array counts the runs, and maximal covered runs become the
canonical arcs.  Only endpoint comparisons are needed, so every coverage
question is decided exactly in integer arithmetic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable

from .slopes import INFINITY, Slope, circular_key, slope_ccw


@dataclass(frozen=True)
class Arc:
    """A closed, half-open or open arc of QP^1, a point, or the
    complement of a point.

    The arc is traversed from start to end in the positive orientation.
    start == end is a point when both endpoints are closed and the whole
    circle minus that point when both are open; mixed flags are rejected.
    """

    start: Slope
    end: Slope
    start_closed: bool = True
    end_closed: bool = True

    def __post_init__(self) -> None:
        if self.start == self.end and self.start_closed != self.end_closed:
            raise ValueError("degenerate arc must be a closed point or an open copoint")

    @property
    def is_point(self) -> bool:
        return self.start == self.end and self.start_closed

    def contains(self, x: Slope) -> bool:
        if x == self.start:
            return self.start_closed
        if x == self.end:
            return self.end_closed
        if self.start == self.end:
            return not self.start_closed
        return slope_ccw(self.start, x, self.end)


@dataclass(frozen=True)
class SlopeSet:
    """A canonical finite union of arcs and points on QP^1."""

    arcs: tuple[Arc, ...] = ()
    is_full: bool = False

    # -- constructors ---------------------------------------------------

    @classmethod
    def empty(cls) -> "SlopeSet":
        return cls()

    @classmethod
    def full(cls) -> "SlopeSet":
        return cls(is_full=True)

    @classmethod
    def copoint(cls, hole: Slope) -> "SlopeSet":
        """All of QP^1 except the given point."""
        return cls((Arc(hole, hole, False, False),))

    @classmethod
    def point(cls, x: Slope) -> "SlopeSet":
        return cls((Arc(x, x),))

    @classmethod
    def arc(
        cls,
        start: Slope,
        end: Slope,
        start_closed: bool = True,
        end_closed: bool = True,
    ) -> "SlopeSet":
        return cls((Arc(start, end, start_closed, end_closed),))

    @classmethod
    def from_arcs(cls, arcs: Iterable[Arc]) -> "SlopeSet":
        """Canonical set with the same points as the given arcs."""
        return _canonical(tuple(arcs))

    # -- queries --------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.arcs and not self.is_full

    def contains(self, x: Slope) -> bool:
        return self.is_full or any(a.contains(x) for a in self.arcs)

    # -- operations -----------------------------------------------------

    def union(self, other: "SlopeSet") -> "SlopeSet":
        if self.is_full or other.is_full:
            return SlopeSet.full()
        return _canonical(self.arcs + other.arcs)

    def interior(self) -> "SlopeSet":
        """Topological interior in QP^1.

        Closed endpoints of arcs open up and isolated points vanish;
        Full and the complement of a point are already open.
        """
        if self.is_full:
            return self
        return _canonical(
            tuple(Arc(a.start, a.end, False, False) for a in self.arcs if not a.is_point)
        )

    # -- serialization --------------------------------------------------

    def __str__(self) -> str:
        if self.is_full:
            return "FULL"
        if not self.arcs:
            return "EMPTY"
        return " ∪ ".join(_arc_to_str(a) for a in self.arcs)

    @classmethod
    def parse(cls, text: str) -> "SlopeSet":
        return _parse_set(text)


def _arc_to_str(a: Arc) -> str:
    if a.start == a.end:
        return f"{{{a.start}}}" if a.start_closed else f"QP1 \\ {{{a.start}}}"
    sb = "[" if a.start_closed else "("
    eb = "]" if a.end_closed else ")"
    if a.start.is_infinity:
        return f"{sb}-inf, {a.end}{eb}"
    if a.end.is_infinity:
        return f"{sb}{a.start}, inf{eb}"
    if slope_ccw(a.start, INFINITY, a.end):
        # Wraps through ∞; print in the two-interval notation.
        return f"{sb}{a.start}, inf] ∪ [-inf, {a.end}{eb}"
    return f"{sb}{a.start}, {a.end}{eb}"


# -- canonicalization ---------------------------------------------------


def _canonical(arcs: tuple[Arc, ...]) -> SlopeSet:
    """Canonical SlopeSet covering exactly the points of the given arcs.

    With the distinct endpoints p_0, ..., p_{m-1} in circular order,
    piece 2i is the point p_i and piece 2i+1 the open gap from p_i to
    p_{i+1 mod m}.  Each arc covers one cyclic run of pieces; a
    difference array counts the runs, and every maximal covered run
    becomes one canonical arc.
    """
    pts = sorted({p for a in arcs for p in (a.start, a.end)}, key=circular_key)
    index = {p: i for i, p in enumerate(pts)}
    n = 2 * len(pts)
    diff = [0] * (n + 1)
    for a in arcs:
        first = 2 * index[a.start] + (not a.start_closed)
        last = 2 * index[a.end] - (not a.end_closed)
        stop = first + (last - first) % n + 1
        diff[first] += 1
        if stop > n:
            diff[0] += 1
            stop -= n
        diff[stop] -= 1
    covered = [depth > 0 for depth in accumulate(diff[:n])]
    if not any(covered):
        return SlopeSet()
    if all(covered):
        return SlopeSet(is_full=True)
    # Maximal runs, in piece order; a run through piece 0 pairs the last
    # start with the first end.
    starts = [k for k in range(n) if covered[k] and not covered[k - 1]]
    ends = [k for k in range(n) if covered[k] and not covered[(k + 1) % n]]
    if ends[0] < starts[0]:
        ends = ends[1:] + ends[:1]
    return SlopeSet(tuple(_run_to_arc(pts, s, e) for s, e in zip(starts, ends)))


def _run_to_arc(pts: list[Slope], first: int, last: int) -> Arc:
    """The arc covering pieces first..last (cyclically) of the sweep."""
    start = pts[first // 2]
    end = pts[(last + 1) // 2 % len(pts)]
    return Arc(start, end, first % 2 == 0, last % 2 == 0)


# -- cover and shape tests -----------------------------------------------


def covers_circle(s1: SlopeSet, s2: SlopeSet) -> bool:
    """True iff every slope of QP^1 lies in s1 or in s2.

    Both sets must already live in a common boundary coordinate system;
    apply the gluing map to one side first.
    """
    return s1.union(s2).is_full


def rr_shape_check(s: SlopeSet, longitude: Slope) -> bool:
    """Whether s has one of the admissible shapes for a set of L-space
    filling slopes: empty, a point, a closed arc, or the whole circle
    minus the rational longitude."""
    if s.is_full or len(s.arcs) > 1:
        return False
    if not s.arcs:
        return True
    a = s.arcs[0]
    if a.start == a.end and not a.start_closed:
        return a.start == longitude
    return a.start_closed and a.end_closed


# -- parsing ------------------------------------------------------------

_INF_TOKENS = {"inf", "+inf", "∞", "+∞", "-inf", "-∞"}


def _parse_set(text: str) -> SlopeSet:
    t = text.strip()
    if not t:
        raise ValueError("empty slope-set expression")
    if t.upper() == "EMPTY":
        return SlopeSet.empty()
    if t.upper() == "FULL":
        return SlopeSet.full()
    m = re.fullmatch(r"QP1\s*\\\s*\{(.+)\}", t)
    if m:
        return SlopeSet.copoint(Slope.from_string(m.group(1)))
    return _canonical(tuple(a for p in _split_top_level(t) for a in _parse_piece(p)))


def _split_top_level(text: str) -> list[str]:
    parts: list[str] = []
    depth = 0
    cur: list[str] = []
    for ch in text:
        if ch in "[({":
            depth += 1
        elif ch in "])}":
            depth -= 1
        if depth == 0 and ch in "∪Uu":
            parts.append("".join(cur))
            cur = []
            continue
        cur.append(ch)
    parts.append("".join(cur))
    parts = [p.strip() for p in parts if p.strip()]
    if not parts:
        raise ValueError(f"cannot parse slope set {text!r}")
    return parts


def _parse_piece(text: str) -> list[Arc]:
    t = text.strip()
    m = re.fullmatch(r"\{(.+)\}", t)
    if m:
        x = Slope.from_string(m.group(1))
        return [Arc(x, x)]
    m = re.fullmatch(r"([\[(])(.+?),(.+?)([\])])", t)
    if m is None:
        raise ValueError(f"cannot parse arc {text!r}")
    sb, astr, bstr, eb = m.groups()
    start_closed = sb == "["
    end_closed = eb == "]"
    a_inf = astr.strip() in _INF_TOKENS
    b_inf = bstr.strip() in _INF_TOKENS
    if a_inf and b_inf:
        # (-inf, inf) is everything but ∞; a closed bracket on either
        # side puts ∞ back in.
        arcs = [Arc(INFINITY, INFINITY, False, False)]
        return arcs + [Arc(INFINITY, INFINITY)] if start_closed or end_closed else arcs
    start = INFINITY if a_inf else Slope.from_string(astr)
    end = INFINITY if b_inf else Slope.from_string(bstr)
    if start == end and not (start_closed and end_closed):
        raise ValueError(f"degenerate open arc {text!r}")
    return [Arc(start, end, start_closed, end_closed)]
