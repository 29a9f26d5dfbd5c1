"""Circular-arc subsets of QP^1.

A SlopeSet is a canonical tuple of arcs, or all of QP^1 (is_full).  An
arc runs from its start slope to its end slope in the positive
orientation of the circle, with independent closure flags at the two
endpoints.  Two arcs have start = end: a single point (both ends
closed) and the complement of a point, the open arc h -> h that runs
once round the circle.  Arc's one constructor validates that shape,
refusing mixed flags when start = end; Arc and SlopeSet are slotted,
frozen dataclasses, immutable and without a __dict__, like the Slopes
they hold.

Canonical form is one integer sweep: the m distinct endpoints of all
contributing arcs cut the circle into 2m pieces (each endpoint, then the
open gap after it), every arc covers a cyclic run of pieces, a
difference array counts the runs, and maximal covered runs become the
canonical arcs.  Each finite endpoint gets one exact integer key,
num·Q² // den, and ∞ goes first; the keys sort, deduplicate and index
the endpoints, so every coverage question is decided in integers.

Only from_arcs, union and parse sweep, since only there can arcs
overlap; parse is one scan of compiled patterns over its text (the
slope grammar is slopes.SLOPE_GRAMMAR) followed by the sweep.  interior
opens the ends of arcs that are already disjoint and maximal, and the
image under a gluing map (gluing.GluingMap) is a homeomorphism of the
circle; both map a canonical set to a canonical set arc by arc.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable

from .slopes import INFINITY, SLOPE_GRAMMAR, Slope, circular_keys, slope_ccw, slope_det

# The text parse reads: a piece "{x}" (groups 1-2) or an arc (groups 3-8),
# with no newline inside, and a run of separators between pieces.
_W = r"[^\S\n]*"
_PIECE = re.compile(
    rf"\{{{_W}{SLOPE_GRAMMAR}{_W}\}}"
    rf"|([\[(]){_W}{SLOPE_GRAMMAR}{_W},{_W}{SLOPE_GRAMMAR}{_W}([\])])"
)
_SEPARATORS = re.compile(r"\s*([∪Uu][\s∪Uu]*)?")
_COPOINT = re.compile(rf"QP1\s*\\\s*\{{{_W}{SLOPE_GRAMMAR}{_W}\}}")


@dataclass(frozen=True, slots=True, init=False)
class Arc:
    """A closed, half-open or open arc of QP^1, a point, or the
    complement of a point.

    The arc is traversed from start to end in the positive orientation.
    start == end is a point when both endpoints are closed and the whole
    circle minus that point when both are open; the constructor rejects
    mixed flags there.
    """

    start: Slope
    end: Slope
    start_closed: bool
    end_closed: bool

    def __init__(
        self, start: Slope, end: Slope, start_closed: bool = True, end_closed: bool = True
    ) -> None:
        # Flags first: most arcs then pass without comparing two Slopes.
        if start_closed != end_closed and start == end:
            raise ValueError("degenerate arc must be a closed point or an open copoint")
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)
        object.__setattr__(self, "start_closed", start_closed)
        object.__setattr__(self, "end_closed", end_closed)

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


@dataclass(frozen=True, slots=True)
class SlopeSet:
    """A canonical finite union of arcs and points on QP^1."""

    arcs: tuple[Arc, ...] = ()
    is_full: bool = False

    # -- constructors ---------------------------------------------------

    @classmethod
    def copoint(cls, hole: Slope) -> "SlopeSet":
        """All of QP^1 except the given point."""
        return cls((Arc(hole, hole, False, False),))

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

    def contains(self, x: Slope) -> bool:
        return self.is_full or any(a.contains(x) for a in self.arcs)

    # -- operations -----------------------------------------------------

    def union(self, other: "SlopeSet") -> "SlopeSet":
        if self.is_full or other.is_full:
            return SlopeSet(is_full=True)
        return _canonical(self.arcs + other.arcs)

    def interior(self) -> "SlopeSet":
        """Topological interior in QP^1.

        Closed endpoints of arcs open up and isolated points vanish;
        Full and the complement of a point are already open.  Opening the
        ends of disjoint maximal arcs keeps them disjoint, maximal and in
        the same order, so the result is canonical without a sweep.
        """
        if self.is_full:
            return self
        return SlopeSet(
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
        """The slope set a text spells; parse(str(s)) == s.

            set   := EMPTY | FULL | QP1 \\ {slope} | piece, joined by ∪, U or u
            piece := {slope} | [ or ( slope , slope ] or )
            slope := p/q | p | inf | +inf | -inf | ∞ | +∞ | -∞

        EMPTY and FULL may be in any case, p and q are integers, and
        whitespace may go between tokens but not a newline inside a piece.
        Extra separators are ignored; a missing one is an error.  An arc
        runs from its first slope to its second in the positive
        orientation; [ and ] close an end, ( and ) open it.  Two ends both
        spelled inf or ∞ (any sign) give QP1 \\ {∞}, or FULL if a bracket
        is closed.  Otherwise an arc from a slope to itself is a point
        when both brackets are closed and an error when not, so
        [1/0, 1/0] and [-inf, 1/0] are the point {1/0} and (inf, 1/0)
        is an error.  One scan of compiled patterns reads the pieces,
        then the sweep merges them.  Malformed text raises ValueError.
        """
        t = text.strip()
        if t.upper() in ("EMPTY", "FULL"):
            return cls(is_full=t.upper() == "FULL")
        m = _COPOINT.fullmatch(t)
        if m:
            return cls.copoint(Slope.from_groups(*m.groups()))
        arcs = []
        pos = _SEPARATORS.match(t).end()
        while pos < len(t):
            m = _PIECE.match(t, pos)
            if m is None:
                raise ValueError(f"cannot parse slope set {text!r} at position {pos}")
            x_num, x_den, sb, a_num, a_den, b_num, b_den, eb = m.groups()
            if sb is None:
                x = Slope.from_groups(x_num, x_den)
                arcs.append(Arc(x, x))
            elif a_num is None and b_num is None:
                # Both ends spelled as ∞: all but ∞, and ∞ too if a bracket is closed.
                arcs.append(Arc(INFINITY, INFINITY, False, False))
                if sb == "[" or eb == "]":
                    arcs.append(Arc(INFINITY, INFINITY))
            else:
                start, end = Slope.from_groups(a_num, a_den), Slope.from_groups(b_num, b_den)
                start_closed, end_closed = sb == "[", eb == "]"
                if not (start_closed and end_closed) and start == end:
                    raise ValueError(f"degenerate open arc {m.group()!r}")
                arcs.append(Arc(start, end, start_closed, end_closed))
            sep = _SEPARATORS.match(t, m.end())
            pos = sep.end()
            if sep.group(1) is None and pos < len(t):
                raise ValueError(f"slope set {text!r} needs ∪ at position {pos}")
        if not arcs:
            raise ValueError(f"cannot parse slope set {text!r}")
        return _canonical(tuple(arcs))


def _arc_to_str(a: Arc) -> str:
    if a.start == a.end:
        return f"{{{a.start}}}" if a.start_closed else f"QP1 \\ {{{a.start}}}"
    sb = "[" if a.start_closed else "("
    eb = "]" if a.end_closed else ")"
    if a.start.is_infinity:
        return f"{sb}-inf, {a.end}{eb}"
    if a.end.is_infinity:
        return f"{sb}{a.start}, inf{eb}"
    if slope_det(a.start, a.end) > 0:
        # start > end, so the arc wraps through ∞; print in the
        # two-interval notation.
        return f"{sb}{a.start}, inf] ∪ [-inf, {a.end}{eb}"
    return f"{sb}{a.start}, {a.end}{eb}"


# -- canonicalization ---------------------------------------------------


def _canonical(arcs: tuple[Arc, ...]) -> SlopeSet:
    """Canonical SlopeSet covering exactly the points of the given arcs.

    With the distinct endpoints p_0, ..., p_{m-1} in circular order,
    piece 2i is the point p_i and piece 2i+1 the open gap from p_i to
    p_{i+1 mod m}.  Each arc covers one cyclic run of pieces; a
    difference array counts the runs, and every maximal covered run
    becomes one canonical arc.  The endpoints are sorted by
    slopes.circular_keys, ∞ first.
    """
    if not arcs:
        return SlopeSet()
    keys, order = circular_keys([p for a in arcs for p in (a.start, a.end)])
    m = len(order)
    index = dict(zip(order, range(m)))
    pts = [None] * m  # filled by the sweep below
    n = 2 * m
    diff = [0] * (n + 1)
    pairs = iter(keys)  # start and end keys, arc by arc
    for a, start_key, end_key in zip(arcs, pairs, pairs):
        i, j = index[start_key], index[end_key]
        pts[i], pts[j] = a.start, a.end
        first = 2 * i + (not a.start_closed)
        last = 2 * j - (not a.end_closed)
        stop = first + (last - first) % n + 1
        diff[first] += 1
        if stop > n:
            diff[0] += 1
            stop -= n
        diff[stop] -= 1
    covered = [depth > 0 for depth in accumulate(diff[:n])]
    # Maximal runs, in piece order.  With no run start, every piece is
    # covered or none is.
    starts = [k for k in range(n) if covered[k] and not covered[k - 1]]
    if not starts:
        return SlopeSet(is_full=covered[0])
    ends = [k for k in range(n) if covered[k] and not covered[(k + 1) % n]]
    # A run through piece 0 pairs the last start with the first end.
    if ends[0] < starts[0]:
        ends = ends[1:] + ends[:1]
    # The run over pieces s..e (cyclically) is the arc from point s // 2 to
    # point (e + 1) // 2, closed at an end that is a point piece.
    return SlopeSet(
        tuple(
            Arc(pts[s // 2], pts[(e + 1) // 2 % m], s % 2 == 0, e % 2 == 0)
            for s, e in zip(starts, ends)
        )
    )


# -- cover test ---------------------------------------------------------


def covers_circle(s1: SlopeSet, s2: SlopeSet) -> bool:
    """True iff every slope of QP^1 lies in s1 or in s2.

    Both sets must already live in a common boundary coordinate system;
    apply the gluing map to one side first.
    """
    return s1.union(s2).is_full
