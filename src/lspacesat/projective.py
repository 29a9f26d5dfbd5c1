"""Circular-arc subsets of QP^1.

A SlopeSet is a canonical tuple of arcs, or all of QP^1 (is_full).  An
arc runs from its start slope to its end slope in the positive
orientation of the circle, with independent closure flags at the two
endpoints.  Two arcs have start = end: a single point (both ends
closed) and the complement of a point, the open arc h -> h that runs
once round the circle.  Arc's one constructor validates that shape,
refusing mixed flags when start = end, and stores its fields, the flags
as bools, through the slot descriptors as Slope's does; Arc and SlopeSet
are slotted, frozen dataclasses, immutable and without a __dict__, like
the Slopes they hold.

Canonical form is one sorted interval merge on exact integer keys.
With Q the largest denominator (1 when every end is ∞), a finite slope
has key num·Q² // den (distinct slopes differ by at least 1/Q²) and ∞
the key −(M+1)·Q², M the largest |num|, below every finite key.  A
slope with key k sits at position 2k of a line and the open gap after
it starts at 2k + 1, so each arc covers one span of the line, or two if
it passes through the gap that closes the line into the circle.  One
span builder, _spans, keys both ends of each arc as it builds its span,
in one loop; it holds the package's one integer key of a slope, and
every order comparison of two slopes is slopes.slope_det.  Two slopes
are equal when their normalized pairs are equal field by field, so the
per-arc loops of interior, str and Arc's mixed-flag check read each
end's num and den directly, and str tells ∞ by den = 0 and writes
num/den itself.  _merge sorts the spans and merges them into maximal
runs in one pass; _canonical makes each run an arc, keeping the given
Arc where a run is exactly its span.  covers_circle scans the sorted
spans itself, building no run: it is False when no span wraps, and
otherwise stops at the first gap after the wrapped spans' reach, or as
soon as that reach passes the least wrapped start.

Only from_arcs, union and parse merge, since only there can arcs
overlap; parse reads each piece and the separators after it with one
compiled match (the slope grammar is slopes.SLOPE_GRAMMAR) and then
merges.  interior opens the ends of arcs that are already disjoint and
maximal, and the image under the meridian–longitude swap
(gluing.GluingMap, each end through slopes.slope_swap) is a
homeomorphism of the circle; both map a canonical set to a canonical
set arc by arc.  from_arcs is the one constructor from arcs; parse
reads text, and builds QP1 \\ {h}, a single arc, without a merge.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

from .slopes import INFINITY, SLOPE_GRAMMAR, Slope, slope_ccw, slope_det

# The text parse reads: a piece "{x}" (groups 1-2) or an arc (groups 3-8),
# with no newline inside, then the run of separators after it, whose ∪, U
# or u (group 9) is None when there is none.
_W = r"[^\S\n]*"
_SEPARATORS = r"\s*([∪Uu][\s∪Uu]*)?"
_PIECE = re.compile(
    rf"(?:\{{{_W}{SLOPE_GRAMMAR}{_W}\}}"
    rf"|([\[(]){_W}{SLOPE_GRAMMAR}{_W},{_W}{SLOPE_GRAMMAR}{_W}([\])])){_SEPARATORS}"
)
_LEADING_SEPARATORS = re.compile(_SEPARATORS)
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
        # Flags stored as bools, so that equal point sets compare and hash
        # equal; flags first, so most arcs pass without comparing two ends,
        # which compare field by field as normalized pairs.
        start_closed = True if start_closed else False
        end_closed = True if end_closed else False
        if start_closed != end_closed and start.num == end.num and start.den == end.den:
            raise ValueError("degenerate arc must be a closed point or an open copoint")
        _set_start(self, start)
        _set_end(self, end)
        _set_start_closed(self, start_closed)
        _set_end_closed(self, end_closed)

    @property
    def is_point(self) -> bool:
        return self.start_closed and self.start == self.end

    def contains(self, x: Slope) -> bool:
        if x == self.start:
            return self.start_closed
        if x == self.end:
            return self.end_closed
        if self.start == self.end:
            return not self.start_closed
        return slope_ccw(self.start, x, self.end)


# The slot descriptors' setters, which skip the frozen __setattr__; only
# the constructor calls them.
_set_start = Arc.start.__set__
_set_end = Arc.end.__set__
_set_start_closed = Arc.start_closed.__set__
_set_end_closed = Arc.end_closed.__set__


@dataclass(frozen=True, slots=True)
class SlopeSet:
    """A canonical finite union of arcs and points on QP^1."""

    arcs: tuple[Arc, ...] = ()
    is_full: bool = False

    # -- constructor ----------------------------------------------------

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
        the same order, so the result is canonical without a merge.
        """
        if self.is_full:
            return self
        return SlopeSet(
            tuple(
                Arc(a.start, a.end, False, False)
                for a in self.arcs
                # not a point: ends compared field by field
                if not a.start_closed or a.start.num != a.end.num or a.start.den != a.end.den
            )
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
        is an error.  One compiled match reads each piece with the
        separators after it, then _merge merges the pieces.  Malformed
        text raises ValueError.
        """
        t = text.strip()
        if t.upper() in ("EMPTY", "FULL"):
            return cls(is_full=t.upper() == "FULL")
        m = _COPOINT.fullmatch(t)
        if m:
            # One arc, already canonical: no merge.
            hole = Slope.from_groups(*m.groups())
            return cls((Arc(hole, hole, False, False),))
        arcs = []
        pos = _LEADING_SEPARATORS.match(t).end()
        while pos < len(t):
            m = _PIECE.match(t, pos)
            if m is None:
                raise ValueError(f"cannot parse slope set {text!r} at position {pos}")
            x_num, x_den, sb, a_num, a_den, b_num, b_den, eb, sep = m.groups()
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
                    raise ValueError(f"degenerate open arc {t[pos:m.end(8)]!r}")
                arcs.append(Arc(start, end, start_closed, end_closed))
            pos = m.end()
            if sep is None and pos < len(t):
                raise ValueError(f"slope set {text!r} needs ∪ at position {pos}")
        if not arcs:
            raise ValueError(f"cannot parse slope set {text!r}")
        return _canonical(tuple(arcs))


def _arc_to_str(a: Arc) -> str:
    # Each end's integers read once; ends compare field by field and ∞ is
    # den = 0, so only the wrap test calls slope_det.
    x, y = a.start, a.end
    p, q, r, s = x.num, x.den, y.num, y.den
    if p == r and q == s:
        return f"{{{p}/{q}}}" if a.start_closed else f"QP1 \\ {{{p}/{q}}}"
    sb = "[" if a.start_closed else "("
    eb = "]" if a.end_closed else ")"
    if not q:
        return f"{sb}-inf, {r}/{s}{eb}"
    if not s:
        return f"{sb}{p}/{q}, inf{eb}"
    if slope_det(x, y) > 0:
        # start > end, so the arc wraps through ∞; print in the
        # two-interval notation.
        return f"{sb}{p}/{q}, inf] ∪ [-inf, {r}/{s}{eb}"
    return f"{sb}{p}/{q}, {r}/{s}{eb}"


# -- canonicalization ---------------------------------------------------

# (s, e, i): arcs[i] covers the positions s <= x < e of the line.
_Span = tuple[int, int, int]


def _spans(arcs: tuple[Arc, ...]) -> tuple[list[_Span], list[_Span], int]:
    """Each arc's span of the line, keyed as it is built: (spans, wraps, Q²).

    With Q the largest denominator (1 when every end is ∞), a finite
    slope has key num·Q² // den and ∞ the key −(M+1)·Q², M the largest
    |num|, below every finite key.  A slope with key k sits at position 2k and the open gap after it
    starts at 2k + 1, so an arc from key j to key k covers the span [s, e)
    with s = 2j + (start open) and e = 2k + (end closed).  (s, e, i) is in
    spans for arcs[i] when s < e, and in wraps when it runs backwards,
    through the gap that closes the line.
    """
    dens = [a.start.den for a in arcs] + [a.end.den for a in arcs]
    q2 = max(dens) ** 2 or 1
    inf = -_reach(arcs, q2) if 0 in dens else None
    spans, wraps = [], []
    for i, a in enumerate(arcs):
        x, y = a.start, a.end
        s = 2 * (x.num * q2 // x.den if x.den else inf) + 1 - a.start_closed
        e = 2 * (y.num * q2 // y.den if y.den else inf) + a.end_closed
        if s < e:
            spans.append((s, e, i))
        else:
            wraps.append((s, e, i))
    return spans, wraps, q2


def _reach(arcs: tuple[Arc, ...], q2: int) -> int:
    """(M+1)·Q², beyond every key: |num·Q² // den| <= M·Q²."""
    return (max([abs(a.start.num) for a in arcs] + [abs(a.end.num) for a in arcs]) + 1) * q2


def _merge(arcs: tuple[Arc, ...]) -> tuple[list[tuple[int, int, int, int]], int | None]:
    """The maximal runs the arcs' spans cover, and the line's start begin,
    None when no span wraps.  The line's ends begin = −2·(M+1)·Q² − 1 and
    end = 2·(M+1)·Q² lie beyond every position, two halves of the gap
    that closes the line, and a wrapped span covers [s, end) and
    [begin, e).  A run (s, e, first, last) covers [s, e); arcs[first]'s
    span starts at s and reaches furthest, arcs[last]'s ends at e, so
    first == last only when the run is exactly that arc's span."""
    spans, wraps, q2 = _spans(arcs)
    begin = None
    if wraps:
        end = 2 * _reach(arcs, q2)
        begin = -end - 1
        spans += [(s, end, i) for s, _, i in wraps]
        spans += [(begin, e, i) for _, e, i in wraps]
    spans.sort()
    runs = []
    run_s, run_e, first = spans[0]
    last = first
    for s, e, i in spans:
        if s > run_e:
            runs.append((run_s, run_e, first, last))
            run_s, run_e, first, last = s, e, i, i
        elif e > run_e:
            run_e, last = e, i
            if s == run_s:
                first = i
    runs.append((run_s, run_e, first, last))
    return runs, begin


def _canonical(arcs: tuple[Arc, ...]) -> SlopeSet:
    """Canonical SlopeSet covering exactly the points of the given arcs:
    one arc per run of _merge, in order, keeping the given Arc where a
    run is exactly its span.  The runs from begin and to end join into
    the last arc; one run over the whole line is FULL.  A run [s, e) is
    closed at its start when s is even and at its end when e is odd.
    """
    if not arcs:
        return SlopeSet()
    runs, begin = _merge(arcs)
    if runs[0][0] == begin:
        if len(runs) == 1:
            return SlopeSet(is_full=True)
        _, e, _, last = runs.pop(0)
        runs[-1] = (runs[-1][0], e, runs[-1][2], last)
    return SlopeSet(
        tuple(
            arcs[first]
            if first == last
            else Arc(arcs[first].start, arcs[last].end, s % 2 == 0, e % 2 == 1)
            for s, e, first, last in runs
        )
    )


# -- cover test ---------------------------------------------------------


def covers_circle(s1: SlopeSet, s2: SlopeSet) -> bool:
    """True iff every slope of QP^1 lies in s1 or in s2; no run, arc or
    SlopeSet is built.

    Without a wrapped span nothing covers the gap after the greatest key.
    Otherwise the wrapped spans cover the line below reach, the furthest
    of their ends, and from their least start on; the sorted spans must
    close the gap between, and the scan stops at the first hole or as
    soon as reach passes that start.

    Both sets must already live in a common boundary coordinate system;
    apply the gluing map to one side first.
    """
    if s1.is_full or s2.is_full:
        return True
    arcs = s1.arcs + s2.arcs
    if not arcs:
        return False
    spans, wraps, _ = _spans(arcs)
    if not wraps:
        return False
    reach = max([e for _, e, _ in wraps])
    least = min([s for s, _, _ in wraps])
    spans.sort()
    for s, e, _ in spans:
        if reach >= least or s > reach:
            break
        if e > reach:
            reach = e
    return reach >= least
