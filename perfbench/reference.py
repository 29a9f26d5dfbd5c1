"""The benchmark's own exact slope arithmetic, used to check outputs.

Nothing here imports lspacesat: a slope is a normalized integer pair
(num, den) with den >= 0 and infinity = (1, 0), order is decided by
integer cross-multiplication, and a slope set is read back from its
documented text form ("EMPTY", "FULL", "QP1 \\ {x}" or pieces such as
"[1/2, inf] ∪ [-inf, 1/7)" joined by " ∪ ").
"""

from __future__ import annotations

from functools import cmp_to_key
from math import gcd

INF = (1, 0)


def norm(p: int, q: int) -> tuple[int, int]:
    g = gcd(p, q)
    p, q = p // g, q // g
    if q < 0 or (q == 0 and p < 0):
        p, q = -p, -q
    return p, q


def swap(x: tuple[int, int]) -> tuple[int, int]:
    """The meridian-longitude swap p/q -> q/p."""
    return norm(x[1], x[0])


def cmp(a: tuple[int, int], b: tuple[int, int]) -> int:
    """Linear order on QP^1 cut open at infinity, infinity last."""
    d = a[0] * b[1] - b[0] * a[1]
    return (d > 0) - (d < 0)


circular = cmp_to_key(cmp)


def witness(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """A slope strictly inside the positively oriented arc a -> b."""
    if a == b:
        return (0, 1) if a == INF else INF
    if a == INF:
        return norm(b[0] - b[1], b[1])
    if b == INF:
        return norm(a[0] + a[1], a[1])
    if cmp(a, b) < 0:
        return norm(a[0] + b[0], a[1] + b[1])  # Farey mediant
    return INF


def farey_pool(max_den: int) -> list[tuple[int, int]]:
    """Finite slopes p/q with 1 <= q <= max_den and |p| <= max_den, sorted."""
    pool = {
        norm(p, q)
        for q in range(1, max_den + 1)
        for p in range(-max_den, max_den + 1)
        if gcd(p, q) == 1
    }
    return sorted(pool, key=circular)


class PieceSet:
    """A finite union of pieces (lo, lo_closed, hi, hi_closed) of the line
    QP^1 minus infinity, where lo may be "-inf" and hi may be "inf"; a
    closed bracket at an infinite end puts the point infinity in."""

    def __init__(self, pieces=(), full: bool = False, hole=None):
        self.pieces = list(pieces)
        self.full = full
        self.hole = hole

    def contains(self, x: tuple[int, int]) -> bool:
        if self.full:
            return True
        if self.hole is not None:
            return x != self.hole
        for lo, lc, hi, hc in self.pieces:
            if x == INF:
                if (lo == "-inf" and lc) or (hi == "inf" and hc):
                    return True
                continue
            if lo != "-inf":
                c = cmp(lo, x)
                if c > 0 or (c == 0 and not lc):
                    continue
            if hi != "inf":
                c = cmp(x, hi)
                if c > 0 or (c == 0 and not hc):
                    continue
            return True
        return False

    def endpoints(self) -> list[tuple[int, int]]:
        if self.hole is not None:
            return [self.hole]
        out = []
        for lo, _, hi, _ in self.pieces:
            out.append(INF if lo == "-inf" else lo)
            out.append(INF if hi == "inf" else hi)
        return out


def arc_pieces(start, start_closed: bool, end, end_closed: bool) -> list:
    """Pieces of the positively oriented arc start -> end (start != end)."""
    if start == INF:
        return [("-inf", start_closed, end, end_closed)]
    if end == INF:
        return [(start, start_closed, "inf", end_closed)]
    if cmp(start, end) < 0:
        return [(start, start_closed, end, end_closed)]
    return [(start, start_closed, "inf", True), ("-inf", True, end, end_closed)]


def _slope_text(t: str) -> tuple[int, int]:
    t = t.strip()
    if t in ("inf", "-inf"):
        return INF
    if "/" in t:
        p, q = t.split("/")
        return norm(int(p), int(q))
    return norm(int(t), 1)


def read_set(text: str) -> PieceSet:
    """Read a slope set back from its printed form."""
    t = text.strip()
    if t == "EMPTY":
        return PieceSet()
    if t == "FULL":
        return PieceSet(full=True)
    if t.startswith("QP1 \\ {") and t.endswith("}"):
        return PieceSet(hole=_slope_text(t[len("QP1 \\ {"):-1]))
    pieces = []
    for part in t.split(" ∪ "):
        part = part.strip()
        if part.startswith("{"):
            x = _slope_text(part[1:-1])
            pieces.append((x, True, x, True))
            continue
        a, b = part[1:-1].split(",")
        lo = "-inf" if a.strip() in ("-inf", "inf") else _slope_text(a)
        hi = "inf" if b.strip() in ("-inf", "inf") else _slope_text(b)
        pieces.append((lo, part[0] == "[", hi, part[-1] == "]"))
    return PieceSet(pieces)


def slope_text(x: tuple[int, int]) -> str:
    return f"{x[0]}/{x[1]}"


def piece_text(lo, lc: bool, hi, hc: bool) -> str:
    a = "-inf" if lo == "-inf" else slope_text(lo)
    b = "inf" if hi == "inf" else slope_text(hi)
    return f"{'[' if lc else '('}{a}, {b}{']' if hc else ')'}"


def check_points(endpoints) -> list[tuple[int, int]]:
    """Every endpoint plus one witness inside each gap between them."""
    pts = sorted(set(endpoints), key=circular)
    if not pts:
        return [INF]
    out = list(pts)
    for i, p in enumerate(pts):
        out.append(witness(p, pts[(i + 1) % len(pts)]))
    return out


def interior_contains(s: PieceSet, x: tuple[int, int]) -> bool:
    """Membership in the topological interior of s."""
    if not s.contains(x):
        return False
    pts = sorted(set(s.endpoints()), key=circular)
    if x not in pts:
        return True
    i = pts.index(x)
    before, after = pts[i - 1], pts[(i + 1) % len(pts)]
    return s.contains(witness(before, x)) and s.contains(witness(x, after))
