"""The three benchmark workloads.

Each workload is a closed loop with one caller.  It builds its inputs
from a seed, sends two kinds of request -- a write path (certify, or
building slope sets the way certify does) and a read path (replaying a
stored certificate, or parsing serialized slope sets the way replay
does) -- plus a batch of in-process command-line calls, and checks every output
against references it derives itself (see reference.py).

Interface used by run.py:
  Workload(pkg, cli, seed, tiny, tick)
                       tick() is called between steps of input generation,
                       where set-up timing may probe the machine's speed
  write_items, write(item), check_write(item, out)
  read_items(write_outs), read(item), check_read(item, out)
  cli_calls()          (key, argv) of each call in the CLI batch
  check_cli(key, exit code, stripped stdout)
  rung(item)           size class of a request; metrics use the top rung
  verdicts(write_outs) verdict counts and gap count for the trace
  discarded, errors    invalid draws thrown away, and set-up check failures
Outputs compare with ==, so a repeated pass must reproduce the first.
"""

from __future__ import annotations

import csv
import io
import json
import random
from collections import Counter
from math import gcd

import reference as ref


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


class _ReplayReads:
    """Read path of the certify workloads: a stored certificate goes through
    to_json, Certificate.from_json and replay_certificate, and must replay
    to its own verdict."""

    def read(self, cert):
        pkg = self.pkg
        return pkg.replay_certificate(pkg.Certificate.from_json(cert.to_json()))

    def check_read(self, cert, out):
        if out != cert.verdict:
            return f"replay gave {out}, certificate says {cert.verdict}"
        return None


# -- cable_grid -----------------------------------------------------------

# name -> (companion spec for companion_from_json, genus, is_lspace, fibered)
_CABLE_COMPANIONS = {
    "trefoil": ("trefoil", 1, True, True),
    "T(2,5)": ("T(2,5)", 2, True, True),
    "T(3,5)": ("T(3,5)", 4, True, True),
    "figure8": ("figure8", 1, False, True),
    "5_2": (
        {
            "name": "5_2",
            "genus": 1,
            "is_lspace": False,
            "is_neg_lspace": False,
            "is_fibered": False,
            "is_unknot": False,
        },
        1,
        False,
        False,
    ),
}
# The sweep's --companion list splits on commas, so the explicit JSON
# facts of 5_2 cannot ride along; the sweep covers the named four.
_SWEEP_COMPANIONS = ["trefoil", "T(2,5)", "T(3,5)", "figure8"]


class CableGrid(_ReplayReads):
    """certify_cable over companions x p in [2, 12] x |q| <= 120, gcd 1."""

    name = "cable_grid"

    def __init__(self, pkg, cli, seed: int, tiny: bool = False, tick=lambda: None):
        self.pkg, self.cli = pkg, cli
        self.p_max, self.q_max = (3, 8) if tiny else (12, 120)
        knots = {
            name: pkg.companion_from_json(spec)
            for name, (spec, _, _, _) in _CABLE_COMPANIONS.items()
        }
        tick()
        self.write_items = [
            (name, knots[name], p, q)
            for name in _CABLE_COMPANIONS
            for p in range(2, self.p_max + 1)
            for q in range(-self.q_max, self.q_max + 1)
            if gcd(p, q) == 1
        ]
        rng = random.Random(seed)
        rng.shuffle(self.write_items)
        self.sweep_order = rng.sample(_SWEEP_COMPANIONS, len(_SWEEP_COMPANIONS))
        self.discarded = 0
        self.errors: list[str] = []

    @staticmethod
    def expected(name: str, p: int, q: int):
        """(verdict, exact criterion, params or None) from first principles."""
        _, g, lspace, fibered = _CABLE_COMPANIONS[name]
        exact = lspace and q > p * (2 * g - 1)
        if not fibered:
            return "REJECTED", exact, None
        if not (lspace and q >= 2 * g * p - 1):
            return "NOT_CERTIFIED", exact, None
        g_p = (p - 1) * (abs(q) - 1) // 2
        a = 2 * g
        r = 2 * g_p + a * p * (2 * p - 1) - 1
        b = max(_ceil_div(2 * g_p + r - 1, p), max(_ceil_div(q - 1, p), 0), 1)
        return "CERTIFIED", exact, (a, b, r)

    def rung(self, item) -> int:
        return 0

    def write(self, item):
        _, knot, p, q = item
        return self.pkg.certify_cable(knot, p, q)

    def check_write(self, item, out):
        name, _, p, q = item
        verdict, exact, params = self.expected(name, p, q)
        cert = out.certificate
        if cert.verdict != verdict:
            return f"{name} ({p},{q}): verdict {cert.verdict}, expected {verdict}"
        if out.exact != exact or out.gap != (exact and verdict != "CERTIFIED"):
            return f"{name} ({p},{q}): exact/gap flags {out.exact}/{out.gap}"
        if params is not None:
            got = (cert.params.a, cert.params.b, cert.params.r)
            if got != params:
                return f"{name} ({p},{q}): params {got}, expected {params}"
        return None

    def read_items(self, write_outs):
        return [out.certificate for out in write_outs]

    def cli_calls(self):
        """One `lspacesat sweep` per companion, so that the batch is several
        calls rather than one long one."""
        return [
            (name, ["sweep", "--p-max", str(self.p_max), "--q-max", str(self.q_max), "--companion", name])
            for name in self.sweep_order
        ]

    def check_cli(self, name, code, text):
        if code != 0:
            return f"sweep {name} exit code {code}"
        rows = list(csv.reader(io.StringIO(text)))
        want = [["p", "q", "companion", "sufficient_verdict", "exact_verdict", "gap_flag"]]
        for p in range(2, self.p_max + 1):
            for q in range(-self.q_max, self.q_max + 1):
                if gcd(p, q) != 1:
                    continue
                verdict, exact, _ = self.expected(name, p, q)
                gap = "gap" if exact and verdict != "CERTIFIED" else ""
                lspace = "lspace" if exact else "not_lspace"
                want.append([str(p), str(q), name, verdict, lspace, gap])
        if rows != want:
            return f"sweep {name}: table differs from the reference table"
        return None

    def verdicts(self, write_outs):
        counts = Counter(out.certificate.verdict for out in write_outs)
        return counts, sum(1 for out in write_outs if out.gap)


# -- braid_patterns -------------------------------------------------------

# Torus-knot companions T(p, q), genus 1 .. 24.
_BRAID_COMPANIONS = [(2, 3), (2, 5), (3, 4), (3, 5), (4, 5), (5, 6), (6, 7), (7, 9)]
# B(3, b, t) never closes to a knot (b = 1 and the word has the wrong
# parity for a 3-cycle), so widths start at 4.
_WIDTHS = range(4, 10)
_MAX_DRAWS = 1000


def _closes_to_knot(w: int, b: int, t: int) -> bool:
    """Whether the benchmark's own copy of the B(w, b, t) word permutes
    its strands in one cycle.  A full pass is a w-cycle, so t mod w passes
    suffice."""
    perm = list(range(w))
    for idx in list(range(b, 0, -1)) + list(range(w - 1, 0, -1)) * (t % w):
        perm[idx - 1], perm[idx] = perm[idx], perm[idx - 1]
    j, length = perm[0], 1
    while j != 0:
        j, length = perm[j], length + 1
    return length == w


class BraidPatterns(_ReplayReads):
    """One-bridge braid patterns B(w, b, t) against torus companions.

    Every (companion, width) cell gets two patterns with t = a*w + d and an
    asserted tail threshold (certified), plus one early exit: t < a*w
    (thm1.3) or no threshold (thm1.4).  The seed draws b, d, the threshold
    and the order, so the cost mix is the same for every seed.
    """

    name = "braid_patterns"

    def __init__(self, pkg, cli, seed: int, tiny: bool = False, tick=lambda: None):
        self.pkg, self.cli = pkg, cli
        rng = random.Random(seed)
        companions = _BRAID_COMPANIONS[:2] if tiny else _BRAID_COMPANIONS
        widths = range(4, 6) if tiny else _WIDTHS
        self.discarded = 0
        self.errors: list[str] = []
        self.write_items = []
        for ci, (kp, kq) in enumerate(companions):
            knot = pkg.torus_knot(kp, kq)
            g_k = (kp - 1) * (kq - 1) // 2
            a = 2 * g_k
            for w in widths:
                early = "thm1.3" if (ci + w) % 2 == 0 else "thm1.4"
                for klass in ("CERTIFIED", "CERTIFIED", early):
                    pattern, b, t, threshold = self._draw(rng, w, a, klass, tick)
                    meta = {
                        "w": w, "b": b, "t": t, "threshold": threshold,
                        "a": a, "companion": f"T({kp},{kq})", "klass": klass,
                        "crossings": b + t * (w - 1),
                        "cli": ci < len(companions) // 2,
                    }
                    self.write_items.append((pattern, knot, meta))
        rng.shuffle(self.write_items)

    def _draw(self, rng, w: int, a: int, klass: str, tick):
        """Draw b, t and the threshold until B(w, b, t) closes to a knot."""
        for _ in range(_MAX_DRAWS):
            tick()
            b, d = rng.randint(1, w - 2), rng.randrange(w)
            t = (a - 1) * w + d if klass == "thm1.3" else a * w + d
            threshold = None if klass == "thm1.4" else rng.randint(0, 4)
            knot_closure = _closes_to_knot(w, b, t)
            try:
                pattern = self.pkg.one_bridge_braid(w, b, t, neg_lspace_threshold=threshold)
            except self.pkg.patterns.UnknownTwistError:
                self.discarded += 1
                if knot_closure:
                    self.errors.append(f"B({w},{b},{t}) refused but closes to a knot")
                continue
            if not knot_closure:
                self.errors.append(f"B({w},{b},{t}) accepted but closes to a link")
            return pattern, b, t, threshold
        raise RuntimeError(f"no B({w}, b, t) closing to a knot in {_MAX_DRAWS} draws")

    def rung(self, item) -> int:
        return 0

    def write(self, item):
        pattern, knot, _ = item
        return self.pkg.certify_satellite(pattern, knot)

    @staticmethod
    def expected_params(meta):
        w, a = meta["w"], meta["a"]
        g_p = (meta["crossings"] - w + 1) // 2
        r = 2 * g_p + a * w * (2 * w - 1) - 1
        b = max(_ceil_div(2 * g_p + r - 1, w), meta["threshold"] or 0, 1)
        return a, b, r

    def check_write(self, item, cert):
        pattern, _, meta = item
        label = f"B({meta['w']},{meta['b']},{meta['t']}) on {meta['companion']}"
        genus = (meta["crossings"] - meta["w"] + 1) // 2
        if pattern.genus_s3 != genus:
            return f"{label}: genus of P(U,0) {pattern.genus_s3}, expected {genus}"
        if meta["klass"] == "CERTIFIED":
            if cert.verdict != "CERTIFIED":
                return f"{label}: verdict {cert.verdict} ({cert.reason}), expected CERTIFIED"
            got = (cert.params.a, cert.params.b, cert.params.r)
            if got != self.expected_params(meta):
                return f"{label}: params {got}, expected {self.expected_params(meta)}"
        elif (cert.verdict, cert.reason) != ("NOT_CERTIFIED", meta["klass"]):
            return f"{label}: {cert.verdict} ({cert.reason}), expected NOT_CERTIFIED ({meta['klass']})"
        return None

    def read_items(self, write_outs):
        return list(write_outs)

    def cli_calls(self):
        """`lspacesat certify` on every pattern drawn for the lighter half
        of the companions."""
        calls = []
        for i, (_, _, meta) in enumerate(self.write_items):
            if not meta["cli"]:
                continue
            spec = {"w": meta["w"], "b": meta["b"], "t": meta["t"]}
            if meta["threshold"] is not None:
                spec["neg_threshold"] = meta["threshold"]
            argv = [
                "certify",
                "--pattern", json.dumps({"one_bridge_braid": spec}),
                "--companion", meta["companion"],
            ]
            calls.append((i, argv))
        return calls

    def check_cli(self, i, code, text):
        meta = self.write_items[i][2]
        if meta["klass"] == "CERTIFIED":
            want = (0, f"CERTIFIED: r={self.expected_params(meta)[2]} surgery is an L-space")
        else:
            want = (1, f"NOT CERTIFIED: {meta['klass']}")
        if (code, text) != want:
            return f"cli certify B({meta['w']},{meta['b']},{meta['t']}): {(code, text)}, expected {want}"
        return None

    def verdicts(self, write_outs):
        return Counter(cert.verdict for cert in write_outs), 0


# -- slopeset_algebra -----------------------------------------------------


class _RawSet:
    """A fragmented set: n disjoint arcs between sorted Farey points, plus
    (when overlapping) n // 4 bridge arcs that each merge two neighbours."""

    def __init__(self, rng: random.Random, pool, n: int, overlapping: bool):
        pts = sorted(rng.sample(pool, 2 * n), key=ref.circular)
        self.base = [
            (pts[2 * i], rng.random() < 0.5, pts[2 * i + 1], rng.random() < 0.5)
            for i in range(n)
        ]
        self.bridged = set(rng.sample(range(n - 1), n // 4)) if overlapping else set()
        self.bridges = [
            (
                ref.witness(pts[2 * i], pts[2 * i + 1]),
                True,
                ref.witness(pts[2 * i + 2], pts[2 * i + 3]),
                True,
            )
            for i in sorted(self.bridged)
        ]
        self.pieces = self.base + self.bridges
        self.ref = ref.PieceSet(self.pieces)

    def gaps(self, closed: bool) -> list:
        """The arcs (start, start_closed, end, end_closed) between merged
        arcs, the last one running through infinity; closed=True closes
        every gap, otherwise each gap gets the flags opposite to its
        neighbours, so that it is the exact complement."""
        out = []
        n = len(self.base)
        for i in range(n - 1):
            if i in self.bridged:
                continue
            left, right = self.base[i], self.base[i + 1]
            out.append((left[2], closed or not left[3], right[0], closed or not right[1]))
        last, first = self.base[-1], self.base[0]
        out.append((last[2], closed or not last[3], first[0], closed or not first[1]))
        return out


def _pieces_of(arcs) -> ref.PieceSet:
    return ref.PieceSet([p for arc in arcs for p in ref.arc_pieces(*arc)])


def _text(pieces) -> str:
    return " ∪ ".join(ref.piece_text(*p) for p in pieces)


def _lib_arc(pkg, lo, lc, hi, hc):
    return pkg.Arc(pkg.Slope(*lo), pkg.Slope(*hi), lc, hc)


class _Request:
    __slots__ = ("n", "index", "arcs_a", "arcs_b", "text_a", "text_b", "member", "ends", "canon")


def _check_set_output(req, covered: bool, text: str):
    """Membership of the printed result must match the reference at every
    endpoint and one witness per gap."""
    try:
        result = ref.read_set(text)
    except ValueError as exc:
        return f"n={req.n} #{req.index}: unreadable result {text!r}: {exc}"
    points = ref.check_points(list(req.ends) + result.endpoints())
    want_cover = True
    for x in points:
        want = req.member(x)
        want_cover = want_cover and want
        if result.contains(x) != want:
            return f"n={req.n} #{req.index}: membership of {ref.slope_text(x)} is {not want}, expected {want}"
    if covered != want_cover:
        return f"n={req.n} #{req.index}: covers={covered}, expected {want_cover}"
    return None


class SlopesetAlgebra:
    """Fragmented slope sets on a size ladder (arcs per input set).

    build requests: from_arcs, interior, image under the meridian-longitude
      swap, covers_circle, then str of the union -- the write path certify uses.
    text requests: parse two serialized sets, covers_circle, then str of the
      union -- the read path of `set-algebra --covers` and of replay.
    Request i of a rung cycles through disjoint/overlapping inputs and
    independent/covering partners, so every seed has the same mix.  The
    metrics are taken at the top rung, which gets more requests: the four
    kinds differ in cost, so the median sits where two kinds meet and needs
    many draws to settle.
    """

    name = "slopeset_algebra"
    BUILD_LADDER = (8, 16, 32)
    TEXT_LADDER = (4, 8, 16)
    PER_RUNG = 20
    TOP_RUNG = 80

    def __init__(self, pkg, cli, seed: int, tiny: bool = False, tick=lambda: None):
        self.pkg, self.cli = pkg, cli
        rng = random.Random(seed)
        pool = ref.farey_pool(24)
        build_ladder, text_ladder, per_rung, top_rung = (
            ((2, 4), (2, 3), 8, 8)
            if tiny
            else (self.BUILD_LADDER, self.TEXT_LADDER, self.PER_RUNG, self.TOP_RUNG)
        )

        def count(ladder, n):
            return top_rung if n == ladder[-1] else per_rung

        def ticked(req):
            tick()
            return req

        self.discarded = 0
        self.errors: list[str] = []
        self.write_items = [
            ticked(self._build_request(rng, pool, n, i))
            for n in build_ladder
            for i in range(count(build_ladder, n))
        ]
        self.text_items = [
            ticked(self._text_request(rng, pool, n, i))
            for n in text_ladder
            for i in range(count(text_ladder, n))
        ]
        rng.shuffle(self.write_items)
        rng.shuffle(self.text_items)
        self.cli_rung = text_ladder[len(text_ladder) // 2]

    def _build_request(self, rng, pool, n, i):
        pkg = self.pkg
        req = _Request()
        req.n, req.index, req.canon = n, i, None
        a = _RawSet(rng, pool, n, overlapping=i % 2 == 1)
        req.arcs_a = [_lib_arc(pkg, *p) for p in a.pieces]
        if i % 4 >= 2:
            # The closed gaps of A, carried to the other side of the swap,
            # which reverses orientation.
            gaps = a.gaps(closed=True)
            b_ref = _pieces_of(gaps)
            req.arcs_b = [
                pkg.Arc(pkg.Slope(*ref.swap(hi)), pkg.Slope(*ref.swap(lo)), hc, lc)
                for lo, lc, hi, hc in gaps
            ]

            def b_member(y, b_ref=b_ref):
                return b_ref.contains(ref.swap(y))

            b_ends = [ref.swap(e) for e in b_ref.endpoints()]
        else:
            b = _RawSet(rng, pool, n, overlapping=i % 2 == 1)
            req.arcs_b = [_lib_arc(pkg, *p) for p in b.pieces]
            b_member, b_ends = b.ref.contains, b.ref.endpoints()

        def member(y, a_ref=a.ref, b_member=b_member):
            return ref.interior_contains(a_ref, ref.swap(y)) or b_member(y)

        req.member = member
        req.ends = [ref.swap(e) for e in a.ref.endpoints()] + b_ends
        return req

    def _text_request(self, rng, pool, n, i):
        pkg = self.pkg
        req = _Request()
        req.n, req.index = n, i
        a = _RawSet(rng, pool, n, overlapping=i % 4 >= 2)
        if i % 2 == 0:
            b = _RawSet(rng, pool, n, overlapping=i % 4 >= 2)
            s1 = pkg.SlopeSet.from_arcs([_lib_arc(pkg, *p) for p in a.pieces])
            s2 = pkg.SlopeSet.from_arcs([_lib_arc(pkg, *p) for p in b.pieces])
            req.text_a, req.text_b, req.canon = str(s1), str(s2), (s1, s2)
            b_ref = b.ref
        else:
            b_ref = _pieces_of(a.gaps(closed=False))
            req.text_a, req.text_b, req.canon = _text(a.pieces), _text(b_ref.pieces), None
        req.member = lambda y, a_ref=a.ref, b_ref=b_ref: a_ref.contains(y) or b_ref.contains(y)
        req.ends = a.ref.endpoints() + b_ref.endpoints()
        return req

    def rung(self, req) -> int:
        return req.n

    def write(self, req):
        pkg = self.pkg
        s = pkg.SlopeSet.from_arcs(req.arcs_a)
        glued = pkg.meridian_longitude_swap().image_of_set(s.interior())
        t = pkg.SlopeSet.from_arcs(req.arcs_b)
        covered = pkg.covers_circle(glued, t)
        return covered, "FULL" if covered else str(glued.union(t))

    def check_write(self, req, out):
        return _check_set_output(req, *out)

    def read_items(self, write_outs):
        return self.text_items

    def read(self, req):
        pkg = self.pkg
        s1, s2 = pkg.SlopeSet.parse(req.text_a), pkg.SlopeSet.parse(req.text_b)
        covered = pkg.covers_circle(s1, s2)
        return covered, "FULL" if covered else str(s1.union(s2)), s1, s2

    def check_read(self, req, out):
        covered, text, s1, s2 = out
        if req.canon is not None and (s1, s2) != req.canon:
            return f"n={req.n} #{req.index}: parse(str(s)) != s"
        return _check_set_output(req, covered, text)

    def cli_calls(self):
        """`lspacesat set-algebra --covers` on every text request of the
        middle rung."""
        return [
            (i, ["set-algebra", "--covers", req.text_a, req.text_b])
            for i, req in enumerate(self.text_items)
            if req.n == self.cli_rung
        ]

    def check_cli(self, i, code, text):
        req = self.text_items[i]
        covered = text == "FULL"
        if code != (0 if covered else 1):
            return f"cli set-algebra n={req.n} #{req.index}: exit code {code}"
        err = _check_set_output(req, covered, text)
        return None if err is None else "cli set-algebra " + err

    def verdicts(self, write_outs):
        return Counter(), 0


WORKLOADS = {cls.name: cls for cls in (CableGrid, BraidPatterns, SlopesetAlgebra)}
