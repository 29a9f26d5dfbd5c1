"""Spans and counters around the public entry points of each layer.

Entry points are wrapped from outside, at every name a caller resolves:
the defining module, every lspacesat module that imported the function
by name, and the class attribute for methods.  Spans (name, start, end,
parent, request id) stay in memory and are written out when the run
ends; self time is a span's duration minus that of its wrapped children
and minus the wrapper cost each child adds to its parent, measured on a
no-op before the run (see calibrate).
"""

from __future__ import annotations

import gzip
import statistics
import sys
import time
from array import array
from collections import Counter

# (layer, label, owner, attribute): owner is a module name for functions,
# "module:Class" for methods.
SPANS = [
    ("projective", "SlopeSet.from_arcs", "lspacesat.projective:SlopeSet", "from_arcs"),
    ("projective", "SlopeSet.union", "lspacesat.projective:SlopeSet", "union"),
    ("projective", "SlopeSet.interior", "lspacesat.projective:SlopeSet", "interior"),
    ("projective", "SlopeSet.parse", "lspacesat.projective:SlopeSet", "parse"),
    ("projective", "covers_circle", "lspacesat.projective", "covers_circle"),
    ("projective", "SlopeSet.str", "lspacesat.projective:SlopeSet", "__str__"),
    ("gluing", "GluingMap.image_of_set", "lspacesat.gluing:GluingMap", "image_of_set"),
    ("knots", "lspace_slope_set", "lspacesat.knots", "lspace_slope_set"),
    ("braids", "braid_add_full_twists", "lspacesat.braids", "braid_add_full_twists"),
    ("braids", "braid_free_reduce", "lspacesat.braids", "braid_free_reduce"),
    ("braids", "braid_sign", "lspacesat.braids", "braid_sign"),
    ("braids", "closure_components", "lspacesat.braids", "closure_components"),
    ("braids", "positive_braid_closure_genus", "lspacesat.braids", "positive_braid_closure_genus"),
    ("braids", "braid_mirror", "lspacesat.braids", "braid_mirror"),
    ("patterns", "PatternFacts.twisted_facts", "lspacesat.patterns:PatternFacts", "twisted_facts"),
    ("patterns", "torus_pattern", "lspacesat.patterns", "torus_pattern"),
    ("patterns", "one_bridge_braid", "lspacesat.patterns", "one_bridge_braid"),
    ("certify", "certify_cable", "lspacesat.certify", "certify_cable"),
    ("certify", "certify_satellite", "lspacesat.certify", "certify_satellite"),
    ("certify", "necessary_check", "lspacesat.certify", "necessary_check"),
    ("certify", "check_lemma", "lspacesat.certify", "check_lemma"),
    ("certify", "replay_certificate", "lspacesat.certify", "replay_certificate"),
    ("certify", "Certificate.to_json", "lspacesat.certify:Certificate", "to_json"),
    ("certify", "Certificate.from_json", "lspacesat.certify:Certificate", "from_json"),
    ("cli", "main", "lspacesat.cli", "main"),
]

# Hot predicates get a call counter only; a span each would swamp them.
COUNTERS = [
    ("slopes", "slope_ccw", "lspacesat.slopes", "slope_ccw"),
    ("projective", "Arc.contains", "lspacesat.projective:Arc", "contains"),
]

LAYERS = ["projective", "gluing", "knots", "braids", "patterns", "certify", "cli"]


def span_names() -> list[str]:
    return [f"{layer}.{label}" for layer, label, _, _ in SPANS]


def _arc_count(s) -> int:
    return len(getattr(s, "arcs", ()))


class Tracer:
    def __init__(self, overhead_ns: int = 0):
        self.names = span_names()
        self.overhead_ns = overhead_ns
        self.name_id = array("H")
        self.parent = array("q")
        self.request = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.child_ns: list[int] = []
        self.calls = Counter()
        self.self_ns = Counter()
        self.counts = Counter()
        self.request_id = -1
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        for idx, (layer, label, owner, attr) in enumerate(SPANS):
            self._patch(owner, attr, f"{layer}.{label}", self._span_wrapper(idx, f"{layer}.{label}"))
        for layer, label, owner, attr in COUNTERS:
            self._patch(owner, attr, f"{layer}.{label}", self._count_wrapper(f"{layer}.{label}.calls"))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    def _patch(self, owner: str, attr: str, name: str, make) -> None:
        module_name, _, cls_name = owner.partition(":")
        module = sys.modules.get(module_name)
        if cls_name:
            cls = getattr(module, cls_name, None)
            raw = None if cls is None else cls.__dict__.get(attr)
            if raw is None:
                self.missing.append(name)
                return
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(make(raw.__func__)))
            else:
                self._set(cls, attr, make(raw))
            return
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(name)
            return
        wrapped = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "lspacesat" or mod_name.startswith("lspacesat."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)

    def _set(self, target, attr: str, value) -> None:
        self._undo.append((target, attr, target.__dict__[attr]))
        setattr(target, attr, value)

    def _count_wrapper(self, key: str):
        counts = self.counts

        def make(fn):
            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return counted

        return make

    def _span_wrapper(self, idx: int, name: str):
        tracer = self
        observe = _OBSERVERS.get(name)

        def make(fn):
            def traced(*args, **kwargs):
                sid = tracer._open(idx)
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    tracer._close(sid, idx)
                    if observe is not None:
                        observe(tracer.counts, args, None, exc)
                    raise
                tracer._close(sid, idx)
                if observe is not None:
                    observe(tracer.counts, args, result, None)
                return result

            return traced

        return make

    def _open(self, idx: int) -> int:
        sid = len(self.start)
        self.name_id.append(idx)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.request.append(self.request_id)
        self.end.append(0)
        self.stack.append(sid)
        self.child_ns.append(0)
        self.start.append(time.perf_counter_ns())
        return sid

    def _close(self, sid: int, idx: int) -> None:
        now = time.perf_counter_ns()
        self.end[sid] = now
        self.stack.pop()
        children = self.child_ns.pop()
        duration = now - self.start[sid]
        name = self.names[idx]
        self.calls[name] += 1
        self.self_ns[name] += duration - children
        if self.child_ns:
            self.child_ns[-1] += duration + self.overhead_ns

    @classmethod
    def calibrate(cls, calls: int = 2000, rounds: int = 7) -> "Tracer":
        """A tracer whose overhead_ns is the median cost a wrapped no-op
        adds to its parent beyond a plain call: wrapper entry and exit
        outside the child's own start and end stamps."""
        def noop():
            return None

        probe = cls()
        traced = probe._span_wrapper(len(probe.names) - 1, "")(noop)
        extra = []
        for _ in range(rounds):
            t0 = time.perf_counter_ns()
            for _ in range(calls):
                noop()
            plain = time.perf_counter_ns() - t0
            sid = probe._open(0)
            t0 = time.perf_counter_ns()
            for _ in range(calls):
                traced()
            wrapped = time.perf_counter_ns() - t0
            probe._close(sid, 0)
            inside = sum(probe.end[i] - probe.start[i] for i in range(sid + 1, len(probe.start)))
            extra.append((wrapped - inside - plain) / calls)
        return cls(max(round(statistics.median(extra)), 0))

    # -- output -----------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as CSV: id,parent,request,name,start_ns,end_ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write("id,parent,request,name,start_ns,end_ns\n")
            for sid in range(len(self.start)):
                fh.write(
                    f"{sid},{self.parent[sid]},{self.request[sid]},"
                    f"{self.names[self.name_id[sid]]},{self.start[sid]},{self.end[sid]}\n"
                )


def _observe_from_arcs(counts, args, result, exc) -> None:
    if exc is None:
        arcs = args[-1]
        counts["projective.arcs_in"] += len(arcs) if hasattr(arcs, "__len__") else 0
        counts["projective.arcs_out"] += _arc_count(result)


def _observe_union(counts, args, result, exc) -> None:
    if exc is None:
        counts["projective.arcs_in"] += _arc_count(args[0]) + _arc_count(args[1])
        counts["projective.arcs_out"] += _arc_count(result)


def _observe_reduce(counts, args, result, exc) -> None:
    counts["braids.letters_reduced"] += len(args[0].letters)


def _observe_twisted(counts, args, result, exc) -> None:
    if exc is not None and type(exc).__name__ == "UnknownTwistError":
        counts["patterns.twisted_facts.unknown"] += 1


_OBSERVERS = {
    "projective.SlopeSet.from_arcs": _observe_from_arcs,
    "projective.SlopeSet.union": _observe_union,
    "braids.braid_free_reduce": _observe_reduce,
    "patterns.PatternFacts.twisted_facts": _observe_twisted,
}
