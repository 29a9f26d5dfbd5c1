"""Times in reference units, so that a shared machine's speed drops out.

The machine this benchmark was sized on changes speed by up to 1.6x, in
spells from under a second to longer than a whole run; CPU time slows
with wall time, so neither clock alone gives figures that two runs can
compare.  A fixed pure-Python task -- the benchmark's own slope
arithmetic from reference.py, the same kind of work as the library's
(small integers, gcd, cross-multiplication, sorting, text) -- is timed
between requests, and every request time is divided by the median of
the probes around it.  Multiplied by PROBE_REF_US, the probe's time when
that machine ran at full speed, the result reads as microseconds at that
speed.  On the sizing machine the ratio of a library request to the
probe moved by about 5 % while raw times moved by 60 %.

The probe uses no library code, so a change to the library moves the
ratio and not the probe.
"""

from __future__ import annotations

import statistics
import time
from functools import cmp_to_key

import reference as ref

# Probe time (us) on the sizing machine in a fast spell.
PROBE_REF_US = 130.0
# A probe runs once at least this much request time has passed since the
# last one.
PROBE_GAP_NS = 2_000_000
# A request is divided by the median of this many probes on each side.
WINDOW = 3

_POOL = [ref.norm(p, q) for q in range(1, 6) for p in range(-9, 10, 2)]
_KEY = cmp_to_key(ref.cmp)


def _task() -> int:
    pts = sorted({ref.norm(p * 3 + q, q * 5 - p) for p, q in _POOL if (p, q) != (0, 0)}, key=_KEY)
    mids = [ref.witness(a, b) for a, b in zip(pts, pts[1:])]
    text = " ∪ ".join(f"[{ref.slope_text(a)}, {ref.slope_text(b)})" for a, b in zip(pts, mids))
    return len(text) + sum(ref.cmp(a, b) for a, b in zip(mids, pts))


def probe_ns() -> int:
    t0 = time.perf_counter_ns()
    _task()
    return time.perf_counter_ns() - t0


class Clock:
    """Probes between requests; converts raw request times afterwards.

    Call mark() just before a request, done(raw_ns) just after; the pair
    (mark, raw_ns) converts with scaled() once the pass is over, when the
    probes after the request are known too.
    """

    ref_us = PROBE_REF_US

    def __init__(self) -> None:
        self.probes: list[int] = []
        self._since = PROBE_GAP_NS

    def mark(self) -> int:
        if self._since >= PROBE_GAP_NS:
            self.probes.append(probe_ns())
            self._since = 0
        return len(self.probes)

    def done(self, raw_ns: int) -> None:
        self._since += raw_ns

    def close(self) -> None:
        """Probe once more, so that the last requests have probes after them."""
        self.probes.append(probe_ns())
        self._since = 0

    def scaled(self, mark: int, raw_ns: int) -> float:
        """A request's raw time in reference ns, given the mark it ran after."""
        window = self.probes[max(mark - WINDOW, 0) : mark + WINDOW]
        return raw_ns * PROBE_REF_US * 1e3 / statistics.median(window)

    def around(self, fn):
        """Run fn(tick) and return its result and its time in reference ns.
        Each call of tick() that comes at least PROBE_GAP_NS after the last
        probe ends a segment and probes; the probes are not timed, and each
        segment is scaled like a request.  A long task thus follows the
        machine's speed as it changes, where probes at its two ends alone
        would not."""
        parts = []
        self._since = PROBE_GAP_NS
        mark = self.mark()
        t0 = time.perf_counter_ns()

        def tick():
            nonlocal mark, t0
            ns = time.perf_counter_ns() - t0
            if ns >= PROBE_GAP_NS:
                parts.append((mark, ns))
                self._since = PROBE_GAP_NS
                mark = self.mark()
                t0 = time.perf_counter_ns()

        out = fn(tick)
        parts.append((mark, time.perf_counter_ns() - t0))
        self.close()
        return out, sum(self.scaled(m, ns) for m, ns in parts)


class RawClock:
    """The Clock interface without probes: times stay raw ns.  The traced
    run uses it, since its wrapper costs are calibrated in raw ns."""

    def mark(self) -> int:
        return 0

    def done(self, raw_ns: int) -> None:
        pass

    def close(self) -> None:
        pass

    def scaled(self, mark: int, raw_ns: int) -> float:
        return raw_ns

    def around(self, fn):
        t0 = time.perf_counter_ns()
        out = fn(lambda: None)
        return out, time.perf_counter_ns() - t0
