"""lspacesat benchmark.

    python3 perfbench/run.py --workload cable_grid --seed 1 --seconds 20 --trace 0

Runs one workload (cable_grid, braid_patterns or slopeset_algebra) from the
root of a source checkout, importing the library from ./src.  With
--trace 0 it measures the end-to-end metrics; with --trace 1 it wraps the
public entry points of every layer and reports per-layer metrics instead.
Every output is checked; the last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.  Without ./src/lspacesat
it exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import math
import resource
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from clock import Clock, RawClock  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Rounds repeat until --seconds have passed, at least MIN_ROUNDS times.
# Times are in reference units (see clock.py), and each request keeps its
# median over the rounds, spread across the whole run.
MIN_ROUNDS = 3
# Set-up runs before the first round, after each round and then again
# until it has run this many times; setup_s is the median.
MIN_SETUPS = 5
# Tail percentile over the distinct requests of the top rung, for (write,
# read): the highest that leaves at least ten requests beyond it.  Fixed
# per workload so that runs compare.
TAIL_PCT = {
    "cable_grid": (99.0, 99.0),
    "braid_patterns": (90.0, 90.0),
    "slopeset_algebra": (87.5, 87.5),
}
OUT_DIR = HERE / "out"


class LibraryMissing(RuntimeError):
    pass


def import_library():
    """Import lspacesat afresh from ./src, dropping any earlier import."""
    src = ROOT / "src"
    if not (src / "lspacesat" / "__init__.py").is_file():
        raise LibraryMissing(f"no lspacesat package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "lspacesat" or m.startswith("lspacesat.")]:
        del sys.modules[name]
    pkg = importlib.import_module("lspacesat")
    cli = importlib.import_module("lspacesat.cli")
    if Path(pkg.__file__).resolve().parent != (src / "lspacesat").resolve():
        raise LibraryMissing(f"lspacesat imported from {pkg.__file__}, not from {src}")
    return pkg, cli


def set_up(name: str, seed: int, tiny: bool, clock=None):
    """Import, generate inputs, warm up.  Returns the workload and its
    seconds, in reference units when a Clock is given."""

    def build(tick):
        pkg, cli = import_library()
        tick()
        wl = WORKLOADS[name](pkg, cli, seed, tiny, tick)
        outs = []
        for item in _one_per_rung(wl, wl.write_items):
            outs.append(wl.write(item))
            tick()
        for item in _one_per_rung(wl, wl.read_items(outs)):
            wl.read(item)
            tick()
        return wl

    wl, ns = (clock or RawClock()).around(build)
    return wl, ns / 1e9


def _one_per_rung(wl, items):
    seen = {}
    for item in items:
        seen.setdefault(wl.rung(item), item)
    return list(seen.values())


@contextmanager
def gc_paused():
    """Collect garbage, then keep the collector off until the block ends.
    Collections fire at the same allocation counts on every round, so left
    on they would land on the same requests each time and no repeat would
    be free of them."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class Runner:
    """Runs rounds of one workload -- a write pass over every write request,
    a read pass over every read request, one CLI batch -- and tallies
    attempts and failures.  The first round is checked against the
    workload's references; later rounds must reproduce it exactly."""

    def __init__(self, wl, tracer=None, clock=None):
        self.wl = wl
        self.tracer = tracer
        self.clock = clock or RawClock()
        self.attempted = 0
        self.failures: list[str] = list(wl.errors)
        self.write_times: list[list[float]] = [[] for _ in wl.write_items]
        self.write_first: list = [None] * len(wl.write_items)
        self.read_items = None
        self.read_times: list[list[float]] = []
        self.read_first: list = []
        self.cli_calls = wl.cli_calls()
        self.cli_times: list[list[float]] = [[] for _ in self.cli_calls]
        self.cli_first: list = [None] * len(self.cli_calls)

    @property
    def write_outs(self):
        return [out for out in self.write_first if out is not None]

    @property
    def read_outs(self):
        return [out for out in self.read_first if out is not None]

    @property
    def cli_outs(self):
        return [out for out in self.cli_first if out is not None]

    def _next_request(self) -> None:
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.request_id = self.attempted

    def _pass(self, items, call, check, times, first) -> None:
        clock = self.clock
        raw = []
        for i, item in enumerate(items):
            self._next_request()
            mark = clock.mark()
            t0 = time.perf_counter_ns()
            try:
                out = call(item)
            except Exception as exc:  # a failed request is counted, not fatal
                self.failures.append(f"{type(exc).__name__}: {exc}")
                continue
            ns = time.perf_counter_ns() - t0
            clock.done(ns)
            raw.append((i, mark, ns))
            if not times[i]:
                err = check(item, out)
                if err:
                    self.failures.append(err)
                else:
                    first[i] = out
            elif out != first[i]:
                self.failures.append(f"request {i}: output differs from its first run")
            times[i].append(ns)  # replaced by its scaled time below
        clock.close()
        for i, mark, ns in raw:
            times[i][-1] = clock.scaled(mark, ns)

    def write_pass(self) -> None:
        wl = self.wl
        self._pass(wl.write_items, wl.write, wl.check_write, self.write_times, self.write_first)

    def read_pass(self) -> None:
        if self.read_items is None:
            self.read_items = self.wl.read_items(self.write_outs)
            self.read_times = [[] for _ in self.read_items]
            self.read_first = [None] * len(self.read_items)
        wl = self.wl
        self._pass(self.read_items, wl.read, wl.check_read, self.read_times, self.read_first)

    def _cli(self, call):
        buf = io.StringIO()
        code = self.wl.cli.main(call[1], out=buf)
        return code, buf.getvalue().strip()

    def cli_batch(self) -> None:
        self._pass(
            self.cli_calls,
            self._cli,
            lambda call, out: self.wl.check_cli(call[0], *out),
            self.cli_times,
            self.cli_first,
        )

    def round(self) -> None:
        with gc_paused():
            self.write_pass()
            self.read_pass()
            self.cli_batch()

    def busy_s(self) -> float:
        """Time spent inside requests, leaving out the benchmark's own checks."""
        times = self.write_times + self.read_times + self.cli_times
        return sum(map(sum, times)) / 1e9


# -- statistics -------------------------------------------------------------


def percentile(sorted_values, pct: float):
    """Nearest-rank percentile of an ascending list."""
    k = max(math.ceil(pct / 100 * len(sorted_values)), 1)
    return sorted_values[k - 1]


def typical_times(wl, items, times):
    """Per rung, each request's median time over the rounds (ns)."""
    out = defaultdict(list)
    for item, ts in zip(items, times):
        if ts:
            out[wl.rung(item)].append(statistics.median(ts))
    return out


def summarize(samples_ns, tail_pct: float) -> dict:
    """Latency figures over requests; per_s is one pass, each request at
    its median."""
    xs = sorted(samples_ns)
    n = len(xs)
    return {
        "n": n,
        "p50_us": statistics.median(xs) / 1e3,
        "tail_us": percentile(xs, tail_pct) / 1e3,
        "tail_pct": tail_pct,
        "beyond": n - max(math.ceil(tail_pct / 100 * n), 1),
        "mean_us": statistics.fmean(xs) / 1e3,
        "per_s": n / (sum(xs) / 1e9),
    }


def scaling_exponent(samples_by_rung) -> float | None:
    """Least-squares slope of log(median time) against log(size)."""
    pts = [
        (math.log(n), math.log(statistics.median(xs)))
        for n, xs in samples_by_rung.items()
        if n > 0 and xs
    ]
    if len(pts) < 2:
        return None
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sum((x - mx) ** 2 for x, _ in pts)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


# -- measured run -----------------------------------------------------------


def measure(name: str, seed: int, seconds: float, tiny: bool = False):
    clock = Clock()
    wl, took = set_up(name, seed, tiny, clock)
    setup_times = [took]
    runner = Runner(wl, clock=clock)
    start = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
        runner.round()
        rounds += 1
        # Set-up again after every round, so that its median spans the run.
        setup_times.append(set_up(name, seed, tiny, clock)[1])
    while len(setup_times) < MIN_SETUPS:
        setup_times.append(set_up(name, seed, tiny, clock)[1])
    write_samples = typical_times(wl, wl.write_items, runner.write_times)
    read_samples = typical_times(wl, runner.read_items, runner.read_times)

    write_tail, read_tail = TAIL_PCT[name]
    top_w, top_r = max(write_samples), max(read_samples)
    w = summarize(write_samples[top_w], write_tail)
    r = summarize(read_samples[top_r], read_tail)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "write_per_s": (w["per_s"], "req/s"),
        "write_p50_us": (w["p50_us"], "us"),
        "write_tail_us": (w["tail_us"], "us"),
        "read_per_s": (r["per_s"], "req/s"),
        "read_p50_us": (r["p50_us"], "us"),
        "read_tail_us": (r["tail_us"], "us"),
        "cli_s": (sum(map(statistics.median, runner.cli_times)) / 1e9, "s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }
    probes = sorted(clock.probes)
    report = [
        f"workload {name}  seed {seed}  seconds {seconds}",
        f"{len(probes)} probes: min {probes[0] / 1e3:.1f}  median {statistics.median(probes) / 1e3:.1f}  "
        f"max {probes[-1] / 1e3:.1f} us; every time below is scaled to a "
        f"{clock.ref_us:g} us probe",
        f"set-ups {len(setup_times)}: " + " ".join(f"{t:.4f}" for t in setup_times) + " s",
        f"discarded invalid draws {wl.discarded}",
        f"rounds {rounds}: each figure below is over distinct requests, "
        "each at its median over the rounds",
    ]
    for kind, s, top in (("write", w, top_w), ("read", r, top_r)):
        rung = f" at rung {top}" if top else ""
        short = "" if s["beyond"] >= 10 else "  (fewer than 10 requests beyond)"
        report.append(
            f"{kind}{rung}: {s['n']} requests  p50={s['p50_us']:.1f} us  "
            f"p{s['tail_pct']:g}={s['tail_us']:.1f} us ({s['beyond']} beyond){short}  "
            f"mean={s['mean_us']:.1f} us  {s['per_s']:.2f} req/s"
        )
    for kind, samples in (("write", write_samples), ("read", read_samples)):
        exp = scaling_exponent(samples)
        if exp is not None:
            rungs = "  ".join(
                f"{n}:{statistics.median(xs) / 1e3:.1f}us" for n, xs in sorted(samples.items())
            )
            report.append(f"{kind} scaling exponent {exp:.3f}  (median per rung {rungs})")
    report.append(
        f"cli batch of {len(runner.cli_times)} calls, each at its median: "
        f"{metrics['cli_s'][0]:.4f} s; at its fastest: "
        f"{sum(map(min, runner.cli_times)) / 1e9:.4f} s"
    )
    return runner, metrics, report


# -- traced run -------------------------------------------------------------


def trace(name: str, seed: int, tiny: bool = False, out_dir: Path = OUT_DIR):
    wl, _ = set_up(name, seed, tiny)
    for _ in range(2):  # the first untraced round warms up, the second is timed
        plain = Runner(wl)
        plain.round()

    tracer = tracing.Tracer.calibrate()
    tracer.install()
    try:
        t0 = time.perf_counter()
        traced_wl = WORKLOADS[name](wl.pkg, wl.cli, seed, tiny)
        setup_wall = time.perf_counter() - t0
        runner = Runner(traced_wl, tracer)
        runner.attempted += plain.attempted
        runner.failures += plain.failures
        before, spans_before = dict(tracer.self_ns), len(tracer.start)
        with gc_paused():
            runner.write_pass()
            write_self = {k: v - before.get(k, 0) for k, v in tracer.self_ns.items()}
            write_spans = len(tracer.start) - spans_before
            runner.read_pass()
            runner.cli_batch()
    finally:
        tracer.uninstall()
    plain_busy, traced_busy = plain.busy_s(), runner.busy_s()
    # Denominators leave out the wrapper cost the spans themselves added.
    write_ns = sum(map(sum, runner.write_times)) - write_spans * tracer.overhead_ns
    total_ns = (setup_wall + traced_busy) * 1e9 - len(tracer.start) * tracer.overhead_ns

    for kind in ("write_outs", "read_outs", "cli_outs"):
        if getattr(runner, kind) != getattr(plain, kind):
            runner.failures.append(f"traced {kind} differ from the untraced run")
    for missing in tracer.missing:
        runner.failures.append(f"entry point {missing} not found")

    metrics = {}
    for span in tracer.names:
        metrics[f"{span}.calls"] = (tracer.calls[span], "count")
        metrics[f"{span}.self_pct"] = (100 * tracer.self_ns[span] / total_ns, "%")
    for layer in tracing.LAYERS:
        ns = sum(v for k, v in write_self.items() if k.startswith(layer + "."))
        metrics[f"{layer}.write_pct"] = (100 * ns / write_ns, "%")
    counts = tracer.counts
    twisted_calls = tracer.calls["patterns.PatternFacts.twisted_facts"]
    unknown = counts["patterns.twisted_facts.unknown"]
    verdicts, gaps = traced_wl.verdicts(runner.write_outs)
    metrics.update(
        {
            "slopes.slope_ccw.calls": (counts["slopes.slope_ccw.calls"], "count"),
            "projective.Arc.contains.calls": (counts["projective.Arc.contains.calls"], "count"),
            "projective.arcs_in": (counts["projective.arcs_in"], "count"),
            "projective.arcs_out": (counts["projective.arcs_out"], "count"),
            "braids.letters_reduced": (counts["braids.letters_reduced"], "count"),
            "patterns.twisted_facts.unknown": (unknown, "count"),
            "patterns.twisted_facts.answered_ratio": (
                (twisted_calls - unknown) / twisted_calls if twisted_calls else 0.0,
                "ratio",
            ),
            "certify.verdict.CERTIFIED": (verdicts["CERTIFIED"], "count"),
            "certify.verdict.NOT_CERTIFIED": (verdicts["NOT_CERTIFIED"], "count"),
            "certify.verdict.REJECTED": (verdicts["REJECTED"], "count"),
            "certify.gap": (gaps, "count"),
            "trace.overhead_ratio": (traced_busy / plain_busy, "ratio"),
        }
    )
    path = out_dir / f"trace-{name}-{seed}.csv.gz"
    tracer.write(path)
    report = [
        f"workload {name}  seed {seed}  traced",
        f"time in requests: untraced {plain_busy:.3f} s, traced {traced_busy:.3f} s; "
        f"traced set-up {setup_wall:.3f} s, {len(tracer.start)} spans "
        f"({tracer.overhead_ns} ns wrapper cost each) -> {path}",
        "write-phase self time by layer: "
        + "  ".join(f"{layer} {metrics[f'{layer}.write_pct'][0]:.1f}%" for layer in tracing.LAYERS),
    ]
    return runner, metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.trace:
            runner, metrics, report = trace(args.workload, args.seed)
        else:
            runner, metrics, report = measure(args.workload, args.seed, args.seconds)
    except LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in report:
        print(line)
    failed = len(runner.failures)
    print(f"attempted {runner.attempted}  failed {failed}  error_rate {failed / max(runner.attempted, 1):.6f}")
    for msg in runner.failures[:10]:
        print(f"FAILED: {msg}")
    for key, (value, unit) in metrics.items():
        print(f"{key:48s} {value:>16.6f} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": runner.attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
