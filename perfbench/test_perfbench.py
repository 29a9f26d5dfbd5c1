"""Self-test of the benchmark at tiny sizes, so that it cannot rot.

    python3 -m pytest perfbench -q

No absolute time bounds: only that every workload runs, every check
passes, every metric named in BENCHMARK.json is reported, and the
checks do catch a wrong output.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import reference as ref
import run
from clock import Clock
from clock import _task as clock_task
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_measured_run_reports_every_end_to_end_metric(name):
    runner, metrics, _ = run.measure(name, seed=3, seconds=0.05, tiny=True)
    assert runner.failures == []
    assert runner.attempted > 0
    for metric in SPEC["end_to_end"]:
        value, unit = metrics[metric["name"]]
        assert unit == metric["unit"]
        assert value > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(name, tmp_path):
    runner, metrics, _ = run.trace(name, seed=3, tiny=True, out_dir=tmp_path)
    assert runner.failures == []
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    assert list(tmp_path.glob("trace-*.csv.gz"))
    braid_calls = sum(v for k, (v, _) in metrics.items() if k.startswith("braids.") and k.endswith(".calls"))
    if name == "cable_grid":
        assert braid_calls == 0
    if name == "braid_patterns":
        assert braid_calls > 0


def test_same_seed_same_inputs():
    pkg, cli = run.import_library()
    for cls in WORKLOADS.values():
        a, b = cls(pkg, cli, 7, tiny=True), cls(pkg, cli, 7, tiny=True)
        assert [a.rung(x) for x in a.write_items] == [b.rung(x) for x in b.write_items]
        assert [a.write(x) for x in a.write_items] == [b.write(x) for x in b.write_items]


def test_checks_reject_wrong_outputs():
    pkg, cli = run.import_library()
    cable = WORKLOADS["cable_grid"](pkg, cli, 1, tiny=True)
    item = next(x for x in cable.write_items if x[0] == "trefoil" and x[3] > 2 * x[2])
    out = cable.write(item)
    assert cable.check_write(item, out) is None
    forged = dataclasses.replace(out.certificate, verdict="NOT_CERTIFIED")
    assert cable.check_write(item, dataclasses.replace(out, certificate=forged))

    sets = WORKLOADS["slopeset_algebra"](pkg, cli, 1, tiny=True)
    req = sets.text_items[0]
    covered, text, s1, s2 = sets.read(req)
    assert sets.check_read(req, (covered, text, s1, s2)) is None
    assert sets.check_read(req, (not covered, text, s1, s2))
    assert sets.check_read(req, (covered, "EMPTY", s1, s2))


def test_clock_scales_the_probe_to_its_reference_time():
    clock = Clock()

    def probes(tick):
        for _ in range(40):
            clock_task()
            tick()

    _, ns = clock.around(probes)
    # 40 probe tasks, each scaled by probes of the same task: about 40
    # reference probes, whatever the machine's speed.
    assert 0.5 < ns / (40 * clock.ref_us * 1e3) < 2


def test_reference_arithmetic():
    assert ref.norm(-2, -4) == (1, 2) and ref.norm(3, 0) == ref.INF
    assert ref.swap((2, 3)) == (3, 2) and ref.swap((0, 1)) == ref.INF
    s = ref.read_set("[1/2, inf] ∪ [-inf, -1/1)")
    assert s.contains(ref.INF) and s.contains((1, 1)) and not s.contains((0, 1))
    assert not s.contains((-1, 1)) and s.contains((-2, 1))
    assert ref.interior_contains(ref.read_set("[0/1, 1/1] ∪ [1/1, 2/1]"), (1, 1))
    assert not ref.interior_contains(ref.read_set("[0/1, 1/1]"), (1, 1))


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cable_grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
