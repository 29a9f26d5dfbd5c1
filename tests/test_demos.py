"""Every demo script runs to completion without writing to stderr, and
prints the lines pinned below."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# Lines a demo must print, each a whole line of its output.
PINNED = {
    "slope_circle.py": ["F_5 on [0,1]: 0/1 1/5 1/4 1/3 2/5 1/2 3/5 2/3 3/4 4/5 1/1"],
    "cover_certificate.py": [
        "pattern-side closed arc:     [1/2, inf] ∪ [-inf, 1/7]",
        "swap of s2: (1/2, inf] ∪ [-inf, 1/7)",
    ],
}


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs_cleanly(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONIOENCODING="utf-8")
    proc = subprocess.run(
        [sys.executable, str(script)],
        env=env,
        capture_output=True,
        encoding="utf-8",
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    lines = proc.stdout.splitlines()
    for line in PINNED.get(script.name, []):
        assert line in lines
