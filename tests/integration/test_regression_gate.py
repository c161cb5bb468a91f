"""The CI regression gate (``benchmarks/check_regression.py``) on the step ratio."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
GATE = ROOT / "benchmarks" / "check_regression.py"
BASELINE = ROOT / "BENCH_micro.json"


@pytest.mark.parametrize("step_ratio, exit_code", [(None, 0), (1.0, 1)])
def test_step_gate_fails_when_the_tape_stops_engaging(tmp_path, step_ratio, exit_code):
    """The committed numbers pass against themselves. A compiled step no
    faster than eager (a tape that stopped engaging) fails on the hard
    floor, although it is within 2x of the committed ratio."""
    current = json.loads(BASELINE.read_text())
    if step_ratio is not None:
        current["step_level"]["speedup_vs_eager"] = step_ratio
    path = tmp_path / "current.json"
    path.write_text(json.dumps(current))
    run = subprocess.run(
        [sys.executable, str(GATE), str(BASELINE), str(path)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == exit_code, run.stdout + run.stderr
