"""The benchmark's own test: `python3 -m pytest bench` from the repo root.

Runs the smoke mode, which serves every workload at tiny sizes in both
modes, requires every metric of BENCHMARK.json with its unit, and
requires the output checker to reject corrupted reports.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_mode_passes():
    proc = subprocess.run([sys.executable, "bench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert "smoke: ok" in proc.stdout
