"""The benchmark's own check: ``python3 -m pytest bench``.

Runs ``bench/run.py --smoke``: one input per workload, traced and untraced,
every metric declared in BENCHMARK.json emitted, no operation failed.
"""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke():
    proc = subprocess.run([sys.executable, str(RUN), "--smoke"], cwd=RUN.parent.parent,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
