"""The benchmark's per-layer spans against the package: every span that
bench/run.py's PER_LAYER sums must be one that bench/tracer.py installs, or
the benchmark reports it as missing. Checked without running a workload."""

import os
import subprocess
import sys

from tests.cli_contract import REPO

_SCRIPT = """
import sys
sys.path.insert(0, "bench")
import k3seg, run, tracer
traced = tracer.Tracer()
traced.install(k3seg)
spans = {
    run.span_base(part)
    for _, _, kind, keys in run.PER_LAYER if kind in ("self_ms", "calls")
    for key in keys for part in key.split(">")
}
missing = sorted(spans - traced.installed)
print(" ".join(missing))
sys.exit(1 if missing else 0)
"""


def test_every_per_layer_span_is_installed():
    # a separate process: install rebinds the package's functions
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT], cwd=REPO, env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert done.returncode == 0, "not installed: " + done.stdout + done.stderr
