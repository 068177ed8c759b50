"""The benchmark's own self-test, run with the suite: a package change that
breaks what ``perfbench`` calls, such as a renamed function or a renamed
parameter that ``perfbench/spans.py`` binds by name, fails here as well as
in a benchmark run."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_self_test_passes():
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "perfbench/test_bench.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
