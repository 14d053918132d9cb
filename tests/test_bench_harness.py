"""The benchmark harness runs with timing switched off.

``pytest --benchmark-disable`` runs each benchmark body once without
timing it, so ``benchmark.stats`` is None; ``run_once`` must then skip
its run record instead of crashing.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_module_runs_with_benchmark_disable():
    src = str(ROOT / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "--benchmark-disable", "benchmarks/bench_extension_smp.py",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
