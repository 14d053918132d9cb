"""Benchmark configuration.

Table/figure benchmarks regenerate the paper's artifacts at full 24-hour
(or, for Figure 3, one-week) fidelity.  Each runs the experiment once via
``benchmark.pedantic`` -- the quantity of interest is the artifact and its
shape assertions, with wall time reported as a side benefit.  The
``repro.experiments.testbed`` run cache is shared across benches in one
session, so the six-host day is simulated once, not ten times.

Every :func:`run_once` benchmark also writes a structured
``BENCH_<name>.json`` run record under ``artifacts/bench/`` via
:mod:`repro.perf`, so ``scripts/check.sh`` leaves a perf trajectory
behind and ``nws-repro perf diff <baseline>`` can flag regressions
against a saved copy of that directory.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.perf import record

#: Seed used by every paper-artifact benchmark (same default as the CLI).
SEED = 7

#: Run records land at the repository root regardless of pytest's CWD.
BENCH_RECORD_DIR = Path(__file__).resolve().parent.parent / "artifacts" / "bench"


@pytest.fixture(scope="session")
def seed() -> int:
    return SEED


def _record_name(raw: str) -> str:
    """Sanitize a pytest benchmark name into a BENCH record name."""
    name = re.sub(r"[^A-Za-z0-9._-]+", "_", raw)
    name = name.removeprefix("test_bench_").removeprefix("test_")
    return name.strip("._-") or "bench"


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under the benchmark clock and return it.

    Also persists the measured wall time as a ``BENCH_<name>.json`` run
    record (best-effort: an unwritable artifacts directory must not fail
    the benchmark itself).  Under ``--benchmark-disable`` nothing is
    timed, so no record is written.
    """
    result = benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
    if benchmark.stats is None:
        return result
    try:
        record(
            _record_name(benchmark.name),
            benchmark.stats.stats.min,
            metric="wall_seconds",
            directory=BENCH_RECORD_DIR,
        )
    except OSError:
        pass
    return result
