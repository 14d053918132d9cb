"""Runner engine benchmarks: parallel speedup and cache-hit latency.

Two contracts worth numbers:

* fanning cache misses across worker processes must actually pay for the
  pool (>= 1.5x on two balanced hosts when two CPUs exist), while staying
  bit-identical to the serial path;
* serving a warm on-disk cache entry must be at least an order of
  magnitude cheaper than re-simulating -- otherwise the cache is
  decoration.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from benchmarks.conftest import run_once
from repro.experiments.testbed import DAY, TestbedConfig
from repro.runner import Runner

#: The two most evenly matched hosts (similar per-day simulation cost),
#: so a 2-way fan-out can approach its ideal 2x.
HOSTS = ("thing1", "conundrum")


def _identical(a, b) -> None:
    for run_a, run_b in zip(a, b):
        assert run_a.host == run_b.host
        for method in run_a.series:
            np.testing.assert_array_equal(
                run_a.series[method].values, run_b.series[method].values
            )
        np.testing.assert_array_equal(run_a.observed(), run_b.observed())


def test_parallel_speedup(benchmark):
    """2-host fan-out: >= 1.5x over serial, byte-identical results."""
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("parallel speedup needs >= 2 CPUs")
    # Long enough that per-host simulation dwarfs pool start-up; a seed
    # no other bench uses, so nothing is pre-memoized anywhere.
    config = TestbedConfig(duration=2 * DAY, seed=4099)

    def fan_out():
        with Runner(jobs=2) as runner:
            return runner.run(HOSTS, config)

    start = time.perf_counter()
    parallel = run_once(benchmark, fan_out)
    parallel_s = time.perf_counter() - start

    start = time.perf_counter()
    serial = Runner(jobs=1).run(HOSTS, config)
    serial_s = time.perf_counter() - start

    _identical(serial, parallel)
    speedup = serial_s / parallel_s
    print()
    print(f"serial   {serial_s:8.3f} s")
    print(f"parallel {parallel_s:8.3f} s   speedup {speedup:.2f}x")
    assert speedup >= 1.5, f"parallel speedup {speedup:.2f}x < 1.5x"


def test_parallel_matches_serial_on_one_cpu(benchmark):
    """The identity contract holds even where the speedup bench skips."""
    config = TestbedConfig(duration=3 * 3600.0, seed=4099)
    with Runner(jobs=2) as runner:
        parallel = run_once(benchmark, runner.run, HOSTS, config)
    serial = Runner(jobs=1).run(HOSTS, config)
    _identical(serial, parallel)


def test_cache_hit_speedup(benchmark, tmp_path):
    """Warm disk hits >= 10x faster than simulating, per batch."""
    config = TestbedConfig(duration=12 * 3600.0, seed=5003)
    cache_dir = tmp_path / "cache"

    def simulate_cold():
        return Runner(cache=cache_dir).run(HOSTS, config)

    start = time.perf_counter()
    cold = run_once(benchmark, simulate_cold)
    simulate_s = time.perf_counter() - start

    # Fresh Runner per round models a fresh interpreter: only the files
    # on disk carry over.  min-of-3 shakes off filesystem cache warm-up.
    hit_s = float("inf")
    for _ in range(3):
        runner = Runner(cache=cache_dir)
        start = time.perf_counter()
        warm = runner.run(HOSTS, config)
        hit_s = min(hit_s, time.perf_counter() - start)
        assert runner.stats.misses == 0, "expected pure disk hits"
    _identical(cold, warm)

    speedup = simulate_s / hit_s
    print()
    print(f"simulate {simulate_s:8.3f} s")
    print(f"disk hit {hit_s:8.3f} s   speedup {speedup:.1f}x")
    assert speedup >= 10.0, f"cache hit speedup {speedup:.1f}x < 10x"
