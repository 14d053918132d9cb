"""Tests for repro.runner: facade forms, parallelism, layering, metrics."""

from __future__ import annotations

import multiprocessing
import os

import numpy as np
import pytest

from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.cli import main
from repro.experiments.testbed import HostRun, TestbedConfig
from repro.obs.metrics import MetricsRegistry, installed
from repro.runner import HostSimulationError, Runner, default_runner, parallel_map
from repro.runner import engine
from repro.workload.profiles import profile_names

#: Tiny config for tests that must actually simulate (not hit the shared
#: memo): half an hour past warmup keeps each run well under 100 ms.
TINY = TestbedConfig(duration=1800.0, seed=31)

#: A second, longer config, so prefetches span several configs.
LONGER = TINY.derive(duration=2400.0)


def same_run(a: HostRun, b: HostRun) -> None:
    assert a.host == b.host
    assert a.config == b.config
    assert set(a.series) == set(b.series)
    for method in a.series:
        np.testing.assert_array_equal(a.series[method].times, b.series[method].times)
        np.testing.assert_array_equal(a.series[method].values, b.series[method].values)
    assert len(a.observations) == len(b.observations)
    np.testing.assert_array_equal(a.observed(), b.observed())
    for method in a.series:
        np.testing.assert_array_equal(
            a.premeasurements(method), b.premeasurements(method)
        )


class TestFacadeForms:
    def test_single_name_returns_hostrun(self):
        run = Runner().run("thing1", TINY)
        assert isinstance(run, HostRun)
        assert run.host == "thing1"

    def test_iterable_preserves_order(self):
        runs = Runner().run(("conundrum", "thing1"), TINY)
        assert [r.host for r in runs] == ["conundrum", "thing1"]

    def test_none_means_full_testbed_in_table_order(self, short_config):
        runs = default_runner().run(None, short_config)
        assert [r.host for r in runs] == profile_names()

    def test_duplicate_hosts_simulated_once(self):
        runner = Runner()
        runs = runner.run(("thing1", "thing1"), TINY)
        assert runs[0] is runs[1]
        assert runner.stats.misses == 1

    def test_run_one(self):
        runner = Runner()
        assert runner.run_one("thing1", TINY).host == "thing1"

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            Runner(jobs=0)


class TestParallelIdentity:
    def test_parallel_matches_serial_bitwise(self):
        serial = Runner(jobs=1).run(("thing1", "conundrum"), TINY)
        with Runner(jobs=2) as runner:
            parallel = runner.run(("thing1", "conundrum"), TINY)
        for s, p in zip(serial, parallel):
            same_run(s, p)

    def test_parallel_map_preserves_order(self):
        assert parallel_map(abs, [-3, 1, -2], jobs=2) == [3, 1, 2]

    def test_parallel_map_serial_path(self):
        assert parallel_map(abs, [-3], jobs=4) == [3]


class TestLayering:
    def test_memoization_returns_same_object(self):
        runner = Runner()
        a = runner.run("thing1", TINY)
        b = runner.run("thing1", TINY)
        assert a is b
        assert runner.stats.memory_hits == 1
        assert runner.stats.misses == 1

    def test_disk_cache_shared_across_runners(self, tmp_path):
        first = Runner(cache=tmp_path / "cache")
        run = first.run("thing1", TINY)
        second = Runner(cache=tmp_path / "cache")
        again = second.run("thing1", TINY)
        assert second.stats.disk_hits == 1
        assert second.stats.misses == 0
        same_run(run, again)

    def test_clear_memory_forces_disk_hit(self, tmp_path):
        runner = Runner(cache=tmp_path / "cache")
        runner.run("thing1", TINY)
        runner.clear_memory()
        runner.run("thing1", TINY)
        assert runner.stats.disk_hits == 1
        assert runner.stats.misses == 1

    def test_clear_disk_reports_removed(self, tmp_path):
        runner = Runner(cache=tmp_path / "cache")
        runner.run(("thing1", "conundrum"), TINY)
        assert runner.clear_disk() == 2
        assert runner.clear_disk() == 0

    def test_no_cache_runner_clear_disk_is_zero(self):
        assert Runner().clear_disk() == 0

    def test_stats_summary_format(self):
        runner = Runner()
        runner.run("thing1", TINY)
        summary = runner.stats.summary()
        assert "misses=1" in summary
        assert "sim_seconds=" in summary


def _flaky_simulate_one(failures: int):
    """A `_simulate_one` stand-in that fails ``failures`` times, then works."""
    real = engine._simulate_one
    remaining = {"n": failures}

    def job(name, config):
        if remaining["n"] > 0:
            remaining["n"] -= 1
            raise OSError(f"worker for {name} died")
        return real(name, config)

    return job


class _BrokenPool:
    """ProcessPoolExecutor stand-in whose every future is already broken."""

    def __init__(self, max_workers=None):
        self.shut_down = False

    def shutdown(self, wait=True, *, cancel_futures=False):
        self.shut_down = True

    def submit(self, fn, *args, **kwargs):
        future = Future()
        future.set_exception(BrokenProcessPool("a child process terminated"))
        return future


class _DeadPool(_BrokenPool):
    """A pool whose worker died before the submit: ``submit`` raises."""

    def submit(self, fn, *args, **kwargs):
        raise BrokenProcessPool("a child process terminated")


_PARENT_PID = os.getpid()
_real_simulate_host = engine.simulate_host


def _fails_in_workers(name, config):
    """``simulate_host`` stand-in that raises in pool workers only.

    Workers fork from the parent, so they inherit it once it is patched
    into :mod:`repro.runner.engine`; the in-process retry then succeeds.
    """
    if os.getpid() != _PARENT_PID:
        raise OSError(f"worker for {name} died")
    return _real_simulate_host(name, config)


needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="workers inherit the patched simulate_host only when forked",
)


class TestRetries:
    def test_serial_failure_retried_and_counted(self, monkeypatch):
        monkeypatch.setattr(engine, "_simulate_one", _flaky_simulate_one(1))
        with installed(MetricsRegistry()) as registry:
            runner = Runner()
            run = runner.run_one("thing1", TINY)
        assert run.host == "thing1"
        assert runner.stats.retries == 1
        assert "retries=1" in runner.stats.summary()
        snap = registry.snapshot()
        assert snap["repro_runner_retries_total"]["samples"][0]["value"] == 1.0

    def test_retried_result_is_bit_identical(self, monkeypatch):
        clean = Runner().run_one("thing1", TINY)
        monkeypatch.setattr(engine, "_simulate_one", _flaky_simulate_one(2))
        retried = Runner().run_one("thing1", TINY)
        same_run(clean, retried)

    def test_exhausted_retries_name_the_host(self, monkeypatch):
        def always_fail(name, config):
            raise OSError(f"worker for {name} died")

        monkeypatch.setattr(engine, "_simulate_one", always_fail)
        runner = Runner()
        with pytest.raises(HostSimulationError, match="'conundrum'") as info:
            runner.run_one("conundrum", TINY)
        assert info.value.host == "conundrum"
        assert info.value.attempts == engine.MAX_HOST_RETRIES + 1
        assert runner.stats.retries == engine.MAX_HOST_RETRIES

    def test_broken_pool_falls_back_to_in_process(self, monkeypatch):
        clean = Runner(jobs=1).run(("thing1", "conundrum"), TINY)
        monkeypatch.setattr(engine, "ProcessPoolExecutor", _BrokenPool)
        with Runner(jobs=2) as runner:
            runs = runner.run(("thing1", "conundrum"), TINY)
        # Pool attempts count against the budget: one retry per host.
        assert runner.stats.retries == 2
        for c, r in zip(clean, runs):
            same_run(c, r)

    def test_broken_pool_prefetch_falls_back_to_in_process(self, monkeypatch):
        clean = Runner(jobs=1).run(("thing1", "conundrum"), TINY)
        pools = []

        def make_pool(max_workers=None):
            pools.append(_BrokenPool(max_workers))
            return pools[-1]

        monkeypatch.setattr(engine, "ProcessPoolExecutor", make_pool)
        with Runner(jobs=2) as runner:
            runner.prefetch([(("thing1", "conundrum"), TINY)])
            runs = runner.run(("thing1", "conundrum"), TINY)
            again = runner.run_one("kongo", TINY)
        # One pool serves both calls, and close() shuts it down.
        assert len(pools) == 1 and pools[0].shut_down
        assert runner.stats.retries == 3
        assert again.host == "kongo"
        for c, r in zip(clean, runs):
            same_run(c, r)

    def test_dead_pool_is_replaced_at_the_next_submit(self, monkeypatch):
        pools = []

        def make_pool(max_workers=None):
            if pools:
                pools.append(ProcessPoolExecutor(max_workers=max_workers))
            else:
                pools.append(_DeadPool(max_workers))
            return pools[-1]

        monkeypatch.setattr(engine, "ProcessPoolExecutor", make_pool)
        with installed(MetricsRegistry()) as registry:
            with Runner(jobs=2) as runner:
                run = runner.run_one("thing1", TINY)
        assert run.host == "thing1"
        assert len(pools) == 2 and pools[0].shut_down
        assert runner.stats.retries == 0
        sims = {
            s["labels"]["mode"]: s["value"]
            for s in registry.snapshot()["repro_runner_simulations_total"]["samples"]
        }
        assert sims == {"parallel": 1.0, "serial": 0.0}

    @needs_fork
    def test_worker_failure_after_prefetch_retried_in_process(self, monkeypatch):
        clean = Runner(jobs=1).run(("thing1", "conundrum"), TINY)
        monkeypatch.setattr(engine, "simulate_host", _fails_in_workers)
        with Runner(jobs=2) as runner:
            runner.prefetch([(("thing1", "conundrum"), TINY)])
            runs = runner.run(("thing1", "conundrum"), TINY)
        assert runner.stats.retries == 2
        assert runner.stats.misses == 2
        for c, r in zip(clean, runs):
            same_run(c, r)


class TestRunnerMetrics:
    def test_counters_track_cache_outcomes(self, tmp_path):
        registry = MetricsRegistry()
        with installed(registry):
            runner = Runner(cache=tmp_path / "cache")
            runner.run("thing1", TINY)
            runner.run("thing1", TINY)
        snap = registry.snapshot()
        misses = snap["repro_runner_cache_misses_total"]["samples"]
        assert misses[0]["value"] == 1.0
        hits = {
            s["labels"]["layer"]: s["value"]
            for s in snap["repro_runner_cache_hits_total"]["samples"]
        }
        assert hits["memory"] == 1.0
        assert snap["repro_runner_jobs"]["samples"][0]["value"] == 1.0
        hist = snap["repro_runner_host_seconds"]["samples"][0]
        assert hist["labels"]["host"] == "thing1"
        assert hist["count"] == 1


def _counts(stats) -> tuple:
    return (
        stats.memory_hits,
        stats.disk_hits,
        stats.misses,
        stats.corrupt,
        stats.retries,
        stats.snapshot_errors,
    )


class TestPrefetch:
    REQUESTS = [(("thing1", "conundrum"), TINY), (None, LONGER), ("thing1", TINY)]

    def _consume(self, runner):
        return [
            *runner.run(("thing1", "conundrum"), TINY),
            *runner.run(None, LONGER),
            *runner.run(("conundrum", "thing1"), TINY),
        ]

    def test_prefetch_then_run_matches_plain_serial(self):
        plain = Runner(jobs=1)
        expected = self._consume(plain)
        with Runner(jobs=2) as runner:
            runner.prefetch(self.REQUESTS)
            assert runner.stats.misses == 2 + len(profile_names())
            runs = self._consume(runner)
        assert _counts(runner.stats) == _counts(plain.stats)
        for e, r in zip(expected, runs):
            same_run(e, r)

    def test_serial_prefetch_defers_simulation_to_run(self):
        runner = Runner(jobs=1)
        runner.prefetch([("thing1", TINY)])
        assert runner.stats.misses == 1
        assert runner.stats.sim_seconds == 0.0
        runner.run_one("thing1", TINY)
        assert runner.stats.sim_seconds > 0.0
        assert _counts(runner.stats) == (0, 0, 1, 0, 0, 0)

    def test_longest_duration_submitted_first(self, monkeypatch):
        submitted = []
        real = Runner._submit

        def spy(self, name, config):
            submitted.append((name, config.duration))
            return real(self, name, config)

        monkeypatch.setattr(Runner, "_submit", spy)
        Runner().prefetch(self.REQUESTS)
        names = profile_names()
        assert submitted == [(n, LONGER.duration) for n in names] + [
            ("thing1", TINY.duration),
            ("conundrum", TINY.duration),
        ]

    def test_disk_hits_counted_once(self, tmp_path):
        Runner(cache=tmp_path / "cache").run(("thing1", "conundrum"), TINY)
        runner = Runner(cache=tmp_path / "cache")
        runner.prefetch([(("thing1", "conundrum"), TINY)])
        runner.run(("thing1", "conundrum"), TINY)
        assert _counts(runner.stats) == (0, 2, 0, 0, 0, 0)
        runner.run("thing1", TINY)
        assert runner.stats.memory_hits == 1


class TestPoolLifetime:
    def test_close_stops_every_worker(self):
        before = set(multiprocessing.active_children())
        with Runner(jobs=2) as runner:
            runner.prefetch([(("thing1", "conundrum"), TINY)])
            assert set(multiprocessing.active_children()) - before
        assert not set(multiprocessing.active_children()) - before
        runner.close()  # idempotent

    def test_exception_in_with_block_stops_every_worker(self):
        before = set(multiprocessing.active_children())
        with pytest.raises(RuntimeError, match="boom"):
            with Runner(jobs=2) as runner:
                runner.prefetch([(("thing1", "conundrum"), TINY)])
                raise RuntimeError("boom")
        assert not set(multiprocessing.active_children()) - before

    def test_cold_report_simulates_only_prefetched_runs(self, monkeypatch, tmp_path):
        submitted_in_prefetch = []
        unconsumed = []
        in_prefetch = False
        real_prefetch, real_submit, real_close = (
            Runner.prefetch,
            Runner._submit,
            Runner.close,
        )

        def prefetch(self, requests):
            nonlocal in_prefetch
            in_prefetch = True
            try:
                real_prefetch(self, requests)
            finally:
                in_prefetch = False

        def submit(self, name, config):
            submitted_in_prefetch.append(in_prefetch)
            return real_submit(self, name, config)

        def close(self):
            unconsumed.append(dict(self._prefetched))
            real_close(self)

        monkeypatch.setattr(Runner, "prefetch", prefetch)
        monkeypatch.setattr(Runner, "_submit", submit)
        monkeypatch.setattr(Runner, "close", close)
        rc = main(
            [
                "report", str(tmp_path), "--hours", "2", "--figure3-days", "0.1",
                "--jobs", "2", "--no-cache",
            ]
        )
        assert rc == 0
        # 6 day + 6 medium + 2 Figure 3 hosts, all from the up-front plan.
        assert submitted_in_prefetch == [True] * 14
        assert unconsumed == [{}]
