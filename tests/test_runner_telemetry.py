"""Cross-process telemetry: parallel == serial, byte for byte.

Worker processes run each simulation under a private registry/tracer;
the parent merges the snapshots and span batches back in submission
order.  These tests pin the headline property -- a jobs=4 run exports
the exact bytes of a serial run over the deterministic view -- and the
failure policy: a worker snapshot that cannot merge is dropped and
counted, never raised.
"""

import pytest

from repro.experiments.testbed import TestbedConfig
from repro.obs import (
    MetricsRegistry,
    Tracer,
    WALL_METRICS,
    deterministic_view,
    installed,
    render_jsonl,
    render_prometheus,
    traced,
)
from repro.runner import Runner, engine

TINY = TestbedConfig(duration=1500.0, warmup=300.0)
HOSTS = ("thing1", "conundrum", "thing2", "gremlin")


def _run_with_scoped_sinks(jobs: int):
    """Run the four-host testbed; return (merged registry, tracer).

    The Runner is constructed *outside* the installed scope so its own
    cache counters (which legitimately differ between serial and
    parallel: ``mode=...`` labels) bind to the null registry; only the
    merged worker telemetry lands in the scoped sinks.
    """
    registry = MetricsRegistry()
    tracer = Tracer(clock=lambda: 0.0)
    with Runner(jobs=jobs) as runner, installed(registry), traced(tracer):
        runner.run(HOSTS, TINY)
    return registry, tracer


#: A second config for multi-config prefetches.
LONGER = TINY.derive(duration=2100.0)


def _prefetched_run_with_scoped_sinks(jobs: int):
    """Prefetch two configs up front, then consume them in two runs.

    Returns (merged registry, tracer, runner stats).
    """
    registry = MetricsRegistry()
    tracer = Tracer(clock=lambda: 0.0)
    with Runner(jobs=jobs) as runner, installed(registry), traced(tracer):
        runner.prefetch([(HOSTS, TINY), (HOSTS[:2], LONGER)])
        runner.run(HOSTS, TINY)
        runner.run(HOSTS[:2], LONGER)
    return registry, tracer, runner.stats


def _plain_run_with_scoped_sinks():
    """The same two runs serially, with no prefetch."""
    registry = MetricsRegistry()
    tracer = Tracer(clock=lambda: 0.0)
    runner = Runner(jobs=1)
    with installed(registry), traced(tracer):
        runner.run(HOSTS, TINY)
        runner.run(HOSTS[:2], LONGER)
    return registry, tracer, runner.stats


class TestParallelSerialParity:
    @pytest.fixture(scope="class")
    def serial(self):
        return _run_with_scoped_sinks(jobs=1)

    @pytest.fixture(scope="class")
    def parallel(self):
        return _run_with_scoped_sinks(jobs=4)

    def test_prometheus_bytes_identical(self, serial, parallel):
        assert render_prometheus(
            deterministic_view(serial[0])
        ) == render_prometheus(deterministic_view(parallel[0]))

    def test_jsonl_bytes_identical(self, serial, parallel):
        assert render_jsonl(deterministic_view(serial[0])) == render_jsonl(
            deterministic_view(parallel[0])
        )

    def test_spans_identical(self, serial, parallel):
        assert serial[1].spans == parallel[1].spans

    def test_kernel_run_spans_present_per_host(self, serial):
        kernel = [s for s in serial[1].spans if s.name == "kernel.run"]
        assert [s.attrs["host"] for s in kernel] == list(HOSTS)
        assert all(s.end == pytest.approx(TINY.duration) for s in kernel)

    def test_wall_metrics_present_but_excluded_from_view(self, parallel):
        snapshot = parallel[0].snapshot()
        assert "repro_runner_host_seconds" in snapshot
        view = deterministic_view(snapshot)
        assert not WALL_METRICS & set(view)
        # The view drops only wall families, nothing else.
        assert set(snapshot) - set(view) <= WALL_METRICS


class TestPrefetchParity:
    """Prefetching across configs changes nothing observable."""

    @pytest.fixture(scope="class")
    def plain(self):
        return _plain_run_with_scoped_sinks()

    @pytest.fixture(scope="class")
    def prefetched(self):
        return _prefetched_run_with_scoped_sinks(jobs=2)

    def test_registry_bytes_identical(self, plain, prefetched):
        assert render_prometheus(
            deterministic_view(plain[0])
        ) == render_prometheus(deterministic_view(prefetched[0]))

    def test_spans_identical(self, plain, prefetched):
        assert plain[1].spans == prefetched[1].spans

    def test_stats_identical(self, plain, prefetched):
        fields = ("memory_hits", "disk_hits", "misses", "corrupt", "retries", "snapshot_errors")
        assert [getattr(plain[2], f) for f in fields] == [
            getattr(prefetched[2], f) for f in fields
        ]
        assert prefetched[2].misses == len(HOSTS) + 2


class TestHostSecondsHistogram:
    def test_one_observation_per_simulated_host(self):
        registry, _ = _run_with_scoped_sinks(jobs=2)
        samples = registry.snapshot()["repro_runner_host_seconds"]["samples"]
        by_host = {s["labels"]["host"]: s["count"] for s in samples}
        assert by_host == {host: 1 for host in HOSTS}
        assert all(
            s["sum"] > 0.0 for s in samples
        ), "wall time per host must be positive"


class TestSnapshotErrorPolicy:
    def _broken_simulate(self, bad_snapshot):
        real = engine._simulate_one

        def simulate(name, config):
            run, _snapshot, spans, wall = real(name, config)
            return run, bad_snapshot, spans, wall

        return simulate

    @pytest.mark.parametrize(
        "bad",
        [
            # The runner binds this counter at construction, so a gauge
            # of the same name is a kind conflict in the parent registry.
            {
                "repro_runner_snapshot_errors_total": {
                    "type": "gauge",
                    "samples": [{"labels": {}, "value": 1.0}],
                }
            },
            "not a snapshot at all",
            {"repro_x_y": {"type": "counter", "samples": [{"value": 1}]}},
        ],
        ids=["kind-conflict", "non-dict", "missing-labels"],
    )
    def test_unmergeable_snapshot_dropped_and_counted(self, monkeypatch, bad):
        monkeypatch.setattr(engine, "_simulate_one", self._broken_simulate(bad))
        registry = MetricsRegistry()
        with installed(registry):
            runner = Runner()
            runs = runner.run(("thing1", "conundrum"), TINY)
        assert [r.host for r in runs] == ["thing1", "conundrum"]  # results sound
        assert runner.stats.snapshot_errors == 2
        assert "snapshot_errors=2" in runner.stats.summary()
        snap = registry.snapshot()
        assert (
            snap["repro_runner_snapshot_errors_total"]["samples"][0]["value"]
            == 2.0
        )

    def test_clean_run_counts_zero(self):
        registry = MetricsRegistry()
        with installed(registry):
            runner = Runner()
            runner.run_one("thing1", TINY)
        assert runner.stats.snapshot_errors == 0
