"""The traced run: where a workload's wall time goes, layer by layer.

Everything runs in this process so the wrappers see every layer: the
report at ``--jobs 1`` and a ``ForecastServer`` on a loopback port.
Each part runs once untraced and once traced; the difference in wall
time (report) or mean latency (service) is the tracing overhead.
"""

from __future__ import annotations

import shutil
import statistics
import subprocess
import sys
import time

import report_part
import service_part
from common import ROOT, percentile, program_env
from spans import Spans

NWS_OPS = ("publish", "query", "fetch", "refresh")
_ANALYSIS = (
    ("repro.experiments.tables", "hurst_rs"),
    ("repro.experiments.tables", "aggregate_series"),
    ("repro.experiments.figures", "acf"),
    ("repro.experiments.figures", "aggregate_series"),
    ("repro.experiments.figures", "pox_plot_data"),
)


def import_seconds(repeats: int = 3) -> float:
    """Median wall time of ``import repro.cli`` in a fresh interpreter."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import repro.cli"],
            cwd=ROOT, env=program_env(), check=True,
        )
        times.append(time.perf_counter() - started)
    return statistics.median(times)


# ----------------------------------------------------------------- patching


def patch_pipeline(spans: Spans) -> None:
    p = spans.patch
    p("repro.experiments.testbed", "build_host", "workload.build_host")
    p(
        "repro.runner.engine", "simulate_host", "sim.simulate_host",
        after=lambda r, a, k: spans.count("sim.hosts"),
    )
    p("repro.runner.cache:ResultCache", "lookup", "runner.lookup")
    p("repro.runner.cache:ResultCache", "store", "runner.store")
    p(
        "repro.experiments.tables", "forecast_series", "core.forecast_series",
        after=lambda r, a, k: spans.count("core.forecast_samples", len(a[0])),
    )
    for module, name in _ANALYSIS:
        p(module, name, f"analysis.{name}")
    for n in range(1, 7):
        p("repro.experiments", f"table{n}", "experiments")
    for n in range(1, 5):
        p("repro.experiments", f"figure{n}", "experiments")
    p("repro.report.export", "export_table_csv", "report.export")
    p("repro.report.export", "export_figure_csv", "report.export")


def patch_service(spans: Spans, inflight: dict) -> None:
    p = spans.patch
    for op in NWS_OPS:
        p("repro.nws.client:NWSClient", op, f"nws.client.{op}")

    def dispatch_op(args, kwargs) -> str:
        return args[2].rstrip("/").rsplit("/", 1)[-1]

    def tag_request(args, kwargs) -> None:
        body = args[3] or {}
        key = body.get("series") or body.get("name") or (body.get("attributes") or {}).get("host")
        spans.set_request(inflight.get((dispatch_op(args, kwargs), key)))

    p(
        "repro.nws.server:ForecastServer", "dispatch",
        lambda a, k: f"nws.server.dispatch.{dispatch_op(a, k)}",
        label="nws.server.dispatch", before=tag_request,
    )
    for name in ("canonical", "encode_report", "encode_fetch", "encode_registration"):
        p("repro.nws.server", name, "nws.wire.encode")
    p("repro.nws.client", "canonical", "nws.wire.encode")
    for name in ("decode_report", "decode_fetch", "decode_registration"):
        p("repro.nws.client", name, "nws.wire.decode")
    p(
        "repro.nws.server:ForecastServer", "count_shed", "nws.server.count_shed",
        after=lambda r, a, k: spans.count("nws.server.shed"),
    )
    p(
        "repro.nws.server:ForecastServer", "observe_response", "nws.server.observe",
        after=lambda r, a, k: spans.count("nws.server.errors_5xx", a[1] >= 500),
    )
    p("repro.nws.memory:MemoryStore", "publish", "nws.memory.publish")
    p(
        "repro.nws.memory:MemoryStore", "fetch", "nws.memory.fetch",
        after=lambda r, a, k: spans.count("nws.memory.fetch_samples", len(r[0])),
    )
    p(
        "repro.nws.durable:JournalWriter", "append", "nws.durable.append",
        # With group commit the append that fills a group writes it out.
        after=lambda r, a, k: spans.count("nws.durable.flushes", a[0].pending(a[1]) == 0),
    )
    for name in ("flush", "sync"):
        p(
            "repro.nws.durable:JournalWriter", name, "nws.durable.flush",
            after=lambda r, a, k: spans.count("nws.durable.flushes", r > 0),
        )
    for module in ("repro.nws.durable", "repro.nws.memory"):
        p(module, "atomic_replace_bytes", "nws.durable.replace")
    p("repro.nws.forecaster:ForecasterService", "query", "nws.forecaster.query")

    def restored(core, args, kwargs) -> None:
        samples = 0
        for tenant in core.tenant_names():
            memory = core.tenant(tenant).memory
            samples += sum(memory.count(s) for s in memory.series_names())
        spans.counts["nws.restore.samples"] = samples

    p("repro.nws.service:ServiceCore", "restore", "nws.restore", after=restored)


# ------------------------------------------------------------------ service


def service_pass(schedule, state, spans=None, inflight=None) -> tuple[list, bool]:
    """Phase (a) against an in-process server, then a restart from ``state``.

    Returns the phase's outcomes and whether the restarted server's
    ``query_all`` equals the answer given before the restart.
    """
    from repro.nws import ForecastServer, NWSClient, ServiceCore

    answers = []
    outcomes = None
    for _ in range(2):
        core = ServiceCore.restore(state, clock=time.time)
        server = ForecastServer(core=core, port=0, maintenance_interval=30.0).start()
        try:
            if outcomes is None:
                outcomes = service_part.drive(
                    server.url, schedule, schedule.phases[0], spans, inflight
                )
            with NWSClient.connect(server.url, tenant=service_part.TENANT) as client:
                answers.append(service_part.forecasts(client))
        finally:
            server.stop()
            core.close()
    return outcomes, answers[0] == answers[1]


def _mean_latency_ms(outcomes) -> float:
    return 1000.0 * statistics.fmean(o.latency for o in outcomes)


# ------------------------------------------------------------------ metrics


def _snapshot_sum(snapshot: dict, name: str) -> float | None:
    """Sum of a counter over its label sets; None if the program has none."""
    if name not in snapshot:
        return None
    return sum(s.get("value", 0.0) for s in snapshot[name]["samples"])


#: Per-layer metrics read from ``repro.obs`` registry counters.
_COUNTERS = {
    "sim.ticks": "repro_sim_ticks_total",
    "sim.events_fired": "repro_sim_events_fired_total",
    "sim.dispatches": "repro_sim_dispatches_total",
    "forecaster.queries": "repro_forecaster_queries_total",
    "forecaster.updates": "repro_forecaster_updates_total",
}

#: Span labels (see the ``patch_*`` functions) each per-layer metric needs.
_SOURCES = {
    "workload.build_host_s": ("workload.build_host",),
    "sim.busy_s": ("sim.simulate_host", "workload.build_host"),
    "sim.hosts": ("sim.simulate_host",),
    "runner.lookup_s": ("runner.lookup",),
    "runner.store_s": ("runner.store",),
    "core.forecast_calls": ("core.forecast_series",),
    "core.forecast_samples": ("core.forecast_series",),
    "core.forecast_s": ("core.forecast_series",),
    "analysis.calls": tuple(f"analysis.{name}" for _, name in _ANALYSIS),
    "analysis.s": tuple(f"analysis.{name}" for _, name in _ANALYSIS),
    "experiments.self_s": ("experiments", "core.forecast_series", "sim.simulate_host"),
    "report.export_s": ("report.export",),
    **{f"nws.client.{op}_s": (f"nws.client.{op}",) for op in NWS_OPS},
    **{f"nws.server.dispatch.{op}_s": ("nws.server.dispatch",) for op in NWS_OPS},
    **{f"nws.http.{op}_s": (f"nws.client.{op}", "nws.server.dispatch") for op in NWS_OPS},
    "nws.wire.encode_s": ("nws.wire.encode",),
    "nws.wire.decode_s": ("nws.wire.decode",),
    "nws.server.shed": ("nws.server.count_shed",),
    "nws.server.errors_5xx": ("nws.server.observe",),
    "nws.memory.publish_s": ("nws.memory.publish", "nws.durable.append"),
    "nws.durable.appends": ("nws.durable.append",),
    "nws.durable.flushes": ("nws.durable.append", "nws.durable.flush"),
    "nws.durable.snapshot_writes": ("nws.durable.replace",),
    "nws.durable.s": ("nws.durable.append", "nws.durable.flush", "nws.durable.replace"),
    "nws.forecaster.query_s": ("nws.forecaster.query",),
    "nws.memory.fetch_s": ("nws.memory.fetch",),
    "nws.memory.fetch_samples": ("nws.memory.fetch",),
    "nws.restore_s": ("nws.restore",),
    "nws.restore.samples": ("nws.restore",),
}


def layer_metrics(spans: Spans, extra: dict) -> tuple[dict, dict]:
    """Every per-layer metric as ``name -> (value, unit)``, plus missing ones.

    ``extra`` carries what the spans cannot: the runner's stats, registry
    counters, the generator's outcomes and the overhead figures.
    """
    totals = spans.totals()

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    def incl_s(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def mean_s(name):
        n, inclusive, _ = totals.get(name, (0, 0.0, 0.0))
        return inclusive / n if n else 0.0

    counts = spans.counts
    stats = extra["runner"]
    analysis = [f"analysis.{name}" for _, name in _ANALYSIS]
    m = {
        "cli.import_s": (extra["import_s"], "s"),
        "workload.build_host_s": (self_s("workload.build_host"), "s"),
        "sim.busy_s": (self_s("sim.simulate_host"), "s"),
        "sim.hosts": (counts["sim.hosts"], "count"),
        "sim.ticks": (extra["sim.ticks"] or 0.0, "count"),
        "sim.events_fired": (extra["sim.events_fired"] or 0.0, "count"),
        "sim.dispatches": (extra["sim.dispatches"] or 0.0, "count"),
        "runner.memo_hits": (stats.get("memory_hits", 0.0), "count"),
        "runner.disk_hits": (stats.get("disk_hits", 0.0), "count"),
        "runner.misses": (stats.get("misses", 0.0), "count"),
        "runner.lookup_s": (incl_s("runner.lookup"), "s"),
        "runner.store_s": (incl_s("runner.store"), "s"),
        "runner.worker_util": (extra["worker_util"], "ratio"),
        "core.forecast_calls": (calls("core.forecast_series"), "count"),
        "core.forecast_samples": (counts["core.forecast_samples"], "count"),
        "core.forecast_s": (incl_s("core.forecast_series"), "s"),
        "analysis.calls": (sum(calls(n) for n in analysis), "count"),
        "analysis.s": (sum(self_s(n) for n in analysis), "s"),
        "experiments.self_s": (self_s("experiments"), "s"),
        "report.export_s": (incl_s("report.export"), "s"),
        "report.bytes": (extra["report_bytes"], "bytes"),
    }
    for op in NWS_OPS:
        client = mean_s(f"nws.client.{op}")
        server = mean_s(f"nws.server.dispatch.{op}")
        m[f"nws.client.{op}_s"] = (client, "s")
        m[f"nws.server.dispatch.{op}_s"] = (server, "s")
        m[f"nws.http.{op}_s"] = (client - server, "s")
    queries = extra["forecaster.queries"] or 0.0
    m.update(
        {
            "nws.wire.encode_s": (incl_s("nws.wire.encode"), "s"),
            "nws.wire.decode_s": (incl_s("nws.wire.decode"), "s"),
            "nws.server.shed": (counts["nws.server.shed"], "count"),
            "nws.server.errors_5xx": (counts["nws.server.errors_5xx"], "count"),
            "nws.memory.publish_s": (
                self_s("nws.memory.publish") / max(calls("nws.memory.publish"), 1), "s"
            ),
            "nws.durable.appends": (calls("nws.durable.append"), "count"),
            "nws.durable.flushes": (counts["nws.durable.flushes"], "count"),
            "nws.durable.snapshot_writes": (calls("nws.durable.replace"), "count"),
            "nws.durable.s": (
                sum(incl_s(f"nws.durable.{n}") for n in ("append", "flush", "replace")),
                "s",
            ),
            "nws.forecaster.query_s": (mean_s("nws.forecaster.query"), "s"),
            "nws.forecaster.updates": (
                (extra["forecaster.updates"] or 0.0) / queries if queries else 0.0,
                "ratio",
            ),
            "nws.memory.fetch_s": (mean_s("nws.memory.fetch"), "s"),
            "nws.memory.fetch_samples": (counts["nws.memory.fetch_samples"], "count"),
            "nws.restore_s": (extra["restore_s"], "s"),
            "nws.restore.samples": (counts["nws.restore.samples"], "count"),
            "loadgen.sent": (extra["sent"], "count"),
            "loadgen.late_p99_ms": (extra["late_p99_ms"], "ms"),
            "trace.report_overhead_s": (extra["report_overhead_s"], "s"),
            "trace.service_overhead_ms": (extra["service_overhead_ms"], "ms"),
        }
    )
    # A patch that found nothing to wrap, or a counter the program no
    # longer keeps, leaves its metrics at zero: name them, with the reason.
    missing = {}
    for metric, labels in _SOURCES.items():
        for label in labels:
            if label in spans.missing:
                missing[metric] = spans.missing[label]
    for metric, counter in _COUNTERS.items():
        # Hosts read from the cache run no kernel, so no sim counter exists.
        simulated = counts["sim.hosts"] > 0 or not metric.startswith("sim.")
        if extra[metric] is None and simulated:
            name = "nws.forecaster.updates" if metric.startswith("forecaster.") else metric
            missing[name] = f"registry counter {counter} not found"
    if not extra["runner"]:
        for metric in ("runner.memo_hits", "runner.disk_hits", "runner.misses", "runner.worker_util"):
            missing[metric] = "no 'runner:' stats line on report's stderr"
    return m, missing


# --------------------------------------------------------------------- run


def run(work, *, warm: bool, program_seed: int, cache, schedule, state) -> dict:
    """Untraced then traced passes of both parts; per-layer metrics."""
    from repro.obs.metrics import MetricsRegistry, installed

    # Load the pipeline's modules first so neither pass pays for imports.
    import repro.cli  # noqa: F401
    import repro.experiments  # noqa: F401
    import repro.report.export  # noqa: F401

    import_s = import_seconds()
    failures = 0

    def report_cache(name: str):
        if warm:
            return cache
        fresh = work / name
        shutil.rmtree(fresh, ignore_errors=True)
        return fresh

    plain_wall, _, ok = report_part.run_report_in_process(
        work / "plain-out", program_seed, report_cache("plain-cache")
    )
    failures += not ok
    plain_state = work / "plain-state"
    shutil.copytree(state, plain_state)
    plain_outcomes, ok = service_pass(schedule, plain_state)
    failures += not ok

    spans = Spans()
    inflight: dict = {}
    patch_pipeline(spans)
    patch_service(spans, inflight)
    try:
        with installed(MetricsRegistry()) as registry:
            out = work / "traced-out"
            wall, stats, ok = report_part.run_report_in_process(
                out, program_seed, report_cache("traced-cache")
            )
            failures += not ok
            sim = registry.snapshot()
        with installed(MetricsRegistry()) as registry:
            outcomes, ok = service_pass(schedule, state, spans, inflight)
            failures += not ok
            nws = registry.snapshot()
    finally:
        spans.unpatch()
    restores = [r for r in spans.records if r[2] == "nws.restore"]
    mismatches = sum(o.status == "mismatch" for o in outcomes + plain_outcomes)
    extra = {
        "import_s": import_s,
        "runner": stats,
        "worker_util": stats.get("sim_seconds", 0.0) / wall,
        "sim.ticks": _snapshot_sum(sim, "repro_sim_ticks_total"),
        "sim.events_fired": _snapshot_sum(sim, "repro_sim_events_fired_total"),
        "sim.dispatches": _snapshot_sum(sim, "repro_sim_dispatches_total"),
        "report_bytes": sum(p.stat().st_size for p in out.rglob("*") if p.is_file()),
        "forecaster.queries": _snapshot_sum(nws, "repro_forecaster_queries_total"),
        "forecaster.updates": _snapshot_sum(nws, "repro_forecaster_updates_total"),
        "restore_s": restores[-1][4] - restores[-1][3] if restores else 0.0,
        "sent": len(outcomes),
        "late_p99_ms": 1000.0 * percentile([o.late for o in outcomes], 99.0),
        "report_overhead_s": wall - plain_wall,
        "service_overhead_ms": _mean_latency_ms(outcomes) - _mean_latency_ms(plain_outcomes),
    }
    metrics, missing = layer_metrics(spans, extra)
    spans.dump(ROOT / ".perfbench_work" / f"trace-{'warm' if warm else 'cold'}.jsonl")
    return {
        "metrics": metrics,
        "missing": missing,
        # Two reports, two restarts and every op of both service passes.
        "attempted": 4 + len(outcomes) + len(plain_outcomes),
        "failed": failures
        + sum(o.status != "ok" for o in outcomes)
        + sum(o.status != "ok" for o in plain_outcomes),
        "correct": failures == 0 and mismatches == 0,
    }
