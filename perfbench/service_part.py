"""The forecast-service part of a workload: ``nws-repro serve`` under load.

Load comes from this process alone: ``THREADS`` threads, each on its own
keep-alive connection.  Ops come from ``repro.nws.loadtest.build_plans``
(70% publish, 18% query, 9% fetch, 3% refresh/lookup over 1,000 series),
merged into one sequence by their planned time.  Synthetic client *c*
sends its series ops on thread *c* mod ``THREADS``, so each client's ops
keep their order and every answer can be compared byte for byte with the
answer an in-process core gives to the same sequence.  Name-server ops
(register, refresh, lookup) all go out on thread 0, in order; see
:func:`thread_for`.

Phases:

a. open loop: seeded Poisson arrivals at ``OPEN_RATE``; each op's
   latency is timed from when it was due, so a stall also charges the
   ops queued behind it.  The server's CPU time over the phase is read
   from ``/proc``;
b. a fixed ladder of offered rates, climbed until a rung misses the
   latency limit; ``max_rps`` is the highest rate at which p99 latency
   stays within ``LIMIT_MS`` with no backlog left at the end of the
   rung.  A failed op counts as a miss;
c. SIGKILL the server, restart it on the same state directory and time
   until the first ``query_all`` answers; that answer must equal the one
   given just before the kill.

Phase (a) is cut into ``RESTARTS`` slices, each followed by a restart
of phase (c) and by the caller's interlude (a warm workload runs a
report there); phase (b) comes last.  The speed of a shared host drifts
over tens of seconds, so spreading the samples of each gated figure over
the whole run steadies it more than taking them in one stretch does.

The generator and the server run on different CPUs when there are two.
"""

from __future__ import annotations

import http.client
import math
import os
import re
import shutil
import signal
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import numpy as np

from common import cli_command, launch, percentile, reap

SERIES = 1000
CLIENTS = 16
THREADS = 2
TENANT = "default"
#: About a quarter of the two-connection closed-loop capacity.
OPEN_RATE = 400.0
#: Offered rates of phase (b), req/s, each offered for ``RUNG_SHARE``
#: times ``--seconds``.
LADDER = (600.0, 900.0, 1200.0, 1500.0, 1800.0)
RUNG_SHARE = 0.1
#: Latency limit on p99 from due time.
LIMIT_MS = 20.0
#: Phase (a) is cut into this many slices, each followed by a phase (c)
#: kill and restart; the median recovery is reported.
RESTARTS = 4
#: Samples per series already in the state directory at start.  One is
#: enough for every series to exist before the first op, so phase (a)
#: times steady-state traffic; creating 1,000 series (a catalog rewrite
#: with two fsyncs each) is part of set-up.
PREFILL = 1
#: Effectively immortal registrations: answers never depend on wall time.
TTL = 1.0e12
#: Domain separator for the arrival-time stream (b"ARRV").
_ARRIVALS = 0x41525256


class OpFailed(Exception):
    """The server did not answer the op: HTTP 5xx, 429 or a broken exchange."""


@dataclass
class Schedule:
    """The ops of one run, in send order, and what they must answer."""

    ops: list  # (client index, loadtest op)
    phases: list  # (offered rate, first op index, op count, due offsets)
    reference: list[bytes] = field(default_factory=list)


# ---------------------------------------------------------------- planning


def _due_offsets(rng, rate: float, seconds: float) -> np.ndarray:
    gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 1.5) + 64)
    due = np.cumsum(gaps)
    return due[due < seconds]


def build_schedule(seed: int, open_seconds: float, rung_seconds: float) -> Schedule:
    """Seeded op sequence and arrival times for phases (a) and (b)."""
    from repro.nws.loadtest import LoadtestConfig, build_plans

    rng = np.random.default_rng([seed, _ARRIVALS])
    phases = []
    first = 0
    for rate, seconds in [(OPEN_RATE, open_seconds)] + [(r, rung_seconds) for r in LADDER]:
        due = _due_offsets(rng, rate, seconds)
        phases.append((rate, first, len(due), due))
        first += len(due)
    plans = build_plans(
        LoadtestConfig(series=SERIES, clients=CLIENTS, operations=first, seed=seed)
    )
    merged = sorted(
        (op.time, plan.index, i, op)
        for plan in plans
        for i, op in enumerate(plan.ops)
    )
    ops = [(client, op) for _, client, _, op in merged[:first]]
    return Schedule(ops=ops, phases=phases)


def prefill(core, seed: int) -> None:
    """Give every series its ``PREFILL`` samples, timed before any planned op."""
    samples = PREFILL
    rng = np.random.default_rng([seed, _ARRIVALS, 1])
    values = rng.random((SERIES, samples))
    for s in range(SERIES):
        series = f"load.{s:05d}"
        for k in range(samples):
            core.publish(TENANT, series, float(k - samples), float(values[s, k]))


def make_state(directory, seed: int) -> None:
    """A state directory as ``serve --state-dir`` writes it."""
    from repro.nws import ServiceCore

    core = ServiceCore((TENANT,), directory=directory)
    try:
        prefill(core, seed)
    finally:
        core.close()


# --------------------------------------------------------------- execution


def execute(client, op) -> bytes:
    """Run one op; its answer as canonical bytes.

    Typed application errors are answers (the reference gives them too);
    anything else means the server did not answer and raises
    :class:`OpFailed`.
    """
    from repro.nws.errors import (
        RegistrationLapsed,
        SeriesUnavailable,
        ServerOverloaded,
        UnknownTenant,
    )
    from repro.nws.wire import (
        ProtocolError,
        canonical,
        code_for_exception,
        encode_fetch,
        encode_registration,
        encode_report,
    )

    try:
        if op.kind == "publish":
            count = client.publish(op.series, time=op.time, value=op.value)
            payload = {"series": op.series, "count": count}
        elif op.kind == "query":
            payload = encode_report(client.query(op.series, horizon=op.horizon))
        elif op.kind == "fetch":
            times, values = client.fetch(op.series, limit=op.limit)
            payload = encode_fetch(op.series, times, values)
        elif op.kind == "register":
            payload = encode_registration(
                client.register(
                    op.name, "sensor", {"host": op.name, "resource": "cpu"}, ttl=TTL
                )
            )
        elif op.kind == "refresh":
            payload = encode_registration(client.refresh(op.name, ttl=TTL))
        elif op.kind == "lookup":
            entries = client.lookup("sensor", host=op.name)
            payload = {"registrations": [encode_registration(e) for e in entries]}
        else:
            raise ValueError(f"unknown op kind {op.kind!r}")
    except (ServerOverloaded, ProtocolError, OSError, http.client.HTTPException) as exc:
        raise OpFailed(f"{op.kind}: {type(exc).__name__}: {exc}") from exc
    except (SeriesUnavailable, RegistrationLapsed, UnknownTenant, LookupError, ValueError) as exc:
        payload = {"error": code_for_exception(exc), "op": op.kind, "series": op.series}
    return canonical(payload)


def forecasts(client) -> bytes:
    from repro.nws.wire import canonical, encode_report

    reports = client.query_all()
    return canonical({name: encode_report(r) for name, r in sorted(reports.items())})


def reference(schedule: Schedule, seed: int) -> None:
    """Answers of an in-process core to the same op sequence."""
    from repro.nws import NWSClient, ServiceCore

    core = ServiceCore((TENANT,))
    prefill(core, seed)
    client = NWSClient.in_process(core, tenant=TENANT)
    schedule.reference = [execute(client, op) for _, op in schedule.ops]


@dataclass
class Outcome:
    kind: str
    latency: float  # seconds from due time to answer
    late: float  # seconds the generator sent after the due time
    status: str  # "ok", "mismatch" or "failed"


#: Op kinds answered by the name server rather than a series.
NAME_OPS = frozenset({"register", "refresh", "lookup"})


def thread_for(client: int, op) -> int:
    """The generator thread (and so the connection) that sends ``op``.

    Series ops go on thread ``client mod THREADS``.  Name-server ops go on
    thread 0, so no two register/refresh calls are ever in flight at
    once: concurrent ones race on the fixed ``registrations.json.tmp`` in
    ``repro.nws.durable.atomic_replace_bytes`` and one of them gets an
    HTTP 500.  That race is a known defect of the program; left in the
    traffic it fails a varying handful of ops per run, so the failure
    count would differ between runs of the same code.  A client's
    registration and its series touch disjoint state, so moving its
    name-server ops to another connection changes no answer.
    """
    return 0 if op.kind in NAME_OPS else client % THREADS


def drive(url: str, schedule: Schedule, phase, spans=None, inflight=None) -> list[Outcome]:
    """Send one phase's ops open-loop at their due times; one outcome each."""
    from repro.nws import NWSClient

    _, first, count, due = phase
    outcomes: list[Outcome | None] = [None] * count
    errors: list[BaseException] = []
    t0 = time.perf_counter() + 0.05

    def worker(k: int) -> None:
        client = NWSClient.connect(url, tenant=TENANT)
        try:
            for j in range(count):
                index = first + j
                c, op = schedule.ops[index]
                if thread_for(c, op) != k:
                    continue
                due_at = t0 + due[j]
                delay = due_at - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                if spans is not None:
                    spans.set_request(index)
                    inflight[(op.kind, op.series or op.name)] = index
                try:
                    status = "ok" if execute(client, op) == schedule.reference[index] else "mismatch"
                except OpFailed:
                    status = "failed"
                done = time.perf_counter()
                outcomes[j] = Outcome(op.kind, done - due_at, sent - due_at, status)
        except BaseException as exc:  # reported by the caller, never lost
            errors.append(exc)
        finally:
            client.close()

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return outcomes


def latency_ms(outcomes, kind: str | None, q: float) -> float:
    """Percentile of latency from due time; a failed op never meets a limit."""
    values = [
        o.latency if o.status != "failed" else math.inf
        for o in outcomes
        if kind is None or o.kind == kind
    ]
    return 1000.0 * percentile(values, q)


def rung_passes(outcomes: list[Outcome]) -> bool:
    """p99 from due time is within ``LIMIT_MS`` and the last op finished
    within ``LIMIT_MS`` of its due time (no backlog left)."""
    return (
        latency_ms(outcomes, None, 99.0) <= LIMIT_MS
        and 1000.0 * outcomes[-1].latency <= LIMIT_MS
    )


def max_rps(rungs: list[tuple[float, list[Outcome]]]) -> float:
    """Highest offered rate whose rung meets the limit; 0 if none does."""
    return max((rate for rate, outcomes in rungs if rung_passes(outcomes)), default=0.0)


# ------------------------------------------------------------------ server


def cpus() -> tuple[set[int], set[int]] | None:
    """(generator CPUs, server CPUs): one CPU each when there are two.

    Keeping the load generator and the server off each other's CPU keeps
    one process's scheduling from showing up as the other's latency.
    """
    allowed = sorted(os.sched_getaffinity(0))
    if len(allowed) < 2:
        return None
    return {allowed[0]}, {allowed[1]}


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time a live process has used so far (Linux)."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Server:
    """``nws-repro serve --port 0 --state-dir DIR`` in its own process."""

    _URL = re.compile(r"forecast server at (http://\S+)")

    def __init__(self, state_dir, log_path):
        self.started = time.perf_counter()
        self._log = open(log_path, "ab")
        self.proc = launch(
            cli_command("serve", "--port", "0", "--state-dir", str(state_dir)),
            stderr=subprocess.PIPE,
        )
        split = cpus()
        if split is not None:
            # Before the interpreter has started any thread, so all inherit it.
            os.sched_setaffinity(self.proc.pid, split[1])
        self.url = None
        self.peak_rss_mb = 0.0
        self._ready = threading.Event()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        if not self._ready.wait(120.0) or self.url is None:
            self.kill()
            raise RuntimeError(f"server did not start; see {log_path}")

    def _read(self) -> None:
        for line in self.proc.stderr:
            self._log.write(line)
            match = self._URL.search(line.decode("utf-8", "replace"))
            if match and self.url is None:
                self.url = match.group(1)
                self._ready.set()
        self._ready.set()

    def _finish(self, waited) -> None:
        _, self.peak_rss_mb = waited
        self._reader.join(10.0)
        self.proc.stderr.close()
        self._log.close()

    def kill(self) -> None:
        """SIGKILL: what a crash looks like to the state directory."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGKILL)
            self._finish(reap(self.proc))

    def stop(self) -> None:
        """Ctrl-C, the server's clean shutdown; SIGKILL if it hangs."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGINT)
            waited = reap(self.proc, 30.0)
            if waited is None:
                self.proc.send_signal(signal.SIGKILL)
                waited = reap(self.proc)
            self._finish(waited)


# ----------------------------------------------------------------- workload


def prepare(work, seed: int, open_seconds: float, rung_seconds: float):
    """Set-up: the schedule, its reference answers and the state directory."""
    schedule = build_schedule(seed, open_seconds, rung_seconds)
    reference(schedule, seed)
    state = work / "state"
    shutil.rmtree(state, ignore_errors=True)
    make_state(state, seed)
    return schedule, state


def slices(phase, parts: int) -> list:
    """``phase`` cut into ``parts`` consecutive pieces, each due from its start."""
    rate, first, count, due = phase
    cuts = [count * k // parts for k in range(parts + 1)]
    return [(rate, first + a, b - a, due[a:b] - due[a]) for a, b in zip(cuts, cuts[1:])]


def run(work, schedule: Schedule, state, interlude=None) -> dict:
    """Phases (a)-(c) against a server process; returns measurements.

    ``interlude()``, if given, runs after each restart.
    """
    from repro.nws import NWSClient

    log = work / "server.log"
    servers = [Server(state, log)]
    launch_s = time.perf_counter() - servers[0].started
    own_cpus = os.sched_getaffinity(0)
    split = cpus()

    def load(phase) -> list[Outcome]:
        if split is not None:
            os.sched_setaffinity(0, split[0])  # the generator threads inherit it
        try:
            return drive(servers[-1].url, schedule, phase)
        finally:
            os.sched_setaffinity(0, own_cpus)

    opened, rungs, recoveries = [], [], []
    server_cpu = 0.0
    wrong_answers = 0
    try:
        for piece in slices(schedule.phases[0], RESTARTS):
            cpu_before = cpu_seconds(servers[-1].proc.pid)
            opened += load(piece)
            server_cpu += cpu_seconds(servers[-1].proc.pid) - cpu_before
            with NWSClient.connect(servers[-1].url, tenant=TENANT) as client:
                before = forecasts(client)
            servers[-1].kill()
            servers.append(Server(state, log))
            with NWSClient.connect(servers[-1].url, tenant=TENANT) as client:
                wrong_answers += forecasts(client) != before
            recoveries.append(time.perf_counter() - servers[-1].started)
            if interlude is not None:
                interlude()
        for phase in schedule.phases[1:]:
            rungs.append((phase[0], load(phase)))
            if not rung_passes(rungs[-1][1]):
                break
        servers[-1].stop()
    finally:
        for server in servers:
            server.kill()
    everything = opened + [o for _, outcomes in rungs for o in outcomes]
    return {
        "launch_s": launch_s,
        "attempted": len(everything) + len(recoveries),
        "failed": sum(o.status != "ok" for o in everything) + wrong_answers,
        "mismatches": sum(o.status == "mismatch" for o in everything) + wrong_answers,
        "server_cpu_ms_per_op": 1000.0 * server_cpu / len(opened),
        "publish_p50_ms": latency_ms(opened, "publish", 50.0),
        "publish_p99_ms": latency_ms(opened, "publish", 99.0),
        "query_p50_ms": latency_ms(opened, "query", 50.0),
        "query_p99_ms": latency_ms(opened, "query", 99.0),
        "max_rps": max_rps(rungs),
        "recovery_s": median(recoveries),
        "recoveries": recoveries,
        "peak_rss_mb": max(server.peak_rss_mb for server in servers),
        "late_p99_ms": 1000.0 * percentile([o.late for o in opened], 99.0),
        "rungs": {
            f"{rate:g}": round(float(latency_ms(o, None, 99.0)), 2) for rate, o in rungs
        },
    }
