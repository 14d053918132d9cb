"""The reproduction part of a workload: ``nws-repro report`` cold or warm.

A cold run starts from an empty result cache, so every host of the
testbed is simulated (six hosts for a day, the Table 6 medium run and the
week-long Figure 3 runs).  A warm run reads the cache a cold run of the
code under test filled, so no host is simulated.  Every run's output
tree must match the reference digest recorded for its seed.

The report always runs at ``SEED``, the CLI's default and the seed the
paper's numbers are quoted at.  Its cost depends on the simulation seed
far more than run-to-run noise does (22.5 s of simulation at seed 7,
30.7 s at seed 3 on a 2-CPU box), so varying it with the benchmark seed
would drown any change in the spread between seeds.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import time

from common import ROOT, cli_command, kill_group, launch, reap, tree_digest

SEED = 7
JOBS = 2
REFERENCE = ROOT / "perfbench" / "reference.json"
_STATS = re.compile(r"(\w+)=([0-9.]+)")


def reference_digest(seed: int) -> str:
    """The recorded ``report --seed`` output digest; see make_reference.py."""
    return json.loads(REFERENCE.read_text())["digests"][str(seed)]


def runner_stats(stderr: str) -> dict[str, float]:
    """The ``runner: ...`` stats line ``report`` prints to stderr."""
    for line in stderr.splitlines():
        if line.startswith("runner:"):
            return {k: float(v) for k, v in _STATS.findall(line)}
    return {}


def report_args(out, seed: int, cache, jobs: int) -> list[str]:
    return [
        "report", str(out), "--seed", str(seed), "--jobs", str(jobs),
        "--cache-dir", str(cache),
    ]


def run_report(work, name: str, seed: int, cache) -> dict:
    """One ``nws-repro report`` in a fresh interpreter, timed and checked."""
    out = work / name
    log = work / f"{name}.stderr"
    with open(log, "wb") as stderr:
        started = time.perf_counter()
        proc = launch(cli_command(*report_args(out, seed, cache, JOBS)), stderr=stderr)
        try:
            code, rss_mb = reap(proc)
        except BaseException:
            kill_group(proc)
            raise
        wall = time.perf_counter() - started
    stats = runner_stats(log.read_text())
    digest = tree_digest(out) if code == 0 else ""
    return {
        "wall_s": wall,
        "peak_rss_mb": rss_mb,
        "exit": code,
        "stats": stats,
        "digest_ok": digest == reference_digest(seed),
    }


def run_report_in_process(out, seed: int, cache) -> tuple[float, dict, bool]:
    """``report --jobs 1`` inside this process: (wall, runner stats, digest ok)."""
    from repro.cli import main

    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        started = time.perf_counter()
        code = main(report_args(out, seed, cache, 1))
        wall = time.perf_counter() - started
    ok = code == 0 and tree_digest(out) == reference_digest(seed)
    return wall, runner_stats(stderr.getvalue()), ok
