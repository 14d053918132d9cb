"""Benchmark: the paper reproduction and the forecast service, end to end.

    python3 perfbench/run.py --workload cold --seed 1 --seconds 6 --trace 0

Run from the repository root.  Each workload has a reproduction part and
a service part, so every end-to-end metric is measured on every workload:

cold
    ``nws-repro report`` against an empty result cache (every host is
    simulated), then the service phases against a fresh state directory.
warm
    ``nws-repro report`` against a cache filled in set-up by a cold run of
    the same code (no host is simulated), once before the service phases
    of ``cold`` and once after each server restart in them.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs both
parts inside this process, untraced and then traced, and prints the
per-layer metrics (see ``layers.json`` for which end-to-end metric each
one should move).  The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Scratch files live
under ``.perfbench_work/`` and are removed at exit, apart from the span
dump of a traced run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import sys
import time
from statistics import median

from common import ROOT, program_present, use_program_in_process


def set_up(work, warm: bool, seed: int, seconds: float) -> dict:
    """Inputs for both parts; ``setup_s`` excludes only the server launch."""
    import report_part
    import service_part
    import repro.nws.loadtest  # noqa: F401  (imports are not set-up work)

    started = time.perf_counter()
    cache = work / "cache"
    fills = []
    if warm:
        fills.append(report_part.run_report(work, "fill", report_part.SEED, cache))
    schedule, state = service_part.prepare(
        work, seed, seconds, seconds * service_part.RUNG_SHARE
    )
    return {
        "cache": cache,
        "fills": fills,
        "schedule": schedule,
        "state": state,
        "setup_s": time.perf_counter() - started,
    }


def report_ok(run: dict, expected_hits: float | None) -> bool:
    """Exit 0, output matching the reference and, warm, every host from disk."""
    ok = run["exit"] == 0 and run["digest_ok"]
    if expected_hits is not None:
        stats = run["stats"]
        ok = ok and stats.get("misses") == 0 and stats.get("disk_hits") == expected_hits
    return ok


def untraced(work, warm: bool, seed: int, seconds: float) -> dict:
    import report_part
    import service_part

    setup = set_up(work, warm, seed, seconds)
    gc.collect()
    gc.freeze()  # keep collector pauses over set-up data out of the timings
    runs = []

    def report() -> None:
        runs.append(
            report_part.run_report(work, f"out{len(runs)}", report_part.SEED, setup["cache"])
        )

    report()
    # Warm: one more report after each server restart, so the reports
    # and the service samples interleave over the whole run.
    service = service_part.run(
        work, setup["schedule"], setup["state"], report if warm else None
    )
    fill_misses = setup["fills"][0]["stats"].get("misses") if warm else None
    report_failed = sum(not report_ok(r, None) for r in setup["fills"]) + sum(
        not report_ok(r, fill_misses) for r in runs
    )
    print(
        f"# reports: {len(runs)} walls {[round(r['wall_s'], 3) for r in runs]} s, "
        f"{report_failed} failed; service: {service['failed']} failed "
        f"({service['mismatches']} wrong answers) of {service['attempted']} ops; "
        f"recoveries {[round(r, 3) for r in service['recoveries']]} s"
    )
    # Measured and printed, but too noisy run to run to gate (see README).
    print(
        f"# ungated: publish_p50_ms {service['publish_p50_ms']:.3f} ms, "
        f"publish_p99_ms {service['publish_p99_ms']:.3f} ms, "
        f"query_p50_ms {service['query_p50_ms']:.3f} ms, "
        f"query_p99_ms {service['query_p99_ms']:.3f} ms, "
        f"max_rps {service['max_rps']:.1f} req/s (ladder p99 ms {service['rungs']}), "
        f"generator late p99 {service['late_p99_ms']:.3f} ms"
    )
    metrics = {
        "setup_s": (setup["setup_s"] + service["launch_s"], "s"),
        "wall_s": (median(r["wall_s"] for r in runs), "s"),
        # The measured runs only: warm's set-up fill is a cold report.
        "peak_rss_mb": (
            max([r["peak_rss_mb"] for r in runs] + [service["peak_rss_mb"]]),
            "MiB",
        ),
        "server_cpu_ms_per_op": (service["server_cpu_ms_per_op"], "ms"),
        "recovery_s": (service["recovery_s"], "s"),
    }
    return {
        "correct": report_failed == 0 and service["mismatches"] == 0,
        "attempted": len(setup["fills"]) + len(runs) + service["attempted"],
        "failed": report_failed + service["failed"],
        "metrics": metrics,
    }


def traced(work, warm: bool, seed: int, seconds: float) -> dict:
    import report_part
    import traced_run

    setup = set_up(work, warm, seed, seconds)
    fills_failed = sum(not report_ok(r, None) for r in setup["fills"])
    result = traced_run.run(
        work,
        warm=warm,
        program_seed=report_part.SEED,
        cache=setup["cache"],
        schedule=setup["schedule"],
        state=setup["state"],
    )
    for metric, reason in sorted(result["missing"].items()):
        print(f"# missing {metric}: {reason}")
    return {
        "correct": result["correct"] and fills_failed == 0,
        "attempted": result["attempted"] + len(setup["fills"]),
        "failed": result["failed"] + fills_failed,
        "metrics": result["metrics"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("cold", "warm"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not program_present():
        print("perfbench: no program sources under src/repro; run from a checkout", file=sys.stderr)
        return 2
    use_program_in_process()
    # A SIGTERM unwinds like an exception, so every child process is
    # killed and waited for on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        body = (traced if args.trace else untraced)(
            work, args.workload == "warm", args.seed, args.seconds
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = {
        name: {"value": float(value), "unit": unit}
        for name, (value, unit) in body["metrics"].items()
    }
    print(
        json.dumps(
            {
                "correct": bool(body["correct"]),
                "attempted": int(body["attempted"]),
                "failed": int(body["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
