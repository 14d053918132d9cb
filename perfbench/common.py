"""Shared plumbing: locating the program, launching it, digests, statistics."""

from __future__ import annotations

import hashlib
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def program_present() -> bool:
    return (SRC / "repro" / "cli.py").is_file()


def use_program_in_process() -> None:
    """Make ``import repro`` load the checkout's sources."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def program_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def cli_command(*args: str) -> list[str]:
    """``nws-repro ARGS`` as a fresh interpreter on the checkout's sources."""
    return [sys.executable, "-m", "repro.cli", *args]


def launch(argv: list[str], *, stdout=subprocess.DEVNULL, stderr=None) -> subprocess.Popen:
    """Start the program in a process group of its own (see :func:`kill_group`)."""
    return subprocess.Popen(
        argv, cwd=ROOT, env=program_env(), stdout=stdout, stderr=stderr,
        start_new_session=True,
    )


def kill_group(proc: subprocess.Popen) -> None:
    """SIGKILL ``proc`` and every process it started (a report's worker
    pool), then wait for ``proc``."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    reap(proc)


def reap(proc: subprocess.Popen, timeout: float | None = None) -> tuple[int, float] | None:
    """Wait for ``proc``; returns (exit code, peak RSS MiB of it and its children).

    ``wait4`` reports the largest resident set of the process and of every
    descendant it waited for (its worker pool included).  Returns None if
    ``timeout`` seconds pass first.
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, 0 if deadline is None else os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage.ru_maxrss / 1024.0
        if time.monotonic() > deadline:
            return None
        time.sleep(0.02)


def tree_digest(directory: Path) -> str:
    """SHA-256 over every file's relative path and content, in path order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        digest.update(path.relative_to(directory).as_posix().encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    values = sorted(values)
    rank = max(0, math.ceil(q / 100.0 * len(values)) - 1)
    return values[rank]
