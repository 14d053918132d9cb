"""Every public ``repro`` package imports on its own, in a fresh interpreter.

An import cycle only shows when a package is the first of its cycle to be
imported, so each package is imported in a process with no ``repro``
module loaded yet.  One probe process preloads the heavy third-party
dependencies (they cannot take part in a ``repro`` cycle) and forks one
child per package, which keeps the whole check to a few seconds.

A second fresh interpreter checks the cold start: importing the CLI and
the server loads no ``scipy`` module until something calls it.
"""

from __future__ import annotations

import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    f"repro.{module.name}"
    for module in pkgutil.iter_modules(repro.__path__)
    if not module.name.startswith("_")
)

_PROBE = r"""
import json, os, sys, traceback
import numpy, scipy.stats  # noqa: F401

errors = {}
for name in sys.argv[1:]:
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read)
        try:
            __import__(name)
            message = ""
        except BaseException:
            message = traceback.format_exc()
        os.write(write, message.encode())
        os._exit(0)
    os.close(write)
    with os.fdopen(read, "rb") as pipe:
        errors[name] = pipe.read().decode()
    os.waitpid(pid, 0)
print(json.dumps(errors))
"""


#: Which ``scipy`` modules are loaded after starting the CLI and the
#: server, and whether a residual comparison (the one scipy call) loads it.
_COLD_START = r"""
import json, sys
import repro, repro.cli, repro.nws.server  # noqa: F401
started = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
from repro.analysis.residuals import compare_residuals
compare_residuals(
    [0.1, 0.2, 0.3, 0.4, 0.5], [0.2] * 5, [0.15, 0.25, 0.3, 0.5, 0.4], n_boot=10
)
print(json.dumps({"started": started, "compared": "scipy" in sys.modules}))
"""


def _run_fresh(code: str, *args: str):
    """Run ``code`` in a new interpreter; return its last stdout line as JSON."""
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def import_errors() -> dict[str, str]:
    if not hasattr(os, "fork"):
        pytest.skip("the import probe forks one child per package")
    return _run_fresh(_PROBE, *PACKAGES)


def test_every_public_package_is_probed():
    assert {"repro.runner", "repro.experiments", "repro.cli"} <= set(PACKAGES)


@pytest.mark.parametrize("package", PACKAGES)
def test_imports_in_a_fresh_interpreter(import_errors, package):
    assert import_errors[package] == "", import_errors[package]


def test_cold_start_loads_scipy_only_when_called():
    """The CLI and the server start without scipy; its one caller loads it.

    Kept out of the probe above, which preloads ``scipy.stats``.
    """
    outcome = _run_fresh(_COLD_START)
    assert outcome["started"] == []
    assert outcome["compared"] is True
