"""Every public ``repro`` package imports on its own, in a fresh interpreter.

An import cycle only shows when a package is the first of its cycle to be
imported, so each package is imported in a process with no ``repro``
module loaded yet.  One probe process preloads the heavy third-party
dependencies (they cannot take part in a ``repro`` cycle) and forks one
child per package, which keeps the whole check to a few seconds.
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


@pytest.fixture(scope="module")
def import_errors() -> dict[str, str]:
    if not hasattr(os, "fork"):
        pytest.skip("the import probe forks one child per package")
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *PACKAGES],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_every_public_package_is_probed():
    assert {"repro.runner", "repro.experiments", "repro.cli"} <= set(PACKAGES)


@pytest.mark.parametrize("package", PACKAGES)
def test_imports_in_a_fresh_interpreter(import_errors, package):
    assert import_errors[package] == "", import_errors[package]
