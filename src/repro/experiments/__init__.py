"""Experiment harness: regenerates every table and figure of the paper.

* :mod:`repro.experiments.testbed` -- the reproducible six-host testbed:
  :class:`TestbedConfig` (keyword-only, with ``derive()`` for variants),
  :class:`HostRun`, and the pure simulation engine
  :func:`~repro.experiments.testbed.simulate_host`.
* :mod:`repro.experiments.tables` -- ``table1()`` .. ``table6()``.
* :mod:`repro.experiments.figures` -- ``figure1()`` .. ``figure4()``.
* :mod:`repro.experiments.results` -- result containers with formatting.
* :mod:`repro.experiments.smp` -- the SMP extension study and sweep.
* :mod:`repro.experiments.plan` -- :func:`report_requests`, every
  ``(hosts, config)`` run the tables and figures consume, for
  :meth:`repro.runner.Runner.prefetch`.
* :mod:`repro.experiments.chaos` -- fault-plan replays of the testbed
  against a fault-free baseline (``nws-repro chaos``).

Execution goes through :class:`repro.runner.Runner` (parallel workers +
content-addressed on-disk cache); table/figure generators all share the
uniform ``(runner, config)`` signature and fall back to the process-wide
default runner.  ``run_host``, ``Testbed`` and ``Testbed.run(s)`` remain
as deprecated shims for one release.

Every entry point takes ``seed`` and duration parameters and is
deterministic given them.
"""

from repro.experiments.chaos import ChaosReport, HostChaos, run_chaos
from repro.experiments.results import FigureResult, TableResult
from repro.experiments.tables import table1, table2, table3, table4, table5, table6
from repro.experiments.figures import figure1, figure2, figure3, figure4
from repro.experiments.plan import report_requests
from repro.experiments.smp import SmpResult, smp_study, smp_sweep
from repro.experiments.testbed import (
    HostRun,
    Testbed,
    TestbedConfig,
    clear_run_cache,
    run_host,
    simulate_host,
)

__all__ = [
    "ChaosReport",
    "FigureResult",
    "HostChaos",
    "HostRun",
    "SmpResult",
    "TableResult",
    "Testbed",
    "TestbedConfig",
    "clear_run_cache",
    "figure1",
    "figure2",
    "figure3",
    "figure4",
    "report_requests",
    "run_chaos",
    "run_host",
    "simulate_host",
    "smp_study",
    "smp_sweep",
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
]
