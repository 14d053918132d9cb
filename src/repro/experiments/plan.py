"""The simulations a full reproduction consumes, as one list.

:func:`report_requests` names every ``(hosts, config)`` run that tables
1-6 and figures 1-4 ask their runner for, built from the same helpers the
generators use, so a caller can hand the whole plan to
:meth:`repro.runner.Runner.prefetch` before the first table and the list
cannot drift from what the generators read.
"""

from __future__ import annotations

from repro.experiments.figures import FIGURE_HOSTS, WEEK
from repro.experiments.tables import medium
from repro.experiments.testbed import TestbedConfig

__all__ = ["report_requests"]


def report_requests(
    config: TestbedConfig, *, figure3_duration: float = WEEK
) -> list[tuple[tuple[str, ...] | None, TestbedConfig]]:
    """Every run the tables and figures need for base ``config``.

    * the full testbed at ``config``: tables 1-5, figures 1 and 2;
    * the full testbed at :func:`~repro.experiments.tables.medium`
      ``(config)``: table 6 and figure 4;
    * the figure hosts over ``figure3_duration``: figure 3.
    """
    return [
        (None, config),
        (None, medium(config)),
        (FIGURE_HOSTS, config.derive(duration=figure3_duration)),
    ]
