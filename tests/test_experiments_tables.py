"""Tests for repro.experiments.tables: structure plus the paper's
qualitative signatures on a short (4-6 h) run.

The benchmark suite regenerates the full 24-hour tables; here we assert the
*shape* invariants from DESIGN.md hold even on the shorter, cheaper run.
"""

import dataclasses
import re

import numpy as np
import pytest

import repro.experiments.tables as tables
from repro.experiments.tables import table1, table2, table3, table4, table5, table6
from repro.runner import ResultCache, Runner, config_digest, default_runner
from repro.runner.cache import _encode
from repro.sensors.suite import METHODS
from repro.workload.profiles import profile_names

from tests.conftest import SHORT, SHORT_MEDIUM

HOURS4 = SHORT.duration
SEED = SHORT.seed


def cell_percent(table, host, column):
    """Parse the leading float out of a formatted '12.3%'-style cell."""
    text = str(table.cell(host, column))
    match = re.search(r"-?\d+(\.\d+)?", text)
    assert match, text
    return float(match.group())


@pytest.fixture(scope="module")
def t1():
    return table1(seed=SEED, duration=HOURS4)


@pytest.fixture(scope="module")
def t2():
    return table2(seed=SEED, duration=HOURS4)


@pytest.fixture(scope="module")
def t3():
    return table3(seed=SEED, duration=HOURS4)


class TestTable1:
    def test_structure(self, t1):
        assert t1.table_id == "table1"
        assert [row[0] for row in t1.rows] == profile_names()
        assert len(t1.headers) == 4
        assert t1.paper  # side-by-side values included

    def test_conundrum_anomaly(self, t1):
        # Priority-blind methods fail badly; the probe-armed hybrid wins.
        la = cell_percent(t1, "conundrum", "Load Average")
        vm = cell_percent(t1, "conundrum", "vmstat")
        hy = cell_percent(t1, "conundrum", "NWS Hybrid")
        assert la > 25.0 and vm > 25.0
        assert hy < 10.0

    def test_kongo_anomaly(self, t1):
        # The short probe is fooled by the long-running job; the cheap
        # methods are fine.
        la = cell_percent(t1, "kongo", "Load Average")
        hy = cell_percent(t1, "kongo", "NWS Hybrid")
        assert hy > 20.0
        assert la < 15.0
        assert hy > 2.0 * la

    def test_normal_hosts_moderate_errors(self, t1):
        for host in ("thing1", "gremlin", "beowulf"):
            for column in ("Load Average", "vmstat", "NWS Hybrid"):
                assert cell_percent(t1, host, column) < 22.0, (host, column)

    def test_render_contains_all_hosts(self, t1):
        text = t1.render()
        for host in profile_names():
            assert host in text


class TestTable2:
    def test_true_forecasting_close_to_measurement_error(self, t2):
        # The paper's central Table 2 point: prediction adds little error.
        for row in t2.rows:
            for cell in row[1:]:
                match = re.match(r"([\d.]+)% \(([\d.]+)%\)", cell)
                assert match, cell
                forecast_err, meas_err = float(match.group(1)), float(match.group(2))
                assert abs(forecast_err - meas_err) < max(3.0, 0.35 * meas_err)

    def test_kongo_hybrid_stays_pathological(self, t2):
        assert cell_percent(t2, "kongo", "NWS Hybrid") > 20.0


class TestTable3:
    def test_one_step_prediction_errors_small(self, t3):
        # Paper: < 5 % everywhere.  Allow a small margin on the short run.
        for row in t3.rows:
            for cell in row[1:]:
                assert float(cell.rstrip("%")) < 7.0, row

    def test_static_hosts_are_most_predictable(self, t3):
        assert cell_percent(t3, "kongo", "Load Average") < 1.0
        assert cell_percent(t3, "conundrum", "Load Average") < 1.0


class TestTable4:
    @pytest.fixture(scope="class")
    def t4(self):
        return table4(seed=SEED, duration=HOURS4)

    def test_hurst_in_self_similar_range(self, t4):
        for row in t4.rows:
            hurst = float(row[1])
            assert 0.5 < hurst < 1.0, row

    def test_aggregated_variance_not_larger(self, t4):
        # Column pairs: (orig, 300s) per method; aggregation must not
        # inflate variance (paper's kongo/conundrum hybrid exceptions are
        # tiny absolute numbers; allow equality within rounding).
        for row in t4.rows:
            for orig_idx in (2, 4, 6):
                orig = float(row[orig_idx])
                agg = float(row[orig_idx + 1])
                assert agg <= orig + 5e-3, row

    def test_variance_decay_slower_than_iid(self, t4):
        # Self-similarity: var(X^(30)) >> var(X)/30 on the busy hosts.
        for host_row in t4.rows:
            if host_row[0] not in ("thing1", "thing2", "beowulf"):
                continue
            orig = float(host_row[2])
            agg = float(host_row[3])
            assert agg > orig / 30.0, host_row


class TestTable5:
    @pytest.fixture(scope="class")
    def t5(self):
        return table5(seed=SEED, duration=HOURS4)

    def test_cells_parse_and_stars_consistent(self, t5):
        pattern = re.compile(r"(\*?)([\d.]+)% \(([\d.]+)%\)")
        star_count = 0
        for row in t5.rows:
            for cell in row[1:]:
                match = pattern.match(cell)
                assert match, cell
                starred = match.group(1) == "*"
                agg_err = float(match.group(2))
                orig_err = float(match.group(3))
                # The star is computed before display rounding, so only
                # check consistency when the rounded values distinguish.
                if agg_err != orig_err:
                    assert starred == (agg_err < orig_err)
                star_count += starred
        # Paper has a handful of starred cells, not all, not none...
        # on short runs at least the consistency must hold.
        assert 0 <= star_count <= 18


class TestTable6:
    @pytest.fixture(scope="class")
    def t6(self):
        return table6(seed=SEED, duration=SHORT_MEDIUM.duration)

    def test_structure(self, t6):
        assert [row[0] for row in t6.rows] == profile_names()

    def test_kongo_hybrid_pathological_medium_term(self, t6):
        hy = cell_percent(t6, "kongo", "NWS Hybrid")
        la = cell_percent(t6, "kongo", "Load Average")
        assert hy > 15.0 and la < 10.0

    def test_conundrum_hybrid_good_medium_term(self, t6):
        assert cell_percent(t6, "conundrum", "NWS Hybrid") < 12.0


class TestRawBacktestMemo:
    """Tables 2, 3 and 5 share one backtest of each raw series per run."""

    @pytest.fixture(scope="class")
    def cache_dir(self, tmp_path_factory):
        """The SHORT testbed on disk: each runner over it decodes fresh runs."""
        root = tmp_path_factory.mktemp("memo-cache")
        cache = ResultCache(root)
        for run in default_runner().run(None, SHORT):
            cache.store(config_digest(run.host, SHORT), run)
        return root

    @pytest.fixture
    def calls(self, monkeypatch):
        """Every input ``repro.experiments.tables`` backtests, in order."""
        seen = []
        real = tables.forecast_series

        def counting(values, *args, **kwargs):
            seen.append(values)
            return real(values, *args, **kwargs)

        monkeypatch.setattr(tables, "forecast_series", counting)
        return seen

    def test_raw_series_backtested_once_across_tables(self, cache_dir, calls):
        runner = Runner(cache=cache_dir)
        for generate in (table2, table3, table5):
            generate(runner, SHORT)
        raw = [
            run.values(method) for run in runner.run(None, SHORT) for method in METHODS
        ]
        raw_calls = [v for v in calls if any(v is r for r in raw)]
        assert len(raw_calls) == 18
        assert len(calls) == 18 + 18  # plus Table 5's aggregated series

    def test_shared_backtests_render_as_fresh_ones(self, cache_dir):
        runner = Runner(cache=cache_dir)
        shared = [generate(runner, SHORT) for generate in (table2, table3, table5)]
        fresh = [
            generate(Runner(cache=cache_dir), SHORT)
            for generate in (table2, table3, table5)
        ]
        assert [t.render() for t in shared] == [t.render() for t in fresh]

    def test_engine_is_part_of_the_key(self, cache_dir, calls):
        runner = Runner(cache=cache_dir)
        batch = table3(runner, SHORT, engine="batch")
        assert len(calls) == 18
        stream = table3(runner, SHORT, engine="stream")
        assert len(calls) == 36
        assert stream.rows == batch.rows
        for run in runner.run(None, SHORT):
            for method in METHODS:
                np.testing.assert_array_equal(
                    run._backtests[(method, "stream")], run._backtests[(method, "batch")]
                )

    def test_cached_forecasts_are_read_only(self, cache_dir):
        runner = Runner(cache=cache_dir)
        table2(runner, SHORT)
        for run in runner.run(None, SHORT):
            assert sorted(run._backtests) == [(m, "auto") for m in sorted(METHODS)]
            for forecasts in run._backtests.values():
                assert not forecasts.flags.writeable
                with pytest.raises(ValueError):
                    forecasts[1] = 0.0

    def test_memo_is_not_part_of_equality_or_encoding(self, cache_dir):
        runner = Runner(cache=cache_dir)
        table3(runner, SHORT)
        run = runner.run_one("thing1", SHORT)
        assert run._backtests
        decoded = Runner(cache=cache_dir).run_one("thing1", SHORT)
        assert not decoded._backtests
        assert run == dataclasses.replace(run)  # an empty memo, same fields
        filled, empty = _encode(run), _encode(decoded)
        assert sorted(filled) == sorted(empty)
        for name in filled:
            np.testing.assert_array_equal(filled[name], empty[name])
