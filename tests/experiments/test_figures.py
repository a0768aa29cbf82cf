"""Figure runners: smoke tests on a tiny scenario + report formatting."""

import pytest

from repro.experiments import (controller_factory, format_fig14,
                               format_fig15, format_table,
                               run_fig14_ablation, run_fig15_sensitivity,
                               run_main_comparison)
from repro.experiments.figures import SYSTEMS
from repro.experiments.scenarios import Scenario

TINY = Scenario(name="tiny-fig", warmup=5.0, post_duration=15.0,
                stabilize_hold=3.0, state_scale=0.005, batch_size=400,
                sensitivity_window=8.0, old_parallelism=4,
                new_parallelism=6, sens_old_parallelism=4,
                sens_new_parallelism=5)


def test_controller_factory_knows_every_system():
    for name in SYSTEMS:
        assert callable(controller_factory(name))
    with pytest.raises(ValueError):
        controller_factory("unknown")


def test_main_comparison_is_memoised():
    a = run_main_comparison(TINY, workloads=("custom",),
                            systems=("otfs",))
    b = run_main_comparison(TINY, workloads=("custom",),
                            systems=("otfs",))
    assert a is b
    result = a["custom"]["otfs"]
    assert result.scaling_metrics is not None


def test_fig14_tiny_runs_and_formats():
    out = run_fig14_ablation(TINY, variants=("drrs", "dr"))
    text = format_fig14(out)
    assert "drrs" in text and "dr" in text
    rows = {r["variant"]: r for r in out["rows"]}
    assert "peak_increase_pct" in rows["dr"]


def test_fig15_tiny_grid():
    grid = {"rates": [2000.0], "state_bytes": [5e9], "skews": [0.0]}
    out = run_fig15_sensitivity(TINY, grid=grid, systems=("otfs",))
    assert len(out["rows"]) == 1
    row = out["rows"][0]
    assert 0.0 <= row["throughput_deviation_pct"] <= 100.0
    assert "measured_rate" in row
    assert "otfs" in format_fig15(out)


class TestReportFormatting:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": "xy"}, {"a": 22.5, "b": "z"}]
        text = format_table(rows, title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="T")

    def test_format_handles_none(self):
        text = format_table([{"x": None}])
        assert "-" in text
