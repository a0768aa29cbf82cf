"""Experiment harness: protocol, scaling-period detection, result shape."""

import dataclasses

import pytest

from repro.engine.runtime import JobConfig
from repro.experiments import (ExperimentConfig, QUICK,
                               detect_scaling_period, run_experiment)
from repro.experiments.scenarios import Scenario, make_workload
from repro.scaling import OTFSController
from repro.workloads import CustomConfig, CustomWorkload

TINY = Scenario(name="tiny", warmup=6.0, post_duration=20.0,
                stabilize_hold=4.0, state_scale=0.002, batch_size=100,
                sensitivity_window=10.0, old_parallelism=2,
                new_parallelism=3, sens_old_parallelism=4,
                sens_new_parallelism=5)


def tiny_workload():
    return CustomWorkload(CustomConfig(
        rate=2000.0, batch_size=100, num_key_groups=16,
        operator_parallelism=2, target_state_bytes=2e7,
        marker_interval=0.1))


class TestDetectScalingPeriod:
    def test_immediate_stability(self):
        series = [(t, 0.1) for t in range(10, 40)]
        period = detect_scaling_period(series, scale_at=10.0, baseline=0.1,
                                       hold=5.0, end_at=40.0)
        assert period == pytest.approx(1.0, abs=1.5)

    def test_spike_then_recovery(self):
        series = ([(float(t), 5.0) for t in range(10, 20)]
                  + [(float(t), 0.1) for t in range(20, 40)])
        period = detect_scaling_period(series, scale_at=10.0, baseline=0.1,
                                       hold=5.0, end_at=40.0)
        assert 8.0 <= period <= 13.0

    def test_never_stabilizes_returns_none(self):
        series = [(float(t), 5.0) for t in range(10, 40)]
        assert detect_scaling_period(series, scale_at=10.0, baseline=0.1,
                                     hold=5.0, end_at=40.0) is None

    def test_single_sample_noise_is_smoothed(self):
        # One bad sample inside an otherwise-stable run must not reset the
        # hold window (samples are averaged in 2 s buckets).
        series = [(10 + 0.2 * i, 0.1) for i in range(150)]
        series[60] = (series[60][0], 0.15)  # mild outlier, bucket stays low
        period = detect_scaling_period(series, scale_at=10.0, baseline=0.1,
                                       hold=5.0, end_at=40.0)
        assert period is not None

    def test_empty_after_scale(self):
        assert detect_scaling_period([(1.0, 0.1)], scale_at=10.0,
                                     baseline=0.1) is None

    def test_zero_baseline_fallback(self):
        series = [(float(t), 0.2) for t in range(10, 30)]
        period = detect_scaling_period(series, scale_at=10.0, baseline=0.0,
                                       hold=5.0, end_at=30.0)
        assert period is not None


class TestRunExperiment:
    def test_no_scale_run(self):
        result = run_experiment(ExperimentConfig(
            workload=tiny_workload(), controller_factory=None,
            warmup=5.0, post_duration=10.0))
        assert result.controller_name == "no-scale"
        assert result.scaling_metrics is None
        assert result.scaling_period is None
        assert result.source_records > 0
        assert result.latency_series

    def test_scaled_run_produces_metrics(self):
        result = run_experiment(ExperimentConfig(
            workload=tiny_workload(),
            controller_factory=lambda job: OTFSController(job),
            new_parallelism=3,
            warmup=5.0, post_duration=20.0, stabilize_hold=4.0))
        assert result.controller_name == "otfs"
        assert result.scaling_metrics is not None
        assert result.scaling_metrics.duration is not None
        assert result.scaling_period is not None
        summary = result.summary()
        assert summary["migration_duration"] > 0
        assert "cumulative_propagation_delay" in summary

    def test_throughput_series_covers_run(self):
        result = run_experiment(ExperimentConfig(
            workload=tiny_workload(), controller_factory=None,
            warmup=4.0, post_duration=8.0, measure_window=1.0))
        assert len(result.throughput_series) == pytest.approx(12, abs=1)

    def test_a_sharded_config_is_refused(self):
        with pytest.raises(ValueError, match="run_sharded"):
            run_experiment(ExperimentConfig(
                workload=tiny_workload(), controller_factory=None,
                warmup=1.0, post_duration=1.0,
                job_config=JobConfig(shards=4)))

    def test_no_field_shadows_an_engine_knob(self):
        """Engine knobs live on JobConfig alone; an experiment passes one
        as ``job_config`` rather than re-declaring its fields."""
        shared = ({f.name for f in dataclasses.fields(ExperimentConfig)}
                  & {f.name for f in dataclasses.fields(JobConfig)})
        assert shared == set()


def test_scenario_factory_scales_state():
    full = make_workload("custom", QUICK)
    tiny = make_workload("custom", TINY)
    assert (tiny.config.target_state_bytes
            < full.config.target_state_bytes)
