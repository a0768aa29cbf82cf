"""Workload construction and steady-state behaviour."""

import pytest

from repro.engine import JobConfig
from repro.experiments.scenarios import QUICK, make_workload
from repro.workloads import (CustomConfig, CustomWorkload, NexmarkConfig,
                             NexmarkQ7, NexmarkQ8, TwitchConfig,
                             TwitchWorkload, WorkloadConfig)


class TestConfigs:
    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            WorkloadConfig(rate=0)

    def test_rejects_bad_batch(self):
        with pytest.raises(ValueError):
            WorkloadConfig(batch_size=0)

    def test_rejects_negative_skew(self):
        with pytest.raises(ValueError):
            WorkloadConfig(skew=-1.0)

    @pytest.mark.parametrize("workload", [NexmarkQ7, TwitchWorkload])
    def test_build_refuses_a_sharded_config(self, workload):
        # A StreamJob runs in one process: a config asking for several is
        # refused, never run on one without a word.
        with pytest.raises(ValueError, match="run_sharded"):
            workload().build(job_config=JobConfig(shards=4))


class TestGraphShapes:
    def test_q7_topology(self):
        graph = NexmarkQ7().build_graph()
        graph.validate()
        assert set(graph.operators) == {"bids-source", "q7-window",
                                        "q7-sink"}
        assert graph.operators["q7-window"].keyed

    def test_q8_topology_has_two_sources(self):
        graph = NexmarkQ8().build_graph()
        graph.validate()
        assert len(graph.sources()) == 2
        assert graph.upstream_of("q8-join") == ["persons-source",
                                                "auctions-source"]

    def test_twitch_topology_is_seven_operators(self):
        graph = TwitchWorkload().build_graph()
        graph.validate()
        assert len(graph.operators) == 7

    def test_custom_topology_is_three_operators(self):
        graph = CustomWorkload().build_graph()
        graph.validate()
        assert len(graph.operators) == 3


class TestSteadyState:
    def test_q7_reaches_paper_state_size(self):
        """Q7 window state approaches ~800 MB at the default rate (§V-B)."""
        workload = NexmarkQ7(NexmarkConfig(batch_size=200))
        job = workload.build()
        job.run(until=25.0)
        state = job.total_state_bytes("q7-window")
        assert 4e8 < state < 1.6e9

    def test_twitch_reaches_paper_state_size(self):
        """Twitch loyalty state reaches ~500 MB at scale time (§V-A)."""
        workload = TwitchWorkload(TwitchConfig(batch_size=200))
        job = workload.build()
        job.run(until=30.0)
        state = job.total_state_bytes("loyalty")
        assert 2e8 < state < 1.2e9

    def test_custom_state_floor_is_configurable(self):
        config = CustomConfig(target_state_bytes=1e9, batch_size=200)
        job = CustomWorkload(config).build()
        assert job.total_state_bytes("aggregator") == pytest.approx(1e9)

    def test_custom_rate_is_honoured(self):
        config = CustomConfig(rate=2000.0, batch_size=100)
        job = CustomWorkload(config).build()
        job.run(until=20.0)
        produced = job.metrics.total_source_output(start=5.0, end=20.0)
        assert produced == pytest.approx(2000.0 * 15.0, rel=0.1)

    def test_latency_markers_flow(self):
        job = CustomWorkload(CustomConfig(batch_size=100)).build()
        job.run(until=10.0)
        assert job.metrics.latency_stats()["count"] > 10

    def test_duration_bounds_generation(self):
        config = CustomConfig(rate=2000.0, batch_size=100, duration=3.0)
        job = CustomWorkload(config).build()
        job.run(until=20.0)
        late = job.metrics.total_source_output(start=5.0)
        assert late == 0

    def test_twitch_skew_concentrates_traffic(self):
        job = TwitchWorkload(TwitchConfig(batch_size=200)).build()
        job.run(until=20.0)
        loads = sorted((i.records_processed
                        for i in job.instances("loyalty")), reverse=True)
        assert loads[0] > loads[-1] * 1.3  # hot channels exist


class TestScenarioFactory:
    @pytest.mark.parametrize("kind", ["q7", "q8", "twitch", "custom"])
    def test_make_workload_builds(self, kind):
        workload = make_workload(kind, QUICK)
        job = workload.build()
        job.run(until=2.0)
        assert job.metrics.total_source_output() > 0

    def test_make_workload_overrides(self):
        workload = make_workload("custom", QUICK, rate=123.0, skew=1.5)
        assert workload.config.rate == 123.0
        assert workload.config.skew == 1.5

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_workload("nope", QUICK)
