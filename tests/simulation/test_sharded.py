"""Sharded kernel units: partitioner, credit ledger, replan loop, config.

The full shard-vs-single equivalence runs (real worker processes) live in
``tests/experiments/test_shard_equivalence.py``; this file covers the
deterministic single-process pieces.
"""

import pytest

from repro.engine.graph import JobGraph, OperatorSpec
from repro.engine.routing import (ShardPlan, partition_graph,
                                  topological_order)
from repro.engine.runtime import JobConfig
from repro.simulation import sharded
from repro.simulation.sharded import (ShardedRunResult, _replay_credits,
                                      plan_for_job, run_sharded,
                                      supports_sharding)
from repro.workloads.nexmark import NexmarkQ7


def _chain_graph(*names, source=0, latencies=None):
    """A linear graph; ``latencies[i]`` is the latency of edge i."""
    g = JobGraph("chain")
    for i, name in enumerate(names):
        if i <= source:
            g.add_source(name)
        else:
            g.add_operator(OperatorSpec(name=name,
                                        logic_factory=lambda: None))
    for a, b in zip(names, names[1:]):
        g.connect(a, b)
    lat = dict(zip((f"{a}->{b}" for a, b in zip(names, names[1:])),
                   latencies or []))
    return g, (lambda e: lat.get(e.name, 0.001))


class TestPartitionGraph:
    def test_contiguous_balanced_split(self):
        g, lat = _chain_graph("s", "a", "b", "c", "d",
                              latencies=[0.1] * 4)
        weights = {"s": 1, "a": 4, "b": 4, "c": 4, "d": 4}
        plan = partition_graph(g, 2, lat, weights=weights)
        assert plan.num_shards == 2
        # contiguity in topological order, all ops covered exactly once
        flat = [op for shard in plan.shards for op in shard]
        assert flat == topological_order(g)
        # min-max balance: 9 vs 8 beats any other boundary
        loads = [sum(weights[op] for op in shard) for shard in plan.shards]
        assert max(loads) == 9

    def test_zero_latency_edges_are_never_cut(self):
        g, lat = _chain_graph("s", "a", "b", "c",
                              latencies=[0.1, 0.0, 0.1])
        plan = partition_graph(g, 2, lat)
        assert "a->b" not in plan.cut_edges
        assert all(lat_edge in ("s->a", "b->c")
                   for lat_edge in plan.cut_edges)

    def test_clamps_when_no_legal_boundary(self):
        g, lat = _chain_graph("s", "a", "b", latencies=[0.0, 0.0])
        plan = partition_graph(g, 4, lat)
        assert plan.num_shards == 1
        assert plan.cut_edges == []
        assert plan.lookahead == 0.0

    def test_sources_stay_in_shard_zero(self):
        g, lat = _chain_graph("s0", "s1", "a", "b", source=1,
                              latencies=[0.1] * 3)
        g.connect("s0", "a")
        plan = partition_graph(g, 4, lat)
        assert plan.shard_of["s0"] == 0
        assert plan.shard_of["s1"] == 0

    def test_lookahead_is_min_cut_latency(self):
        g, lat = _chain_graph("s", "a", "b", "c",
                              latencies=[0.5, 0.002, 0.3])
        plan = partition_graph(g, 4, lat)
        assert plan.lookahead == pytest.approx(
            min(0.5, 0.002, 0.3))

    def test_rejects_nonpositive_shards(self):
        g, lat = _chain_graph("s", "a", latencies=[0.1])
        with pytest.raises(ValueError, match="num_shards"):
            partition_graph(g, 0, lat)

    def test_describe_mentions_every_shard(self):
        g, lat = _chain_graph("s", "a", "b", latencies=[0.1, 0.1])
        plan = partition_graph(g, 3, lat)
        text = plan.describe()
        for i in range(plan.num_shards):
            assert f"shard {i}:" in text


class TestPlanForJob:
    def test_plans_real_workload_with_actual_latencies(self):
        job = NexmarkQ7().build(job_config=JobConfig())
        plan = plan_for_job(job, 2)
        assert plan.num_shards == 2
        assert plan.cut_edges
        assert plan.lookahead > 0.0

    def test_forbidden_edges_are_not_cut(self):
        job = NexmarkQ7().build(job_config=JobConfig())
        baseline = plan_for_job(job, 2)
        forbidden = set(baseline.cut_edges)
        replan = plan_for_job(job, 2, forbidden_edges=forbidden)
        assert not (set(replan.cut_edges) & forbidden)


class TestCreditLedger:
    def test_safe_when_capacity_never_exhausted(self):
        ok, problems, flagged = _replay_credits(
            {7: [(0.1, 2), (0.2, 2)]}, {7: [0.15, 0.15]}, capacity=4)
        assert ok and not problems and not flagged

    def test_flags_exhaustion_with_edge_name(self):
        debits = {7: [(0.1, 3), (0.2, 3)]}   # 6 debits, 4 credits, 0 back
        ok, problems, flagged = _replay_credits(
            debits, {}, capacity=4, edge_of={7: "a->b"})
        assert not ok
        assert flagged == {"a->b"}
        assert "a->b" in problems[0]
        assert "low-water -2" in problems[0]

    def test_returns_are_credited_before_same_time_debits(self):
        # at t=0.2 a return and a debit collide: the return lands first,
        # matching the receiver freeing a slot before the send is admitted
        ok, problems, _ = _replay_credits(
            {1: [(0.1, 1), (0.2, 1)]}, {1: [0.2]}, capacity=1)
        assert ok, problems


class TestReplanLoop:
    def _fake_result(self, plan, safe, flag_edges=()):
        result = ShardedRunResult({}, shards=plan.num_shards, plan=plan,
                                  backpressure_safe=safe)
        result._flagged_edges = set(flag_edges)
        return result

    def test_replans_on_flagged_cut_edge(self, monkeypatch):
        calls = []

        def fake_once(workload_factory, probe_job, plan, config, **kw):
            calls.append(list(plan.cut_edges))
            if len(calls) == 1:
                return self._fake_result(plan, safe=False,
                                         flag_edges=plan.cut_edges[:1])
            return self._fake_result(plan, safe=True)

        monkeypatch.setattr(sharded, "_run_sharded_once", fake_once)
        result = run_sharded(NexmarkQ7, until=1.0, shards=2,
                             job_config=JobConfig())
        assert len(calls) == 2
        assert result.backpressure_safe
        assert result.replans == 1
        assert result.forbidden_cuts == calls[0][:1]
        assert not (set(calls[1]) & set(result.forbidden_cuts))

    def test_gives_up_after_max_replans(self, monkeypatch):
        def fake_once(workload_factory, probe_job, plan, config, **kw):
            return self._fake_result(plan, safe=False,
                                     flag_edges=plan.cut_edges[:1])

        monkeypatch.setattr(sharded, "_run_sharded_once", fake_once)
        result = run_sharded(NexmarkQ7, until=1.0, shards=2,
                             job_config=JobConfig(), max_replans=1)
        assert not result.backpressure_safe
        assert result.replans == 1


class TestConfigPlumbing:
    def test_jobconfig_shards_validation(self):
        assert JobConfig(shards=4).shards == 4
        with pytest.raises(ValueError, match="shards"):
            JobConfig(shards=0)
        with pytest.raises(ValueError, match="shards"):
            JobConfig(shards=JobConfig.MAX_SHARDS + 1)
        with pytest.raises(ValueError, match="shards"):
            JobConfig(shards=True)

    def test_repro_shards_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "3")
        assert JobConfig().shards == 3
        monkeypatch.setenv("REPRO_SHARDS", "many")
        with pytest.raises(ValueError, match="REPRO_SHARDS"):
            JobConfig()
        monkeypatch.delenv("REPRO_SHARDS")
        assert JobConfig().shards == 1

    def test_explicit_shards_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "7")
        assert JobConfig(shards=2).shards == 2

    def test_supports_sharding_degradations(self):
        assert supports_sharding(JobConfig())
        assert not supports_sharding(JobConfig(), controller=object())
        assert not supports_sharding(JobConfig(), telemetry=True)
        assert not supports_sharding(JobConfig(), faults=True)

    def test_supports_sharding_reasons_are_machine_readable(self):
        verdict = supports_sharding(JobConfig())
        assert verdict.supported and verdict.reason is None
        cases = {
            "controller": dict(controller=object()),
            "telemetry": dict(telemetry=True),
            "faults": dict(faults=True),
        }
        for reason, kwargs in cases.items():
            verdict = supports_sharding(JobConfig(), **kwargs)
            assert not verdict.supported
            assert verdict.reason == reason
            assert verdict.detail

    def test_supports_sharding_rejects_changelog_backend(self):
        verdict = supports_sharding(
            JobConfig(state_backend="changelog"))
        assert not verdict
        assert verdict.reason == "changelog-async-uploads"

    def test_degraded_run_warns_once_with_reason(self):
        with pytest.warns(RuntimeWarning,
                          match=r"\[changelog-async-uploads\]"):
            result = run_sharded(
                NexmarkQ7, until=2.0, shards=2,
                job_config=JobConfig(state_backend="changelog"))
        assert result.shards == 1
        assert result.plan is None
        assert result.shards_requested == 2
        assert result.degraded == ["single-process:changelog-async-uploads"]

    def test_shards_one_falls_back_to_single_process(self):
        result = run_sharded(NexmarkQ7, until=2.0, shards=1,
                             job_config=JobConfig())
        assert result.shards == 1
        assert result.backpressure_safe
        assert result.plan is None
        assert result.shards_requested == 1 and result.degraded == []

    def test_clamped_shard_count_is_reported_not_silent(self):
        """Q7 has two legal cut boundaries: asking for four workers gets
        three, and the result and a warning both say so."""
        with pytest.warns(RuntimeWarning, match="clamped from 4 to 3"):
            result = run_sharded(NexmarkQ7, until=2.0, shards=4,
                                 job_config=JobConfig(inbox_capacity=256))
        assert (result.shards, result.shards_requested) == (3, 4)
        assert result.degraded == ["clamped:4->3"]
        assert result.plan.num_shards == 3

    def test_jobconfig_shard_inbox_validation(self):
        assert JobConfig().shard_inbox_capacity == 512
        assert JobConfig(shard_inbox_capacity=64).shard_inbox_capacity == 64
        for bad in (0, -1, True, "many",
                    JobConfig.MAX_SHARD_INBOX + 1):
            with pytest.raises(ValueError, match="shard_inbox_capacity"):
                JobConfig(shard_inbox_capacity=bad)

    def test_repro_shard_inbox_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_INBOX", "128")
        assert JobConfig().shard_inbox_capacity == 128
        # explicit beats env
        assert JobConfig(
            shard_inbox_capacity=256).shard_inbox_capacity == 256
        monkeypatch.setenv("REPRO_SHARD_INBOX", "lots")
        with pytest.raises(ValueError, match="REPRO_SHARD_INBOX"):
            JobConfig()

    def test_jobconfig_shard_transport_validation(self, monkeypatch):
        assert JobConfig().shard_transport == "auto"
        assert JobConfig(shard_transport="pipe").shard_transport == "pipe"
        with pytest.raises(ValueError, match="shard_transport"):
            JobConfig(shard_transport="carrier-pigeon")
        monkeypatch.setenv("REPRO_SHARD_TRANSPORT", "shm")
        assert JobConfig().shard_transport == "shm"
        monkeypatch.setenv("REPRO_SHARD_TRANSPORT", "smoke-signal")
        with pytest.raises(ValueError, match="shard_transport"):
            JobConfig()


class TestAdaptiveQuantum:
    def test_widen_after_productive_streak(self):
        aq = sharded._AdaptiveQuantum(0.25, growth_limit=32.0)
        assert aq.value == 0.25
        aq.productive()
        assert aq.value == 0.25  # one productive round is not enough
        aq.productive()
        assert aq.value == 0.5
        for _ in range(40):
            aq.productive()
        assert aq.value == 0.25 * 32.0  # capped at the growth limit

    def test_shrink_on_blocked_wait(self):
        aq = sharded._AdaptiveQuantum(0.25, growth_limit=32.0)
        for _ in range(8):
            aq.productive()
        widened = aq.value
        assert widened > 0.25
        aq.blocked()
        assert aq.value == widened / 2
        for _ in range(20):
            aq.blocked()
        assert aq.value == 0.25  # never below the initial quantum

    def test_blocked_resets_the_streak(self):
        aq = sharded._AdaptiveQuantum(0.25)
        aq.productive()
        aq.blocked()
        aq.productive()
        assert aq.value == 0.25  # streak was broken, no widening yet
        assert aq.widenings == 0 and aq.shrinks == 0

    def test_growth_limit_one_pins_the_quantum(self):
        aq = sharded._AdaptiveQuantum(0.25, growth_limit=1.0)
        for _ in range(10):
            aq.productive()
        assert aq.value == 0.25
        assert aq.widenings == 0


class TestPerEdgeCapacities:
    def test_replay_honours_per_channel_capacity(self):
        # channel 1 would exhaust a window of 2 but survives with 4;
        # channel 2 survives either way under its own window
        debits = {1: [(0.1, 3)], 2: [(0.1, 1)]}
        ok, problems, flagged = _replay_credits(
            debits, {}, capacity={1: 2, 2: 8},
            edge_of={1: "a->b", 2: "b->c"})
        assert not ok and flagged == {"a->b"}
        assert "capacity 2" in problems[0]
        ok, problems, flagged = _replay_credits(
            debits, {}, capacity={1: 4, 2: 8},
            edge_of={1: "a->b", 2: "b->c"})
        assert ok, problems

    def test_annotate_cuts_attaches_hints(self):
        g, lat = _chain_graph("s", "a", "b", "c", latencies=[0.1] * 3)
        plan = partition_graph(g, 3, lat)
        assert len(plan.cut_edges) >= 2
        first, second = plan.cut_edges[0], plan.cut_edges[1]
        plan.annotate_cuts(ring_bytes={first: 1 << 16},
                           inbox_overrides={second: 64,
                                            "not->cut": 99})
        assert plan.cut_hints[first] == {"ring_bytes": 1 << 16}
        assert plan.cut_hints[second] == {"inbox_capacity": 64}
        assert "not->cut" not in plan.cut_hints

    def test_annotate_cuts_int_applies_to_all(self):
        g, lat = _chain_graph("s", "a", "b", latencies=[0.1] * 2)
        plan = partition_graph(g, 3, lat)
        plan.annotate_cuts(ring_bytes=4096)
        for name in plan.cut_edges:
            assert plan.cut_hints[name]["ring_bytes"] == 4096

    def test_run_sharded_cut_inbox_reaches_plan_hints(self):
        # A per-cut-edge window override must land in the recorded
        # plan's cut_hints (the same dict the workers and the credit
        # replay consume).
        probe = NexmarkQ7().build(job_config=JobConfig())
        cuts = plan_for_job(probe, 2).cut_edges
        assert cuts
        overrides = {cuts[0]: 1024}
        result = run_sharded(NexmarkQ7, until=5.0, shards=2,
                             job_config=JobConfig(inbox_capacity=256),
                             cut_inbox=overrides)
        assert result.backpressure_safe
        assert result.plan.cut_hints[cuts[0]]["inbox_capacity"] == 1024
