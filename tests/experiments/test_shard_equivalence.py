"""Shard-vs-single equivalence: the multi-process kernel is a pure
wall-clock optimization.

A sharded run must produce the *same simulation* as single-process: equal
sink-record multisets, keyed-state digests, watermark traces, latency
samples and per-operator counters — with the credit ledger certifying
that single-process flow control would never have engaged (the one
mechanism that could make the conservative schedule diverge).  These
tests spawn real worker processes.
"""

import os
import sys

import pytest

from repro.engine.runtime import JobConfig
from repro.experiments.harness import ExperimentConfig, run_experiment
from repro.simulation.sharded import (run_sharded, run_single_reference,
                                      supports_sharding)
from repro.workloads.nexmark import NexmarkQ7
from repro.workloads.twitch import TwitchWorkload

pytestmark = pytest.mark.skipif(
    sys.platform == "win32" or not hasattr(os, "fork"),
    reason="sharded kernel needs the fork start method")

#: Inbox capacity for shard runs (applied to the single-process reference
#: too — identical config on both sides): the engine default (32) is
#: smaller than one max-size batch, so flow control engages constantly at
#: scale and credit timing becomes consumption-dependent.
_SHARD_CONFIG = JobConfig(inbox_capacity=256)


def _both(workload_cls, *, until, shards):
    single = run_single_reference(
        workload_cls, until=until, job_config=_SHARD_CONFIG,
        collect_sinks=True, trace_watermarks=True)
    multi = run_sharded(
        workload_cls, until=until, shards=shards,
        job_config=_SHARD_CONFIG, collect_sinks=True,
        trace_watermarks=True)
    return single, multi


def _assert_equivalent(single, multi):
    assert multi.backpressure_safe, multi.backpressure_detail
    sv, mv = single.semantic_view(), multi.semantic_view()
    assert set(sv) == set(mv)
    for key in sv:
        assert mv[key] == sv[key], f"semantic_view[{key!r}] diverged"


def test_q7_two_shards_equivalent():
    single, multi = _both(NexmarkQ7, until=30.0, shards=2)
    assert multi.shards == multi.shards_requested == 2
    assert multi.degraded == []
    _assert_equivalent(single, multi)
    # non-vacuous: the run really processed records end to end
    assert multi.total_sink_input() > 0
    assert multi.total_source_output() > 0
    # sink record views (payload-level, not just counts) match exactly
    assert multi.view["sinks"] == single.view["sinks"]
    # watermarks and their traces survived the cut channels bit-for-bit
    assert multi.view["watermarks"] == single.view["watermarks"]
    assert multi.view["watermark_traces"] == single.view["watermark_traces"]
    # keyed-state digests: every operator instance ended in the same state
    assert multi.view["state_digests"] == single.view["state_digests"]


def test_twitch_three_shards_equivalent():
    single, multi = _both(TwitchWorkload, until=20.0, shards=3)
    assert multi.shards >= 2
    # The source's chain is one task: it is planned as one block.
    assert multi.plan.shards[0][:4] == ["twitch-source", "parse",
                                        "bot-filter", "enrich"]
    _assert_equivalent(single, multi)
    assert multi.total_sink_input() > 0


def test_worker_cpu_accounting_present():
    _, multi = _both(NexmarkQ7, until=10.0, shards=2)
    assert len(multi.worker_cpus) == multi.shards
    assert multi.bottleneck_cpu_s > 0.0
    assert len(multi.events_per_shard) == multi.shards
    assert all(n > 0 for n in multi.events_per_shard)


def test_harness_sharded_run_matches_single():
    """run_experiment(shards=N) reproduces the single-process figures."""

    def config(shards):
        return ExperimentConfig(
            workload=NexmarkQ7(), warmup=5.0, post_duration=15.0,
            job_config=_SHARD_CONFIG, shards=shards)

    ref = run_experiment(config(1))
    shard = run_experiment(config(2))
    assert shard.source_records == ref.source_records
    assert shard.sink_records == ref.sink_records
    assert sorted(shard.latency_series) == sorted(ref.latency_series)
    assert shard.throughput_series == ref.throughput_series
    assert shard.pre_latency == ref.pre_latency
    assert shard.during_latency == ref.during_latency


def test_harness_controller_run_ignores_shards():
    """Scaling-controller runs silently degrade to single-process (the
    rescale machinery needs one global event loop)."""
    from repro.scaling.otfs import OTFSController

    result = run_experiment(ExperimentConfig(
        workload=NexmarkQ7(),
        controller_factory=lambda job: OTFSController(job),
        new_parallelism=6, warmup=5.0, post_duration=10.0, shards=4))
    assert result.controller_name != "no-scale"
    assert result.job is not None  # single-process path keeps the job


def test_supports_sharding_gate_matches_fallbacks():
    assert supports_sharding(_SHARD_CONFIG)
    assert not supports_sharding(_SHARD_CONFIG, telemetry=True)


# ---------------------------------------------------------------------------
# Transport matrix: the shm columnar data plane vs the pipe baseline
# ---------------------------------------------------------------------------

def _run_transport(workload_cls, transport, *, until, shards):
    return run_sharded(
        workload_cls, until=until, shards=shards,
        job_config=_SHARD_CONFIG, collect_sinks=True,
        trace_watermarks=True, transport=transport)


@pytest.mark.parametrize("transport", ["pipe", "shm"])
def test_transport_equivalent_to_single(transport):
    single = run_single_reference(
        NexmarkQ7, until=25.0, job_config=_SHARD_CONFIG,
        collect_sinks=True, trace_watermarks=True)
    multi = _run_transport(NexmarkQ7, transport, until=25.0, shards=2)
    assert multi.transport == transport
    _assert_equivalent(single, multi)
    assert multi.view["sinks"] == single.view["sinks"]
    assert multi.view["watermark_traces"] == single.view["watermark_traces"]


def test_pipe_and_shm_agree_on_seeded_twitch():
    """The ISSUE's equivalence bar: a seeded, chaos-free Twitch run is
    byte-identical across transports (sinks, digests, watermarks)."""
    pipe = _run_transport(TwitchWorkload, "pipe", until=15.0, shards=3)
    shm = _run_transport(TwitchWorkload, "shm", until=15.0, shards=3)
    assert pipe.backpressure_safe and shm.backpressure_safe
    pv, sv = pipe.semantic_view(), shm.semantic_view()
    assert set(pv) == set(sv)
    for key in pv:
        assert sv[key] == pv[key], f"semantic_view[{key!r}] diverged"
    assert shm.view["sinks"] == pipe.view["sinks"]
    assert shm.view["state_digests"] == pipe.view["state_digests"]
    assert shm.view["watermark_traces"] == pipe.view["watermark_traces"]


def test_sync_counters_present_and_directional():
    """The shm protocol must demonstrably do *less* synchronization work
    than the pipe baseline on the same run: fewer frames (adaptive
    quantum merges rounds) and no more bare nulls than the pipe's
    eager-null count."""
    pipe = _run_transport(NexmarkQ7, "pipe", until=25.0, shards=2)
    shm = _run_transport(NexmarkQ7, "shm", until=25.0, shards=2)
    pt, st = pipe.sync_totals(), shm.sync_totals()
    assert pt["transport"] == "pipe" and st["transport"] == "shm"
    for totals in (pt, st):
        assert totals["grant_rounds"] > 0
        assert totals["frames_sent"] > 0
        assert totals["msgs_sent"] > 0
        assert totals["bytes_shipped"] > 0
    # identical cut-edge message stream on both transports
    assert st["msgs_sent"] == pt["msgs_sent"]
    # adaptive quantum: strictly fewer synchronization rounds and frames
    assert st["grant_rounds"] < pt["grant_rounds"]
    assert st["frames_sent"] < pt["frames_sent"]
    # demand-driven nulls never exceed the eager baseline
    assert st["null_sent"] <= pt["null_sent"] + pt["null_suppressed"]
    # per-shard breakdown matches the worker count
    assert len(shm.sync_per_shard) == shm.shards
    for sync in shm.sync_per_shard:
        assert sync["transport"] == "shm"
        assert sync["quantum_final"] >= sync["quantum_initial"]


def test_auto_transport_resolves_to_shm():
    multi = _run_transport(NexmarkQ7, None, until=10.0, shards=2)
    assert multi.transport == "shm"
    multi = run_sharded(
        NexmarkQ7, until=10.0, shards=2,
        job_config=JobConfig(inbox_capacity=256, shard_transport="pipe"),
        collect_sinks=True)
    assert multi.transport == "pipe"


def test_oversized_frames_spill_through_the_pipe():
    """A ring far smaller than one flush forces the spill path; results
    must still be exact."""
    single = run_single_reference(
        NexmarkQ7, until=15.0, job_config=_SHARD_CONFIG,
        collect_sinks=True, trace_watermarks=True)
    multi = run_sharded(
        NexmarkQ7, until=15.0, shards=2, job_config=_SHARD_CONFIG,
        collect_sinks=True, trace_watermarks=True, transport="shm",
        ring_bytes=4096)
    assert multi.sync_totals()["spills"] > 0
    _assert_equivalent(single, multi)


def test_harness_shard_knobs_plumb_through():
    """ExperimentConfig.shard_transport/shard_inbox_capacity reach the
    sharded run and still reproduce the single-process figures."""

    def config(shards, **kw):
        return ExperimentConfig(
            workload=NexmarkQ7(), warmup=5.0, post_duration=10.0,
            shards=shards, **kw)

    # the reference runs at the same effective config the shard knobs
    # produce (shard_inbox_capacity becomes the engine-wide inbox)
    ref = run_experiment(config(1, job_config=JobConfig(
        inbox_capacity=256)))
    shard = run_experiment(config(2, shard_transport="shm",
                                  shard_inbox_capacity=256))
    assert shard.source_records == ref.source_records
    assert shard.sink_records == ref.sink_records
    assert sorted(shard.latency_series) == sorted(ref.latency_series)
    with pytest.raises(ValueError, match="shard_transport"):
        ExperimentConfig(workload=NexmarkQ7(), shard_transport="telegraph")
    with pytest.raises(ValueError, match="shard_inbox_capacity"):
        ExperimentConfig(workload=NexmarkQ7(), shard_inbox_capacity=0)
