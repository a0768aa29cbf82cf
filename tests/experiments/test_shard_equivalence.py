"""Shard-vs-single equivalence: the multi-process kernel is a pure
wall-clock optimization.

A sharded run must produce the *same simulation* as single-process: equal
sink-record multisets, keyed-state digests, watermark traces, latency
samples and per-operator counters — with the credit ledger certifying
that single-process flow control would never have engaged (the one
mechanism that could make the conservative schedule diverge).  These
tests spawn real worker processes.
"""

import dataclasses
import os
import sys

import pytest

from repro.engine.cluster import single_machine
from repro.engine.runtime import JobConfig
from repro.experiments.harness import ExperimentConfig, run_experiment
from repro.simulation.sharded import (DEFAULT_QUANTUM, run_sharded,
                                      run_single_reference,
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
    assert multi.transport == "shm" and single.transport is None
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
    """A seeded, chaos-free Twitch run over the shared-memory frames is
    the single-process run: sinks, state digests, watermark traces."""
    single, multi = _both(TwitchWorkload, until=20.0, shards=3)
    assert multi.shards >= 2
    # The source's chain is one task: it is planned as one block.
    assert multi.plan.shards[0][:4] == ["twitch-source", "parse",
                                        "bot-filter", "enrich"]
    _assert_equivalent(single, multi)
    assert multi.total_sink_input() > 0
    assert multi.view["sinks"] == single.view["sinks"]
    assert multi.view["state_digests"] == single.view["state_digests"]
    assert multi.view["watermark_traces"] == single.view["watermark_traces"]


def test_worker_cpu_accounting_present():
    _, multi = _both(NexmarkQ7, until=10.0, shards=2)
    assert len(multi.worker_cpus) == multi.shards
    assert multi.bottleneck_cpu_s > 0.0
    assert len(multi.events_per_shard) == multi.shards
    assert all(n > 0 for n in multi.events_per_shard)


def _harness_config(shards, **kw):
    return ExperimentConfig(
        workload=NexmarkQ7(), warmup=5.0, post_duration=15.0,
        job_config=dataclasses.replace(_SHARD_CONFIG, shards=shards), **kw)


def _assert_same_figures(result, ref):
    assert result.source_records == ref.source_records
    assert result.sink_records == ref.sink_records
    assert sorted(result.latency_series) == sorted(ref.latency_series)
    assert result.throughput_series == ref.throughput_series
    assert result.pre_latency == ref.pre_latency
    assert result.during_latency == ref.during_latency


def test_harness_sharded_run_matches_single():
    """job_config.shards=N reproduces the single-process figures."""
    ref = run_experiment(_harness_config(1))
    shard = run_experiment(_harness_config(2))
    assert ref.degraded == [] and shard.degraded == []
    assert shard.job is None  # the sharded path has no in-process job
    _assert_same_figures(shard, ref)


def test_harness_uncertified_run_falls_back_and_says_so(monkeypatch):
    """A sharded run the credit ledger cannot certify is discarded: the
    figures come from a single-process rerun, recorded as degraded."""
    from repro.simulation import sharded

    def uncertified(*args, shards, **kw):
        return sharded.ShardedRunResult({}, shards=shards,
                                        backpressure_safe=False)

    ref = run_experiment(_harness_config(1))
    monkeypatch.setattr(sharded, "run_sharded", uncertified)
    result = run_experiment(_harness_config(2))
    assert result.degraded == ["single-process:uncertified"]
    assert result.job is not None
    _assert_same_figures(result, ref)


def test_harness_controller_run_ignores_shards():
    """Scaling-controller runs degrade to single-process (the rescale
    machinery needs one global event loop) and the result says so."""
    from repro.scaling.otfs import OTFSController

    result = run_experiment(ExperimentConfig(
        workload=NexmarkQ7(),
        controller_factory=lambda job: OTFSController(job),
        new_parallelism=6, warmup=5.0, post_duration=10.0,
        job_config=JobConfig(shards=4)))
    assert result.controller_name != "no-scale"
    assert result.job is not None  # single-process path keeps the job
    assert result.degraded == ["single-process:controller"]


#: ExperimentConfig overrides that keep a shards=2 run single-process,
#: by the reason code the result must carry.
_SINGLE_PROCESS_CAUSES = {
    "telemetry": dict(telemetry=True),
    "cluster": dict(cluster=single_machine()),
    "changelog-async-uploads":
        dict(job_config=JobConfig(shards=2, state_backend="changelog")),
}


@pytest.mark.parametrize("reason", sorted(_SINGLE_PROCESS_CAUSES))
def test_harness_single_process_reason_is_recorded(reason):
    config = dataclasses.replace(_harness_config(2),
                                 **_SINGLE_PROCESS_CAUSES[reason])
    result = run_experiment(config)
    assert result.job is not None
    assert result.degraded == [f"single-process:{reason}"]


def test_supports_sharding_gate_matches_fallbacks():
    assert supports_sharding(_SHARD_CONFIG)
    assert not supports_sharding(_SHARD_CONFIG, telemetry=True)


# ---------------------------------------------------------------------------
# The cut-edge transport: shared-memory frames, demand-driven nulls
# ---------------------------------------------------------------------------

def test_sync_counters_present_and_directional():
    """The shm protocol's counters are present per worker, and the
    adaptive quantum does what it is for: the source shard, which has no
    upstream and so never blocks, widens its quantum and needs fewer
    synchronization rounds than a fixed quantum would."""
    until = 25.0
    multi = run_sharded(NexmarkQ7, until=until, shards=2,
                        job_config=_SHARD_CONFIG)
    totals = multi.sync_totals()
    assert totals["grant_rounds"] > 0
    assert totals["frames_sent"] > 0
    assert totals["msgs_sent"] > 0
    assert totals["bytes_shipped"] > 0
    # per-shard breakdown matches the worker count
    assert len(multi.sync_per_shard) == multi.shards == 2
    source = multi.sync_per_shard[0]
    assert source["blocked_waits"] == 0
    assert source["quantum_widenings"] > 0
    assert source["grant_rounds"] < until / DEFAULT_QUANTUM
    for sync in multi.sync_per_shard:
        assert sync["quantum_final"] >= sync["quantum_initial"]


def test_oversized_frames_spill_through_the_pipe():
    """A ring far smaller than one flush forces the spill path; results
    must still be exact."""
    single = run_single_reference(
        NexmarkQ7, until=15.0, job_config=_SHARD_CONFIG,
        collect_sinks=True, trace_watermarks=True)
    multi = run_sharded(
        NexmarkQ7, until=15.0, shards=2, job_config=_SHARD_CONFIG,
        collect_sinks=True, trace_watermarks=True, ring_bytes=4096)
    assert multi.sync_totals()["spills"] > 0
    _assert_equivalent(single, multi)
