"""FaultInjector: inertness, determinism, windows, phase triggers."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import (CheckpointCoordinator, JobGraph, KeyedReduceLogic,
                          OperatorSpec, Partitioning, Record, StreamJob)
from repro.engine.cluster import ClusterModel, LinkSpec, NodeSpec
from repro.engine.records import RecordBatch
from repro.engine.recovery import RecoveryManager
from repro.engine.runtime import JobConfig
from repro.faults import (CrashInstance, DelayRecords, DropRecords,
                          DuplicateRecords, FaultInjector)


def small_job(stop_at=6.0):
    graph = JobGraph("inj", num_key_groups=8)
    graph.add_source("src", parallelism=1)
    graph.add_operator(OperatorSpec(
        "agg",
        logic_factory=lambda: KeyedReduceLogic(
            lambda old, r: (old or 0) + r.count),
        parallelism=2, service_time=1e-4, keyed=True))
    graph.add_sink("sink")
    graph.connect("src", "agg", Partitioning.HASH)
    graph.connect("agg", "sink", Partitioning.FORWARD)
    job = StreamJob(graph).build()
    produced = {}

    def gen():
        src = job.sources()[0]
        i = 0
        while job.sim.now < stop_at:
            key = f"k{i % 10}"
            src.offer(Record(key=key, event_time=job.sim.now, count=1))
            produced[key] = produced.get(key, 0) + 1
            i += 1
            yield job.sim.timeout(0.01)

    job.sim.spawn(gen())
    return job, produced


def merged_state(job):
    totals = {}
    for inst in job.instances("agg"):
        for group in inst.state.groups():
            for key, value in group.entries.items():
                totals[key] = totals.get(key, 0) + value
    return totals


def test_armed_empty_injector_is_inert():
    job_a, _ = small_job()
    job_a.run(until=10.0)
    job_b, _ = small_job()
    FaultInjector(job_b, seed=3).arm()
    job_b.run(until=10.0)
    assert job_b.sim.events_processed == job_a.sim.events_processed


def test_fault_needs_a_trigger():
    job, _ = small_job()
    with pytest.raises(ValueError):
        FaultInjector(job).add(CrashInstance("agg", 0))


def test_crash_before_any_checkpoint_is_reported_not_raised():
    job, _ = small_job()
    recovery = RecoveryManager(job).install()
    injector = FaultInjector(job, recovery=recovery, seed=0)
    injector.add(CrashInstance("agg", 0, at=0.5)).arm()
    job.run(until=3.0)
    assert injector.injected  # it fired ...
    assert injector.errors    # ... but nothing was recoverable
    assert "checkpoint" in injector.errors[0][1]


def test_drop_window_loses_records():
    job, produced = small_job()
    injector = FaultInjector(job, seed=1)
    injector.add(DropRecords("src", "agg", duration=1.0,
                             probability=1.0, at=2.0)).arm()
    job.run(until=10.0)
    state = merged_state(job)
    assert sum(state.values()) < sum(produced.values())


def test_duplicate_window_double_counts():
    job, produced = small_job()
    injector = FaultInjector(job, seed=1)
    injector.add(DuplicateRecords("src", "agg", duration=1.0,
                                  probability=1.0, at=2.0)).arm()
    job.run(until=10.0)
    state = merged_state(job)
    assert sum(state.values()) > sum(produced.values())


def test_phase_trigger_fires_on_span_open():
    from repro.core.drrs import DRRSController

    job, _ = small_job(stop_at=8.0)
    job.enable_telemetry()
    checkpoints = CheckpointCoordinator(job, interval=1.0)
    checkpoints.start()
    recovery = RecoveryManager(job, restart_seconds=0.2).install()
    controller = DRRSController(job)
    job.sim.call_at(4.0, lambda: controller.request_rescale("agg", 3))
    injector = FaultInjector(job, recovery=recovery, seed=0)
    injector.add(CrashInstance("agg", 0, phase="state-transfer")).arm()
    job.run(until=20.0)
    assert injector.injected
    when, kind, _detail = injector.injected[0]
    assert kind == "CrashInstance"
    assert when >= 4.0  # only once the migration actually began
    assert recovery.recoveries


def test_phase_trigger_requires_telemetry():
    job, _ = small_job()
    injector = FaultInjector(job, seed=0)
    with pytest.raises(ValueError):
        injector.add(CrashInstance("agg", 0, phase="state-transfer")).arm()


def test_same_seed_same_run():
    def one_run():
        job, produced = small_job()
        checkpoints = CheckpointCoordinator(job, interval=1.0)
        checkpoints.start()
        recovery = RecoveryManager(job, restart_seconds=0.2).install()
        injector = FaultInjector(job, recovery=recovery, seed=5)
        injector.add(DropRecords("src", "agg", duration=0.4,
                                 probability=0.5, at=1.3)).arm()
        job.run(until=12.0)
        return job.sim.events_processed, list(injector.injected)

    assert one_run() == one_run()


# -- fault hooks see every record, on every plane ----------------------------

_WINDOWS = {
    "drop": lambda **kw: DropRecords("src", "agg", **kw),
    "duplicate": lambda **kw: DuplicateRecords("src", "agg", **kw),
    "delay": lambda **kw: DelayRecords("src", "agg", hold=0.004, **kw),
}


def _burst_run(record_plane, kind, open_at, eligible, probability=1.0,
               probe=None):
    """Two 24-record bursts over a slow hop (0.2 ms serialize per record,
    2 ms latency), so one wire carrier's members become visible over
    several milliseconds, with a 3 ms fault window opened at ``open_at``.

    ``eligible`` makes the receiver a slow silent reducer (a backlog of
    queued carriers builds up behind it while the window opens); otherwise
    it is fast and emits every update to the sink.
    """
    slow = LinkSpec(latency=0.002, bandwidth=1e6)
    cluster = ClusterModel([NodeSpec("n0")], default_link=slow,
                           loopback=slow)
    graph = JobGraph("hook", num_key_groups=8)
    graph.add_source("src", service_time=1e-5)
    graph.add_operator(OperatorSpec(
        "agg",
        logic_factory=lambda: KeyedReduceLogic(
            lambda old, r: (old or 0) + r.count,
            emit_updates=not eligible),
        parallelism=1, service_time=5e-4 if eligible else 1e-4,
        keyed=True))
    graph.add_sink("sink", collect=True)
    graph.connect("src", "agg", Partitioning.HASH)
    graph.connect("agg", "sink", Partitioning.FORWARD)
    job = StreamJob(graph, cluster=cluster,
                    config=JobConfig(record_plane=record_plane)).build()
    src = job.sources()[0]

    def burst():
        for i in range(24):
            src.offer(Record(key=f"k{i % 5}", event_time=job.sim.now,
                             count=1, size_bytes=200.0))

    # Off-grid burst times: no delivery shares a timestamp with the window.
    job.sim.call_at(1.000003, burst)
    job.sim.call_at(1.0081, burst)
    if probe is not None:  # scheduled first: sees the hop pre-collapse
        job.sim.call_at(open_at, lambda: probe(job))
    injector = FaultInjector(job, seed=3)
    injector.add(_WINDOWS[kind](duration=0.003, probability=probability,
                                at=open_at)).arm()
    job.run(until=3.0)
    agg = job.instances("agg")[0]
    return {
        "faults": injector.injected,
        "state": sorted((key, value) for group in agg.state.groups()
                        for key, value in group.entries.items()),
        "sink": [(r.key, r.value) for r in job.sink_logic().collected],
        "processed": agg.records_processed,
        "busy_seconds": agg.busy_seconds,
    }


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(kind=st.sampled_from(sorted(_WINDOWS)),
       open_at=st.floats(min_value=0.999, max_value=1.024),
       eligible=st.booleans(), probability=st.sampled_from([1.0, 0.5]))
def test_fault_window_hits_the_same_records_on_both_planes(
        kind, open_at, eligible, probability):
    """A window opening anywhere in a carrier's life — members still
    serializing, on the wire, queued but not yet visible, or queued behind
    a slow receiver's backlog — hits exactly the records the per-record
    plane's window hits: same ``WindowClosed ... N records``, same state,
    same sink sequence."""
    batched = _burst_run("batched", kind, open_at, eligible, probability)
    single = _burst_run("single", kind, open_at, eligible, probability)
    assert batched == single


@pytest.mark.parametrize("open_at,where", [
    (1.001, {"serializing": True, "wire": True, "queue": False}),
    (1.0055, {"serializing": False, "wire": True, "queue": True}),
    (1.0065, {"serializing": False, "wire": False, "queue": True})])
def test_window_opening_mid_carrier_hits_the_unseen_members(open_at, where):
    """Pinned cases of the above, each checked to open while a carrier
    really is mid-serialize / on the wire / queued with unseen members (a
    hook installed without collapsing the hop, or a deliver path that
    ignores it, misses those members)."""
    seen = {}

    def probe(job):
        channel = job.instances("src")[0].router.all_channels()[0]
        seen["serializing"] = channel._serializing.__class__ is RecordBatch
        seen["wire"] = any(el.__class__ is RecordBatch
                           for el, _epoch, _due in channel._wire)
        seen["queue"] = channel.input_channel._nbatches > 0

    batched = _burst_run("batched", "drop", open_at, False, probe=probe)
    assert seen == where
    assert batched == _burst_run("single", "drop", open_at, False)
    assert not batched["faults"][-1][2].endswith(": 0 records")


def test_crash_only_injector_never_collapses_the_plane():
    """Crash and stall faults install no channel hook: adding them must not
    touch the record plane (the parent collapsed it for the whole job)."""
    job_a, _ = small_job()
    job_a.run(until=3.0)
    job_b, _ = small_job()
    recovery = RecoveryManager(job_b).install()
    FaultInjector(job_b, recovery=recovery).add(
        CrashInstance("agg", 0, at=100.0)).arm()
    job_b.run(until=3.0)
    assert job_b._batching and job_b.plane_collapses == 0
    assert all(channel.batching for inst in job_b.all_instances()
               for channel in inst.router.all_channels())
