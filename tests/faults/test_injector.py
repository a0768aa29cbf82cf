"""FaultInjector: inertness, determinism, phase triggers, error reports."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import (CheckpointCoordinator, JobGraph, KeyedReduceLogic,
                          OperatorSpec, Partitioning, Record, StreamJob)
from repro.engine.cluster import ClusterModel, LinkSpec, NodeSpec
from repro.engine.records import RecordBatch
from repro.engine.recovery import RecoveryManager
from repro.engine.runtime import JobConfig
from repro.faults import (CrashInstance, FaultInjector, StallTransfers,
                          StallUploads, check_all)


def small_job(stop_at=6.0, state_backend="dict"):
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
    job = StreamJob(graph,
                    config=JobConfig(state_backend=state_backend)).build()
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


def test_armed_empty_injector_is_inert():
    job_a, _ = small_job()
    job_a.run(until=10.0)
    job_b, _ = small_job()
    FaultInjector(job_b).arm()
    job_b.run(until=10.0)
    assert job_b.sim.events_processed == job_a.sim.events_processed


def test_fault_needs_a_trigger():
    job, _ = small_job()
    with pytest.raises(ValueError):
        FaultInjector(job).add(CrashInstance("agg", 0))


def test_crash_before_any_checkpoint_is_reported_not_raised():
    job, _ = small_job()
    recovery = RecoveryManager(job).install()
    injector = FaultInjector(job, recovery=recovery)
    injector.add(CrashInstance("agg", 0, at=0.5)).arm()
    job.run(until=3.0)
    assert injector.injected  # it fired ...
    assert injector.errors    # ... but nothing was recoverable
    assert "checkpoint" in injector.errors[0][1]


def test_phase_trigger_fires_on_span_open():
    from repro.core.drrs import DRRSController

    job, _ = small_job(stop_at=8.0)
    job.enable_telemetry()
    checkpoints = CheckpointCoordinator(job, interval=1.0)
    checkpoints.start()
    recovery = RecoveryManager(job, restart_seconds=0.2).install()
    controller = DRRSController(job)
    job.sim.call_at(4.0, lambda: controller.request_rescale("agg", 3))
    injector = FaultInjector(job, recovery=recovery)
    injector.add(CrashInstance("agg", 0, phase="state-transfer")).arm()
    job.run(until=20.0)
    assert injector.injected
    when, kind, _detail = injector.injected[0]
    assert kind == "CrashInstance"
    assert when >= 4.0  # only once the migration actually began
    assert recovery.recoveries


def test_phase_trigger_requires_telemetry():
    job, _ = small_job()
    injector = FaultInjector(job)
    with pytest.raises(ValueError):
        injector.add(CrashInstance("agg", 0, phase="state-transfer")).arm()


@pytest.mark.parametrize("backend", ["dict", "changelog"])
def test_same_faults_same_run(backend):
    """A crash and a transfer stall around a rescale replay exactly: same
    kernel event count, same fault log."""
    from repro.core.drrs import DRRSController

    def one_run():
        job, _produced = small_job(stop_at=8.0, state_backend=backend)
        checkpoints = CheckpointCoordinator(job, interval=1.0)
        checkpoints.start()
        recovery = RecoveryManager(job, restart_seconds=0.2).install()
        controller = DRRSController(job)
        job.sim.call_at(4.0, lambda: controller.request_rescale("agg", 3))
        injector = FaultInjector(job, recovery=recovery)
        injector.add(CrashInstance("agg", 0, at=2.3))
        injector.add(StallTransfers("agg", extra_seconds=0.3,
                                    duration=3.0, at=3.5)).arm()
        job.run(until=20.0)
        return job.sim.events_processed, list(injector.injected)

    first = one_run()
    kinds = [kind for _t, kind, _detail in first[1]]
    assert kinds == ["CrashInstance", "StallTransfers", "WindowClosed"]
    assert not first[1][-1][2].endswith(": 0 transfers")
    assert first == one_run()


def test_crash_only_injector_never_collapses_the_plane():
    """A crash fault scheduled past the horizon must not touch the record
    plane: no fault acts on a channel."""
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


def test_recovered_crash_reports_no_error():
    """A crash after a completed checkpoint recovers: one restore, no
    error, and the keyed state matches what the generator produced."""
    job, produced = small_job()
    CheckpointCoordinator(job, interval=1.0).start()
    recovery = RecoveryManager(job, restart_seconds=0.2).install()
    injector = FaultInjector(job, recovery=recovery)
    injector.add(CrashInstance("agg", 1, at=2.5)).arm()
    job.run(until=12.0)
    assert injector.injected and not injector.errors
    assert len(recovery.recoveries) == 1
    assert check_all(job, "agg", oracle=produced) == []


@pytest.mark.parametrize("backend", ["dict", "changelog"])
def test_upload_stall_window_counts_only_async_uploads(backend):
    """The changelog backend uploads checkpoint segments asynchronously,
    so its stall window stretches some; the dict backend uploads nothing
    asynchronously and the same window stretches none."""
    job, _produced = small_job(state_backend=backend)
    CheckpointCoordinator(job, interval=1.0).start()
    injector = FaultInjector(job)
    injector.add(StallUploads("agg", extra_seconds=0.5, duration=3.0,
                              at=1.5)).arm()
    job.run(until=8.0)
    (_t, kind, detail), = [entry for entry in injector.injected
                           if entry[1] == "WindowClosed"]
    assert detail.startswith("upload-stall window on agg: ")
    uploads = int(detail.split(": ")[1].split()[0])
    if backend == "changelog":
        assert uploads > 0
    else:
        assert uploads == 0


# -- a crash mid-carrier, on both record planes -------------------------------

def _burst_run(record_plane, crash_at, eligible, probe=None):
    """Three 24-record bursts over a slow hop (0.2 ms serialize per
    record, 2 ms latency), so one wire carrier's members become visible
    over several milliseconds; a checkpoint completes after the first
    burst and ``agg[0]`` crashes at ``crash_at``, inside the later two.

    ``eligible`` makes the receiver a slow silent reducer (a backlog of
    queued carriers builds up behind it); otherwise it is fast and emits
    every update to the sink.
    """
    slow = LinkSpec(latency=0.002, bandwidth=1e6)
    cluster = ClusterModel([NodeSpec("n0")], default_link=slow,
                           loopback=slow)
    graph = JobGraph("burst", num_key_groups=8)
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
    produced = {}

    def burst():
        for i in range(24):
            key = f"k{i % 5}"
            src.offer(Record(key=key, event_time=job.sim.now, count=1,
                             size_bytes=200.0))
            produced[key] = produced.get(key, 0) + 1

    # Off-grid burst times: no delivery shares a timestamp with the crash.
    for at in (0.300003, 1.000003, 1.0081):
        job.sim.call_at(at, burst)
    if probe is not None:  # scheduled first: sees the hop before the crash
        job.sim.call_at(crash_at, lambda: probe(job))
    CheckpointCoordinator(job, interval=0.5).start()
    recovery = RecoveryManager(job, restart_seconds=0.2).install()
    injector = FaultInjector(job, recovery=recovery)
    injector.add(CrashInstance("agg", 0, at=crash_at)).arm()
    job.run(until=3.0)
    agg = job.instances("agg")[0]
    return {
        "faults": injector.injected,
        "errors": injector.errors,
        "recoveries": recovery.recoveries,
        "violations": check_all(job, "agg", oracle=produced),
        "state": sorted((key, value) for group in agg.state.groups()
                        for key, value in group.entries.items()),
        "sink": [(r.key, r.value) for r in job.sink_logic().collected],
        "processed": agg.records_processed,
        "busy_seconds": agg.busy_seconds,
    }


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(crash_at=st.floats(min_value=0.999, max_value=1.024),
       eligible=st.booleans())
def test_a_crash_anywhere_in_a_carriers_life_recovers_alike_on_both_planes(
        crash_at, eligible):
    """A crash landing anywhere in a carrier's life — members still
    serializing, on the wire, queued but not yet visible, or queued behind
    a slow receiver's backlog — rolls back to the same checkpoint and
    ends where the per-record plane ends: same state, same sink sequence,
    and exactly-once against the oracle."""
    batched = _burst_run("batched", crash_at, eligible)
    assert batched == _burst_run("single", crash_at, eligible)
    assert len(batched["recoveries"]) == 1 and not batched["errors"]
    assert batched["violations"] == []


@pytest.mark.parametrize("crash_at,where", [
    (1.001, {"serializing": True, "wire": True, "queue": False}),
    (1.0055, {"serializing": False, "wire": True, "queue": True}),
    (1.0065, {"serializing": False, "wire": False, "queue": True})])
def test_a_crash_mid_carrier_replays_the_unseen_members(crash_at, where):
    """Pinned cases of the above, each checked to crash while a carrier
    really is mid-serialize / on the wire / queued with unseen members:
    the restore drops them with the channel and the source replays them,
    so each counts once."""
    seen = {}

    def probe(job):
        channel = job.instances("src")[0].router.all_channels()[0]
        seen["serializing"] = channel._serializing.__class__ is RecordBatch
        seen["wire"] = any(el.__class__ is RecordBatch
                           for el, _epoch, _due in channel._wire)
        seen["queue"] = channel.input_channel._nbatches > 0

    batched = _burst_run("batched", crash_at, False, probe=probe)
    assert seen == where
    assert batched == _burst_run("single", crash_at, False)
    assert len(batched["recoveries"]) == 1 and not batched["errors"]
    assert batched["violations"] == []
