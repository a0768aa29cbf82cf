"""Recovery edge cases: no checkpoint, double failures, post-rescale
crashes, and a seeded fault-time property sweep."""

import random

import pytest

from repro.engine import (CheckpointCoordinator, JobConfig, JobGraph,
                          KeyedReduceLogic, OperatorSpec, Partitioning,
                          Record, StreamJob)
from repro.engine.recovery import RecoveryError, RecoveryManager
from repro.engine.runtime import _InflightState
from repro.engine.state import StateStatus
from repro.experiments.chaos_bank import _keyed_job
from repro.faults.invariants import check_all


@pytest.fixture(params=["dict", "changelog"])
def backend(request):
    """Every edge case must hold under both keyed-state backends."""
    return request.param


def counting_job(stop_at=30.0, parallelism=2, state_backend="dict"):
    graph = JobGraph("edges", num_key_groups=8)
    graph.add_source("src", parallelism=1)
    graph.add_operator(OperatorSpec(
        "agg",
        logic_factory=lambda: KeyedReduceLogic(
            lambda old, r: (old or 0) + r.count),
        parallelism=parallelism, service_time=2e-4, keyed=True))
    graph.add_sink("sink")
    graph.connect("src", "agg", Partitioning.HASH)
    graph.connect("agg", "sink", Partitioning.FORWARD)
    job = StreamJob(
        graph,
        config=JobConfig(state_backend=state_backend)).build()
    produced = {}

    def gen():
        src = job.sources()[0]
        i = 0
        while job.sim.now < stop_at:
            key = f"k{i % 12}"
            src.offer(Record(key=key, event_time=job.sim.now, count=1))
            produced[key] = produced.get(key, 0) + 1
            i += 1
            yield job.sim.timeout(0.01)

    job.sim.spawn(gen())
    return job, produced


def total_state(job):
    totals = {}
    for inst in job.instances("agg"):
        for group in inst.state.groups():
            for key, value in group.entries.items():
                totals[key] = value
    return totals


def test_failure_before_first_checkpoint_completes(backend):
    job, _produced = counting_job(state_backend=backend)
    coordinator = CheckpointCoordinator(job, interval=5.0)
    coordinator.start()
    manager = RecoveryManager(job).install()
    # Run just long enough for traffic but not for checkpoint #1 to
    # complete its full alignment round.
    job.run(until=0.05)
    with pytest.raises(RecoveryError):
        manager.fail_and_recover("too early")


def test_double_failure_during_restore(backend):
    job, produced = counting_job(state_backend=backend)
    coordinator = CheckpointCoordinator(job, interval=2.0)
    coordinator.start()
    # Long restart window so the second failure reliably lands inside
    # the first restore.
    manager = RecoveryManager(job, restart_seconds=2.0).install()
    job.run(until=10.0)
    first = manager.fail_and_recover("first")
    job.run(until=10.5)  # mid-restore: restart window is still open
    assert not first.triggered
    second = manager.fail_and_recover("second")
    job.run(until=40.0)
    assert first.triggered and second.triggered
    assert len(manager.recoveries) == 2
    assert total_state(job) == produced


def test_restore_reads_state_at_snapshot_bandwidth(backend):
    """After the restart window, recovery reads the restored bytes back
    at the rate snapshots are written at."""
    job, _produced = counting_job(state_backend=backend)
    job.enable_telemetry()
    CheckpointCoordinator(job, interval=2.0).start()
    manager = RecoveryManager(job, restart_seconds=0.5).install()
    job.run(until=5.0)
    manager.fail_and_recover("crash")
    job.run(until=10.0)
    span, = job.telemetry.tracer.closed_spans(category="recovery",
                                              name="recovery.restore")
    restored = span.attrs["restored_bytes"]
    assert restored > 0
    assert span.duration == pytest.approx(
        0.5 + restored / StreamJob.snapshot_bandwidth)


def test_failure_right_after_rescale_completes(backend):
    from repro.core.drrs import DRRSController

    job, produced = counting_job(state_backend=backend)
    coordinator = CheckpointCoordinator(job, interval=2.0)
    coordinator.start()
    manager = RecoveryManager(job, restart_seconds=0.5).install()
    controller = DRRSController(job)
    holder = {}

    def kick():
        holder["done"] = controller.request_rescale("agg", 4)

    job.sim.call_at(6.0, kick)
    job.run(until=20.0)
    done = holder["done"]
    assert done.triggered and done._ok
    assert len(job.instances("agg")) == 4
    # Crash immediately after the scale settles; the restored topology
    # must keep the post-rescale parallelism and exact state.
    manager.fail_and_recover("post-rescale crash")
    job.run(until=45.0)
    assert len(job.instances("agg")) == 4
    assert total_state(job) == produced
    assert check_all(job, "agg", oracle=produced) == []


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_seeded_crash_time_property(seed, backend):
    """Whatever instant the crash lands at, recovery restores
    exactly-once keyed state and unique key-group ownership."""
    rng = random.Random(seed)
    crash_at = rng.uniform(3.0, 14.0)
    job, produced = counting_job(stop_at=16.0, state_backend=backend)
    coordinator = CheckpointCoordinator(job, interval=1.5)
    coordinator.start()
    manager = RecoveryManager(job, restart_seconds=0.3).install()
    job.sim.call_at(crash_at,
                    lambda: manager.fail_and_recover(f"seeded@{crash_at}"))
    job.run(until=45.0)
    assert manager.recoveries
    assert check_all(job, "agg", oracle=produced) == [], (
        f"seed={seed} crash_at={crash_at}")


def test_a_record_without_lineage_is_never_compensated():
    """``on_record`` skips a record without source lineage (consumed
    before install, or built by an operator, as a window fire is): it
    lies on neither side of a cut, so queueing it would re-inject it at a
    restore.  A pre-cut record with lineage is queued."""
    job, _produced = counting_job(stop_at=4.0)
    CheckpointCoordinator(job, interval=1.0).start()
    recovery = RecoveryManager(job).install()
    job.run(until=3.0)
    checkpoint = recovery.latest_completed()
    agg = job.instances("agg")[0]
    kg = agg.state.owned_groups()[0]
    assert checkpoint.folded[("agg", kg)] == agg.name
    assert checkpoint.pending_records == []
    plain = Record(key="x", key_group=kg, event_time=job.sim.now, count=1)
    assert plain.src_seq is None
    recovery.on_record(agg, plain)
    assert checkpoint.pending_records == []
    source = job.sources()[0]
    offset = checkpoint.snapshots[source.name].source_offset
    pre_cut = plain.copy_with(src_origin=source.name, src_seq=offset - 1)
    recovery.on_record(agg, pre_cut)
    assert checkpoint.pending_records == [("agg", kg, pre_cut)]


def test_a_flight_captured_at_birth_restores_where_it_departed():
    """Bytes on the wire when a checkpoint is born are captured for their
    source at once.  The destination aligns before they land and the
    source after: the landing must not capture them a second time at the
    destination, and a restore puts the group back on its source."""
    job, _produced = counting_job(stop_at=4.0)
    recovery = RecoveryManager(job, restart_seconds=0.1).install()
    job.run(until=1.0)
    src, dst = job.instances("agg")
    kg = src.state.owned_groups()[0]
    group = src.state.group(kg)
    entries = dict(group.entries)
    assert entries
    flight = _InflightState(
        op_name="agg", key_group=kg, entries=group.entries,
        size_bytes=group.size_bytes, src_name=src.name,
        src_index=src.index, dst_index=dst.index)
    group.entries, group.status = {}, StateStatus.MIGRATED_OUT
    job.inflight_state[("agg", kg)] = flight
    recovery.on_snapshot(job.sources()[0], 1, None)  # born: captured
    recovery.on_snapshot(dst, 1, None)
    del job.inflight_state[("agg", kg)]
    recovery.on_flight_landed(flight, dst)
    dst.state.install_group(kg, flight.entries, flight.size_bytes)
    for instance in job.all_instances():
        if instance.name not in recovery._open[1].snapshots:
            recovery.on_snapshot(instance, 1, None)
    recovery.on_complete(1)
    checkpoint = recovery.latest_completed()
    assert kg not in checkpoint.snapshots[dst.name].state
    assert checkpoint.snapshots[src.name].state[kg].entries == entries
    restored = {}
    recovery.fail_and_recover("crash").add_callback(
        lambda _event: restored.update(
            owner=job.assignments["agg"].owner(kg),
            at_src=dict(src.state.group(kg).entries),
            at_dst=dst.state.group(kg)))
    job.run(until=2.0)
    assert restored == {"owner": src.index, "at_src": entries,
                        "at_dst": None}


def test_a_snapshot_whose_sync_pause_a_restore_interrupts_is_dropped(
        backend):
    """A crash halfway through ``agg[0]``'s synchronous snapshot pause for
    checkpoint 3.  The restore discards that checkpoint, so the pause
    must not end in a snapshot of it: one taken during the restore would
    reopen the discarded checkpoint with pre-crash state."""
    job, produced = _keyed_job(stop_at=12.0, state_bytes_per_group=8e6,
                               state_backend=backend)
    CheckpointCoordinator(job, interval=1.0).start()
    recovery = RecoveryManager(job, restart_seconds=0.5).install()
    sync_cost = job.checkpoint_sync_cost
    seen = {}

    def crash_mid_pause(instance):
        cost = sync_cost(instance)
        if instance.name == "agg[0]" and len(job._snapshots) > 8 \
                and "crash" not in seen:
            seen["crash"] = job.sim.now + cost / 2
            job.sim.call_at(seen["crash"], lambda: seen.setdefault(
                "recovered", recovery.fail_and_recover("mid pause")))
        return cost

    job.checkpoint_sync_cost = crash_mid_pause
    job.run(until=30.0)

    assert seen["recovered"].ok
    assert recovery.recoveries == [(seen["crash"], 2)]
    assert not [cid for _t, name, cid in job._snapshots
                if name == "agg[0]" and cid == 3]
    assert check_all(job, "agg", oracle=produced) == []


def test_the_restore_drops_every_alignment_but_end_of_stream(backend):
    """An aborted rescale can leave a coupled barrier's alignment that no
    flushed channel will complete, and a fresh controller's first scale
    reuses its token; the restore drops it with the checkpoints'."""
    job, _produced = counting_job(state_backend=backend)
    CheckpointCoordinator(job, interval=1.0).start()
    recovery = RecoveryManager(job).install()
    job.run(until=3.5)
    instance = job.instances("agg")[0]
    instance.alignment(("scale", (1, 0)))
    instance.alignment(("eos",), blocking=False)
    recovery.fail_and_recover("crash")
    job.run(until=3.6)
    assert list(instance.alignments) == [("eos",)]
