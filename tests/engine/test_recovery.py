"""Checkpoint-based failure recovery: exactly-once state, replay, costs."""

import pytest

from repro.engine import (CheckpointCoordinator, JobGraph, KeyedReduceLogic,
                          OperatorSpec, Partitioning, Record, StreamJob)
from repro.engine.recovery import RecoveryError, RecoveryManager


def counting_job():
    """Keyed sum with a deterministic, replayable feed.

    Returns ``(job, produced)``: ``produced`` counts records per key as the
    generator offers them — an oracle independent of the source's replay
    history, which the RecoveryManager trims behind its retained checkpoint.
    """
    graph = JobGraph("recovery", num_key_groups=8)
    graph.add_source("src", parallelism=1)
    graph.add_operator(OperatorSpec(
        "agg",
        logic_factory=lambda: KeyedReduceLogic(
            lambda old, r: (old or 0) + r.count),
        parallelism=2, service_time=2e-4, keyed=True))
    graph.add_sink("sink")
    graph.connect("src", "agg", Partitioning.HASH)
    graph.connect("agg", "sink", Partitioning.FORWARD)
    job = StreamJob(graph).build()
    produced = {}

    def gen():
        src = job.sources()[0]
        i = 0
        while job.sim.now < 30.0:
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


def test_recovery_restores_exact_state():
    job, produced = counting_job()
    coordinator = CheckpointCoordinator(job, interval=2.0)
    coordinator.start()
    manager = RecoveryManager(job).install()
    job.run(until=10.0)
    done = manager.fail_and_recover()
    job.run(until=40.0)
    assert done.triggered
    # Exactly-once state: after replay finishes, every key's count equals
    # the number of records the generator produced for it.
    assert total_state(job) == produced


def test_recovery_rolls_back_to_latest_completed_checkpoint():
    job, _produced = counting_job()
    coordinator = CheckpointCoordinator(job, interval=2.0)
    coordinator.start()
    manager = RecoveryManager(job).install()
    job.run(until=9.0)
    checkpoint = manager.latest_completed()
    assert checkpoint is not None
    assert checkpoint.checkpoint_id >= 3
    done = manager.fail_and_recover()
    job.run(until=12.0)
    assert done.triggered
    assert manager.recoveries[0][1] == checkpoint.checkpoint_id


def test_recovery_costs_downtime():
    job, _produced = counting_job()
    coordinator = CheckpointCoordinator(job, interval=2.0)
    coordinator.start()
    manager = RecoveryManager(job, restart_seconds=3.0).install()
    job.run(until=8.0)
    done = manager.fail_and_recover()
    job.run(until=9.0)
    assert not done.triggered  # still restarting
    job.run(until=15.0)
    assert done.triggered


def test_at_least_once_output():
    """Records between the checkpoint and the failure replay: the sink sees
    at least everything the generator produced."""
    job, produced = counting_job()
    coordinator = CheckpointCoordinator(job, interval=2.0)
    coordinator.start()
    manager = RecoveryManager(job).install()
    job.run(until=10.0)
    done = manager.fail_and_recover()
    job.run(until=45.0)
    assert done.triggered
    assert job.sink_logic().records_in >= sum(produced.values())


def test_recovery_without_checkpoint_fails():
    job, _produced = counting_job()
    manager = RecoveryManager(job).install()
    job.run(until=1.0)
    with pytest.raises(RecoveryError):
        manager.fail_and_recover()


def test_recovery_requires_install():
    job, _produced = counting_job()
    manager = RecoveryManager(job)
    with pytest.raises(RecoveryError):
        manager.fail_and_recover()


def test_recovery_after_rescale_restores_rescaled_topology():
    """Checkpoints taken after a DRRS rescale snapshot the new deployment;
    recovery restores state onto all four instances."""
    from repro.core.drrs import DRRSController

    job, produced = counting_job()
    coordinator = CheckpointCoordinator(job, interval=2.0)
    coordinator.start()
    manager = RecoveryManager(job).install()
    job.run(until=4.0)
    controller = DRRSController(job)
    scaled = controller.request_rescale("agg", 4)
    job.run(until=12.0)
    assert scaled.triggered
    job.run(until=16.0)  # let post-scaling checkpoints complete
    done = manager.fail_and_recover()
    job.run(until=45.0)
    assert done.triggered
    assert len(job.instances("agg")) == 4
    assert total_state(job) == produced


def test_rewind_validates_offset():
    job, _produced = counting_job()
    src = job.sources()[0]
    with pytest.raises(RuntimeError):
        src.rewind_to(0)
    src.enable_replay_history()
    with pytest.raises(ValueError):
        src.rewind_to(10**9)
