"""Aligned checkpointing: coordination, alignment, snapshot records."""

import sys

sys.path.insert(0, "tests")
from helpers import build_keyed_job, drive  # noqa: E402

from repro.engine import ChangelogStateBackend, CheckpointCoordinator
from repro.engine.runtime import JobConfig, StreamJob
import pytest


def test_periodic_checkpoints_complete():
    job = build_keyed_job()
    drive(job, until=10.0, marker_every=0)
    coordinator = CheckpointCoordinator(job, interval=2.0)
    coordinator.start()
    job.run(until=11.0)
    assert len(coordinator.completed) >= 4
    # every instance snapshots every completed checkpoint (source + agg +
    # sink instances)
    instance_count = len(job.all_instances())
    by_id = {}
    for _t, name, cid in job.snapshots:
        by_id.setdefault(cid, set()).add(name)
    finished = [cid for cid, names in by_id.items()
                if len(names) == instance_count]
    assert len(finished) >= 3


def test_trigger_now_returns_increasing_ids():
    job = build_keyed_job()
    job.start()
    coordinator = CheckpointCoordinator(job, interval=100.0)
    first = coordinator.trigger_now()
    second = coordinator.trigger_now()
    assert second == first + 1


def test_alignment_blocks_fast_channel():
    """A barrier on one channel blocks it until the other channel's barrier
    arrives — records behind the first barrier wait."""
    from repro.engine.records import CheckpointBarrier, Record
    job = build_keyed_job()
    job.start()
    job.run(until=0.1)
    agg = job.instances("agg")[0]
    fast, slow = agg.input_channels[0], agg.input_channels[1]
    fast.deliver(CheckpointBarrier(checkpoint_id=1))
    fast.deliver(Record(key="after-barrier", key_group=0, count=1))
    job.run(until=0.3)
    # barrier consumed, channel now blocked, record stuck behind alignment
    assert fast.blocked
    assert len(fast.queue) == 1
    slow.deliver(CheckpointBarrier(checkpoint_id=1))
    job.run(until=0.5)
    assert not fast.blocked
    assert len(fast.queue) == 0  # record processed after alignment


def test_snapshot_cost_scales_with_state():
    job = build_keyed_job(state_bytes_per_group=0.0)
    small = job.checkpoint_sync_cost(job.instances("agg")[0])
    job2 = build_keyed_job(state_bytes_per_group=1e8)
    big = job2.checkpoint_sync_cost(job2.instances("agg")[0])
    assert small == 0.0
    assert big > 0.0


@pytest.mark.parametrize("backend", ["dict", "changelog"])
def test_sync_cost_is_a_share_of_the_snapshot_write(backend):
    # The barrier path blocks for 5 % of writing the synchronous bytes at
    # 400 MB/s: the whole state under dict, the manifest under changelog.
    job = build_keyed_job(state_bytes_per_group=1e6,
                          job_config=JobConfig(state_backend=backend))
    instance = job.instances("agg")[0]
    sync_bytes = (instance.state.total_bytes() if backend == "dict"
                  else ChangelogStateBackend.MANIFEST_BYTES)
    assert sync_bytes > 0
    assert (StreamJob.snapshot_bandwidth,
            StreamJob.snapshot_sync_fraction) == (400e6, 0.05)
    assert job.checkpoint_sync_cost(instance) \
        == sync_bytes / 400e6 * 0.05


def test_coordinator_rejects_bad_interval():
    job = build_keyed_job()
    with pytest.raises(ValueError):
        CheckpointCoordinator(job, interval=0.0)


def test_stop_prevents_future_checkpoints():
    job = build_keyed_job()
    drive(job, until=8.0, marker_every=0)
    coordinator = CheckpointCoordinator(job, interval=1.0)
    coordinator.start()
    job.run(until=3.5)
    count = len(coordinator.completed)
    coordinator.stop()
    job.run(until=8.0)
    assert len(coordinator.completed) == count
