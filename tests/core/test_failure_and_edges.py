"""Edge cases and failure injection around scaling operations."""

import sys

import pytest

sys.path.insert(0, "tests")
from helpers import (assert_assignment_consistent, build_keyed_job,
                     drive)  # noqa: E402

from repro.core.drrs import DRRSConfig, DRRSController
from repro.engine import JobConfig, Record
from repro.scaling import MecesController, OTFSController


def test_scaling_with_tiny_network_buffers():
    """Outbox/inbox of 2: extreme backpressure everywhere — scaling must
    still complete and stay consistent."""
    job = build_keyed_job(job_config=JobConfig(outbox_capacity=2,
                                               inbox_capacity=2))
    drive(job, until=30.0)
    job.run(until=5.0)
    controller = DRRSController(job)
    done = controller.request_rescale("agg", 4)
    job.run(until=60.0)
    assert done.triggered
    assert_assignment_consistent(job, "agg")


def test_scaling_with_zero_state():
    """Empty key-groups migrate instantly but all bookkeeping still runs."""
    job = build_keyed_job(state_bytes_per_group=0.0)
    drive(job, until=20.0)
    job.run(until=5.0)
    controller = DRRSController(job)
    done = controller.request_rescale("agg", 4)
    job.run(until=30.0)
    assert done.triggered
    assert controller.metrics.migration_completed
    assert_assignment_consistent(job, "agg")


def test_scaling_idle_operator():
    """No traffic at all: scaling is pure state movement."""
    job = build_keyed_job()
    job.start()
    job.run(until=1.0)
    controller = DRRSController(job)
    done = controller.request_rescale("agg", 4)
    job.run(until=20.0)
    assert done.triggered
    assert controller.metrics.total_suspension() == 0.0
    assert_assignment_consistent(job, "agg")


def test_single_predecessor_single_channel():
    """One source instance → intra-channel scheduling is the only lever."""
    job = build_keyed_job(source_parallelism=1, agg_parallelism=2)
    drive(job, until=25.0)
    job.run(until=5.0)
    controller = DRRSController(job, DRRSConfig(record_scheduling=True))
    done = controller.request_rescale("agg", 3)
    job.run(until=40.0)
    assert done.triggered
    assert_assignment_consistent(job, "agg")


def test_node_slowdown_mid_migration():
    """Failure injection: the migration source's node degrades to 10 %
    speed mid-scaling; the operation still completes correctly."""
    job = build_keyed_job(num_key_groups=16, agg_parallelism=2,
                          state_bytes_per_group=4e6)
    drive(job, until=40.0)
    job.run(until=5.0)
    controller = DRRSController(job)
    done = controller.request_rescale("agg", 4)
    job.run(until=5.5)

    src = job.instances("agg")[0]
    original_speed = src.node.speed
    src.node.speed = 0.1  # degrade
    job.run(until=8.0)
    src.node.speed = original_speed  # recover
    job.run(until=60.0)
    assert done.triggered
    assert_assignment_consistent(job, "agg")
    job.run(until=65.0)
    assert job.sink_logic().records_in == job.metrics.total_source_output()


def test_burst_arrival_during_migration():
    """Failure injection: a 20× input burst lands exactly during the
    migration window; nothing is lost and the system re-stabilizes."""
    job = build_keyed_job(num_key_groups=16, agg_parallelism=2,
                          agg_service=0.001, state_bytes_per_group=4e6)

    def gen():
        sources = job.sources()
        i = 0
        while job.sim.now < 40.0:
            burst = 20 if 5.2 <= job.sim.now <= 6.2 else 1
            for _ in range(burst):
                for s in sources:
                    s.offer(Record(key=f"k{i % 40}",
                                   event_time=job.sim.now, count=5))
                i += 1
            yield job.sim.timeout(0.005)

    job.sim.spawn(gen())
    job.run(until=5.0)
    controller = DRRSController(job)
    done = controller.request_rescale("agg", 4)
    job.run(until=90.0)
    assert done.triggered
    assert_assignment_consistent(job, "agg")
    assert job.sink_logic().records_in == job.metrics.total_source_output()


def test_meces_single_subgroup_degenerates_to_whole_group_fetch():
    job = build_keyed_job()
    drive(job, until=25.0)
    job.run(until=5.0)
    controller = MecesController(job, sub_groups=1)
    done = controller.request_rescale("agg", 4)
    job.run(until=40.0)
    assert done.triggered
    assert_assignment_consistent(job, "agg")


def test_meces_rejects_bad_subgroups():
    job = build_keyed_job()
    with pytest.raises(ValueError):
        MecesController(job, sub_groups=0)


def test_otfs_rejects_bad_modes():
    job = build_keyed_job()
    with pytest.raises(ValueError):
        OTFSController(job, migration="warp")
    with pytest.raises(ValueError):
        OTFSController(job, injection="satellite")


def test_rescale_to_many_instances_at_once():
    """2 → 8 in one operation: six new instances, heavy re-wiring."""
    job = build_keyed_job(num_key_groups=32, agg_parallelism=2)
    drive(job, until=30.0)
    job.run(until=5.0)
    controller = DRRSController(job)
    done = controller.request_rescale("agg", 8)
    job.run(until=50.0)
    assert done.triggered
    assert len(job.instances("agg")) == 8
    assert_assignment_consistent(job, "agg")
