"""Scale-in (N → M, M < N): migration off trailing instances +
decommission.  An extension beyond the paper's scale-out-only evaluation."""

import sys

import pytest

sys.path.insert(0, "tests")
from helpers import (assert_assignment_consistent, build_keyed_job,
                     drive)  # noqa: E402

from repro.core.drrs import DRRSController
from repro.engine import KeyGroupAssignment, Watermark
from repro.scaling import (MecesController, MegaphoneController,
                           MigrationPlan, OTFSController,
                           StopRestartController)


def test_plan_scale_in_moves_off_trailing_instances():
    plan = MigrationPlan.uniform("op", KeyGroupAssignment(16, 4), 2)
    assert plan.is_scale_in
    assert plan.new_instance_indices == []
    for move in plan.moves:
        assert move.dst_index < 2
    # every group owned by a removed instance must move
    current = KeyGroupAssignment(16, 4)
    for kg in range(16):
        if current.owner(kg) >= 2:
            assert any(m.key_group == kg for m in plan.moves)


@pytest.mark.parametrize("controller_cls,kwargs", [
    (DRRSController, {}),
    (OTFSController, {}),
    (MegaphoneController, {"batch_size": 2}),
    (MecesController, {"sub_groups": 2}),
    (StopRestartController, {}),
], ids=["drrs", "otfs", "megaphone", "meces", "stop-restart"])
def test_scale_in_completes_and_is_consistent(controller_cls, kwargs):
    job = build_keyed_job(num_key_groups=16, agg_parallelism=4)
    drive(job, until=25.0)
    job.run(until=5.0)
    controller = controller_cls(job, **kwargs)
    done = controller.request_rescale("agg", 2)
    job.run(until=35.0)
    assert done.triggered
    assert len(job.instances("agg")) == 2
    assert job.assignments["agg"].parallelism == 2
    assert_assignment_consistent(job, "agg")
    job.run(until=40.0)
    assert job.sink_logic().records_in == job.metrics.total_source_output()


def test_scale_in_removes_channels_from_predecessors():
    job = build_keyed_job(num_key_groups=16, agg_parallelism=4)
    drive(job, until=25.0)
    job.run(until=5.0)
    controller = DRRSController(job)
    done = controller.request_rescale("agg", 2)
    job.run(until=35.0)
    assert done.triggered
    for _sender, edge in job.senders_to("agg"):
        assert len(edge.channels) == 2
        assert all(target < 2 for target in edge.routing_table.values())


def test_scale_in_then_scale_out():
    job = build_keyed_job(num_key_groups=16, agg_parallelism=4)
    drive(job, until=50.0)
    job.run(until=5.0)
    controller = DRRSController(job)
    done = controller.request_rescale("agg", 2)
    job.run(until=25.0)
    assert done.triggered
    controller2 = DRRSController(job)
    done2 = controller2.request_rescale("agg", 3)
    job.run(until=55.0)
    assert done2.triggered
    assert len(job.instances("agg")) == 3
    assert_assignment_consistent(job, "agg")
    job.run(until=60.0)
    assert job.sink_logic().records_in == job.metrics.total_source_output()


def test_scale_in_preserves_per_key_history():
    from tests.core.test_semantics import (feed, final_histories,
                                           history_job)

    job = history_job(parallelism=4)
    counters = feed(job)
    job.run(until=6.0)
    controller = DRRSController(job)
    done = controller.request_rescale("agg", 2)
    job.run(until=30.0)
    assert done.triggered
    histories = final_histories(job)
    for key, total in counters.items():
        assert histories.get(key) == tuple(range(total))


def test_watermarks_still_advance_after_scale_in():
    job = build_keyed_job(num_key_groups=16, agg_parallelism=4)
    drive(job, until=25.0, watermark_every=10)
    job.run(until=5.0)
    controller = DRRSController(job)
    done = controller.request_rescale("agg", 2)
    job.run(until=24.0)
    assert done.triggered
    sink = job.instances("sink")[0]
    before = sink.current_watermark
    for source in job.sources():
        source.offer(Watermark(timestamp=99.0))
    job.run(until=26.0)
    assert sink.current_watermark >= before
    assert sink.current_watermark == 99.0


def test_scale_in_to_one_instance():
    job = build_keyed_job(num_key_groups=16, agg_parallelism=4)
    drive(job, until=25.0)
    job.run(until=5.0)
    controller = DRRSController(job)
    done = controller.request_rescale("agg", 1)
    job.run(until=35.0)
    assert done.triggered
    assert len(job.instances("agg")) == 1
    assert_assignment_consistent(job, "agg")


def test_parallelism_cannot_exceed_key_groups():
    job = build_keyed_job(num_key_groups=16)
    controller = DRRSController(job)
    with pytest.raises(ValueError):
        controller.request_rescale("agg", 17)
    with pytest.raises(ValueError):
        controller.request_rescale("agg", 0)