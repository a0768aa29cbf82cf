"""Scale Executor unit behaviour: classification, barriers, epochs (B1-B4)."""

import sys

sys.path.insert(0, "tests")
from helpers import build_keyed_job  # noqa: E402

from repro.core.barriers import ConfirmBarrier, TriggerBarrier
from repro.core.drrs import DRRSConfig, DRRSController
from repro.core.executor import (BLOCKED, INTERNAL, READY,
                                 DRRSInputHandler, ScaleExecutor)
from repro.core.planner import Subscale
from repro.engine import Record, StateStatus, Watermark


def make_setup(record_scheduling=True):
    job = build_keyed_job(num_key_groups=8, agg_parallelism=2)
    job.start()
    controller = DRRSController(job, DRRSConfig(
        record_scheduling=record_scheduling))
    controller._op_name = "agg"
    src, dst = job.instances("agg")
    ex_src = ScaleExecutor(controller, src)
    ex_dst = ScaleExecutor(controller, dst)
    controller._executors = {id(src): ex_src, id(dst): ex_dst}
    subscale = Subscale(subscale_id=0, key_groups=[0, 1], src_index=0,
                        dst_index=1)
    subscale.expected_predecessors = {111, 222}
    ex_src.register_out(subscale)
    ex_dst.expect_subscale(subscale)
    return job, controller, src, dst, ex_src, ex_dst, subscale


def test_expect_subscale_registers_incoming_groups():
    job, controller, src, dst, ex_src, ex_dst, subscale = make_setup()
    for kg in (0, 1):
        group = dst.state.group(kg)
        assert group is not None
        assert group.status is StateStatus.INCOMING


def test_classify_untouched_group_is_ready():
    job, controller, src, dst, ex_src, ex_dst, subscale = make_setup()
    assert ex_src.classify(None, Record(key="x", key_group=5)) == READY
    assert ex_dst.classify(None, Record(key="x", key_group=5)) == READY


def test_classify_non_keyed_elements_ready():
    job, controller, src, dst, ex_src, ex_dst, subscale = make_setup()
    assert ex_src.classify(None, Watermark(timestamp=1.0)) == READY


def test_classify_src_states():
    job, controller, src, dst, ex_src, ex_dst, subscale = make_setup()
    record = Record(key="x", key_group=0)
    # Before the trigger: LOCAL → still processable.
    assert ex_src.classify(None, record) == READY
    src.state.group(0).status = StateStatus.PENDING_OUT
    assert ex_src.classify(None, record) == READY
    src.state.group(0).status = StateStatus.MIGRATED_OUT
    assert ex_src.classify(None, record) == INTERNAL  # re-route


def test_classify_dst_waits_for_bytes_then_alignment():
    job, controller, src, dst, ex_src, ex_dst, subscale = make_setup(
        record_scheduling=False)
    record = Record(key="x", key_group=0)
    assert ex_dst.classify(None, record) == BLOCKED       # INCOMING
    dst.state.group(0).status = StateStatus.INACTIVE
    assert ex_dst.classify(None, record) == BLOCKED       # not aligned
    subscale.arrived_predecessors = {111, 222}
    ex_dst.activate_subscale(subscale)
    assert ex_dst.classify(None, record) == READY         # LOCAL now


def test_confirm_barrier_is_internal_at_src():
    job, controller, src, dst, ex_src, ex_dst, subscale = make_setup()
    barrier = ConfirmBarrier(subscale_id=0, predecessor_id=111)
    assert ex_src.classify(None, barrier) == INTERNAL


def test_on_trigger_marks_pending_and_spawns_once():
    job, controller, src, dst, ex_src, ex_dst, subscale = make_setup()
    started = []
    controller.start_subscale_migration = lambda s: started.append(s)
    trigger = TriggerBarrier(subscale_id=0, key_groups=(0, 1))
    ex_src.on_trigger(trigger)
    ex_src.on_trigger(trigger)  # duplicate from the other predecessor
    assert started == [subscale]
    assert src.state.group(0).status is StateStatus.PENDING_OUT
    assert src.state.group(1).status is StateStatus.PENDING_OUT


def test_rerouted_confirm_drives_implicit_alignment():
    job, controller, src, dst, ex_src, ex_dst, subscale = make_setup()
    dst.state.group(0).status = StateStatus.INACTIVE
    ex_dst.on_rerouted_confirm(ConfirmBarrier(
        subscale_id=0, predecessor_id=111, rerouted=True))
    assert not subscale.aligned
    assert dst.state.group(0).status is StateStatus.INACTIVE
    ex_dst.on_rerouted_confirm(ConfirmBarrier(
        subscale_id=0, predecessor_id=222, rerouted=True))
    assert subscale.aligned
    assert dst.state.group(0).status is StateStatus.LOCAL


def test_fluid_confirmation_per_channel():
    """With Record Scheduling, an E_f record becomes processable as soon as
    *its own* channel's predecessor confirmed ("fluid confirmation")."""
    job, controller, src, dst, ex_src, ex_dst, subscale = make_setup(
        record_scheduling=True)
    dst.state.group(0).status = StateStatus.INACTIVE
    channel0 = dst.input_channels[0]
    pred0 = channel0.channel.sender
    record = Record(key="x", key_group=0)
    assert ex_dst.classify(channel0, record) == BLOCKED
    subscale.arrived_predecessors.add(id(pred0))
    assert ex_dst.classify(channel0, record) == READY
    # a record on the other (unconfirmed) channel stays blocked
    channel1 = dst.input_channels[1]
    assert ex_dst.classify(channel1, record) == BLOCKED


def test_rerouted_ready_requires_bytes_only():
    job, controller, src, dst, ex_src, ex_dst, subscale = make_setup()
    record = Record(key="x", key_group=0)
    assert not ex_dst.rerouted_ready(record)      # INCOMING
    dst.state.group(0).status = StateStatus.INACTIVE
    assert ex_dst.rerouted_ready(record)          # bytes present is enough
    assert ex_dst.rerouted_ready(Watermark(timestamp=1.0))


def test_reroute_manager_created_lazily_and_counts():
    job, controller, src, dst, ex_src, ex_dst, subscale = make_setup()
    assert not ex_src.reroute_managers
    ex_src.reroute_record(Record(key="x", key_group=0, count=7))
    assert len(ex_src.reroute_managers) == 1
    assert controller.metrics.records_rerouted == 7
    # barrier uses the same manager (same destination)
    ex_src.on_confirm(ConfirmBarrier(subscale_id=0, predecessor_id=111))
    assert len(ex_src.reroute_managers) == 1


def test_committed_path_consumes_internal_head():
    """Without Record Scheduling (the ``dr`` variant) the handler commits to
    a channel's head; an INTERNAL head there is consumed, not waited on."""
    job, controller, src, dst, ex_src, ex_dst, subscale = make_setup(
        record_scheduling=False)
    handler = DRRSInputHandler(src, ex_src, scheduling=False)
    channel = src.input_channels[0]
    src.state.group(0).status = StateStatus.MIGRATED_OUT
    channel.queue.append(Record(key="x", key_group=0))
    # Phase 0 consumes INTERNAL heads of unblocked channels only, so the
    # committed channel's prologue is what reaches this one.
    channel.block("align")
    handler._committed = channel
    assert handler.poll() is None
    assert not channel.queue
    assert controller.metrics.records_rerouted == 1
    assert handler._committed is None
    assert handler.suspended is False
