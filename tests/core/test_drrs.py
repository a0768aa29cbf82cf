"""DRRS controller integration properties."""

import sys

import pytest

sys.path.insert(0, "tests")
from helpers import (assert_assignment_consistent, build_keyed_job,
                     drive, run_until)  # noqa: E402

from repro.core.barriers import ConfirmBarrier, TriggerBarrier
from repro.core.drrs import (CoupledSubscaleController, DRRSConfig,
                             DRRSController, make_variant)
from repro.scaling import OTFSController


def run_drrs(config=None, until=35.0, scale_at=5.0, new_parallelism=4,
             **job_kwargs):
    job = build_keyed_job(**job_kwargs)
    drive(job, until=until - 5.0)
    job.run(until=scale_at)
    controller = DRRSController(job, config or DRRSConfig())
    done = controller.request_rescale("agg", new_parallelism)
    job.run(until=until)
    return job, controller, done


def test_full_drrs_completes_consistently():
    job, controller, done = run_drrs()
    assert done.triggered
    assert_assignment_consistent(job, "agg")


@pytest.mark.parametrize("buffer", [0, -1])
def test_config_rejects_schedule_buffer_below_one(buffer):
    # A zero buffer would silently turn intra-channel bypassing off.
    with pytest.raises(ValueError):
        DRRSConfig(schedule_buffer=buffer)


def test_subscale_variant_rejects_zero_subscales():
    job = build_keyed_job()
    with pytest.raises(ValueError):
        make_variant(job, "subscale", num_subscales=0)


def test_make_variant_names():
    job = build_keyed_job()
    assert make_variant(job, "drrs").name == "drrs"
    assert make_variant(job, "schedule").name == "otfs"
    assert isinstance(make_variant(job, "schedule"), OTFSController)
    assert isinstance(make_variant(job, "subscale"),
                      CoupledSubscaleController)
    with pytest.raises(ValueError):
        make_variant(job, "bogus")


def test_propagation_delay_is_tiny():
    """Trigger barriers bypass all in-flight data: per-subscale propagation
    stays at control-plane latency even though data queues exist."""
    job, controller, done = run_drrs(
        config=DRRSConfig(num_subscales=8))
    assert done.triggered
    m = controller.metrics
    per_signal = m.cumulative_propagation_delay() / max(len(m.injections), 1)
    assert per_signal < 0.05


def test_every_subscale_signal_injected_once():
    job, controller, done = run_drrs(config=DRRSConfig(num_subscales=8))
    assert done.triggered
    m = controller.metrics
    # one injection timestamp per subscale, each with a first migration
    assert set(m.first_migration) <= set(m.injections)
    assert len(m.injections) >= 3  # multiple subscales were used


def test_no_subscale_division_uses_one_subscale_per_path():
    job, controller, done = run_drrs(
        config=DRRSConfig(subscale_division=False))
    assert done.triggered
    m = controller.metrics
    # signals = number of distinct (src, dst) migration paths
    paths = {(controller._plan.move_for(kg).src_index,
              controller._plan.move_for(kg).dst_index)
             for kg in m.group_signal}
    assert len(m.injections) == len(paths)


def test_cleanup_restores_non_scaling_state():
    """Non-scaling neutrality: after scaling, no DRRS component remains
    active (§IV-A: resources released)."""
    job = build_keyed_job()
    drive(job, until=30.0)
    job.run(until=5.0)
    controller = DRRSController(job)
    done = controller.request_rescale("agg", 4)
    run_until(job, lambda: controller._executors)
    executors = list(controller._executors.values())
    job.run(until=35.0)
    assert done.triggered
    assert controller._executors == {}
    for inst in job.instances("agg"):
        assert type(inst.input_handler).__name__ != "DRRSInputHandler"
        for group in inst.state.groups():
            assert group.status.name in ("LOCAL",)
    assert job.active_scalers == []
    # A late signal of the finished scale reaches neither lane's handler.
    reached = []
    controller.on_control = lambda *args: reached.append(args)
    controller.on_signal = lambda *args: reached.append(args) or iter(())
    inst = job.instances("agg")[0]
    inst.on_control(None, TriggerBarrier(subscale_id=0,
                                         controller=controller))
    assert list(inst.handle_element(None, ConfirmBarrier(
        subscale_id=0, controller=controller))) == []
    assert reached == []
    # re-route managers drained and closed
    for executor in executors:
        for manager in executor.reroute_managers.values():
            assert manager.pending == 0


def test_second_rescale_after_first():
    """DRRS can scale the same operator again (4 → 6) after completing."""
    job, controller, done = run_drrs(until=20.0)
    assert done.triggered
    controller2 = DRRSController(job)
    done2 = controller2.request_rescale("agg", 6)
    job.run(until=45.0)
    assert done2.triggered
    assert_assignment_consistent(job, "agg")
    assert job.assignments["agg"].parallelism == 6


def test_concurrency_threshold_limits_parallel_subscales():
    job = build_keyed_job(num_key_groups=32, agg_parallelism=2)
    drive(job, until=30.0)
    job.run(until=5.0)
    controller = DRRSController(job, DRRSConfig(
        num_subscales=16, max_concurrent_per_node=1))
    # Track concurrent running subscales via launched/completed stamps.
    done = controller.request_rescale("agg", 4)
    run_until(job, lambda: controller._executors)
    executors = list(controller._executors.values())
    job.run(until=40.0)
    assert done.triggered
    subscales = [s for ex in executors for s in ex.in_subscales.values()]
    assert subscales
    events = []
    for s in subscales:
        events.append((s.launched_at, 1, s.subscale_id))
        events.append((s.completed_at, -1, s.subscale_id))
    # Count concurrency per destination container.
    by_dst = {}
    for s in subscales:
        by_dst.setdefault(s.dst_index, []).append(s)
    for dst, subs in by_dst.items():
        stamps = sorted([(s.launched_at, 1) for s in subs]
                        + [(s.completed_at, -1) for s in subs])
        level = peak = 0
        for _t, delta in stamps:
            level += delta
            peak = max(peak, level)
        assert peak <= 1, f"dst {dst} ran {peak} subscales concurrently"


def test_subscale_only_variant_migrates_everything():
    job = build_keyed_job()
    drive(job, until=30.0)
    job.run(until=5.0)
    controller = make_variant(job, "subscale", num_subscales=6)
    done = controller.request_rescale("agg", 4)
    job.run(until=40.0)
    assert done.triggered
    assert_assignment_consistent(job, "agg")
