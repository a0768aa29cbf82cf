"""AutoscaleController: closed-loop behaviour, determinism, arbitration."""

import json

import pytest

from repro.autoscale import (AutoscaleController, AutoscalePolicy,
                             QueueDepthPolicy, ScalingDecision,
                             UtilizationThresholdPolicy)
from repro.core.drrs import DRRSController
from repro.engine import (JobGraph, KeyedReduceLogic, OperatorSpec,
                          Partitioning, Record, StreamJob, Watermark)
from tests.helpers import assert_assignment_consistent, build_keyed_job, drive


def _ramp_job():
    """A small job whose source rate ramps up then back down."""
    graph = JobGraph("ramp", num_key_groups=16)
    graph.add_source("src", parallelism=1, service_time=5e-5)
    graph.add_operator(OperatorSpec(
        "agg",
        logic_factory=lambda: KeyedReduceLogic(
            lambda old, r: (old or 0) + r.count),
        parallelism=2, service_time=2e-3, keyed=True))
    graph.add_sink("sink")
    graph.connect("src", "agg", Partitioning.HASH)
    graph.connect("agg", "sink", Partitioning.FORWARD)
    job = StreamJob(graph).build()
    job.enable_telemetry()

    def gen():
        src = job.sources()[0]
        i = 0
        while job.sim.now < 46.0:
            t = job.sim.now
            rate = 1400.0 if 10.0 <= t <= 28.0 else 400.0
            src.offer(Record(key=f"k{i % 24}", event_time=t, count=1))
            if i % 50 == 0:
                src.offer(Watermark(timestamp=t))
            i += 1
            yield job.sim.timeout(1.0 / rate)

    job.sim.spawn(gen(), name="driver")
    return job


def _run_ramp():
    job = _ramp_job()
    drrs = DRRSController(job)
    policy = UtilizationThresholdPolicy(
        high=0.8, low=0.35, target=0.6, min_parallelism=1,
        max_parallelism=8, cooldown=6.0, cooldown_in=8.0, hold_ticks=2,
        min_samples=4)
    auto = AutoscaleController(job, drrs, "agg", policy,
                               interval=2.0, warmup=2.0)
    auto.start()
    job.run(until=50.0)
    return auto.summary()


def test_closed_loop_scales_out_and_back_deterministically():
    s1 = _run_ramp()
    s2 = _run_ramp()
    # The decision log is a pure function of the seeded simulation.
    assert json.dumps(s1, sort_keys=True) == json.dumps(s2, sort_keys=True)
    kinds = [d["kind"] for d in s1["decisions"] if d["event"] == "decide"]
    assert "scale-out" in kinds
    assert "scale-in" in kinds
    assert s1["rescales_failed"] == 0
    assert s1["rescales_completed"] == s1["rescales_issued"]
    assert s1["instance_seconds"] > 0
    # Every decide settles (complete/failed) before the next decide: the
    # controller never stacks its own subscales.
    open_op = False
    for entry in s1["decisions"]:
        if entry["event"] == "decide":
            assert not open_op, "decide while a rescale was in flight"
            open_op = True
        elif entry["event"] in ("complete", "failed"):
            open_op = False


class OneShotPolicy(AutoscalePolicy):
    """Wants parallelism 6 exactly once, then stays quiet forever."""

    name = "one-shot"

    def __init__(self):
        super().__init__(max_parallelism=8, cooldown=0.0, hold_ticks=1,
                         min_samples=0)
        self._fired = False

    def decide(self, snapshot, history):
        if self._fired:
            return None
        self._fired = True
        return ScalingDecision(6, "scale-out", "one-shot test decision")


def test_defers_and_coalesces_while_another_scaler_is_active():
    job = drive(build_keyed_job(), until=8.0)
    drrs = DRRSController(job)
    auto = AutoscaleController(job, drrs, "agg", OneShotPolicy(),
                               interval=0.5, warmup=0.0)
    auto.start()

    def manual():
        # A competing, manually triggered rescale owns the plane first.
        yield job.sim.timeout(0.25)
        done = drrs.request_rescale("agg", 3)
        yield done

    job.sim.spawn(manual(), name="manual-rescale")
    job.run(until=10.0)
    log = auto.decision_log()

    defers = [e for e in log if e["event"] == "defer"]
    assert defers, "no deferral logged while the manual rescale ran"
    assert defers[0]["reason"] == "other-scaler-active"
    assert defers[0]["target"] == 6
    assert auto.decisions_deferred >= 1

    decides = [e for e in log if e["event"] == "decide"]
    assert len(decides) == 1
    assert decides[0]["why"].startswith("coalesced: ")
    assert decides[0]["target"] == 6
    assert decides[0]["from"] == 3  # issued after the manual 2 -> 3 landed
    assert auto.rescales_completed == 1
    assert len(job.instances("agg")) == 6


def _two_record_load(job, until):
    """Two records per source every 4 ms over 40 keys: the queue grows."""
    def gen():
        sources = job.sources()
        i = 0
        while job.sim.now < until:
            for s in sources:
                s.offer(Record(key=f"k{i % 40}", event_time=job.sim.now,
                               count=2))
            i += 1
            yield job.sim.timeout(0.004)

    job.sim.spawn(gen())
    return job


def _utilization(max_parallelism):
    return lambda: UtilizationThresholdPolicy(
        min_parallelism=2, max_parallelism=max_parallelism, cooldown=20.0,
        min_samples=2)


@pytest.mark.parametrize(
    "agg_service, load, policy, until, check",
    [
        # ~2.2x over capacity on two instances: scale out to the cap.
        (0.0022, lambda job, until: drive(job, until, record_gap=0.005),
         _utilization(8), 120.0, lambda p, issued: p == 8),
        # Healthy at two instances: nothing is issued.
        (0.0002, lambda job, until: drive(job, until, record_gap=0.005),
         _utilization(8), 40.0, lambda p, issued: p == 2 and issued == 0),
        # Far over capacity, but capped at three.
        (0.01, lambda job, until: drive(job, until, record_gap=0.004),
         _utilization(3), 120.0, lambda p, issued: p == 3),
        # Queue growth alone drives a queue-depth policy out.
        (0.004, _two_record_load,
         lambda: QueueDepthPolicy(min_parallelism=2, high_depth=50.0,
                                  cooldown=25.0, min_samples=2),
         90.0, lambda p, issued: p >= 4),
    ],
    ids=["overload", "healthy", "cap", "queue-growth"])
def test_closed_loop_on_keyed_job(agg_service, load, policy, until, check):
    job = load(build_keyed_job(agg_parallelism=2, agg_service=agg_service),
               until)
    auto = AutoscaleController(job, DRRSController(job), "agg", policy(),
                               interval=3.0, warmup=3.0)
    auto.start()
    job.run(until=until)
    parallelism = len(job.instances("agg"))
    assert check(parallelism, auto.rescales_issued), auto.summary()
    assert auto.rescales_failed == 0
    assert_assignment_consistent(job, "agg")
