"""A crash during a DRRS rescale is repaired by the checkpoint restore.

The controller's ``abort`` only stops the migration and arms a retry; the
restore rebuilds state, routing and assignments for every instance.  The
sweep moves the crash across the whole rescale window, so it lands during
provisioning, mid-transfer, between subscales and after completion.
"""

import dataclasses

import pytest

from repro.core.drrs import DRRSConfig, DRRSController
from repro.engine import (CheckpointCoordinator, JobConfig,
                          StateTransferCostModel)
from repro.engine.recovery import RecoveryError, RecoveryManager
from repro.experiments.chaos_bank import _keyed_job
from repro.faults import CrashInstance, FaultInjector
from repro.faults.invariants import check_all

#: A per-group handshake keeps the rescale open for about 2.5 s under
#: both backends, so most sweep offsets land inside it.
SLOW_HANDOFF = dataclasses.replace(
    JobConfig(), transfer=StateTransferCostModel(handshake_seconds=0.35))

CRASH_OFFSETS = [6.0 + 0.25 * i for i in range(12)]


def _crash_job(backend, parallelism=2):
    job, produced = _keyed_job(stop_at=14.0, parallelism=parallelism,
                               state_bytes_per_group=8e6,
                               job_config=SLOW_HANDOFF,
                               state_backend=backend)
    job.enable_telemetry()
    checkpoints = CheckpointCoordinator(job, interval=0.75)
    checkpoints.start()
    recovery = RecoveryManager(job, restart_seconds=0.5,
                               retain_checkpoints=100).install()
    return job, produced, checkpoints, recovery


def _abort_spans(job):
    return job.telemetry.tracer.closed_spans(category="recovery",
                                             name="scale.abort")


@pytest.mark.parametrize("crash_at", CRASH_OFFSETS)
@pytest.mark.parametrize("num_subscales", [16, 2])
@pytest.mark.parametrize("backend", ["dict", "changelog"])
def test_crash_anywhere_in_a_rescale_is_repaired(backend, num_subscales,
                                                 crash_at):
    """``agg`` 2→4 at 6.0 and a crash at ``crash_at``: the rescale's done
    succeeds with all four instances owning key-groups, recovery
    happened, state is exactly-once, and the scale was aborted once
    exactly when the crash hit it.

    The paper's 16 subscales leave one moving key-group in each; with 2,
    each carries four, so a subscale migration that outlived the abort
    would move more groups after the restore."""
    job, produced, _checkpoints, recovery = _crash_job(backend)
    controller = DRRSController(job,
                                DRRSConfig(num_subscales=num_subscales))
    seen = {}

    def rescale():
        seen["rescale"] = controller.request_rescale("agg", 4)

    def crash():
        seen["hit"] = controller in job.active_scalers
        seen["recovered"] = recovery.fail_and_recover("sweep")

    job.sim.call_at(6.0, rescale)
    job.sim.call_at(crash_at, crash)
    job.run(until=40.0)

    done = seen["rescale"]
    assert done.triggered and done.ok, done.value
    assert seen["recovered"].triggered and seen["recovered"].ok
    assert recovery.recoveries
    assert sorted(set(job.assignments["agg"].as_dict().values())) == [
        0, 1, 2, 3]
    assert check_all(job, "agg", oracle=produced) == []
    assert len(_abort_spans(job)) == (1 if seen["hit"] else 0)


@pytest.mark.parametrize("backend", ["dict", "changelog"])
def test_unrestorable_checkpoint_leaves_the_rescale_running(backend):
    """The newest checkpoint covers ``agg[3]``, which a completed scale-in
    decommissioned.  A crash during the next rescale cannot be restored,
    so it must not abort that rescale either: an abort is repaired only
    by the restore that follows it."""
    job, produced, checkpoints, recovery = _crash_job(backend,
                                                      parallelism=4)
    controller = DRRSController(job)
    seen = {}

    def rescales():
        seen["in"] = controller.request_rescale("agg", 2)
        yield seen["in"]
        seen["out"] = controller.request_rescale("agg", 3)
        yield job.sim.timeout(1.0)
        seen["active"] = controller in job.active_scalers
        seen["recovered"] = recovery.fail_and_recover("crash")

    job.sim.call_at(5.0, checkpoints.stop)
    job.sim.call_at(6.0, lambda: job.sim.spawn(rescales()))
    job.run(until=40.0)

    newest = recovery.latest_completed()
    assert "agg[3]" in newest.snapshots
    assert seen["in"].ok
    assert seen["active"]
    recovered = seen["recovered"]
    assert recovered.triggered and not recovered.ok
    assert isinstance(recovered.value, RecoveryError)
    assert "decommissioned instances" in str(recovered.value)
    tracer = job.telemetry.tracer
    assert not tracer.events_named("scale.retry")
    assert len(tracer.closed_spans(name="rescale")) == 2
    assert not _abort_spans(job)
    assert job.recovery_barrier is None
    assert not recovery.recoveries
    assert seen["out"].triggered and seen["out"].ok
    assert len(job.instances("agg")) == 3
    assert check_all(job, "agg", oracle=produced) == []


def test_unrestorable_crash_through_the_injector_is_reported():
    """The same unrestorable crash fired as a ``CrashInstance``: the
    injector records the failed recovery in ``errors`` instead of
    dropping the event ``fail_and_recover`` returned."""
    job, _produced, checkpoints, recovery = _crash_job("dict",
                                                       parallelism=4)
    controller = DRRSController(job)
    injector = FaultInjector(job, recovery=recovery).arm()

    def rescales():
        yield controller.request_rescale("agg", 2)
        controller.request_rescale("agg", 3)
        yield job.sim.timeout(1.0)
        injector.add(CrashInstance("agg", 0, at=job.sim.now))

    job.sim.call_at(5.0, checkpoints.stop)
    job.sim.call_at(6.0, lambda: job.sim.spawn(rescales()))
    job.run(until=40.0)

    assert [kind for _t, kind, _d in injector.injected] == ["CrashInstance"]
    assert len(injector.errors) == 1
    assert "decommissioned instances" in injector.errors[0][1]
    assert not recovery.recoveries
