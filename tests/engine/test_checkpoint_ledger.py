"""One checkpoint ledger: the job decides completion, once.

``CheckpointCoordinator.completed`` and the RecoveryManager's restorable
checkpoints must agree.  In particular a restore discards every checkpoint
still open (its barriers are flushed, its half-taken snapshots mix
pre-crash state), so no id cut before a crash may be reported completed
after it — even when, under the changelog backend, its stalled uploads
land later.
"""

import dataclasses

import pytest

from repro.core.drrs import DRRSController
from repro.engine import CheckpointCoordinator, JobConfig
from repro.engine.recovery import RecoveryError, RecoveryManager
from repro.engine.state import StateTransferCostModel
from repro.experiments.chaos_bank import _keyed_job
from repro.faults.injector import CrashInstance, FaultInjector, StallUploads


def _upload_stall():
    """The ``checkpoint-upload-stall`` shape: uploads of ``agg`` stall
    from 4.5 s, and ``agg[1]`` crashes at 6.0 s inside the stall."""
    job, _produced = _keyed_job(stop_at=12.0, state_bytes_per_group=8e6,
                                state_backend="changelog")
    coordinator = CheckpointCoordinator(job, interval=1.0)
    coordinator.start()
    recovery = RecoveryManager(job, restart_seconds=0.5).install()
    injector = FaultInjector(job, recovery=recovery)
    injector.add(StallUploads("agg", extra_seconds=4.0, duration=2.5,
                              at=4.5))
    injector.add(CrashInstance("agg", 1, at=6.0))
    return job, coordinator, recovery, injector, 35.0


def _crash_mid_subscale():
    """The ``crash-mid-subscale`` shape: DRRS rescales ``agg`` 2 -> 4 at
    6.0 s and ``agg[1]`` crashes at 8.0 s, mid-migration."""
    config = dataclasses.replace(
        JobConfig(),
        transfer=StateTransferCostModel(handshake_seconds=0.35))
    job, _produced = _keyed_job(stop_at=14.0, state_bytes_per_group=24e6,
                                job_config=config,
                                state_backend="changelog")
    coordinator = CheckpointCoordinator(job, interval=0.75)
    coordinator.start()
    recovery = RecoveryManager(job, restart_seconds=0.5).install()
    controller = DRRSController(job)
    job.sim.call_at(6.0, lambda: controller.request_rescale("agg", 4))
    injector = FaultInjector(job, recovery=recovery)
    injector.add(CrashInstance("agg", 1, at=8.0))
    return job, coordinator, recovery, injector, 45.0


@pytest.mark.parametrize("shape", [_upload_stall, _crash_mid_subscale],
                         ids=["upload-stall", "crash-mid-subscale"])
def test_restore_discards_open_checkpoints_from_the_one_ledger(shape):
    job, coordinator, recovery, injector, horizon = shape()
    # At every completion the ledger reports, the checkpoint recovery can
    # restore is the ledger's newest completed one, completed just now.
    seen = []
    on_complete = recovery.on_complete

    def checked_on_complete(checkpoint_id):
        on_complete(checkpoint_id)
        newest = max(cid for _t, cid in job.completed_checkpoints)
        latest = recovery.latest_completed()
        seen.append((checkpoint_id, newest,
                     latest and latest.checkpoint_id,
                     job.completed_checkpoints[-1][0] == job.sim.now))

    recovery.on_complete = checked_on_complete
    injector.arm()
    job.run(until=horizon)
    assert not injector.errors
    assert len(recovery.recoveries) == 1
    restored_at, _cid = recovery.recoveries[0]
    completed = [cid for _t, cid in coordinator.completed]
    assert len(completed) == len(set(completed))
    # Open at the restore: snapshotted before it, not completed by it.
    done_before = {cid for t, cid in coordinator.completed
                   if t <= restored_at}
    open_at_restore = {cid for t, _name, cid in job.snapshots
                       if t <= restored_at} - done_before
    assert open_at_restore
    assert not open_at_restore & set(completed)
    # The coordinator reports exactly the checkpoints recovery made
    # restorable, each once, in order.
    assert [cid for cid, *_rest in seen] == completed
    assert all(cid == newest == latest and fresh
               for cid, newest, latest, fresh in seen)
    assert recovery.latest_completed().checkpoint_id == completed[-1]


def test_checkpoint_open_at_install_is_never_restored():
    job, _produced = _keyed_job(stop_at=12.0)
    coordinator = CheckpointCoordinator(job, interval=100.0)
    recovery = RecoveryManager(job, restart_seconds=0.5)
    job.sim.call_at(1.0, coordinator.trigger_now)
    # Installed mid-alignment: the source has snapshotted for checkpoint
    # 1, ``agg`` and the sink have not.
    job.sim.call_at(1.001, recovery.install)
    job.run(until=2.0)
    times = [t for t, _name, cid in job.snapshots if cid == 1]
    assert min(times) < 1.001 < max(times)
    assert [cid for _t, cid in coordinator.completed] == [1]
    assert recovery.latest_completed() is None
    with pytest.raises(RecoveryError, match="no completed checkpoint"):
        recovery.fail_and_recover()
    # A checkpoint opened after install is restorable as usual.
    job.sim.call_at(3.0, coordinator.trigger_now)
    job.run(until=4.0)
    assert [cid for _t, cid in coordinator.completed] == [1, 2]
    done = recovery.fail_and_recover()
    job.run(until=8.0)
    assert done.triggered and done.value == 2
    assert [cid for _t, cid in recovery.recoveries] == [2]
