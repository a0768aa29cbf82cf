"""Recovery keeps only what a restore can use.

A restore reads the newest completed checkpoint alone, so that is the one
completed checkpoint the RecoveryManager holds; source replay history and
changelog segments are bounded by it.  Record-level compensation runs only
once a rescale has started: before that, FIFO channels and aligned
barriers let no record reach a key-group after that group's capture.
"""

import pytest

from repro.core.drrs import DRRSController
from repro.engine import CheckpointCoordinator
from repro.engine.recovery import RecoveryManager
from repro.experiments.chaos_bank import _keyed_job
from repro.faults.invariants import check_all


def _probe(job, recovery, every=0.05):
    """Sample the retention bound every ``every`` sim-s; returns the list
    of violations found."""
    problems = []

    def check():
        while True:
            yield job.sim.timeout(every)
            completed = [cid for cid, c in recovery._checkpoints.items()
                         if c.completed_at is not None]
            if len(completed) > 1:
                problems.append((job.sim.now, "completed", completed))
            if not completed:
                continue
            cut = completed[0]
            older = [cid for cid in recovery._checkpoints if cid < cut]
            if older:
                problems.append((job.sim.now, "older", older))
            newest = recovery._checkpoints[cut]
            for source in job.sources():
                offset = newest.snapshots[source.name].source_offset
                if source._history_base != offset:
                    problems.append((job.sim.now, "history",
                                     source._history_base, offset))

    job.sim.spawn(check(), name="retention-probe")
    return problems


@pytest.mark.parametrize("backend", ["dict", "changelog"])
def test_a_checkpointed_run_holds_one_completed_checkpoint(backend):
    """Across a run with a crash, recovery never holds more than one
    completed checkpoint, nothing older than it, and no source history
    before its cut."""
    job, produced = _keyed_job(stop_at=10.0, state_backend=backend)
    coordinator = CheckpointCoordinator(job, interval=0.5)
    coordinator.start()
    recovery = RecoveryManager(job, restart_seconds=0.5).install()
    problems = _probe(job, recovery)
    job.sim.call_at(6.2, lambda: recovery.fail_and_recover("probe"))
    job.run(until=20.0)

    assert len(coordinator.completed) > 10
    assert len(recovery.recoveries) == 1
    assert problems == []
    assert check_all(job, "agg", oracle=produced) == []


def test_changelog_segments_below_the_reachable_anchor_are_dropped():
    """The segments kept per instance, up to the retained checkpoint, are
    exactly its restore chain: nothing below the newest anchor it reaches.

    The crash re-anchors every chain (the first cut after a restore is a
    whole-state image), so the pre-crash segments must go once a
    checkpoint after it completes."""
    job, _produced = _keyed_job(stop_at=10.0, state_backend="changelog")
    coordinator = CheckpointCoordinator(job, interval=0.5)
    coordinator.start()
    recovery = RecoveryManager(job, restart_seconds=0.5).install()
    job.sim.call_at(4.2, lambda: recovery.fail_and_recover("probe"))
    job.run(until=20.0)

    assert len(recovery.recoveries) == 1
    restored = recovery.recoveries[0][1]
    latest = recovery.latest_completed()
    assert latest.checkpoint_id > restored + 1
    names = {name for name, _cid in recovery._segments}
    assert names == {inst.name for inst in job.all_instances()}
    for name in names:
        kept = [recovery._segments[(name, cid)]
                for cid in sorted(cid for n, cid in recovery._segments
                                  if n == name)
                if cid <= latest.checkpoint_id]
        chain = recovery.restore_chain(latest, name)
        assert kept == chain
        assert min(seg.checkpoint_id for seg in kept) > restored


def _count_on_record(recovery):
    calls = []
    on_record = recovery.on_record

    def counted(instance, record):
        calls.append(record.record_id)
        on_record(instance, record)

    recovery.on_record = counted
    return calls


def test_compensation_starts_with_the_first_rescale():
    """No ``on_record`` call before a rescale starts; every applied record
    reaches it from then on, and a crash mid-rescale still restores
    exactly-once state."""
    job, produced = _keyed_job(stop_at=14.0, state_bytes_per_group=8e6)
    coordinator = CheckpointCoordinator(job, interval=0.75)
    coordinator.start()
    recovery = RecoveryManager(job, restart_seconds=0.5).install()
    calls = _count_on_record(recovery)
    controller = DRRSController(job)
    seen = {}

    def rescale():
        seen["before"] = (len(calls), job.rescaled)
        seen["done"] = controller.request_rescale("agg", 4)

    job.sim.call_at(6.0, rescale)
    job.sim.call_at(6.5, lambda: recovery.fail_and_recover("crash"))
    job.run(until=40.0)

    assert seen["before"] == (0, False)
    assert job.rescaled
    assert calls
    assert seen["done"].triggered and seen["done"].ok
    assert check_all(job, "agg", oracle=produced) == []
