"""Recovery keeps only what a restore can use.

A restore reads the newest completed checkpoint alone, so that is the one
completed checkpoint the RecoveryManager holds; source replay history and
changelog segments are bounded by it.  Record-level compensation runs only
once a rescale has started: before that, FIFO channels and aligned
barriers let no record reach a key-group after that group's capture.
Snapshot copies are detached: they leave the mutation clock, and with it
the window operators' ripe-time gate, as they were.
"""

import pytest

from repro.core.drrs import DRRSController
from repro.engine import (CheckpointCoordinator, Record,
                          SlidingWindowAggregateLogic, Watermark)
from repro.engine.recovery import RecoveryManager
from repro.engine.state import mutation_clock
from repro.experiments.chaos_bank import _keyed_job
from repro.faults.invariants import check_all
from repro.scaling.base import RescaleAborted, rescale_until_done
from tests.engine.test_windows import window_job


def _probe(job, recovery, every=0.05):
    """Sample the retention bound every ``every`` sim-s; returns the list
    of violations found."""
    problems = []

    def check():
        while True:
            yield job.sim.timeout(every)
            newest = recovery.latest_completed()
            if newest is None:
                continue
            older = [cid for cid in recovery._open
                     if cid <= newest.checkpoint_id]
            if older:
                problems.append((job.sim.now, "older", older))
            for source in job.sources():
                offset = newest.snapshots[source.name].source_offset
                if source._history_base != offset:
                    problems.append((job.sim.now, "history",
                                     source._history_base, offset))

    job.sim.spawn(check(), name="retention-probe")
    return problems


@pytest.mark.parametrize("backend", ["dict", "changelog"])
def test_a_checkpointed_run_holds_one_completed_checkpoint(backend):
    """Across a run with a crash, recovery holds one completed checkpoint
    (its only slot), no open one at or below it, and no source history
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
    exactly-once state, which the re-requested rescale keeps."""
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
        try:
            yield seen["done"]
        except RescaleAborted:
            yield from rescale_until_done(job, controller, "agg", 4)
            seen["re-requested"] = True

    job.sim.call_at(6.0, lambda: job.sim.spawn(rescale()))
    job.sim.call_at(6.5, lambda: recovery.fail_and_recover("crash"))
    job.run(until=40.0)

    assert seen["before"] == (0, False)
    assert job.rescaled
    assert calls
    assert isinstance(seen["done"].value, RescaleAborted)
    assert seen["re-requested"]
    assert check_all(job, "agg", oracle=produced) == []


def test_a_checkpoint_leaves_the_ripe_time_gate_shut():
    """A checkpoint snapshot does not tick the mutation clock, so a window
    operator whose gate a pass closed returns from the next watermark
    through the gate: no full pass over its groups."""
    job = window_job(lambda: SlidingWindowAggregateLogic(size=10.0,
                                                         slide=5.0))
    coordinator = CheckpointCoordinator(job, interval=100.0)
    RecoveryManager(job).install()
    job.start()
    src = job.sources()[0]
    for i in range(8):
        src.offer(Record(key=f"k{i}", event_time=50.0, count=1))
    src.offer(Watermark(timestamp=20.0))  # closes the gate: ripe at 55
    job.run(until=1.0)
    win = job.instances("win")[0]
    assert len(win.state.groups()) == 4
    watermarks, passes = [], []
    on_watermark, groups = win.logic.on_watermark, win.state.groups

    def counted_on_watermark(timestamp, instance):
        watermarks.append(timestamp)
        return on_watermark(timestamp, instance)

    def counted_groups():
        passes.append(job.sim.now)
        return groups()

    win.logic.on_watermark = counted_on_watermark
    win.state.groups = counted_groups
    clock = mutation_clock()
    coordinator.trigger_now()
    job.run(until=2.0)
    assert [cid for _t, cid in coordinator.completed] == [1]
    assert mutation_clock() == clock
    src.offer(Watermark(timestamp=30.0))
    job.run(until=3.0)
    assert watermarks == [30.0]
    assert passes == []
    assert win.logic.windows_fired == 0
