"""A rescale that adds input channels while a barrier is aligning.

Every barrier aligns over the receiver's current non-auxiliary input
channels (``Alignment``).  A rescale that creates a channel *behind* a
barrier — after the barrier left the channel's sender — adds a member
that will never deliver it, so the alignment waits forever (ROADMAP
item 1).  These tests pin where that happens today, one barrier kind
each, plus the paper's Q7 job stalled by a checkpoint: the stalling cases
are strict xfails that name item 1, and their neighbours on the live side
of the window are plain cases.
"""

import pytest

from repro.core.drrs import DRRSController
from repro.engine import CheckpointCoordinator
from repro.engine.records import EndOfStream
from repro.engine.recovery import RecoveryError, RecoveryManager
from repro.experiments.chaos_bank import _keyed_job
from repro.experiments.figures import controller_factory
from repro.experiments.scenarios import QUICK, make_workload
from repro.faults.invariants import check_all
from tests.core.test_crash_mid_rescale import _crash_job

LIVE_MIGRATION = ["drrs", "otfs", "otfs-all-at-once", "megaphone",
                  "subscale", "schedule"]


def _item_1(raises, barrier):
    return pytest.mark.xfail(
        strict=True, raises=raises,
        reason=f"ROADMAP item 1: channels created mid-alignment never "
        f"carry the {barrier}, so the alignment never completes")


def _checkpoint_cases():
    for system in LIVE_MIGRATION:
        yield pytest.param(system, 0.0, id=f"{system}-0")
        yield pytest.param(
            system, 0.001, id=f"{system}-0.001",
            marks=_item_1(RecoveryError, "checkpoint barrier"))
    yield pytest.param("stop-restart", 0.001, id="stop-restart-0.001")


@pytest.mark.parametrize("system,delta", _checkpoint_cases())
def test_checkpoint_survives_a_rescale_behind_its_barrier(system, delta):
    """Checkpoint 1 at 6.0, ``agg`` 2→4 at 6.0 + δ, a failure at 20:
    recovery restores checkpoint 1 and the exactly-once oracle holds.
    At δ = 0.001 the sink waits for checkpoint 1 on the new instances'
    channels, so no checkpoint completes and recovery has none."""
    job, produced = _keyed_job(stop_at=16.0)
    checkpoints = CheckpointCoordinator(job, interval=100)
    recovery = RecoveryManager(job, restart_seconds=0.5).install()
    controller = controller_factory(system)(job)
    job.sim.call_at(6.0, checkpoints.trigger_now)
    job.sim.call_at(6.0 + delta,
                    lambda: controller.request_rescale("agg", 4))
    job.sim.call_at(20.0, recovery.fail_and_recover)
    job.run(until=40.0)
    assert [cid for _t, cid in checkpoints.completed][:1] == [1]
    assert [cid for _t, cid in recovery.recoveries] == [1]
    assert check_all(job, "agg", produced) == []


@pytest.mark.parametrize("delta", [
    0.001,
    pytest.param(-0.0001,
                 marks=_item_1(AssertionError, "end of stream")),
])
def test_end_of_stream_reaches_the_sink_across_a_rescale(delta):
    """The source ends at 6.0 + δ while DRRS rescales ``agg`` 2→4 at 6.0.
    Ending after the rescale wired the new instances in, every instance
    shuts down; ending 0.1 ms before, the end of stream is on the wire
    when the new ``agg → sink`` channels appear, and the sink waits on
    them forever."""
    job, produced = _keyed_job(stop_at=6.0 + delta)
    controller = DRRSController(job)
    job.sim.call_at(6.0, lambda: controller.request_rescale("agg", 4))
    job.sim.call_at(6.0 + delta,
                    lambda: job.sources()[0].offer(EndOfStream()))
    job.run(until=30.0)
    assert job.sink_logic().records_in == sum(produced.values())
    assert not job.instances("sink")[0].running


@pytest.mark.parametrize("otfs_op,drrs_op,drrs_delay", [
    ("session", "loyalty", 0.01),
    pytest.param("loyalty", "session", 3.0,
                 marks=_item_1(AssertionError, "scale signal")),
])
def test_otfs_alignment_beside_an_adjacent_drrs_rescale(otfs_op, drrs_op,
                                                        drrs_delay):
    """OTFS rescales one of Twitch's adjacent keyed operators while DRRS
    rescales the other (§IV-B).  New ``loyalty`` instances only add
    channels downstream of an OTFS alignment at ``session``; new
    ``session`` instances add channels into ``loyalty`` instances still
    aligning the OTFS barrier, which those channels never carry."""
    job = make_workload("twitch", QUICK, batch_size=400).build()
    job.run(until=15.0)
    otfs = controller_factory("otfs")(job)
    drrs = DRRSController(job)
    parallelism = {"session": 10, "loyalty": 12}
    otfs_done = otfs.request_rescale(otfs_op, parallelism[otfs_op])
    drrs_done = {}
    job.sim.call_at(15.0 + drrs_delay, lambda: drrs_done.setdefault(
        "done", drrs.request_rescale(drrs_op, parallelism[drrs_op])))
    job.run(until=60.0)
    assert drrs_done["done"].triggered
    assert otfs_done.triggered


def _beside_drrs(system, delta, until):
    """Twitch QUICK: ``system`` rescales ``loyalty`` 8→12 at 15.0 and DRRS
    rescales ``session`` to 10 at 15.0 + δ.  Returns both done events and
    the first controller."""
    job = make_workload("twitch", QUICK, batch_size=400).build()
    job.run(until=15.0)
    controller = controller_factory(system)(job)
    drrs = DRRSController(job)
    done = controller.request_rescale("loyalty", 12)
    drrs_done = {}
    job.sim.call_at(15.0 + delta, lambda: drrs_done.setdefault(
        "done", drrs.request_rescale("session", 10)))
    job.run(until=until)
    return done, drrs_done["done"], controller


_MEGAPHONE_AT_30 = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="Megaphone has not finished at 30 s: loyalty[2] still aligns "
    "scale token (1, 4), injected at 20.51, whose barriers from session[2] "
    "and session[3] are queued in loyalty[2]'s input cache behind 2,160 "
    "and 1,080 records while loyalty[2] is busy the whole second at 720 "
    "records/s -- backlog, Naive Division's expected cost, not an "
    "injection held by a backpressured session loop; the token aligns at "
    "35.16 with or without the DRRS rescale beside it")


@pytest.mark.parametrize("delta", [0.01, 0.5])
@pytest.mark.parametrize("system", [
    "otfs", "otfs-all-at-once", "meces", "subscale",
    pytest.param("megaphone", marks=_MEGAPHONE_AT_30)])
def test_coupled_barriers_beside_an_adjacent_drrs_rescale(system, delta):
    """A coupled-barrier rescale of ``loyalty`` and a DRRS rescale of
    ``session`` run side by side (§IV-B).  DRRS finishes first, about a
    second in; the other controller's barriers still in the dataflow must
    keep reaching it, or its rescale never ends."""
    done, drrs_done, _controller = _beside_drrs(system, delta, until=30.0)
    assert drrs_done.triggered
    assert done.triggered


def test_megaphone_beside_an_adjacent_drrs_rescale_finishes():
    """Megaphone's 29 coupled phases outlast the 30 s horizon above, with
    or without DRRS beside it; given the time, it finishes (at 324.46 s;
    at 320.55 s alone)."""
    done, drrs_done, controller = _beside_drrs("megaphone", 0.01,
                                               until=340.0)
    assert drrs_done.triggered
    assert done.triggered
    assert len(controller.metrics.injections) == 29


@_item_1(AssertionError, "checkpoint barrier")
def test_q7_rescale_inside_a_checkpoint_alignment_finishes():
    """Q7 QUICK, seed 7, a checkpoint every 5 s, DRRS 8→12 at 30.2 --
    inside the alignment of checkpoint 6 (triggered at 30.0).  Today the
    sink waits for checkpoint 6 on the channels from the new window
    instances, backpressure stops the sources, the rescale never ends,
    the last checkpoint (5) completes at 25.42 and the sources admit
    724,600 of the 800,000 records offered."""
    workload = make_workload("q7", QUICK, seed=7)
    job = workload.build()
    checkpoints = CheckpointCoordinator(job, interval=5)
    checkpoints.start()
    controller = DRRSController(job)
    finished = []
    job.sim.call_at(30.2, lambda: controller.request_rescale(
        "q7-window", 12).add_callback(
            lambda _event: finished.append(job.sim.now)))
    job.run(until=40.0)
    assert finished, "the rescale did not finish"
    assert checkpoints.completed[-1][0] > finished[0]
    offered = workload.config.rate * 40.0
    assert job.metrics.total_source_output() >= 0.97 * offered


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP items 1 and 11: the rescale requested as the restore "
    "resumes adds instances while checkpoint 8's barrier is between the "
    "sources and the sink, whose alignment waits on the new channels "
    "forever; 0.05 s later the same request completes")
def test_rescale_requested_as_a_restore_resumes_finishes():
    """A crash at 6.0 under the dict backend, and DRRS ``agg`` 2→4
    requested from a callback on ``job.recovery_barrier``, in the instant
    the restore resumes the job.  Today ``done`` never fires and the
    completed checkpoints stop at 7."""
    job, _produced, _checkpoints, recovery = _crash_job("dict")
    controller = DRRSController(job)
    seen = {}

    def crash():
        recovery.fail_and_recover("crash")
        job.recovery_barrier.add_callback(lambda _event: seen.setdefault(
            "done", controller.request_rescale("agg", 4)))

    job.sim.call_at(6.0, crash)
    job.run(until=40.0)
    assert seen["done"].triggered, "the rescale did not finish"
