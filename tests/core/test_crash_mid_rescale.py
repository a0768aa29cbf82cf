"""A crash during a rescale is repaired by the checkpoint restore.

The controller's ``abort`` only stops the migration and fails the
rescale's done event with ``RescaleAborted``; the restore rebuilds state,
routing and assignments for every instance, and the caller re-requests
the rescale.  The sweep moves the crash across the whole rescale window
of every whole-group controller, so it lands during provisioning,
mid-transfer, between subscales and after completion.
"""

import dataclasses

import pytest

from repro.core.drrs import DRRSConfig, DRRSController
from repro.core.rerouting import ReRouteManager
from repro.engine import (CheckpointCoordinator, JobConfig, JobGraph,
                          KeyedReduceLogic, OperatorSpec, Partitioning,
                          Record, StateTransferCostModel, StreamJob,
                          Watermark)
from repro.engine.recovery import RecoveryError, RecoveryManager
from repro.experiments.chaos_bank import _keyed_job
from repro.experiments.figures import controller_factory
from repro.faults import CrashInstance, FaultInjector
from repro.faults.invariants import check_all
from repro.scaling import StopRestartController
from repro.scaling.base import RescaleAborted, rescale_until_done
from tests.helpers import runs_without_rescale
from tests.scaling.test_transfer_recovery import WHOLE_GROUP_CONTROLLERS

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
    recovery = RecoveryManager(job, restart_seconds=0.5).install()
    return job, produced, checkpoints, recovery


#: The sweep's controllers: every whole-group one, the ``dr`` variant,
#: and DRRS with 2 subscales.  The paper's 16 subscales leave one moving
#: key-group in each; with 2, each carries four, so a subscale migration
#: that outlived the abort would move more groups after the restore.
SWEEP = {name: controller_factory(name)
         for name in WHOLE_GROUP_CONTROLLERS + ["dr"]}
SWEEP["drrs-2"] = lambda job: DRRSController(job,
                                             DRRSConfig(num_subscales=2))


def _abort_spans(job):
    return job.telemetry.tracer.closed_spans(category="recovery",
                                             name="scale.abort")


def _owners(job, op_name="agg"):
    return sorted(set(job.assignments[op_name].as_dict().values()))


def _request(job, controller, seen, op_name="agg", new_parallelism=4):
    """Request the rescale now, as ``seen["rescale"]``, and spawn its
    caller: on ``RescaleAborted`` it keeps ``seen["aborted"]``, notes in
    ``seen["torn_down"]`` whether the rescale left ``op_name``'s instances
    as it found them, and re-requests until done; ``seen["finished"]``
    marks the end."""
    done = seen["rescale"] = controller.request_rescale(op_name,
                                                        new_parallelism)

    def caller():
        try:
            yield done
        except RescaleAborted as aborted:
            seen["aborted"] = aborted
            seen["torn_down"] = runs_without_rescale(job, op_name)
            yield from rescale_until_done(job, controller, op_name,
                                          new_parallelism)
        seen["finished"] = True

    job.sim.spawn(caller())


def _assert_aborted(seen, op_name="agg", new_parallelism=4):
    done = seen["rescale"]
    assert done.triggered and not done.ok
    assert done.value is seen["aborted"]
    assert seen["aborted"].op_name == op_name
    assert seen["aborted"].new_parallelism == new_parallelism
    assert seen["finished"]


@pytest.mark.parametrize("crash_at", CRASH_OFFSETS)
@pytest.mark.parametrize("system", sorted(SWEEP))
@pytest.mark.parametrize("backend", ["dict", "changelog"])
def test_crash_anywhere_in_a_rescale_is_repaired(backend, system, crash_at):
    """``agg`` 2→4 at 6.0 and a crash at ``crash_at``: recovery happened,
    state is exactly-once, and the scale was aborted once exactly when
    the crash hit it, from the request on.  An aborted rescale fails its
    done with ``RescaleAborted``, and the caller's re-request leaves all
    four instances owning key-groups.  A crash after the rescale's done
    may restore a checkpoint cut during it (see
    ``test_a_crash_after_done_keeps_the_rescale``), so ownership is
    asserted only when the crash hit the rescale."""
    job, produced, _checkpoints, recovery = _crash_job(backend)
    controller = SWEEP[system](job)
    seen = {}

    def crash():
        # Requested or running: a crash in the request's own instant
        # (offset 6.0) lands before ``_run_scale`` registers the scale in
        # ``active_scalers``, and must abort it all the same.
        seen["hit"] = controller.active
        seen["recovered"] = recovery.fail_and_recover("sweep")

    job.sim.call_at(6.0, lambda: _request(job, controller, seen))
    job.sim.call_at(crash_at, crash)
    job.run(until=40.0)

    assert seen["recovered"].triggered and seen["recovered"].ok
    assert recovery.recoveries
    assert len(_abort_spans(job)) == (1 if seen["hit"] else 0)
    if seen["hit"]:
        _assert_aborted(seen)
        assert seen["torn_down"]
        assert _owners(job) == [0, 1, 2, 3]
    else:
        assert seen["rescale"].ok and seen["finished"]
    assert len(job.instances("agg")) == 4
    assert check_all(job, "agg", oracle=produced) == []
    if crash_at == 6.0:
        assert seen["hit"]


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 11: a crash after a rescale's done can restore a "
    "checkpoint cut during that rescale, which silently undoes part of it")
def test_a_crash_after_done_keeps_the_rescale():
    """The ``dr`` variant under changelog: ``agg`` 2→4 at 6.0 reports
    done at 7.915, and a crash at 8.0 restores checkpoint 8, cut
    mid-scaling.  Today the restore leaves four ``agg`` instances with
    owners [0, 1], exactly-once state, and nothing reported."""
    job, produced, _checkpoints, recovery = _crash_job("changelog")
    controller = controller_factory("dr")(job)
    seen = {}
    job.sim.call_at(6.0, lambda: _request(job, controller, seen))
    job.sim.call_at(8.0, lambda: recovery.fail_and_recover("after done"))
    job.run(until=40.0)
    assert seen["rescale"].ok
    assert check_all(job, "agg", oracle=produced) == []
    assert _owners(job) == [0, 1, 2, 3]


def test_a_double_failure_aborts_the_rescale_once():
    """Two crashes in one instant during ``agg`` 2→4: one abort, one
    ``RescaleAborted`` and one re-requested ``rescale`` span."""
    job, produced, _checkpoints, recovery = _crash_job("dict")
    controller = DRRSController(job)
    seen = {}

    def crash_twice():
        seen["first"] = recovery.fail_and_recover("first")
        seen["second"] = recovery.fail_and_recover("second")

    job.sim.call_at(6.0, lambda: _request(job, controller, seen))
    job.sim.call_at(6.8, crash_twice)
    job.run(until=40.0)

    assert seen["first"].ok and seen["second"].ok
    assert len(_abort_spans(job)) == 1
    _assert_aborted(seen)
    assert len(job.telemetry.tracer.closed_spans(name="rescale")) == 2
    assert _owners(job) == [0, 1, 2, 3]
    assert check_all(job, "agg", oracle=produced) == []


@pytest.mark.parametrize("request_at", [6.0, 6.2, 6.45, 6.5, 6.55, 7.0])
@pytest.mark.parametrize("backend", ["dict", "changelog"])
def test_stop_restart_requested_during_a_restore_waits_for_it(backend,
                                                              request_at):
    """A crash at 6.0, then Stop-Restart ``agg`` 2→4 requested at
    ``request_at``, from the crash's own instant to after the restore.
    Halting and moving state under the restore would leave key-groups 4
    and 5 processable on both old instances, so the rescale waits for
    the restore."""
    job, produced, _checkpoints, recovery = _crash_job(backend)
    controller = StopRestartController(job)
    seen = {}
    job.sim.call_at(6.0, lambda: recovery.fail_and_recover("crash"))
    job.sim.call_at(request_at, lambda: _request(job, controller, seen))
    job.run(until=40.0)
    assert seen["rescale"].ok and seen["finished"]
    assert _owners(job) == [0, 1, 2, 3]
    assert check_all(job, "agg", oracle=produced) == []


@pytest.mark.parametrize("old,new", [(2, 4), (4, 2)])
@pytest.mark.parametrize("backend", ["dict", "changelog"])
def test_crash_in_the_requests_instant_commits_only_the_re_request(
        backend, old, new):
    """``agg`` old→new requested at 6.0 and a crash in that same instant.
    The abort lands before the scale process starts, and that process
    then runs up to its first yield.  Its cleanup must take the aborted
    branch: only the re-request commits the target assignment, so a
    scale-in decommissions no instance that the restore still writes
    to."""
    job, produced, _checkpoints, recovery = _crash_job(backend,
                                                       parallelism=old)
    controller = DRRSController(job)
    finalize = controller._finalize_assignment
    committed = []

    def finalize_after_restore(op_name, plan):
        committed.append(len(recovery.recoveries))
        finalize(op_name, plan)

    controller._finalize_assignment = finalize_after_restore
    seen = {}

    def rescale_then_crash():
        _request(job, controller, seen, new_parallelism=new)
        seen["recovered"] = recovery.fail_and_recover("same instant")

    job.sim.call_at(6.0, rescale_then_crash)
    job.run(until=40.0)

    assert seen["recovered"].triggered and seen["recovered"].ok
    _assert_aborted(seen, new_parallelism=new)
    assert len(_abort_spans(job)) == 1
    assert committed == [1]
    assert len(job.instances("agg")) == new
    assert _owners(job) == list(range(new))
    assert check_all(job, "agg", oracle=produced) == []


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


@pytest.mark.parametrize("system,command", [
    ("drrs", 2), ("drrs-2", 2), ("schedule", 1), ("subscale", 2),
    ("megaphone", 2)])
@pytest.mark.parametrize("backend", ["dict", "changelog"])
def test_injection_commanded_before_a_crash_is_dropped(backend, system,
                                                       command):
    """A crash lands once an in-band injection was commanded at the
    predecessor (the ``command``-th), but before that predecessor ran
    it.  The restore pauses the predecessor, so the stale injection
    would run after the restore, ahead of the re-request's own launch,
    and flip routing the restore has just re-derived; the abort's epoch
    bump turns it into a no-op.  (DRRS's first subscale's stale
    injection would pass unnoticed: the re-request re-plans it
    identically and launches it first.)
    """
    job, produced, _checkpoints, recovery = _crash_job(backend)
    controller = SWEEP[system](job)
    (source, _edge), = job.senders_to("agg")
    run_inband = source.run_inband
    seen = {"commanded": 0}

    def crash_then_run_inband(fn):
        seen["commanded"] += 1
        if seen["commanded"] == command:
            seen["recovered"] = recovery.fail_and_recover("in flight")
        run_inband(fn)

    source.run_inband = crash_then_run_inband
    job.sim.call_at(6.0, lambda: _request(job, controller, seen))
    job.run(until=40.0)

    assert seen["recovered"].triggered and seen["recovered"].ok
    assert len(_abort_spans(job)) == 1
    _assert_aborted(seen)
    assert _owners(job) == [0, 1, 2, 3]
    assert check_all(job, "agg", oracle=produced) == []


def _two_stage_job(backend):
    """``src → agg → agg2 → sink``, both keyed sums of ``count`` (so the
    same per-key oracle holds for each), 16 key-groups, parallelism 2."""
    graph = JobGraph("two-stage", num_key_groups=16)
    graph.add_source("src", parallelism=1, service_time=5e-5)
    for name in ("agg", "agg2"):
        graph.add_operator(OperatorSpec(
            name,
            logic_factory=lambda: KeyedReduceLogic(
                lambda old, r: (old or 0) + r.count),
            parallelism=2, service_time=2e-4, keyed=True,
            initial_state_bytes_per_group=2e6))
    graph.add_sink("sink", collect=True)
    graph.connect("src", "agg", Partitioning.HASH)
    graph.connect("agg", "agg2", Partitioning.HASH)
    graph.connect("agg2", "sink", Partitioning.FORWARD)
    job = StreamJob(graph, config=dataclasses.replace(
        JobConfig(), state_backend=backend)).build()
    produced = {}

    def gen():
        src = job.sources()[0]
        i = 0
        while job.sim.now < 14.0:
            key = f"k{i % 24}"
            src.offer(Record(key=key, event_time=job.sim.now, count=1))
            produced[key] = produced.get(key, 0) + 1
            if i % 20 == 0:
                src.offer(Watermark(timestamp=job.sim.now))
            i += 1
            yield job.sim.timeout(0.01)

    job.sim.spawn(gen(), name="two-stage-driver")
    job.enable_telemetry()
    CheckpointCoordinator(job, interval=0.75).start()
    recovery = RecoveryManager(job, restart_seconds=0.5).install()
    return job, produced, recovery


@pytest.mark.parametrize("backend", ["dict", "changelog"])
def test_an_aborted_rescale_names_the_operator_that_was_requested(backend):
    """``agg`` 2→4 completes; then ``agg2`` 2→4 is requested at 9.0 and a
    crash lands in that same instant, before the scale process ran.  The
    abort and its ``RescaleAborted`` must name ``agg2``, not the previous
    rescale's operator, and the re-request must leave all four ``agg2``
    instances owning key-groups."""
    job, produced, recovery = _two_stage_job(backend)
    controller = DRRSController(job)
    seen = {}

    def rescales():
        yield controller.request_rescale("agg", 4)
        yield job.sim.timeout(9.0 - job.sim.now)
        _request(job, controller, seen, op_name="agg2")
        seen["recovered"] = recovery.fail_and_recover("same instant")

    job.sim.call_at(4.0, lambda: job.sim.spawn(rescales()))
    job.run(until=40.0)

    assert seen["recovered"].triggered and seen["recovered"].ok
    abort, = _abort_spans(job)
    assert abort.attrs["op"] == "agg2"
    _assert_aborted(seen, op_name="agg2")
    assert len(job.instances("agg2")) == 4
    assert _owners(job, "agg2") == [0, 1, 2, 3]
    for instance in job.instances("agg2"):
        assert instance.state.owned_groups(), instance.name
    for op_name in ("agg", "agg2"):
        assert check_all(job, op_name, oracle=produced) == []


def test_pre_cut_record_in_a_reroute_buffer_is_swept(monkeypatch):
    """A crash while a re-route manager still holds a record from before
    the restored checkpoint's cut.  No snapshot holds that record's
    effect (it left the source instance's state on an alignment-free
    lane) and the source replays only from the cut on, so recovery's
    sweep of the manager buffers must re-inject it.

    The manager drains within 2 ms, so the first re-routed record is held
    out of its buffer, a checkpoint is triggered behind it, and the
    record goes back into the buffer in the instant that checkpoint
    completes, just before the crash.  Under ``changelog`` that
    checkpoint completes only after the rescale has ended, so the case
    runs under ``dict`` alone."""
    job, produced = _keyed_job(stop_at=14.0, parallelism=2,
                               state_bytes_per_group=8e6, ramp=(5.5, 1000),
                               job_config=SLOW_HANDOFF, state_backend="dict")
    checkpoints = CheckpointCoordinator(job, interval=0.75)
    checkpoints.start()
    recovery = RecoveryManager(job, restart_seconds=0.5).install()
    controller = DRRSController(job)
    seen = {}
    forward_record = ReRouteManager.forward_record

    def hold_first_record(manager, element):
        forward_record(manager, element)
        if "held" not in seen:
            manager._buffer.pop()
            seen["held"] = (manager, element)
            seen["checkpoint"] = checkpoints.trigger_now()

    monkeypatch.setattr(ReRouteManager, "forward_record", hold_first_record)
    on_complete = recovery.on_complete

    def crash():
        manager, element = seen["held"]
        manager._buffer.append(element)
        cut = recovery.latest_completed().snapshots[element.src_origin]
        seen["pre_cut"] = element.src_seq < cut.source_offset
        seen["active"] = controller.active
        seen["recovered"] = recovery.fail_and_recover("stranded record")

    def crash_on_complete(checkpoint_id):
        on_complete(checkpoint_id)
        if checkpoint_id == seen.get("checkpoint"):
            job.sim.call_at(job.sim.now, crash)

    recovery.on_complete = crash_on_complete
    job.sim.call_at(6.0, lambda: _request(job, controller, seen))
    job.run(until=40.0)

    assert seen["pre_cut"] and seen["active"]
    assert seen["recovered"].triggered and seen["recovered"].ok
    _assert_aborted(seen)
    assert check_all(job, "agg", oracle=produced) == []


def test_a_completed_rescale_leaves_nothing_to_sweep():
    """After a completed DRRS rescale, recovery's sweep of re-route
    buffers drains nothing of it, even a record left in one of its
    managers' buffers."""
    job, _produced, _checkpoints, _recovery = _crash_job("dict")
    controller = DRRSController(job)
    seen = {}
    job.sim.call_at(6.0, lambda: _request(job, controller, seen))
    job.sim.call_at(6.6, lambda: seen.setdefault(
        "executors", list(controller._executors.values())))
    job.run(until=12.0)
    assert seen["rescale"].ok
    managers = [manager for executor in seen["executors"]
                for manager in executor.reroute_managers.values()]
    assert managers
    managers[0]._buffer.append(Record(key="k0", event_time=6.0, count=1))
    assert controller._sweep_reroute_buffers() == []


def test_recovery_sweep_releases_an_aborted_rescales_executors():
    """An aborted DRRS rescale's cleanup runs before recovery's sweep, so
    it keeps its executors for the sweep to drain; the sweep then
    releases them."""
    job, _produced, _checkpoints, recovery = _crash_job("dict")
    controller = DRRSController(job)
    seen = {}
    job.sim.call_at(6.0, lambda: seen.setdefault(
        "rescale", controller.request_rescale("agg", 4)))
    job.sim.call_at(7.0, lambda: recovery.fail_and_recover("crash"))
    job.run(until=7.1)
    assert isinstance(seen["rescale"].value, RescaleAborted)
    assert controller._executors == {}
