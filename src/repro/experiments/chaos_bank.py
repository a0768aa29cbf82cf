"""Bank of chaos scenarios exercising §IV-C's robustness claims.

Each scenario wires a keyed-sum pipeline (the canonical scaling testbed),
an oracle that counts what the generator actually produced, periodic
aligned checkpoints, a :class:`~repro.engine.recovery.RecoveryManager`
and a :class:`~repro.faults.FaultInjector`, then declares what must hold
after the dust settles.  Run one with::

    python -m repro chaos crash-mid-subscale

Channels are FIFO and reliable, so every fault here is a crash or a
stall; neither corrupts a completed checkpoint.  ``crash-mid-subscale``
is the §IV-C acceptance scenario — a checkpoint completes *during* the
DRRS scaling operation (migrating key-group bytes folded into the
departing instance's snapshot), the crash lands while subscales are
still in flight and aborts the rescale, recovery restores that
mid-scaling checkpoint, and the scenario's script re-requests the
rescale, which completes.  The expectations pin all of that, not just
the invariants.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from ..engine import (CheckpointCoordinator, JobConfig, JobGraph,
                      KeyedReduceLogic, OperatorSpec, Partitioning, Record,
                      StateTransferCostModel, StreamJob, Watermark)
from ..engine.recovery import RecoveryManager
from ..faults import (ChaosScenario, ChaosSetup, CrashInstance,
                      FaultInjector, StallUploads)
from ..scaling.base import rescale_until_done

__all__ = ["CHAOS_SCENARIOS", "chaos_scenario"]


def _config_with_backend(job_config, state_backend: Optional[str],
                         record_plane: Optional[str] = None):
    """Overlay state-backend / record-plane choices on an (optional)
    JobConfig; None keeps what the config (or the default) says."""
    overlay = {}
    if state_backend is not None:
        overlay["state_backend"] = state_backend
    if record_plane is not None:
        overlay["record_plane"] = record_plane
    return dataclasses.replace(job_config or JobConfig(), **overlay)


def _keyed_job(stop_at: float, num_key_groups: int = 16,
               parallelism: int = 2, keys: int = 24,
               state_bytes_per_group: float = 2e6,
               agg_service_time: float = 2e-4,
               gap: float = 0.01, ramp: Optional[Tuple[float, float]] = None,
               job_config=None,
               state_backend: Optional[str] = None,
               record_plane: Optional[str] = None):
    """source → keyed sum → sink plus a counting oracle.

    The generator offers one record per ``gap`` seconds; with ``ramp =
    (at, rate)`` it offers ``rate`` records/s from sim time ``at`` on.  It
    tallies ``produced[key]`` as it offers records, so the oracle survives
    replay-history trimming and is blind to every fault downstream of the
    source.  The sink collects its input so the semantic trace
    (backend-equivalence invariant) can diff per-key final sink values
    across backends.
    """
    graph = JobGraph("chaos", num_key_groups=num_key_groups)
    graph.add_source("src", parallelism=1, service_time=5e-5)
    graph.add_operator(OperatorSpec(
        "agg",
        logic_factory=lambda: KeyedReduceLogic(
            lambda old, r: (old or 0) + r.count),
        parallelism=parallelism, service_time=agg_service_time, keyed=True,
        initial_state_bytes_per_group=state_bytes_per_group))
    graph.add_sink("sink", collect=True)
    graph.connect("src", "agg", Partitioning.HASH)
    graph.connect("agg", "sink", Partitioning.FORWARD)
    job_config = _config_with_backend(job_config, state_backend,
                                      record_plane)
    job = StreamJob(graph, config=job_config).build()
    produced: Dict[str, int] = {}

    def gen():
        src = job.sources()[0]
        i = 0
        while job.sim.now < stop_at:
            key = f"k{i % keys}"
            src.offer(Record(key=key, event_time=job.sim.now, count=1))
            produced[key] = produced.get(key, 0) + 1
            if i % 20 == 0:
                src.offer(Watermark(timestamp=job.sim.now))
            i += 1
            if ramp is not None and job.sim.now >= ramp[0]:
                yield job.sim.timeout(1.0 / ramp[1])
            else:
                yield job.sim.timeout(gap)

    job.sim.spawn(gen(), name="chaos-driver")
    return job, produced


def _rescale_at(job, controller, op_name: str, when: float,
                new_parallelism: int) -> Dict:
    """Kick off a rescale at ``when``, re-requested after every abort;
    returns a holder for the process that ends when it completes."""
    holder: Dict = {"done": None}

    def kick():
        holder["done"] = job.sim.spawn(rescale_until_done(
            job, controller, op_name, new_parallelism))

    job.sim.call_at(when, kick)
    return holder


def _expect_rescaled(holder, job, op_name: str,
                     parallelism: int) -> List[str]:
    problems = []
    done = holder["done"]
    if done is None:
        problems.append("rescale was never requested")
    elif not done.triggered:
        problems.append("rescale never completed")
    elif not done._ok:
        problems.append(f"rescale failed: {done.value!r}")
    if len(job.instances(op_name)) != parallelism:
        problems.append(
            f"{op_name} has {len(job.instances(op_name))} instances, "
            f"want {parallelism}")
    return problems


def _expect_spans(job, requests: int = 1) -> List[str]:
    """An abort, and one ``rescale`` span more than the script's
    ``requests``: the re-request of the aborted one."""
    problems = []
    tracer = job.telemetry.tracer
    if not tracer.closed_spans(category="recovery", name="scale.abort"):
        problems.append("no scale.abort span recorded")
    if len(tracer.closed_spans(name="rescale")) <= requests:
        problems.append("no re-requested rescale span recorded")
    return problems


# -- scenarios ---------------------------------------------------------------


def _crash_mid_subscale(job_config=None, state_backend: Optional[str] = None,
                        record_plane: Optional[str] = None) -> ChaosSetup:
    """§IV-C acceptance: crash mid-subscale, recover from a checkpoint
    taken during the scaling operation, finish the rescale by
    re-requesting it.

    ``job_config`` lets the scheduler-equivalence tests force the
    calendar queue; the transfer cost model is overlaid on it.
    """
    from ..core.drrs import DRRSController

    # A per-group coordination floor keeps the migration window wide
    # under *both* backends: the changelog tail fast path shrinks the
    # wire bytes to almost nothing, and without the floor the subscale
    # would finish before the crash lands, voiding the scenario.
    slow_handoff = StateTransferCostModel(handshake_seconds=0.35)
    job_config = dataclasses.replace(job_config or JobConfig(),
                                     transfer=slow_handoff)
    job, produced = _keyed_job(stop_at=14.0,
                               state_bytes_per_group=24e6,
                               job_config=job_config,
                               state_backend=state_backend,
                               record_plane=record_plane)
    job.enable_telemetry()
    checkpoints = CheckpointCoordinator(job, interval=0.75)
    checkpoints.start()
    recovery = RecoveryManager(job, restart_seconds=0.5).install()
    controller = DRRSController(job)
    holder = _rescale_at(job, controller, "agg", 6.0, 4)
    injector = FaultInjector(job, recovery=recovery)
    injector.add(CrashInstance("agg", 1, at=8.0))

    def expect(setup) -> List[str]:
        problems = _expect_rescaled(holder, job, "agg", 4)
        problems += _expect_spans(job)
        if not recovery.recoveries:
            problems.append("crash caused no recovery")
        else:
            _when, cid = recovery.recoveries[0]
            if cid not in recovery.restored_mid_scaling:
                problems.append(
                    f"restored checkpoint #{cid} predates the scaling "
                    "operation — the mid-scaling fold was never "
                    "exercised")
        return problems

    return ChaosSetup(job=job, injector=injector, keyed_ops=["agg"],
                      horizon=45.0, recovery=recovery,
                      oracle={"agg": produced}, expectations=[expect])


def _scripted_crash_mid_subscale(
        state_backend: Optional[str] = None,
        record_plane: Optional[str] = None) -> ChaosSetup:
    """Three scripted DRRS rescales under a load ramp and 0.75 s
    checkpoints: ``agg`` 2→5 at 6.0, →6 at 9.0 and →2 at 22.0, each
    requested after the previous one's done.  A phase-triggered crash
    lands in the first rescale's state transfer; DRRS aborts, the restore
    repairs the migration, the script re-requests it, and the later
    rescales open channels while checkpoints align.

    The times are fixed, not load-dependent: they are where a
    utilisation-threshold policy decided on this load at seeds 7 and 11
    (under dict; changelog gave 6.0/8.0/21.0).  Fixed, they catch a
    checkpoint that skips channels born after its trigger under both
    backends."""
    from ..core.drrs import DRRSController

    # Ramp at t=4: 300/s → 1200/s saturates p=2 (service 2 ms).
    job, produced = _keyed_job(stop_at=16.0, state_bytes_per_group=8e6,
                               agg_service_time=2e-3, gap=1.0 / 300.0,
                               ramp=(4.0, 1200.0),
                               state_backend=state_backend,
                               record_plane=record_plane)
    job.enable_telemetry()
    checkpoints = CheckpointCoordinator(job, interval=0.75)
    checkpoints.start()
    recovery = RecoveryManager(job, restart_seconds=0.5).install()
    controller = DRRSController(job)
    dones = []

    def rescales():
        for when, target in ((6.0, 5), (9.0, 6), (22.0, 2)):
            yield job.sim.timeout(max(when - job.sim.now, 0.0))
            dones.append((yield from rescale_until_done(
                job, controller, "agg", target)))

    job.sim.spawn(rescales(), name="chaos-rescales")
    injector = FaultInjector(job, recovery=recovery)
    injector.add(CrashInstance("agg", 1, phase="state-transfer"))

    def expect(setup) -> List[str]:
        problems = []
        if len(dones) < 3:
            problems.append(f"{len(dones)} of 3 rescales completed")
        if not recovery.recoveries:
            problems.append("crash caused no recovery")
        problems += _expect_spans(job, requests=3)
        if len(job.instances("agg")) != 2:
            problems.append(
                f"agg has {len(job.instances('agg'))} instances, want 2")
        return problems

    return ChaosSetup(job=job, injector=injector, keyed_ops=["agg"],
                      horizon=45.0, recovery=recovery,
                      oracle={"agg": produced}, expectations=[expect])


def _crash_during_transfer(
        state_backend: Optional[str] = None,
        record_plane: Optional[str] = None) -> ChaosSetup:
    """Phase-triggered crash the instant the first key-group migration
    begins; the restore undoes the migration, the re-request completes
    it."""
    from ..core.drrs import DRRSController

    job, produced = _keyed_job(stop_at=14.0,
                               state_bytes_per_group=8e6,
                               state_backend=state_backend,
                               record_plane=record_plane)
    job.enable_telemetry()
    checkpoints = CheckpointCoordinator(job, interval=1.0)
    checkpoints.start()
    recovery = RecoveryManager(job, restart_seconds=0.5).install()
    controller = DRRSController(job)
    holder = _rescale_at(job, controller, "agg", 6.0, 4)
    injector = FaultInjector(job, recovery=recovery)
    injector.add(CrashInstance("agg", 0, phase="state-transfer"))

    def expect(setup) -> List[str]:
        problems = _expect_rescaled(holder, job, "agg", 4)
        problems += _expect_spans(job)
        if not recovery.recoveries:
            problems.append("crash caused no recovery")
        return problems

    return ChaosSetup(job=job, injector=injector, keyed_ops=["agg"],
                      horizon=45.0, recovery=recovery,
                      oracle={"agg": produced}, expectations=[expect])


def _double_fault(state_backend: Optional[str] = None,
                  record_plane: Optional[str] = None) -> ChaosSetup:
    """A second crash strikes while the first restore is still running;
    the half-done restore is abandoned and recovery restarts cleanly."""
    job, produced = _keyed_job(stop_at=12.0, state_backend=state_backend,
                               record_plane=record_plane)
    checkpoints = CheckpointCoordinator(job, interval=1.0)
    checkpoints.start()
    recovery = RecoveryManager(job, restart_seconds=1.5).install()
    injector = FaultInjector(job, recovery=recovery)
    injector.add(CrashInstance("agg", 0, at=6.0))
    injector.add(CrashInstance("agg", 1, at=6.8))

    def expect(setup) -> List[str]:
        problems: List[str] = []
        if len(recovery.recoveries) < 2:
            problems.append(
                f"expected a double recovery, saw "
                f"{len(recovery.recoveries)}")
        return problems

    return ChaosSetup(job=job, injector=injector, keyed_ops=["agg"],
                      horizon=35.0, recovery=recovery,
                      oracle={"agg": produced}, expectations=[expect])


def _crash_large_state(state_backend: Optional[str] = None,
                       record_plane: Optional[str] = None) -> ChaosSetup:
    """Recovery-time tier: crash a job with *large* keyed state.

    Defaults to the changelog backend.  The expectation measures the
    checkpoint barrier-path cost and the recovery-restore duration from
    telemetry spans, and — when running under changelog — runs a dict
    twin of the same scenario and asserts the two headline claims:

    * barrier-path (``checkpoint.sync``) cost is ~constant in state size
      (the dict twin's grows with the state; changelog's is the manifest),
    * recovery completes in ≤ 50 % of the dict backend's recovery time
      (local recovery: materialized base durable + local, only the delta
      tail is replayed).
    """
    backend = state_backend or "changelog"
    job, produced = _keyed_job(stop_at=12.0,
                               state_bytes_per_group=48e6,
                               state_backend=backend,
                               record_plane=record_plane)
    job.enable_telemetry()
    checkpoints = CheckpointCoordinator(job, interval=1.0)
    checkpoints.start()
    recovery = RecoveryManager(job, restart_seconds=0.5).install()
    injector = FaultInjector(job, recovery=recovery)
    # The crash lands only after the first (anchoring, whole-state)
    # segment upload is durable — no checkpoint may complete before its
    # whole delta chain is, so an earlier crash would find nothing to
    # restore from under the changelog backend.
    injector.add(CrashInstance("agg", 0, at=10.0))

    def _measure(measured_job):
        tracer = measured_job.telemetry.tracer
        syncs = [span.duration for span in tracer.closed_spans(
            category="checkpoint", name="checkpoint.sync")]
        restores = [span.duration for span in tracer.closed_spans(
            category="recovery", name="recovery.restore")]
        return (max(syncs) if syncs else 0.0,
                max(restores) if restores else 0.0)

    def expect(setup) -> List[str]:
        problems: List[str] = []
        if not recovery.recoveries:
            problems.append("crash caused no recovery")
            return problems
        max_sync, restore_time = _measure(job)
        setup.measurements.update({
            "state_backend": backend,
            "max_checkpoint_sync_seconds": max_sync,
            "recovery_restore_seconds": restore_time,
        })
        if backend != "changelog":
            return problems
        # Dict twin: the baseline the claims are made against.
        twin = _crash_large_state(state_backend="dict",
                                  record_plane=record_plane)
        twin.injector.arm()
        twin.job.run(until=twin.horizon)
        dict_sync, dict_restore = _measure(twin.job)
        setup.measurements.update({
            "dict_max_checkpoint_sync_seconds": dict_sync,
            "dict_recovery_restore_seconds": dict_restore,
        })
        # Barrier-path cost ~constant: the changelog manifest is tiny and
        # independent of the 48 MB/group state the dict twin serializes.
        if dict_sync > 0 and max_sync > 0.1 * dict_sync:
            problems.append(
                f"changelog barrier sync {max_sync:.6f}s is not ~constant "
                f"(dict twin paid {dict_sync:.6f}s)")
        if dict_restore <= 0:
            problems.append("dict twin recorded no recovery.restore span")
        elif restore_time > 0.5 * dict_restore:
            problems.append(
                f"changelog recovery {restore_time:.3f}s exceeds 50% of "
                f"the dict backend's {dict_restore:.3f}s")
        return problems

    return ChaosSetup(job=job, injector=injector, keyed_ops=["agg"],
                      horizon=40.0, recovery=recovery,
                      oracle={"agg": produced}, expectations=[expect])


def _checkpoint_upload_stall(
        state_backend: Optional[str] = None,
        record_plane: Optional[str] = None) -> ChaosSetup:
    """Recovery-time tier: async uploads stall, then a crash lands.

    Defaults to the changelog backend.  A checkpoint whose delta-segment
    uploads are stalled must not complete — and a crash during the stall
    must recover from the *older* checkpoint whose chain is durable,
    never from the one with segments still in flight.  Under the dict
    backend the stall is a no-op (nothing uploads asynchronously) and the
    newest checkpoint is used; both runs must pass the invariants.
    """
    backend = state_backend or "changelog"
    job, produced = _keyed_job(stop_at=12.0,
                               state_bytes_per_group=8e6,
                               state_backend=backend,
                               record_plane=record_plane)
    job.enable_telemetry()
    checkpoints = CheckpointCoordinator(job, interval=1.0)
    checkpoints.start()
    recovery = RecoveryManager(job, restart_seconds=0.5).install()
    injector = FaultInjector(job, recovery=recovery)
    injector.add(StallUploads("agg", extra_seconds=4.0, duration=2.5,
                              at=4.5))
    injector.add(CrashInstance("agg", 1, at=6.0))

    def expect(setup) -> List[str]:
        problems: List[str] = []
        if not recovery.recoveries:
            problems.append("crash caused no recovery")
            return problems
        when, cid = recovery.recoveries[0]
        triggered_before = [c for t, c in checkpoints.triggered
                            if t < when]
        completed_ids = {c for _t, c in checkpoints.completed}
        setup.measurements.update({
            "state_backend": backend,
            "restored_checkpoint": cid,
            "triggered_before_crash": len(triggered_before),
            "completed_total": len(completed_ids),
        })
        if backend == "changelog":
            newest_triggered = max(triggered_before, default=0)
            if cid >= newest_triggered:
                problems.append(
                    f"recovery used checkpoint #{cid} whose uploads were "
                    f"stalled (newest triggered before the crash was "
                    f"#{newest_triggered}) — delta-chain completeness "
                    "was not enforced")
        return problems

    return ChaosSetup(job=job, injector=injector, keyed_ops=["agg"],
                      horizon=35.0, recovery=recovery,
                      oracle={"agg": produced}, expectations=[expect])


CHAOS_SCENARIOS: Dict[str, ChaosScenario] = {
    scenario.name: scenario for scenario in [
        ChaosScenario(
            "crash-mid-subscale", _crash_mid_subscale,
            "crash during a DRRS subscale; recover from a mid-scaling "
            "checkpoint and finish the rescale by re-requesting it "
            "(§IV-C acceptance)"),
        ChaosScenario(
            "scripted-crash-mid-subscale", _scripted_crash_mid_subscale,
            "crash during the first of three scripted DRRS rescales "
            "under a load ramp; abort → restore → re-request, and the "
            "later rescales complete"),
        ChaosScenario(
            "crash-during-transfer", _crash_during_transfer,
            "phase-triggered crash at the first state transfer"),
        ChaosScenario(
            "double-fault", _double_fault,
            "second crash lands mid-restore; recovery restarts from "
            "scratch"),
        ChaosScenario(
            "crash-large-state", _crash_large_state,
            "crash with large keyed state (changelog default): barrier "
            "sync must stay ~constant and recovery must finish in <=50% "
            "of the dict backend's time (measured against a dict "
            "twin)"),
        ChaosScenario(
            "checkpoint-upload-stall", _checkpoint_upload_stall,
            "async changelog uploads stall, then a crash: recovery must "
            "use the older checkpoint whose delta chain is durable, "
            "never the one with segments in flight"),
    ]
}


def chaos_scenario(name: str) -> ChaosScenario:
    try:
        return CHAOS_SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(CHAOS_SCENARIOS))
        raise KeyError(f"unknown chaos scenario {name!r}; known: {known}")
