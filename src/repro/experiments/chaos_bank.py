"""Bank of seeded chaos scenarios exercising §IV-C's robustness claims.

Each scenario wires a keyed-sum pipeline (the canonical scaling testbed),
an oracle that counts what the generator actually produced, periodic
aligned checkpoints, a :class:`~repro.engine.recovery.RecoveryManager`
and a :class:`~repro.faults.FaultInjector`, then declares what must hold
after the dust settles.  Run one with::

    python -m repro chaos crash-mid-subscale --seed 7

Design notes on the fault/checkpoint interplay the scenarios encode:

* **Drop/duplicate windows corrupt checkpoints cut inside them** — a
  checkpoint completed mid-window has source offsets past records that
  were lost (or state that counted records twice), so replay from it
  cannot restore exactly-once.  The drop/duplicate scenarios therefore
  pause the checkpoint coordinator just before the window and crash
  before resuming it: recovery lands on a pre-window checkpoint and
  replay repairs the damage.  (Crashes and stalls need no such care:
  they never corrupt a completed checkpoint.)
* **``crash-mid-subscale`` is the §IV-C acceptance scenario** — a
  checkpoint completes *during* the DRRS scaling operation (migrating
  key-group bytes folded into the departing instance's snapshot), the
  crash lands while subscales are still in flight, recovery restores
  that mid-scaling checkpoint, and the controller's retry completes the
  rescale.  The expectations pin all of that, not just the invariants.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Dict, List, Optional

from ..engine import (CheckpointCoordinator, JobConfig, JobGraph,
                      KeyedReduceLogic, OperatorSpec, Partitioning, Record,
                      StateTransferCostModel, StreamJob, Watermark)
from ..engine.recovery import RecoveryManager
from ..faults import (ChaosScenario, ChaosSetup, CrashInstance,
                      DelayRecords, DropRecords, DuplicateRecords,
                      FaultInjector, StallTransfers, StallUploads)

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
               gap: float = 0.01, job_config=None,
               state_backend: Optional[str] = None,
               record_plane: Optional[str] = None):
    """source → keyed sum → sink plus a counting oracle.

    The generator tallies ``produced[key]`` as it offers records, so the
    oracle survives replay-history trimming and is blind to every fault
    downstream of the source.  The sink collects its input so the
    semantic trace (backend-equivalence invariant) can diff per-key final
    sink values across backends.
    """
    graph = JobGraph("chaos", num_key_groups=num_key_groups)
    graph.add_source("src", parallelism=1, service_time=5e-5)
    graph.add_operator(OperatorSpec(
        "agg",
        logic_factory=lambda: KeyedReduceLogic(
            lambda old, r: (old or 0) + r.count),
        parallelism=parallelism, service_time=2e-4, keyed=True,
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
            yield job.sim.timeout(gap)

    job.sim.spawn(gen(), name="chaos-driver")
    return job, produced


def _rescale_at(job, controller, op_name: str, when: float,
                new_parallelism: int) -> Dict:
    """Kick off a rescale at ``when``; returns a holder for its done."""
    holder: Dict = {"done": None}

    def kick():
        holder["done"] = controller.request_rescale(op_name,
                                                    new_parallelism)

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


def _expect_spans(job, want_rollback: bool = True,
                  want_retry: bool = True) -> List[str]:
    problems = []
    tracer = job.telemetry.tracer
    if want_rollback and not tracer.closed_spans(category="recovery",
                                                 name="scale.rollback"):
        problems.append("no scale.rollback span recorded")
    if want_retry and not tracer.events_named("scale.retry"):
        problems.append("no scale.retry instant recorded")
    return problems


# -- scenarios ---------------------------------------------------------------


def _crash_mid_subscale(seed: int, job_config=None,
                        state_backend: Optional[str] = None,
                        record_plane: Optional[str] = None) -> ChaosSetup:
    """§IV-C acceptance: crash mid-subscale, recover from a checkpoint
    taken during the scaling operation, finish the rescale via retry.

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
    recovery = RecoveryManager(job, restart_seconds=0.5,
                               retain_checkpoints=100).install()
    controller = DRRSController(job)
    holder = _rescale_at(job, controller, "agg", 6.0, 4)
    injector = FaultInjector(job, recovery=recovery, seed=seed)
    injector.add(CrashInstance("agg", 1, at=8.0))

    def expect(setup) -> List[str]:
        problems = _expect_rescaled(holder, job, "agg", 4)
        problems += _expect_spans(job)
        if not recovery.recoveries:
            problems.append("crash caused no recovery")
        else:
            _when, cid = recovery.recoveries[0]
            ckpt = recovery.checkpoint(cid)
            if ckpt is None:
                problems.append(f"restored checkpoint #{cid} was pruned")
            elif not ckpt.mid_scaling:
                problems.append(
                    f"restored checkpoint #{cid} predates the scaling "
                    "operation — the mid-scaling fold was never "
                    "exercised")
        return problems

    return ChaosSetup(job=job, injector=injector, keyed_ops=["agg"],
                      horizon=45.0, recovery=recovery,
                      oracle={"agg": produced}, expectations=[expect])


def _autoscale_crash_mid_subscale(
        seed: int, state_backend: Optional[str] = None,
        record_plane: Optional[str] = None) -> ChaosSetup:
    """Closed-loop acceptance: the *autoscaler* initiates the subscale
    (reacting to a load ramp), a phase-triggered crash lands while that
    subscale is moving state, DRRS aborts → rolls back → retries under
    the same done event, and the decision log must show the controller
    deferring (never overlapping) while its rescale was in flight."""
    from ..autoscale import (AutoscaleController,
                             UtilizationThresholdPolicy)
    from ..core.drrs import DRRSController

    graph = JobGraph("chaos", num_key_groups=16)
    graph.add_source("src", parallelism=1, service_time=5e-5)
    graph.add_operator(OperatorSpec(
        "agg",
        logic_factory=lambda: KeyedReduceLogic(
            lambda old, r: (old or 0) + r.count),
        parallelism=2, service_time=2e-3, keyed=True,
        initial_state_bytes_per_group=8e6))
    graph.add_sink("sink", collect=True)
    graph.connect("src", "agg", Partitioning.HASH)
    graph.connect("agg", "sink", Partitioning.FORWARD)
    job = StreamJob(graph, config=_config_with_backend(
        None, state_backend, record_plane)).build()
    job.enable_telemetry()
    produced: Dict[str, int] = {}

    def gen():
        src = job.sources()[0]
        i = 0
        while job.sim.now < 16.0:
            # Ramp at t=4: 300/s → 1200/s saturates p=2 (service 2 ms)
            # and the utilisation policy must scale out.
            rate = 300.0 if job.sim.now < 4.0 else 1200.0
            key = f"k{i % 24}"
            src.offer(Record(key=key, event_time=job.sim.now, count=1))
            produced[key] = produced.get(key, 0) + 1
            if i % 20 == 0:
                src.offer(Watermark(timestamp=job.sim.now))
            i += 1
            yield job.sim.timeout(1.0 / rate)

    job.sim.spawn(gen(), name="chaos-driver")
    checkpoints = CheckpointCoordinator(job, interval=0.75)
    checkpoints.start()
    recovery = RecoveryManager(job, restart_seconds=0.5,
                               retain_checkpoints=100).install()
    controller = DRRSController(job)
    auto = AutoscaleController(
        job, controller, "agg",
        UtilizationThresholdPolicy(
            high=0.5, low=0.2, target=0.35, min_parallelism=2,
            max_parallelism=6, cooldown=6.0, hold_ticks=2,
            min_samples=3),
        interval=1.0, warmup=1.0)
    auto.start()
    injector = FaultInjector(job, recovery=recovery, seed=seed)
    # Phase trigger: fires at the first state transfer of the
    # controller-initiated subscale, whenever the policy decides.
    injector.add(CrashInstance("agg", 1, phase="state-transfer"))

    def expect(setup) -> List[str]:
        problems: List[str] = []
        if auto.rescales_completed < 1:
            problems.append("autoscaler never completed a rescale")
        if auto.rescales_failed:
            problems.append(
                f"{auto.rescales_failed} autoscaled rescale(s) failed "
                "(the retry should have completed them)")
        if not recovery.recoveries:
            problems.append("crash caused no recovery")
        problems += _expect_spans(job)
        log = auto.decision_log()
        if not any(entry["event"] == "defer" for entry in log):
            problems.append(
                "no decision was deferred while the crashed subscale "
                "was in flight")
        open_since = None
        for entry in log:
            if entry["event"] == "decide":
                if open_since is not None:
                    problems.append(
                        f"decision at t={entry['t']} issued while the "
                        f"rescale from t={open_since} was in flight")
                open_since = entry["t"]
            elif entry["event"] in ("complete", "failed"):
                open_since = None
        completed = [entry["target"] for entry in log
                     if entry["event"] == "complete"]
        if completed and len(job.instances("agg")) != completed[-1]:
            problems.append(
                f"agg has {len(job.instances('agg'))} instances, last "
                f"completed rescale targeted {completed[-1]}")
        return problems

    return ChaosSetup(job=job, injector=injector, keyed_ops=["agg"],
                      horizon=45.0, recovery=recovery,
                      oracle={"agg": produced}, expectations=[expect])


def _crash_during_transfer(
        seed: int, state_backend: Optional[str] = None,
        record_plane: Optional[str] = None) -> ChaosSetup:
    """Phase-triggered crash the instant the first key-group migration
    begins; recovery rolls the migration back, the retry completes it."""
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
    injector = FaultInjector(job, recovery=recovery, seed=seed)
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


def _lossy_window_then_crash(
        seed: int, kind: str, state_backend: Optional[str] = None,
        record_plane: Optional[str] = None) -> ChaosSetup:
    """Drop or duplicate a window of records, then crash: recovery from
    a pre-window checkpoint plus replay restores exactly-once."""
    job, produced = _keyed_job(stop_at=12.0, state_backend=state_backend,
                               record_plane=record_plane)
    checkpoints = CheckpointCoordinator(job, interval=1.0)
    checkpoints.start()
    recovery = RecoveryManager(job, restart_seconds=0.5).install()
    injector = FaultInjector(job, recovery=recovery, seed=seed)
    # Checkpoints cut inside the fault window would bake the damage in
    # (see module docstring); pause the coordinator around it.
    job.sim.call_at(4.9, checkpoints.stop)
    if kind == "drop":
        injector.add(DropRecords("src", "agg", duration=0.6,
                                 probability=0.7, at=5.0))
    else:
        injector.add(DuplicateRecords("src", "agg", duration=0.3,
                                      at=5.0))
    injector.add(CrashInstance("agg", 0, at=6.0))
    job.sim.call_at(8.0, checkpoints.start)

    def expect(setup) -> List[str]:
        problems: List[str] = []
        if not recovery.recoveries:
            problems.append("crash caused no recovery")
        return problems

    return ChaosSetup(job=job, injector=injector, keyed_ops=["agg"],
                      horizon=35.0, recovery=recovery,
                      oracle={"agg": produced}, expectations=[expect])


def _stall_and_rollback(
        seed: int, state_backend: Optional[str] = None,
        record_plane: Optional[str] = None) -> ChaosSetup:
    """Transfers stall mid-migration; a watchdog aborts the scale, the
    rollback restores the pre-subscale world and the retry finishes.
    No recovery at all — exactly-once must survive on rollback alone."""
    from ..core.drrs import DRRSController

    job, produced = _keyed_job(stop_at=14.0,
                               state_bytes_per_group=8e6,
                               state_backend=state_backend,
                               record_plane=record_plane)
    job.enable_telemetry()
    controller = DRRSController(job)
    holder = _rescale_at(job, controller, "agg", 6.0, 4)
    injector = FaultInjector(job, seed=seed)
    injector.add(StallTransfers("agg", extra_seconds=6.0, duration=2.0,
                                phase="state-transfer"))
    job.sim.call_at(7.5, lambda: controller.abort_and_rollback(
        "stall watchdog", retry=True))

    def expect(setup) -> List[str]:
        problems = _expect_rescaled(holder, job, "agg", 4)
        problems += _expect_spans(job)
        return problems

    return ChaosSetup(job=job, injector=injector, keyed_ops=["agg"],
                      horizon=45.0, oracle={"agg": produced},
                      expectations=[expect])


def _delay_blip(seed: int, state_backend: Optional[str] = None,
                record_plane: Optional[str] = None) -> ChaosSetup:
    """Records re-ordered by a delay window: no loss, no duplication —
    exactly-once must hold with no recovery at all."""
    job, produced = _keyed_job(stop_at=10.0, state_backend=state_backend,
                               record_plane=record_plane)
    injector = FaultInjector(job, seed=seed)
    injector.add(DelayRecords("src", "agg", duration=1.0, hold=0.8,
                              probability=0.5, at=4.0))
    return ChaosSetup(job=job, injector=injector, keyed_ops=["agg"],
                      horizon=20.0, oracle={"agg": produced})


def _double_fault(seed: int, state_backend: Optional[str] = None,
                  record_plane: Optional[str] = None) -> ChaosSetup:
    """A second crash strikes while the first restore is still running;
    the half-done restore is abandoned and recovery restarts cleanly."""
    job, produced = _keyed_job(stop_at=12.0, state_backend=state_backend,
                               record_plane=record_plane)
    checkpoints = CheckpointCoordinator(job, interval=1.0)
    checkpoints.start()
    recovery = RecoveryManager(job, restart_seconds=1.5).install()
    injector = FaultInjector(job, recovery=recovery, seed=seed)
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


def _crash_large_state(seed: int, state_backend: Optional[str] = None,
                       record_plane: Optional[str] = None) -> ChaosSetup:
    """Recovery-time tier: crash a job with *large* keyed state.

    Defaults to the changelog backend.  The expectation measures the
    checkpoint barrier-path cost and the recovery-restore duration from
    telemetry spans, and — when running under changelog — runs a dict
    twin of the same seed and asserts the two headline claims:

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
    injector = FaultInjector(job, recovery=recovery, seed=seed)
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
        # Dict twin, same seed: the baseline the claims are made against.
        twin = _crash_large_state(seed, state_backend="dict",
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
        seed: int, state_backend: Optional[str] = None,
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
    injector = FaultInjector(job, recovery=recovery, seed=seed)
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
            "checkpoint and finish the rescale via retry (§IV-C "
            "acceptance)"),
        ChaosScenario(
            "autoscale-crash-mid-subscale", _autoscale_crash_mid_subscale,
            "crash during a subscale the closed-loop autoscaler "
            "initiated; the same done event survives abort → rollback "
            "→ retry and decisions defer, never overlap"),
        ChaosScenario(
            "crash-during-transfer", _crash_during_transfer,
            "phase-triggered crash at the first state transfer"),
        ChaosScenario(
            "drop-then-crash",
            functools.partial(_lossy_window_then_crash, kind="drop"),
            "lose a window of records on the wire, then crash; replay "
            "repairs the loss"),
        ChaosScenario(
            "duplicate-then-crash",
            functools.partial(_lossy_window_then_crash, kind="duplicate"),
            "deliver a window of records twice, then crash; rollback "
            "undoes the double count"),
        ChaosScenario(
            "stall-and-rollback", _stall_and_rollback,
            "stalled transfers abort the scale; rollback + retry with "
            "no recovery manager involved"),
        ChaosScenario(
            "delay-blip", _delay_blip,
            "re-order a window of records; exactly-once with no "
            "recovery"),
        ChaosScenario(
            "double-fault", _double_fault,
            "second crash lands mid-restore; recovery restarts from "
            "scratch"),
        ChaosScenario(
            "crash-large-state", _crash_large_state,
            "crash with large keyed state (changelog default): barrier "
            "sync must stay ~constant and recovery must finish in <=50% "
            "of the dict backend's time (measured against a same-seed "
            "dict twin)"),
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
