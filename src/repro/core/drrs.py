"""DRRS: the paper's on-the-fly scaling method, and its ablation variants.

:class:`DRRSController` wires the three mechanisms together:

* Decoupling and Re-routing (§III-A) — decoupled trigger/confirm barriers
  with predecessor injection and implicit alignment at the receiver;
* Record Scheduling (§III-B) — inter-/intra-channel execution-order
  adjustments within a bounded buffer;
* Subscale Division (§III-C) — independent subscales scheduled greedily
  under a per-node concurrency threshold.

:func:`make_variant` builds the four systems of the Fig. 14 isolation test:
``"drrs"`` (all three), ``"dr"`` (Decoupling and Re-routing only),
``"schedule"`` (Record Scheduling on a conventional coupled-signal scaling),
and ``"subscale"`` (Subscale Division driven by coupled signals, whose
mutual synchronization interference the paper highlights).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from ..engine.runtime import StreamJob
from ..engine.state import StateStatus
from ..scaling.base import ScalingController
from ..scaling.otfs import OTFSController
from .coordinator import ScaleCoordinator
from .planner import Subscale

__all__ = ["DRRSConfig", "DRRSController", "CoupledSubscaleController",
           "make_variant"]

#: A rescale aborted by a crash (:meth:`DRRSController.abort`) is
#: re-requested once the restore finishes; once ``MAX_RETRIES`` retries
#: have aborted, the operation's done event fails instead.
MAX_RETRIES = 3


@dataclass
class DRRSConfig:
    """Per-mechanism toggles and tunables (defaults = the paper's).

    Decoupling and Re-routing is always on; :func:`make_variant` builds the
    coupled-signal ablations.
    """

    #: Record Scheduling: inter-channel switching and intra-channel
    #: bypassing within ``schedule_buffer``.
    record_scheduling: bool = True
    #: Subscale Division; when False the scale runs as one undivided
    #: subscale per migration path.
    subscale_division: bool = True
    #: Target number of subscales for the lexicographic division (C1).
    num_subscales: int = 16
    #: Per-node concurrent-subscale threshold (§IV-A).
    max_concurrent_per_node: int = 2
    #: Subscale scheduling strategy: "greedy" (paper default: fewest held
    #: keys first) or "fifo" (lexicographic order).
    subscale_strategy: str = "greedy"
    #: Bounded pre-serialization buffer for Record Scheduling (items).
    schedule_buffer: int = 200

    def __post_init__(self):
        if self.schedule_buffer < 1:
            raise ValueError("schedule_buffer must be >= 1")


class DRRSController(ScalingController):
    """DRRS on-the-fly rescaling (Decoupling/Re-routing + Scheduling +
    Subscale Division)."""

    name = "drrs"

    def __init__(self, job: StreamJob, config: Optional[DRRSConfig] = None):
        super().__init__(job)
        self.config = config or DRRSConfig()
        self._op_name: Optional[str] = None
        self._plan = None
        self._executors: Dict[int, object] = {}
        self._completion_signal = None
        self._wave_spans: Dict[int, object] = {}
        #: Set by ``cancel`` and ``abort``, cleared by each new request (not
        #: when its scale process starts): a request aborted in its own
        #: instant, before that process ran, still ends on the partial
        #: cleanup, never committing its target or decommissioning.
        self.cancelled = False
        # -- crash tolerance (abort / retry) ------------------------------------
        #: Bumped by every abort; in-band injection closures capture the
        #: epoch at command time and become no-ops once it moves on.
        self._abort_epoch = 0
        #: subscale_id -> migration Process (interruptible on abort).
        self._migration_procs: Dict[int, object] = {}
        self._attempts = 0
        self._in_retry = False
        self._target_parallelism: Optional[int] = None
        self._target_op: Optional[str] = None
        # Failure recovery sweeps re-route manager buffers: records parked
        # there live outside any channel, so a teardown flush would
        # silently drop them (pre-checkpoint ones would be lost for good).
        job.aux_sweep_hooks.append(self._sweep_reroute_buffers)

    def _sweep_reroute_buffers(self):
        """Drain every re-route manager buffer for recovery's sweep.

        Returns ``(op name, element)`` pairs and *empties* the buffers —
        post-restore, pre-cut records are re-injected and post-cut ones
        replayed, so letting the drain process flush the stale copies into
        the fresh epoch would double-deliver them.
        """
        swept = []
        for executor in self._executors.values():
            op = executor.instance.spec.name
            for manager in executor.reroute_managers.values():
                while manager._buffer:
                    element = manager._buffer.popleft()
                    if element.is_record:
                        swept.append((op, element))
        return swept

    # -- concurrent executions (§IV-B) ----------------------------------------------

    def request_rescale(self, op_name: str, new_parallelism: int):
        """Start (or supersede) a rescale of ``op_name``.

        If a scaling operation is already in flight for this controller,
        it is terminated (§IV-B case 1): no further subscales launch, the
        ones already running complete, the partial result is committed,
        and the new request then plans from the partially migrated state —
        avoiding redundant data migrations.
        """
        self._target_parallelism = new_parallelism
        self._target_op = op_name
        if not self._in_retry:
            self._attempts = 0
        if not self.active:
            self.cancelled = False
            return super().request_rescale(op_name, new_parallelism)
        previous_done = self._current_done
        self.cancel()
        done = self.sim.event()

        def chain():
            yield previous_done
            self.cancelled = False
            inner = super(DRRSController, self).request_rescale(
                op_name, new_parallelism)
            result = yield inner
            done.succeed(result)

        self.sim.spawn(chain(), name=f"supersede:{op_name}")
        return done

    def cancel(self) -> None:
        """Terminate the in-flight scaling operation after the subscales
        already launched have completed."""
        if self.active:
            self.cancelled = True
            if self._completion_signal is not None:
                self._completion_signal.fire()

    # -- ScalingController hooks ---------------------------------------------------

    def _execute(self, op_name, plan, scale_id):
        self._op_name = op_name
        self._plan = plan
        coordinator = ScaleCoordinator(self)
        yield from coordinator.execute(op_name, plan, scale_id)

    def scaling_instances(self):
        return self.job.instances(self._op_name)

    def on_control(self, instance, channel, signal) -> None:
        """A trigger barrier goes to the receiving instance's executor
        (§III-A).  Confirm barriers ride the data lane, where the
        executor's input handler consumes them; one that reaches the
        engine's dispatch instead is dropped."""
        executor = self._executors.get(id(instance))
        if executor is not None:
            executor.on_trigger(signal)

    # -- migration (driven by trigger barriers via the executors) ---------------------

    def start_subscale_migration(self, subscale: Subscale) -> None:
        self._migration_procs[subscale.subscale_id] = self.sim.spawn(
            self._migrate_subscale(subscale),
            name=f"drrs-subscale-{subscale.subscale_id}")

    def _migrate_subscale(self, subscale: Subscale):
        instances = self.scaling_instances()
        src = instances[subscale.src_index]
        dst = instances[subscale.dst_index]
        wave_span = self._wave_spans.get(subscale.subscale_id)
        for kg in subscale.key_groups:
            if wave_span is not None:
                group = src.state.group(kg)
                if group is not None:
                    wave_span.attrs["bytes_moved"] = (
                        wave_span.attrs.get("bytes_moved", 0.0)
                        + group.size_bytes)
            yield from self._transfer_group(
                src, dst, kg, arrival_status=StateStatus.INACTIVE)
            group = dst.state.group(kg)
            if subscale.aligned and group.status is StateStatus.INACTIVE:
                group.status = StateStatus.LOCAL
            subscale.migrated_groups.add(kg)
            dst.wake.fire()
            self.on_subscale_progress(subscale)

    def on_subscale_progress(self, subscale: Subscale) -> None:
        if subscale.done and subscale.completed_at is None:
            subscale.completed_at = self.sim.now
            self._migration_procs.pop(subscale.subscale_id, None)
            wave_span = self._wave_spans.pop(subscale.subscale_id, None)
            if wave_span is not None and not wave_span.closed:
                self.job.telemetry.tracer.end(
                    wave_span, migrated=len(subscale.migrated_groups))
            if self._completion_signal is not None:
                self._completion_signal.fire()

    # -- crash-tolerant abort and retry (§IV-C coexistence) ---------------------------

    def abort(self, reason: str) -> None:
        """Cancel the in-flight scale and arm its retry; a restore follows.

        Called by :meth:`RecoveryManager.fail_and_recover` only: the
        checkpoint restore that runs next rebuilds state, routing and the
        assignment for every instance, so nothing is undone here.  The
        migration processes stop, and the scale process's ``finally``
        tears the executors down.  The original ``request_rescale`` done
        event stays pending and is settled by the retried attempt; once
        ``MAX_RETRIES`` retries have aborted, it fails.
        """
        if not self.active:
            return
        self._abort_epoch += 1
        self.cancelled = True
        telemetry = self.job.telemetry
        op_name = self._op_name or self._target_op
        for proc in self._migration_procs.values():
            if proc.is_alive:
                proc.interrupt(reason)
        self._migration_procs.clear()
        for wave_span in self._wave_spans.values():
            if not wave_span.closed:
                telemetry.tracer.end(wave_span, aborted=True)
        self._wave_spans.clear()
        if telemetry is not None:
            telemetry.tracer.end(telemetry.tracer.begin(
                "scale.abort", category="recovery", track="scale",
                op=op_name, reason=str(reason)))
        # Keep the caller's done pending across the abort; the retry (or
        # its exhaustion) settles it.  Must be set before the scale
        # process is interrupted, so _run_scale's finally sees it.
        self._retry_pending = True
        done = self._current_done
        attempt = self._attempts + 1
        if attempt > MAX_RETRIES:
            if done is not None and not done.triggered:
                done.fail(RuntimeError(
                    f"rescale of {op_name} failed after "
                    f"{self._attempts} retries: {reason}"))
        else:
            self.sim.spawn(
                self._retry(op_name, self._target_parallelism, done,
                            attempt),
                name=f"scale-retry:{op_name}:{attempt}")
        if self._scale_proc is not None and self._scale_proc.is_alive:
            self._scale_proc.interrupt(reason)

    def _retry(self, op_name, new_parallelism, done, attempt):
        """Re-request an aborted rescale once the restore has finished."""
        if self.job.telemetry is not None:
            self.job.telemetry.tracer.instant(
                "scale.retry", category="recovery", track="scale",
                op=op_name, attempt=attempt)
        barrier = self.job.recovery_barrier
        if barrier is not None and not barrier.triggered:
            yield barrier
        if done is not None and done.triggered:
            return  # settled elsewhere (exhaustion, supersede)
        self._attempts = attempt
        self._in_retry = True
        try:
            inner = self.request_rescale(op_name, new_parallelism)
        finally:
            self._in_retry = False
        try:
            result = yield inner
        except Exception as error:
            if done is not None and not done.triggered:
                done.fail(error)
            return
        if done is not None and not done.triggered:
            done.succeed(result)


class CoupledSubscaleController(OTFSController):
    """Subscale Division *without* decoupled signals (Fig. 14 "Subscale").

    The move set is divided as DRRS would, but each subscale synchronizes
    with a conventional coupled barrier.  All subscale barriers are injected
    back-to-back, so their alignments interfere (Fig. 7a): a blocked channel
    from subscale *i*'s alignment delays subscale *i+1*'s barrier — the
    source of the large fluctuations the paper reports for this variant.
    """

    name = "subscale_only"

    def __init__(self, job, num_subscales: int = 16):
        super().__init__(job, migration="fluid", injection="predecessor")
        if num_subscales < 1:
            raise ValueError("num_subscales must be >= 1")
        self.num_subscales = num_subscales

    def _batches(self, groups):
        chunk = max(1, math.ceil(len(groups) / self.num_subscales))
        return [groups[i:i + chunk] for i in range(0, len(groups), chunk)]


def make_variant(job: StreamJob, variant: str = "drrs",
                 num_subscales: int = 16) -> ScalingController:
    """The four systems of the design-rationale isolation test (Fig. 14)."""
    if variant == "drrs":
        return DRRSController(job, DRRSConfig(num_subscales=num_subscales))
    if variant == "dr":
        return DRRSController(
            job,
            DRRSConfig(record_scheduling=False, subscale_division=False))
    if variant == "schedule":
        return OTFSController(job, migration="fluid",
                              injection="predecessor", scheduling=True)
    if variant == "subscale":
        return CoupledSubscaleController(job, num_subscales=num_subscales)
    raise ValueError(f"unknown DRRS variant: {variant!r}")
