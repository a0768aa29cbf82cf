"""The elasticity control loop: sample → decide → actuate via DRRS.

:class:`AutoscaleController` runs *inside* the simulation as a periodic
control process.  Every ``interval`` simulated seconds it samples
:class:`~.signals.ScalingSignals`, asks its policy for a decision, and —
when the data plane is quiet — turns the decision into a DRRS subscale
operation through the existing :class:`~..core.drrs.DRRSController`.

Serialization with the rest of the control plane is the controller's
whole job:

* while its **own rescale is in flight** (the done event from
  ``request_rescale`` is pending — which, under fault injection, spans
  any abort → rollback → retry cycle DRRS runs internally), new
  decisions are *deferred*: logged, coalesced into at most one pending
  target, and re-evaluated against fresh signals once the operation
  settles;
* while **failure recovery** owns the job (``job.recovery_barrier``
  pending) or **any other scaler is active** (``job.scaling_active``),
  decisions are deferred the same way — the autoscaler never stacks a
  subscale on top of a recovery or a manually triggered rescale.

Every sample, decision, deferral, completion and failure is appended to
a **decision log** of plain dicts.  The log is a pure function of the
seeded simulation, so tests assert it verbatim and identically-seeded
runs produce byte-identical JSON.
"""

from __future__ import annotations

from typing import List, Optional

from ..engine.runtime import StreamJob
from ..scaling.base import ScalingController
from .policy import AutoscalePolicy, ScalingDecision
from .signals import ScalingSignals

__all__ = ["AutoscaleController"]


class AutoscaleController:
    """Periodic closed-loop elasticity controller over one operator."""

    def __init__(self, job: StreamJob, controller: ScalingController,
                 operator: str, policy: AutoscalePolicy,
                 interval: float = 2.0, warmup: float = 0.0):
        if interval <= 0:
            raise ValueError("interval must be > 0")
        self.job = job
        self.sim = job.sim
        self.controller = controller
        self.operator = operator
        self.policy = policy
        self.signals = ScalingSignals(job, operator)
        self.interval = interval
        self.warmup = warmup
        self._log: List[dict] = []
        self._proc = None
        self._stopped = False
        #: Done event of our own in-flight rescale (None when idle).
        self._inflight = None
        #: Latest decision deferred while the plane was busy (coalesced).
        self._pending: Optional[ScalingDecision] = None
        self.rescales_issued = 0
        self.rescales_completed = 0
        self.rescales_failed = 0
        self.decisions_deferred = 0
        #: ∫ parallelism dt for the controlled operator (cost metric).
        self.instance_seconds = 0.0
        self._cost_time: Optional[float] = None
        self._cost_parallelism = 0

    # -- lifecycle ------------------------------------------------------------

    def start(self):
        """Spawn the periodic control process (idempotent)."""
        if self._proc is None:
            # Open the instance-seconds integral at start time, not first
            # tick: the warm-up span is billed at the launch parallelism.
            self._accrue_cost()
            self._proc = self.sim.spawn(self._loop(),
                                        name=f"autoscale:{self.operator}")
        return self._proc

    def stop(self) -> None:
        self._stopped = True

    def _loop(self):
        if self.warmup > 0:
            yield self.sim.timeout(self.warmup)
        self._accrue_cost()
        while not self._stopped:
            yield self.sim.timeout(self.interval)
            if self._stopped:
                break
            self._tick()

    # -- cost accounting ------------------------------------------------------

    def _accrue_cost(self) -> None:
        """Integrate parallelism over time (piecewise-constant left)."""
        now = self.sim.now
        if self._cost_time is not None:
            self.instance_seconds += (
                self._cost_parallelism * (now - self._cost_time))
        self._cost_time = now
        self._cost_parallelism = len(self.job.instances(self.operator))

    def finalize(self) -> None:
        """Close the instance-seconds integral at the current sim time."""
        self._accrue_cost()

    # -- the control loop body ------------------------------------------------

    def _tick(self) -> None:
        self._accrue_cost()
        snapshot = self.signals.sample()
        if len(self.signals.history) < self.policy.min_samples:
            return  # EWMAs still cold: no decisions yet
        # The policy sees every sample, busy or not: hold counters and
        # calibration keep accumulating across deferral windows.
        decision = self.policy.decide(snapshot, self.signals.history)
        busy = self._busy_reason()
        if busy is not None:
            if decision is not None:
                self._pending = decision  # coalesce: latest wins
                self.decisions_deferred += 1
                self._record("defer", reason=busy,
                             target=decision.target, kind=decision.kind,
                             why=decision.reason)
            return
        if decision is None and self._pending is not None:
            # The plane cleared but the policy is quiet (cooldown,
            # hysteresis reset): re-issue the coalesced target if it is
            # still a change against the *current* parallelism.
            if self._pending.target != snapshot.parallelism:
                decision = ScalingDecision(
                    self._pending.target, self._pending.kind,
                    "coalesced: " + self._pending.reason)
        self._pending = None
        if decision is None or decision.target == snapshot.parallelism:
            return
        self._issue(decision, snapshot)

    def _busy_reason(self) -> Optional[str]:
        if self._inflight is not None and not self._inflight.triggered:
            return "controller-rescale-in-flight"
        barrier = self.job.recovery_barrier
        if barrier is not None and not barrier.triggered:
            return "failure-recovery"
        if self.controller.active or self.job.scaling_active:
            return "other-scaler-active"
        return None

    def _issue(self, decision: ScalingDecision, snapshot) -> None:
        self.rescales_issued += 1
        self._record("decide", kind=decision.kind,
                     **{"from": snapshot.parallelism},
                     target=decision.target, why=decision.reason)
        done = self.controller.request_rescale(self.operator,
                                               decision.target)
        self._inflight = done
        if self.job.telemetry is not None:
            self.job.telemetry.registry.counter(
                "autoscale.decisions", operator=self.operator,
                kind=decision.kind).inc()
        self.sim.spawn(self._watch(done, decision),
                       name=f"autoscale-watch:{self.operator}")

    def _watch(self, done, decision: ScalingDecision):
        """Wait out our rescale — including any DRRS abort/retry cycles,
        which keep the same done event pending — and settle the log."""
        issued_at = self.sim.now
        try:
            yield done
        except Exception as error:
            self.rescales_failed += 1
            self._record("failed", target=decision.target,
                         error=str(error))
            if self.job.telemetry is not None:
                self.job.telemetry.registry.counter(
                    "autoscale.rescales_failed",
                    operator=self.operator).inc()
        else:
            self.rescales_completed += 1
            self._accrue_cost()
            self.policy.note_applied(self.sim.now, decision.target)
            self._record("complete", target=decision.target,
                         took=round(self.sim.now - issued_at, 6))
            if self.job.telemetry is not None:
                self.job.telemetry.registry.counter(
                    "autoscale.rescales_completed",
                    operator=self.operator).inc()
        finally:
            if self._inflight is done:
                self._inflight = None

    # -- reporting ------------------------------------------------------------

    def _record(self, event: str, **fields) -> None:
        entry = {"t": round(self.sim.now, 6), "event": event}
        entry.update(fields)
        self._log.append(entry)

    def decision_log(self) -> List[dict]:
        """The decision log as JSON-safe dicts (copy; stable order)."""
        return [dict(entry) for entry in self._log]

    def summary(self) -> dict:
        self.finalize()
        return {
            "operator": self.operator,
            "policy": self.policy.name,
            "interval": self.interval,
            "rescales_issued": self.rescales_issued,
            "rescales_completed": self.rescales_completed,
            "rescales_failed": self.rescales_failed,
            "decisions_deferred": self.decisions_deferred,
            "instance_seconds": round(self.instance_seconds, 3),
            "final_parallelism": len(self.job.instances(self.operator)),
            "decisions": self.decision_log(),
        }
