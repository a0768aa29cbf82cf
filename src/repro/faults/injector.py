"""Deterministic fault injection for chaos experiments.

A :class:`FaultInjector` schedules *fault specs* against a running
:class:`~repro.engine.runtime.StreamJob`.  Every fault is triggered either

* at an absolute simulated time (``at=...``), via the kernel's cheap
  callback heap, or
* at the **start of a named telemetry phase** (``phase=...``) — the
  injector hooks :attr:`Tracer.span_listener` and fires the first time a
  span with that name opens (e.g. ``phase="state-transfer"`` crashes the
  job the moment the first key-group migration begins).

No fault draws a random number and the kernel itself is deterministic,
so a chaos run is exactly reproducible from its scenario.  With no faults
scheduled the injector touches nothing — the hooks it uses
(``job.transfer_fault_hook``, ``job.checkpoint_upload_hook``,
``tracer.span_listener``) all default to ``None`` and cost one attribute
check, so fault-free runs stay bit-identical to runs without an injector.

Fault model (what can go wrong, mirroring the failures §IV-C must
coexist with).  Channels themselves are FIFO and reliable, as the
paper's snapshot algorithm assumes, so no fault loses, duplicates or
re-orders a record on the wire:

=====================  ====================================================
spec                   effect
=====================  ====================================================
:class:`CrashInstance` an instance fails → whole-job rollback recovery
                       (Flink's restart-all strategy); if a scaling
                       operation is in flight the controller aborts it
                       and retries once the restore finishes
:class:`StallTransfers` key-group state transfers of one operator take
                       ``extra_seconds`` longer while the window is open,
                       holding their NIC slot (models a slow/overloaded
                       host during migration)
:class:`StallUploads`  asynchronous changelog-segment checkpoint uploads
                       of one operator take ``extra_seconds`` longer
                       while the window is open — the checkpoint cannot
                       complete until its delta chain is durable (models
                       a slow/overloaded DFS; no-op for the dict backend,
                       which has no async uploads)
=====================  ====================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = [
    "FaultInjector",
    "CrashInstance",
    "StallTransfers",
    "StallUploads",
]


@dataclass
class CrashInstance:
    """One instance of ``op`` fails.

    Recovery is whole-job rollback (the simulator models Flink's
    restart-all strategy), so which instance crashed only flavours the
    reason string — but the *timing* relative to checkpoints and scaling
    operations is what chaos scenarios vary.
    """

    op: str
    index: int = 0
    at: Optional[float] = None
    phase: Optional[str] = None

    def describe(self) -> str:
        return f"crash of {self.op}[{self.index}]"

    def apply(self, injector: "FaultInjector") -> None:
        injector.crash(self.describe())


@dataclass
class StallTransfers:
    """State transfers out of ``op`` stall for ``extra_seconds`` each."""

    op: str
    extra_seconds: float
    duration: float
    at: Optional[float] = None
    phase: Optional[str] = None

    def describe(self) -> str:
        return (f"stall +{self.extra_seconds}s on transfers of "
                f"{self.op} for {self.duration}s")

    def apply(self, injector: "FaultInjector") -> None:
        injector.open_stall_window(self)


@dataclass
class StallUploads:
    """Changelog checkpoint uploads of ``op`` stall while the window is
    open, delaying delta-chain completeness (and hence checkpoint
    completion); the barrier path is untouched.  No effect under the dict
    backend, which uploads nothing asynchronously."""

    op: str
    extra_seconds: float
    duration: float
    at: Optional[float] = None
    phase: Optional[str] = None

    def describe(self) -> str:
        return (f"stall +{self.extra_seconds}s on checkpoint uploads of "
                f"{self.op} for {self.duration}s")

    def apply(self, injector: "FaultInjector") -> None:
        injector.open_upload_stall_window(self)


class FaultInjector:
    """Schedules fault specs deterministically against one job.

    Usage::

        injector = FaultInjector(job, recovery=manager)
        injector.add(CrashInstance("agg", 1, at=8.0))
        injector.add(StallTransfers("agg", extra_seconds=0.5,
                                    duration=2.0, phase="state-transfer"))
        injector.arm()
        job.run(until=40.0)

    :attr:`injected` logs every fired fault as ``(time, kind, detail)``;
    :attr:`errors` collects faults that could not take effect (e.g. a
    crash before any checkpoint completed — nothing to recover from).
    ``seed`` is kept but unread: no fault draws a random number.
    """

    def __init__(self, job, recovery=None, seed: int = 0):
        self.job = job
        self.sim = job.sim
        self.recovery = recovery
        self.seed = seed
        self.pending: List = []
        #: ``(sim time, fault class name, detail)`` per fired fault.
        self.injected: List[Tuple[float, str, str]] = []
        #: Faults that fired but could not take effect.
        self.errors: List[Tuple[float, str]] = []
        self._phase_watch: Dict[str, List] = {}
        self._armed = False

    # -- scheduling -----------------------------------------------------------

    def add(self, fault) -> "FaultInjector":
        """Register a fault spec; returns self for chaining."""
        if fault.at is None and fault.phase is None:
            raise ValueError("fault needs a trigger: set at= or phase=")
        self.pending.append(fault)
        if self._armed:
            self._arm_one(fault)
        return self

    def arm(self) -> "FaultInjector":
        """Activate all registered faults; idempotent."""
        if self._armed:
            return self
        self._armed = True
        for fault in self.pending:
            self._arm_one(fault)
        return self

    def _arm_one(self, fault) -> None:
        if fault.at is not None:
            self.sim.call_at(fault.at, lambda: self._fire(fault))
        else:
            self._watch_phase(fault)

    def _watch_phase(self, fault) -> None:
        telemetry = self.job.telemetry
        if telemetry is None:
            raise ValueError(
                "phase-triggered faults need job.enable_telemetry()")
        tracer = telemetry.tracer
        if (tracer.span_listener is not None
                and tracer.span_listener is not self._on_span):
            raise RuntimeError("tracer.span_listener is already taken")
        tracer.span_listener = self._on_span
        self._phase_watch.setdefault(fault.phase, []).append(fault)

    def _on_span(self, span) -> None:
        waiting = self._phase_watch.get(span.name)
        if not waiting:
            return
        due, waiting[:] = list(waiting), []
        for fault in due:
            # Deferred one kernel step: firing inside begin() would mutate
            # the very machinery (scaling procs, channels) that is midway
            # through opening the span.
            self.sim.call_in(0.0, lambda f=fault: self._fire(f))

    def _fire(self, fault) -> None:
        detail = fault.describe()
        self.injected.append((self.sim.now, type(fault).__name__, detail))
        telemetry = self.job.telemetry
        if telemetry is not None:
            telemetry.tracer.instant(
                "fault.injected", category="fault", track="faults",
                kind=type(fault).__name__, detail=detail)
        fault.apply(self)

    # -- effect primitives (what fault specs call back into) ------------------

    def crash(self, reason: str) -> None:
        from ..engine.recovery import RecoveryError
        if self.recovery is None:
            raise RuntimeError(
                "crash faults need a RecoveryManager: pass recovery= to "
                "FaultInjector")
        try:
            done = self.recovery.fail_and_recover(reason)
        except RecoveryError as error:
            # No completed checkpoint (or an unabortable controller): the
            # job cannot recover.  Record it; the invariant report
            # surfaces unrecoverable crashes instead of exploding the sim.
            self.errors.append((self.sim.now, str(error)))
            return
        # An unrestorable checkpoint fails the returned event instead.
        done.add_callback(self._on_recovered)

    def _on_recovered(self, done) -> None:
        if not done.ok:
            self.errors.append((self.sim.now, str(done.value)))

    def open_stall_window(self, fault) -> None:
        """Stretch state transfers out of ``fault.op`` while open."""
        job = self.job
        deadline = self.sim.now + fault.duration
        previous = job.transfer_fault_hook
        hit = [0]

        def hook(src, dst, key_group):
            extra = previous(src, dst, key_group) if previous else 0.0
            if src.spec.name == fault.op and self.sim.now <= deadline:
                hit[0] += 1
                return extra + fault.extra_seconds
            return extra

        job.transfer_fault_hook = hook

        def close():
            if job.transfer_fault_hook is hook:
                job.transfer_fault_hook = previous
            self.injected.append(
                (self.sim.now, "WindowClosed",
                 f"stall window on {fault.op}: {hit[0]} transfers"))

        self.sim.call_in(fault.duration, close)

    def open_upload_stall_window(self, fault) -> None:
        """Stretch async checkpoint uploads of ``fault.op`` while open."""
        job = self.job
        deadline = self.sim.now + fault.duration
        previous = job.checkpoint_upload_hook
        hit = [0]

        def hook(instance, segment):
            extra = previous(instance, segment) if previous else 0.0
            if (instance.spec.name == fault.op
                    and self.sim.now <= deadline):
                hit[0] += 1
                return (extra or 0.0) + fault.extra_seconds
            return extra

        job.checkpoint_upload_hook = hook

        def close():
            if job.checkpoint_upload_hook is hook:
                job.checkpoint_upload_hook = previous
            self.injected.append(
                (self.sim.now, "WindowClosed",
                 f"upload-stall window on {fault.op}: {hit[0]} uploads"))

        self.sim.call_in(fault.duration, close)
