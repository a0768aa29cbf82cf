"""Deterministic fault injection for chaos experiments.

A :class:`FaultInjector` schedules *fault specs* against a running
:class:`~repro.engine.runtime.StreamJob`.  Every fault is triggered either

* at an absolute simulated time (``at=...``), via the kernel's cheap
  callback heap, or
* at the **start of a named telemetry phase** (``phase=...``) — the
  injector hooks :attr:`Tracer.span_listener` and fires the first time a
  span with that name opens (e.g. ``phase="state-transfer"`` crashes the
  job the moment the first key-group migration begins).

All randomness flows through one ``random.Random`` seeded at construction
(:func:`~repro.simulation.randomness.make_rng`), and the kernel itself is
deterministic, so a chaos run is exactly reproducible from
``(scenario, seed)``.  With no faults scheduled the injector touches
nothing — the hooks it uses (``Channel.fault_hook``,
``job.transfer_fault_hook``, ``tracer.span_listener``) all default to
``None`` and cost one attribute check, so fault-free runs stay
bit-identical to runs without an injector.

Fault model (what can go wrong, mirroring the failures §IV-C must
coexist with):

=====================  ====================================================
spec                   effect
=====================  ====================================================
:class:`CrashInstance` an instance fails → whole-job rollback recovery
                       (Flink's restart-all strategy); if a scaling
                       operation is in flight the controller aborts and
                       rolls it back first
:class:`CrashNode`     same recovery path, attributed to a host failure
:class:`DropRecords`   records on one operator→operator hop are lost on
                       the wire for a window (flow-control credits are
                       returned so the pipe keeps flowing)
:class:`DuplicateRecords` records on one hop are delivered twice for a
                       window
:class:`DelayRecords`  records on one hop are held back and re-delivered
                       ``hold`` seconds later (re-ordering them past
                       their successors)
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

Dropping or duplicating records violates exactly-once *by design*; chaos
scenarios pair those windows with a crash+recovery that rolls state back
to a checkpoint from before the window, after which replay restores
exactly-once (see :mod:`repro.experiments.chaos_bank`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..simulation.randomness import make_rng

__all__ = [
    "FaultInjector",
    "CrashInstance",
    "CrashNode",
    "DropRecords",
    "DuplicateRecords",
    "DelayRecords",
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
class CrashNode:
    """A whole host fails; every instance placed on it goes down."""

    node: str
    at: Optional[float] = None
    phase: Optional[str] = None

    def describe(self) -> str:
        return f"crash of node {self.node}"

    def apply(self, injector: "FaultInjector") -> None:
        injector.crash(self.describe())


@dataclass
class DropRecords:
    """Records on the ``from_op -> to_op`` hop are lost for a window."""

    from_op: str
    to_op: str
    duration: float
    probability: float = 1.0
    at: Optional[float] = None
    phase: Optional[str] = None

    def describe(self) -> str:
        return (f"drop p={self.probability} on {self.from_op}->"
                f"{self.to_op} for {self.duration}s")

    def apply(self, injector: "FaultInjector") -> None:
        injector.open_channel_window(self, action="drop")


@dataclass
class DuplicateRecords:
    """Records on one hop are delivered twice for a window."""

    from_op: str
    to_op: str
    duration: float
    probability: float = 1.0
    at: Optional[float] = None
    phase: Optional[str] = None

    def describe(self) -> str:
        return (f"duplicate p={self.probability} on {self.from_op}->"
                f"{self.to_op} for {self.duration}s")

    def apply(self, injector: "FaultInjector") -> None:
        injector.open_channel_window(self, action="duplicate")


@dataclass
class DelayRecords:
    """Records on one hop are held ``hold`` seconds, re-ordering them."""

    from_op: str
    to_op: str
    duration: float
    hold: float = 0.5
    probability: float = 1.0
    at: Optional[float] = None
    phase: Optional[str] = None

    def describe(self) -> str:
        return (f"delay {self.hold}s p={self.probability} on "
                f"{self.from_op}->{self.to_op} for {self.duration}s")

    def apply(self, injector: "FaultInjector") -> None:
        injector.open_delay_window(self)


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

        injector = FaultInjector(job, recovery=manager, seed=7)
        injector.add(CrashInstance("agg", 1, at=8.0))
        injector.add(DropRecords("src", "agg", duration=0.5,
                                 phase="state-transfer"))
        injector.arm()
        job.run(until=40.0)

    :attr:`injected` logs every fired fault as ``(time, kind, detail)``;
    :attr:`errors` collects faults that could not take effect (e.g. a
    crash before any checkpoint completed — nothing to recover from).
    """

    def __init__(self, job, recovery=None, seed: int = 0):
        self.job = job
        self.sim = job.sim
        self.recovery = recovery
        self.seed = seed
        self.rng = make_rng(seed)
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
            self.recovery.fail_and_recover(reason)
        except RecoveryError as error:
            # No completed checkpoint (or an unabortable controller): the
            # job cannot recover.  Record it; the invariant report
            # surfaces unrecoverable crashes instead of exploding the sim.
            self.errors.append((self.sim.now, str(error)))

    def channels_between(self, from_op: str, to_op: str) -> List:
        channels = []
        for sender, edge in self.job.senders_to(to_op):
            if sender.spec.name == from_op:
                channels.extend(edge.channels)
        return channels

    def _record_filter(self, probability: float):
        rng = self.rng
        if probability >= 1.0:
            return lambda element: bool(getattr(element, "is_record",
                                                False))
        return lambda element: (getattr(element, "is_record", False)
                                and rng.random() < probability)

    def _hook_channels(self, channels: List, hook):
        """Install ``hook`` on ``channels``; returns the call that undoes it.

        The hop's batches collapse first, so every record not yet past its
        per-record delivery point reaches the hook; a non-None
        ``fault_hook`` then keeps the hop per-record until the window
        closes.  Other channels — and injectors holding only crash or
        stall faults — never leave the batched plane.
        """
        self.job.quiesce_batches(channels)
        saved = [(channel, channel.fault_hook) for channel in channels]
        for channel in channels:
            channel.fault_hook = hook

        def unhook():
            for channel, previous in saved:
                if channel.fault_hook is hook:
                    channel.fault_hook = previous
        return unhook

    def open_channel_window(self, fault, action: str) -> None:
        """Drop or duplicate matching records until the window closes."""
        channels = self.channels_between(fault.from_op, fault.to_op)
        if not channels:
            raise ValueError(
                f"no channels between {fault.from_op} and {fault.to_op}")
        matches = self._record_filter(fault.probability)
        hit = [0]

        def hook(channel, element):
            if matches(element):
                hit[0] += 1
                return action
            return None

        unhook = self._hook_channels(channels, hook)

        def close():
            unhook()
            self.injected.append(
                (self.sim.now, "WindowClosed",
                 f"{action} window {fault.from_op}->{fault.to_op}: "
                 f"{hit[0]} records"))

        self.sim.call_in(fault.duration, close)

    def open_delay_window(self, fault) -> None:
        """Hold matching records and re-deliver them ``hold`` later.

        Implemented as drop-with-redelivery: the channel returns the
        flow-control credit immediately (as for a drop) and the record
        re-enters the inbox later without consuming one — the inbox may
        transiently exceed its capacity, like a real burst of delayed
        packets.
        """
        channels = self.channels_between(fault.from_op, fault.to_op)
        if not channels:
            raise ValueError(
                f"no channels between {fault.from_op} and {fault.to_op}")
        matches = self._record_filter(fault.probability)
        hit = [0]

        def hook(channel, element):
            if not matches(element):
                return None
            hit[0] += 1

            def redeliver(ch=channel, el=element):
                if ch.input_channel is not None:
                    # Out-of-band arrival: a carrier queued after the
                    # window closed may hold members the per-record plane
                    # delivers only after this one.
                    self.job.quiesce_batches([ch])
                    ch.input_channel.deliver(el)

            self.sim.call_in(fault.hold, redeliver)
            return "drop"

        unhook = self._hook_channels(channels, hook)

        def close():
            unhook()
            self.injected.append(
                (self.sim.now, "WindowClosed",
                 f"delay window {fault.from_op}->{fault.to_op}: "
                 f"{hit[0]} records"))

        self.sim.call_in(fault.duration, close)

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
