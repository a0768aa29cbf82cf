"""Shared scaling-controller framework and instrumentation.

Every mechanism (OTFS, Megaphone, Meces, Unbound, Stop-Restart, DRRS) is a
:class:`ScalingController`; the base class provides the pieces they share —
the rescale lifecycle (provisioning, the Scale Input Handler and the
suspension probe on every scaling instance, their removal and the commit
of the new assignment), state transfer with cost accounting, in-band
signal dispatch, suspension bookkeeping — so each controller file reads as
the paper's description of that mechanism.

Instrumentation matches the paper's three decomposed overheads (§II-B):

* cumulative **propagation delay** (:math:`L_p`): per scaling signal, the
  interval from injection to the first state migration it triggers, summed;
* average **dependency-related overhead** (:math:`L_d` proxy, Fig. 12): the
  mean interval from a key-group's signal injection to the completion of its
  migration;
* cumulative **suspension time** (:math:`L_s`, Fig. 13): total time scaling
  instances spend stalled on unprocessable-but-present input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..engine.operators import InputHandler, OperatorInstance
from ..engine.records import ControlSignal, Record
from ..engine.runtime import StreamJob, _InflightState
from ..engine.state import StateStatus
from .plan import MigrationPlan

__all__ = [
    "ScaleSignalBarrier",
    "ScalingMetrics",
    "ScalingController",
    "MigrationAwareHandler",
    "RescaleAborted",
    "rescale_until_done",
]


class RescaleAborted(RuntimeError):
    """A crash aborted the rescale of ``op_name`` to ``new_parallelism``.

    The checkpoint restore that follows the abort repairs whatever the
    rescale had moved; the caller may request it again
    (:func:`rescale_until_done`)."""

    def __init__(self, op_name: str, new_parallelism: int, reason):
        super().__init__(f"rescale of {op_name} to {new_parallelism} "
                         f"aborted: {reason}")
        self.op_name = op_name
        self.new_parallelism = new_parallelism


def rescale_until_done(job: StreamJob, controller, op_name: str,
                       new_parallelism: int):
    """Generator: request the rescale, after any pending restore, until
    it is not aborted; returns the done event's value."""
    while True:
        barrier = job.recovery_barrier
        if barrier is not None and not barrier.triggered:
            yield barrier
        try:
            return (yield controller.request_rescale(op_name,
                                                     new_parallelism))
        except RescaleAborted:
            pass


@dataclass
class ScaleSignalBarrier(ControlSignal):
    """Conventional *coupled* scaling barrier (routing confirm + trigger).

    Used by the generalized-OTFS, Megaphone-style and Meces-style baselines.
    ``phase`` distinguishes Naive-Division batches.
    """

    scale_id: int = 0
    phase: int = 0
    #: key-group → new owner instance index, applied by predecessors.
    routing_updates: Dict[int, int] = field(default_factory=dict)
    size_bytes: float = 16.0
    controller: Any = field(default=None, repr=False, compare=False)

    @property
    def signal_key(self) -> Tuple[int, int]:
        return (self.scale_id, self.phase)

    @property
    def is_time_signal(self) -> bool:
        # Scheduling never reorders across a coupled scaling barrier.
        return True


class ScalingMetrics:
    """Per-scaling-operation measurements (Figs. 12 and 13)."""

    def __init__(self):
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.injections: Dict[Any, float] = {}
        self.first_migration: Dict[Any, float] = {}
        self.group_signal: Dict[int, Any] = {}
        self.group_anchor: Dict[int, Any] = {}
        self.migration_started: Dict[int, float] = {}
        self.migration_completed: Dict[int, float] = {}
        self.suspensions: List[Tuple[str, float, float]] = []
        self.remigrations: int = 0
        self.records_rerouted: int = 0

    # -- recording -----------------------------------------------------------

    def begin(self, time: float) -> None:
        self.started_at = time

    def finish(self, time: float) -> None:
        self.finished_at = time

    def signal_injected(self, signal_id: Any, time: float) -> None:
        """First injection time of a signal (multiple predecessors inject
        the same signal; the earliest counts)."""
        if signal_id not in self.injections or time < self.injections[signal_id]:
            self.injections[signal_id] = time

    def assign_group(self, key_group: int, signal_id: Any,
                     anchor_id: Any = None) -> None:
        """Bind a key-group to its triggering signal.

        ``signal_id`` drives the propagation-delay attribution (which signal
        this group's migration confirms).  ``anchor_id`` optionally anchors
        the *dependency* measurement to an earlier signal: in Naive-Division
        mechanisms every state unit logically waits on the chain started by
        the first sub-reconfiguration, so dependency is measured from there.
        """
        self.group_signal[key_group] = signal_id
        self.group_anchor[key_group] = (anchor_id if anchor_id is not None
                                        else signal_id)

    def note_migration_started(self, key_group: int, time: float) -> None:
        if key_group not in self.migration_started:
            self.migration_started[key_group] = time
        signal_id = self.group_signal.get(key_group)
        if signal_id is not None and signal_id not in self.first_migration:
            self.first_migration[signal_id] = time

    def note_migration_completed(self, key_group: int, time: float) -> None:
        self.migration_completed[key_group] = time

    def note_suspension(self, instance: OperatorInstance, start: float,
                        end: float) -> None:
        self.suspensions.append((instance.name, start, end))

    def note_remigration(self, count: int = 1) -> None:
        self.remigrations += count

    def note_reroute(self, count: int = 1) -> None:
        self.records_rerouted += count

    # -- derived quantities (Fig. 12 / Fig. 13) ---------------------------------

    def cumulative_propagation_delay(self) -> float:
        total = 0.0
        for signal_id, injected in self.injections.items():
            started = self.first_migration.get(signal_id)
            if started is not None:
                total += max(0.0, started - injected)
        return total

    def average_dependency_overhead(self) -> float:
        intervals = []
        for kg, completed in self.migration_completed.items():
            anchor_id = self.group_anchor.get(kg, self.group_signal.get(kg))
            injected = self.injections.get(anchor_id)
            if injected is not None:
                intervals.append(max(0.0, completed - injected))
        return sum(intervals) / len(intervals) if intervals else 0.0

    def total_suspension(self) -> float:
        return sum(end - start for _n, start, end in self.suspensions)

    def suspension_series(self) -> List[Tuple[float, float]]:
        """Cumulative suspension time, sampled at each interval end."""
        cumulative = 0.0
        series = []
        for _name, start, end in sorted(self.suspensions,
                                        key=lambda s: s[2]):
            cumulative += end - start
            series.append((end, cumulative))
        return series

    @property
    def duration(self) -> Optional[float]:
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at


class MigrationAwareHandler(InputHandler):
    """Input handler active on scaling instances during migration.

    Encodes the paper's spectrum of record-delivery policies:

    * ``scheduling=False`` — engine-faithful baseline: elements are delivered
      in the engine's normal order; when the head element's state is
      unavailable the task *commits* to that element and suspends (no legal
      way to skip it).  This is the behaviour whose inefficiency motivates
      Record Scheduling (§III-B).
    * ``scheduling=True`` — Record Scheduling: inter-channel switching to any
      processable channel, plus intra-channel bypassing of unprocessable
      records within a bounded pre-serialization buffer, never crossing
      time-semantics signals (watermarks, checkpoint barriers, confirm and
      coupled scaling barriers).  Both are legal reorderings: cross-channel
      arrival order is already non-deterministic, and records of one key
      share processability, so a bypass only reorders different keys.

    Processability is the one hook :meth:`_ready`; here it delegates
    records to ``controller.record_ready``.  The intra-channel scan passes
    ``channel=None``, so a bypass only takes records that are ready
    whatever channel they sit in.
    """

    def __init__(self, instance: OperatorInstance, controller,
                 scheduling: bool = False, buffer_size: int = 200):
        super().__init__(instance)
        self.controller = controller
        self.scheduling = scheduling
        self.buffer_size = buffer_size
        self._cursor = 0
        self._committed = None  # channel we are head-blocked on

    def _ready(self, channel, element) -> bool:
        if isinstance(element, Record):
            return self.controller.record_ready(self.instance, element)
        return True

    def _switched(self) -> None:
        """An inter-channel switch passed over an unprocessable head."""

    def _bypassed(self) -> None:
        """An intra-channel bypass took a record behind unprocessable ones."""

    def poll(self):
        channels = self.instance.input_channels
        if not channels:
            self.suspended = False
            return None
        return self._select(channels)

    def _select(self, channels):
        if not self.scheduling:
            return self._poll_committed(channels)
        return self._poll_scheduled(channels)

    # -- no-scheduling baseline ---------------------------------------------------

    def _poll_committed(self, channels):
        if self._committed is not None:
            channel = self._committed
            head = channel.peek()
            if head is None:
                self._committed = None
            elif self._ready(channel, head):
                self._committed = None
                return channel, channel.pop()
            else:
                self.suspended = True
                return None
        n = len(channels)
        saw_data = False
        for offset in range(n):
            channel = channels[(self._cursor + offset) % n]
            if channel.blocked:
                if channel.queue:
                    saw_data = True
                continue
            head = channel.peek()
            if head is None:
                continue
            self._cursor = (self._cursor + offset + 1) % n
            if self._ready(channel, head):
                return channel, channel.pop()
            # Commit: the engine delivered this element; we must wait for it.
            self._committed = channel
            self.suspended = True
            return None
        self.suspended = saw_data
        return None

    # -- Record Scheduling --------------------------------------------------------

    def _poll_scheduled(self, channels):
        n = len(channels)
        saw_unprocessable = False
        # Inter-channel: any processable head wins.
        for offset in range(n):
            channel = channels[(self._cursor + offset) % n]
            if channel.blocked:
                if channel.queue:
                    saw_unprocessable = True
                continue
            head = channel.peek()
            if head is None:
                continue
            if self._ready(channel, head):
                self._cursor = (self._cursor + offset + 1) % n
                if saw_unprocessable:
                    self._switched()
                return channel, channel.pop()
            saw_unprocessable = True
        if not saw_unprocessable:
            self.suspended = False
            return None
        # Intra-channel: bypass unprocessable records within the bounded
        # buffer, never crossing a time-semantics signal.
        scanned = 0
        for offset in range(n):
            channel = channels[(self._cursor + offset) % n]
            if channel.blocked:
                continue
            for element in channel.queue:
                scanned += 1
                if scanned > self.buffer_size:
                    break
                if element.is_time_signal:
                    break  # cannot schedule across this signal
                if self._ready(None, element):
                    channel.remove(element)
                    self._bypassed()
                    return channel, element
            if scanned > self.buffer_size:
                break
        self.suspended = True
        return None


class ScalingController:
    """Base class: lifecycle, provisioning, transfer and bookkeeping."""

    name = "abstract"

    #: Record Scheduling in the default Scale Input Handler
    #: (:class:`MigrationAwareHandler`).
    scheduling = False
    #: Coordinator → worker command latency (control plane RPC).
    control_latency = 0.002
    #: Time to provision a new instance (container start, task deploy) —
    #: part of the paper's inherent overhead L_o.
    instance_init_seconds = 0.5
    #: Why a checkpoint restore cannot repair this mechanism's moves; a
    #: controller that sets it refuses to rescale under a RecoveryManager.
    unrestorable: Optional[str] = None

    def __init__(self, job: StreamJob):
        self.job = job
        self.sim = job.sim
        self.metrics = ScalingMetrics()
        self._scale_ids = 0
        self.active = False
        self._current_done = None
        self._scale_proc = None
        #: The operator and plan of the latest request, recorded by
        #: :meth:`request_rescale` and read by the mechanism's hooks.
        self._op_name: Optional[str] = None
        self._plan: Optional[MigrationPlan] = None
        #: Bumped by every abort: in-band steps commanded before it become
        #: no-ops (:meth:`_guarded`).
        self._abort_epoch = 0
        #: Migration processes of the current request (interrupted on abort).
        self._migration_procs: List = []
        #: Why the current request was aborted; None while it was not.
        self._aborted: Optional[str] = None
        #: Each instance :meth:`_provision` deployed the rescale on, with
        #: the input handler it ran before (None when none was swapped in).
        self._deployed: Dict[OperatorInstance, Optional[InputHandler]] = {}

    # -- public API -----------------------------------------------------------------

    def request_rescale(self, op_name: str, new_parallelism: int):
        """Start rescaling ``op_name``; returns an Event firing when done."""
        spec = self.job.graph.operators[op_name]
        if not spec.keyed:
            raise ValueError(f"{op_name} is not a keyed (scalable) operator")
        if new_parallelism < 1:
            raise ValueError("new_parallelism must be >= 1")
        if new_parallelism > self.job.graph.num_key_groups:
            raise ValueError("parallelism cannot exceed num_key_groups")
        if self.active:
            raise RuntimeError(
                "a scaling operation is already in flight; DRRSController "
                "supports superseding it (§IV-B), other controllers do not")
        if self.unrestorable is not None and self.job.recovery is not None:
            raise RuntimeError(
                f"{type(self).__name__} does not support checkpoint "
                f"recovery: {self.unrestorable}")
        current = self.job.assignments[op_name]
        plan = MigrationPlan.uniform(op_name, current, new_parallelism)
        self._op_name = op_name
        self._plan = plan
        self._scale_ids += 1
        self._aborted = None
        done = self.sim.event()
        self._current_done = done
        self.metrics = ScalingMetrics()
        self.metrics.begin(self.sim.now)
        self.active = True
        self._scale_proc = self.sim.spawn(
            self._run_scale(op_name, plan, self._scale_ids, done),
            name=f"scale:{self.name}:{op_name}")
        self.job.pending_scalers.append(self)
        return done

    def _run_scale(self, op_name, plan, scale_id, done):
        self.job.pending_scalers.remove(self)
        if not self.job.active_scalers:
            # Entering the first concurrent rescale window: collapse the
            # batched record plane to per-record state so every protocol
            # below (outbox surgery, channel extraction, drain-to-
            # quiescence) sees exactly what the reference plane would hold.
            self.job.quiesce_batches()
        self.job.active_scalers.append(self)
        self.job.rescaled = True
        telemetry = self.job.telemetry
        span = None
        if telemetry is not None:
            span = telemetry.tracer.begin(
                "rescale", category="migration", track="scale",
                op=op_name, controller=self.name, scale_id=scale_id,
                old_parallelism=plan.old_parallelism,
                new_parallelism=plan.new_parallelism)
        try:
            yield from self._execute(op_name, plan, scale_id)
        finally:
            # Take the rescale off its instances and commit, whether it
            # completed, was superseded or was aborted.
            self._teardown(op_name)
            for instance, handler in self._deployed.items():
                instance.set_suspension_listener(None)
                if handler is not None:
                    instance.input_handler = handler
                    instance.wake.fire()
            self._deployed = {}
            self._commit(op_name, plan)
            # An abort can interrupt provisioning before start-up: the
            # deployed parallelism must be live for a re-request's plan.
            for instance in self.job.instances(op_name)[
                    plan.old_parallelism:]:
                if not instance.running and not instance.paused:
                    instance.start()
            self._migration_procs.clear()
            self.metrics.finish(self.sim.now)
            self.active = False
            self.job.active_scalers.remove(self)
            if span is not None:
                telemetry.tracer.end(
                    span,
                    records_rerouted=self.metrics.records_rerouted,
                    remigrations=self.metrics.remigrations,
                    groups_migrated=len(self.metrics.migration_completed))
            if self._aborted is not None:
                done.fail(RescaleAborted(op_name, plan.new_parallelism,
                                         self._aborted))
            else:
                done.succeed(self.metrics)

    def _execute(self, op_name: str, plan: MigrationPlan, scale_id: int):
        raise NotImplementedError

    def _input_handler(self, instance: OperatorInstance
                       ) -> Optional[InputHandler]:
        """The Scale Input Handler (B1) :meth:`_provision` swaps in on
        ``instance``; None keeps the instance's own."""
        return MigrationAwareHandler(instance, self,
                                     scheduling=self.scheduling)

    def _teardown(self, op_name: str) -> None:
        """Mechanism hook, run first by the scale process's ``finally``,
        before the base restores the handlers."""

    def _commit(self, op_name: str, plan: MigrationPlan) -> None:
        """Commit the rescale once its handlers are restored.  An aborted
        one commits nothing: the restore that follows re-derives the
        assignment."""
        if self._aborted is None:
            self._finalize_assignment(op_name, plan)

    # -- abort (§IV-C coexistence) ------------------------------------------------

    def abort(self, reason: str) -> None:
        """Abort the requested or running rescale; a restore follows.

        Called by :meth:`RecoveryManager.fail_and_recover` only, on the
        controllers in the job's pending and active scalers.  The restore
        rebuilds state, routing and the assignment for every instance, so
        nothing is undone here: the migrations stop, the scale process's
        ``finally`` tears the mechanism down, and its done event fails
        with :class:`RescaleAborted`.  A second abort of the same request
        does nothing.
        """
        if self._aborted is not None:
            return
        self._aborted = reason
        self._abort_epoch += 1
        for proc in self._migration_procs:
            proc.interrupt(reason)
        self._on_abort()
        telemetry = self.job.telemetry
        if telemetry is not None:
            telemetry.tracer.end(telemetry.tracer.begin(
                "scale.abort", category="recovery", track="scale",
                op=self._op_name, reason=str(reason)))
        self._scale_proc.interrupt(reason)

    def _on_abort(self) -> None:
        """Mechanism hook, run by :meth:`abort` before the interrupt."""

    def _spawn_migration(self, generator, name: str):
        """Start a migration process that an abort interrupts."""
        proc = self.sim.spawn(generator, name=name)
        self._migration_procs.append(proc)
        return proc

    def _guarded(self, inject):
        """In-band step ``inject`` as a no-op once an abort has moved the
        epoch on since it was commanded: run after the restore, it would
        flip routing the restore has just re-derived."""
        epoch = self._abort_epoch
        return lambda instance: (inject(instance)
                                 if self._abort_epoch == epoch else ())

    # -- signal dispatch (every ControlSignal names its controller) ---------------

    def on_signal(self, instance: OperatorInstance, channel,
                  signal: ControlSignal):
        """Data-lane arrival of one of this controller's signals at
        ``instance`` while :attr:`active`; returns what the engine
        ``yield from``s.  The default drops the signal."""
        return iter(())

    def on_control(self, instance: OperatorInstance, channel,
                   signal: ControlSignal) -> None:
        """Control-lane arrival of one of this controller's signals at
        ``instance`` while :attr:`active`.  The default drops it."""

    # -- processability hook (used by MigrationAwareHandler) ----------------------------

    def record_ready(self, instance: OperatorInstance,
                     record: Record) -> bool:
        """Whether ``record`` can be processed on ``instance`` right now."""
        group = instance.state.group(record.key_group)
        return group is not None and group.processable

    # -- shared building blocks ----------------------------------------------------

    def _provision(self, op_name: str, plan: MigrationPlan):
        """Create, initialise and start the new instances (costs L_o),
        then deploy the rescale on every instance of ``op_name``: the
        suspension probe and :meth:`_input_handler`'s handler, both taken
        off again by the scale process's ``finally``."""
        # None on a scale-in or rebalance: nothing to wait for.
        new_instances = [self.job.add_instance(op_name)
                         for _ in plan.new_instance_indices]
        if new_instances:
            yield self.sim.timeout(self.instance_init_seconds)
            for instance in new_instances:
                instance.start()
        for instance in self.job.instances(op_name):
            instance.set_suspension_listener(self.metrics.note_suspension)
            self._deployed[instance] = None
            handler = self._input_handler(instance)
            if handler is not None:
                self._deployed[instance] = instance.input_handler
                instance.input_handler = handler
                instance.wake.fire()

    def _wait_until_idle(self, instance: OperatorInstance, key_group: int):
        """Wait until ``instance`` is not mid-record on ``key_group``."""
        while instance.current_key_group == key_group:
            yield self.sim.timeout(0.0001)

    def _transfer_group(self, src: OperatorInstance, dst: OperatorInstance,
                        key_group: int,
                        arrival_status: StateStatus = StateStatus.LOCAL,
                        charge_extract: bool = True):
        """Move one whole key-group from ``src`` to ``dst``.

        Three steps that every controller moving whole key-groups shares:
        :meth:`_extract` cuts the bytes out of ``src`` into the in-flight
        registry, :meth:`_ship` carries them over the wire, and
        :meth:`_land` installs them at ``dst``.
        """
        flight, wire_bytes, span = yield from self._extract(
            src, dst, key_group, charge_extract)
        yield from self._ship(src, dst, wire_bytes, key_group)
        self._land(flight, dst, arrival_status, span)

    def _extract(self, src: OperatorInstance, dst: OperatorInstance,
                 key_group: int, charge_extract: bool = True):
        """Cut ``key_group`` out of ``src`` and register it as in flight.

        Leaves a ``MIGRATED_OUT`` stub at the source so input handlers can
        recognise records that now belong elsewhere.  Returns ``(flight,
        wire_bytes, span)``: the registered :class:`_InflightState`, the
        bytes the wire must carry, and the open ``state-transfer`` span
        (None without telemetry).
        """
        cost_model = self.job.config.transfer
        yield from self._wait_until_idle(src, key_group)
        if charge_extract and cost_model.extract_seconds_per_group > 0:
            yield self.sim.timeout(cost_model.extract_seconds_per_group)
            # The snapshot is cut at the END of the serialization charge:
            # a record that entered service during the charge must finish
            # first, or its update would land in the extracted-away copy
            # and be lost when the shipped state is installed downstream.
            yield from self._wait_until_idle(src, key_group)
        group = src.state.group(key_group)
        if group is None:
            raise KeyError(
                f"{src.name} does not hold key-group {key_group}")
        self.metrics.note_migration_started(key_group, self.sim.now)
        # The transfer span must open exactly at migration start so that
        # span-derived propagation delay matches ScalingMetrics.
        telemetry = self.job.telemetry
        span = None
        if telemetry is not None:
            span = telemetry.tracer.begin(
                "state-transfer", category="transfer",
                track=f"transfer:{src.name}->{dst.name}",
                key_group=key_group, bytes=group.size_bytes)
        # Changelog-tail fast path: when the source backend holds a durable
        # base covering this group's current version, the destination can
        # fetch the base from durable storage and only the changelog tail
        # moves over the wire.  Queried before the extraction bumps the
        # group's version (which would invalidate the durable base).
        tail_fn = getattr(src.state, "changelog_tail_bytes", None)
        tail_bytes = tail_fn(key_group) if tail_fn is not None else None
        size = group.size_bytes
        wire_bytes = size if tail_bytes is None else min(size, tail_bytes)
        # From this instant until installation at dst, the bytes live only
        # in the in-flight registry: checkpoints fold them into the source
        # snapshot (§IV-C).
        flight = _InflightState(
            op_name=src.spec.name, key_group=key_group,
            entries=group.entries, size_bytes=size, src_name=src.name,
            src_index=src.index, dst_index=dst.index)
        group.entries = {}
        group.size_bytes = 0.0
        group.status = StateStatus.MIGRATED_OUT
        group.bump_version()
        self.job.inflight_state[(flight.op_name, key_group)] = flight
        src.wake.fire()
        return flight, wire_bytes, span

    def _ship(self, src: OperatorInstance, dst: OperatorInstance,
              wire_bytes: float, key_group: int):
        """Carry ``wire_bytes`` from ``src`` to ``dst``: one slot of the
        source host's transfer gate, held for the wire time plus any stall
        ``job.transfer_fault_hook`` injects for ``key_group``."""
        cost_model = self.job.config.transfer
        link = self.job.link_between(src, dst)
        gate = self.job.transfer_gate(src.node.name)
        # Ticket pattern: if an abort interrupts us while queued on the
        # gate, ``cancel`` withdraws the ticket instead of leaking the slot
        # to the abandoned event.
        ticket = gate.acquire()
        try:
            yield ticket
            yield self.sim.timeout(cost_model.transfer_seconds(
                wire_bytes, link.bandwidth, link.latency))
            hook = self.job.transfer_fault_hook
            if hook is not None:
                extra = hook(src, dst, key_group)
                if extra:
                    # Injected stall holds the NIC slot, as a real stalled
                    # transfer would.
                    yield self.sim.timeout(extra)
        finally:
            gate.cancel(ticket)

    def _land(self, flight: _InflightState, dst: OperatorInstance,
              arrival_status: StateStatus, span) -> None:
        """Install a shipped flight at ``dst`` and close its span."""
        key = (flight.op_name, flight.key_group)
        if self.job.inflight_state.pop(key, None) is None:
            # Cleared under our feet (a restore discards every flight):
            # nothing to install.
            return
        recovery = self.job.recovery
        if recovery is not None:
            recovery.on_flight_landed(flight, dst)
        self._install(dst, flight, arrival_status)
        self.metrics.note_migration_completed(flight.key_group, self.sim.now)
        if span is not None:
            self.job.telemetry.tracer.end(span)
        dst.wake.fire()

    def _install(self, dst: OperatorInstance, flight: _InflightState,
                 arrival_status: StateStatus) -> None:
        """Put a landed flight's bytes into ``dst``'s backend."""
        dst.state.install_group(flight.key_group, flight.entries,
                                flight.size_bytes, status=arrival_status)

    def _finalize_assignment(self, op_name: str,
                             plan: MigrationPlan) -> None:
        """Commit the authoritative assignment after all migrations, and
        decommission trailing instances on scale-in."""
        self.job.assignments[op_name] = plan.target
        # Drop MIGRATED_OUT stubs so post-scaling state is clean.
        for instance in self.job.instances(op_name):
            for group in list(instance.state.groups()):
                if group.status is StateStatus.MIGRATED_OUT:
                    instance.state.drop_group(group.key_group)
        if plan.is_scale_in:
            self.job.remove_trailing_instances(op_name,
                                               plan.new_parallelism)
