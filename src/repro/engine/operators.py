"""Operator logic classes and the operator-instance runtime process.

An :class:`OperatorInstance` is one parallel subtask of an operator: a DES
process that pulls elements from its input channels through a *pluggable
input handler*, applies the operator logic, and pushes results through its
output router (blocking on backpressure).  The input handler is the hook the
paper's Scale Input Handler (B1) replaces during scaling; everything a
scaling mechanism needs — suspending, re-ordering, classifying barriers — is
expressed as an input-handler policy, so the vanilla engine is untouched in
non-scaling periods.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from ..simulation.kernel import Interrupt, Simulator, _At
from ..simulation.primitives import EdgeWake
from .channels import InputChannel
from .cluster import NodeSpec
from .metrics import MetricsCollector
from .records import (CheckpointBarrier, ControlSignal, EndOfStream,
                      LatencyMarker, Record, RecordBatch, StreamElement,
                      Watermark)
from .routing import OutputRouter
from .state import KeyedStateBackend

if TYPE_CHECKING:  # pragma: no cover
    from .graph import OperatorSpec
    from .runtime import StreamJob

__all__ = [
    "OperatorLogic",
    "MapLogic",
    "FilterLogic",
    "KeyByLogic",
    "KeyedReduceLogic",
    "PassThroughLogic",
    "SinkLogic",
    "InputHandler",
    "DefaultInputHandler",
    "OperatorInstance",
]


# ---------------------------------------------------------------------------
# Operator logic
# ---------------------------------------------------------------------------

class OperatorLogic:
    """User-level processing logic; one instance per parallel subtask."""

    #: True when ``on_record`` is safe to apply *analytically* at a batch
    #: member's precomputed service-end time: it must not read ``sim.now``
    #: (use the ``at_time`` of :meth:`on_record_at` instead) and must
    #: return no outputs (outputs would be emitted at batch end rather
    #: than at each record's own end — wrong send times).  Off by default;
    #: the engine then falls back to per-record processing for this logic.
    batch_eligible: bool = False

    #: Optional whole-batch application hook: a callable
    #: ``on_record_batch(records, lo, hi, instance)`` applying members
    #: ``records[lo:hi]`` in one call, or None (the default) to apply them
    #: via :meth:`on_record_at` one by one.  Implementations MUST be
    #: bit-identical to the member-by-member path — same state mutations in
    #: the same float-accumulation order — and, like :attr:`batch_eligible`,
    #: must emit nothing.  The instance still performs all per-member
    #: accounting (busy time, counters); this hook only replaces the logic
    #: application itself.
    on_record_batch = None

    def open(self, instance: "OperatorInstance") -> None:
        """Called once before the first element."""

    def on_record(self, record: Record,
                  instance: "OperatorInstance") -> List[StreamElement]:
        raise NotImplementedError

    def on_record_at(self, record: Record, instance: "OperatorInstance",
                     at_time: float) -> List[StreamElement]:
        """Batched-plane application of one record at time ``at_time``.

        ``at_time`` is the record's service-end time — under analytic batch
        execution it may differ from ``sim.now``.  Logics that timestamp
        side effects (e.g. sinks feeding metrics) override this; the
        default delegates to :meth:`on_record`.
        """
        return self.on_record(record, instance)

    def on_watermark(self, timestamp: float,
                     instance: "OperatorInstance") -> List[StreamElement]:
        """Called when the operator's combined watermark advances."""
        return []


class PassThroughLogic(OperatorLogic):
    """Identity operator (used by sources and tests)."""

    def on_record(self, record, instance):
        return [record]


class MapLogic(OperatorLogic):
    """Applies ``fn(record) -> record`` to every record."""

    def __init__(self, fn: Callable[[Record], Record]):
        self.fn = fn

    def on_record(self, record, instance):
        return [self.fn(record)]


class FilterLogic(OperatorLogic):
    """Keeps records for which ``predicate(record)`` is true.

    For batch records the ``pass_fraction`` thins the batch count instead,
    preserving throughput semantics.
    """

    def __init__(self, predicate: Callable[[Record], bool] = None,
                 pass_fraction: float = 1.0):
        self.predicate = predicate
        self.pass_fraction = pass_fraction

    def on_record(self, record, instance):
        if self.predicate is not None and not self.predicate(record):
            return []
        if self.pass_fraction >= 1.0:
            return [record]
        kept = max(1, int(round(record.count * self.pass_fraction)))
        return [record.copy_with(
            count=kept,
            size_bytes=record.size_bytes * kept / max(record.count, 1))]


class KeyByLogic(OperatorLogic):
    """Re-keys records: downstream hash edges will recompute key-groups."""

    def __init__(self, key_fn: Callable[[Record], Any]):
        self.key_fn = key_fn

    def on_record(self, record, instance):
        return [record.copy_with(key=self.key_fn(record), key_group=None)]


class KeyedReduceLogic(OperatorLogic):
    """Running per-key reduction with keyed state.

    ``reduce_fn(old_value, record) -> new_value``; emits the updated value
    when ``emit_updates`` is set.  State bytes grow with distinct keys and,
    optionally, with per-record ``state_bytes_per_record`` (modelling
    list/window state growth for sizing experiments).
    """

    def __init__(self, reduce_fn: Callable[[Any, Record], Any],
                 emit_updates: bool = True,
                 state_bytes_per_record: float = 0.0):
        self.reduce_fn = reduce_fn
        self.emit_updates = emit_updates
        self.state_bytes_per_record = state_bytes_per_record
        # Emitting logics produce outputs per record, which analytic batch
        # application cannot time correctly — only the silent form is
        # batch-safe (instance attribute shadows the class flag).
        self.batch_eligible = not emit_updates

    def on_record(self, record, instance):
        kg = record.key_group
        old = instance.state.get(kg, record.key)
        new = self.reduce_fn(old, record)
        instance.state.put(kg, record.key, new)
        if self.state_bytes_per_record:
            instance.state.add_bytes(
                kg, self.state_bytes_per_record * record.count)
        if not self.emit_updates:
            return []
        return [record.copy_with(value=new)]


class SinkLogic(OperatorLogic):
    """Terminal operator: counts arrivals and optionally collects output."""

    batch_eligible = True

    def __init__(self, collect: bool = False):
        self.collect = collect
        self.collected: List[Record] = []
        self.records_in = 0

    def on_record(self, record, instance):
        self.records_in += record.count
        instance.metrics.record_sink_input(instance.sim.now, record.count)
        if self.collect:
            self.collected.append(record)
        return []

    def on_record_at(self, record, instance, at_time):
        # Same as on_record, but the throughput sample is stamped with the
        # record's own service-end time rather than sim.now (which sits at
        # batch end during analytic application).
        self.records_in += record.count
        instance.metrics.record_sink_input(at_time, record.count)
        if self.collect:
            self.collected.append(record)
        return []


# ---------------------------------------------------------------------------
# Input handlers
# ---------------------------------------------------------------------------

class InputHandler:
    """Chooses the next element to deliver to the operator.

    ``poll`` must consume (pop) the chosen element from its input channel and
    return ``(channel, element)``, or ``None`` when nothing can be processed
    right now.  After a ``None``, :attr:`suspended` tells the instance whether
    the stall was a *suspension* (data present but unprocessable — counted in
    the paper's cumulative suspension time) or mere idleness.
    """

    def __init__(self, instance: "OperatorInstance"):
        self.instance = instance
        self.suspended = False

    def poll(self) -> Optional[Tuple[InputChannel, StreamElement]]:
        raise NotImplementedError

    def on_channel_added(self, channel: InputChannel) -> None:
        """Notification that a new input channel appeared (rescaling)."""


class DefaultInputHandler(InputHandler):
    """Flink-like default: round-robin over unblocked, non-empty channels."""

    def __init__(self, instance: "OperatorInstance"):
        super().__init__(instance)
        self._cursor = 0

    def poll(self):
        instance = self.instance
        channels = instance.input_channels
        if not channels:
            self.suspended = False
            return None
        n = len(channels)
        cursor = self._cursor % n
        saw_blocked_data = False
        for _ in range(n):
            channel = channels[cursor]
            cursor += 1
            if cursor == n:
                cursor = 0
            if channel.queue and channel._nbatches:
                head = channel.queue[0]
                if head.__class__ is RecordBatch:
                    vt = head.visible_times[head.next_index]
                    if vt > instance.sim._now:
                        # The head member is still "on the wire" in
                        # per-record terms: the channel reads as empty, and
                        # a wake is armed for the member's delivery time so
                        # an otherwise-idle instance is not stranded.
                        instance._note_invisible(vt)
                        continue
            if channel.block_tokens:
                if channel.queue:
                    saw_blocked_data = True
                continue
            if channel.queue:
                if channel.is_auxiliary:
                    # Auxiliary lanes bypass barrier alignment; recovery may
                    # park a post-barrier element until this instance has
                    # aligned the checkpoint it postdates.
                    hook = self.instance.job.aux_hold_hook
                    if hook is not None and hook(self.instance,
                                                 channel.queue[0]):
                        saw_blocked_data = True
                        continue
                self._cursor = cursor
                return channel, channel.pop()
        self.suspended = saw_blocked_data
        return None


# ---------------------------------------------------------------------------
# Operator instance runtime
# ---------------------------------------------------------------------------

#: Formation-scan sentinels: the channel is provably empty at the probed
#: boundary (poll would move on) / the poll outcome is ambiguous or
#: batch-breaking (formation must end at the previous boundary).
_SKIP = object()
_STOP = object()


def _consume_arrival_bound(ic: InputChannel, now: float) -> float:
    """Lower bound on when the next element can be *delivered* into ``ic``
    beyond what is already queued.

    Used by consume-batch formation to prove a channel stays empty through
    a future poll boundary.  Returns ``now`` when nothing is provable (an
    arrival time the sender side does not expose), which makes every
    boundary test fail — the conservative outcome.
    """
    backing = ic.channel
    if backing is None:
        return now  # direct-fed channel: arrivals are unknowable
    wire = backing._wire
    if wire:
        head = wire[0][0]
        if head.__class__ is RecordBatch:
            # The batch's members arrive at their per-record delivery
            # times; everything behind it on the FIFO wire arrives later.
            return head.visible_times[0]
        return now  # plain in-flight element: delivery time not exposed
    if backing._serializing is not None:
        # Wire empty: the serializing element (or the outbox behind it)
        # cannot be delivered before its ship completion + propagation.
        return backing._ship_due + backing.link.latency
    if backing._closed:
        return float("inf")
    if backing.outbox or backing._send_waiters:
        return now  # drainer stalled on flow control: resume time unknown
    # Nothing queued or in flight: any future send still pays propagation.
    return now + backing.link.latency


class OperatorInstance:
    """One parallel subtask: a DES process bound to a cluster node."""

    def __init__(self, sim: Simulator, job: "StreamJob",
                 spec: "OperatorSpec", index: int, node: NodeSpec,
                 metrics: MetricsCollector):
        self.sim = sim
        self.job = job
        self.spec = spec
        self.index = index
        self.name = f"{spec.name}[{index}]"
        self.node = node
        self.metrics = metrics
        self.logic: OperatorLogic = spec.logic_factory()
        self.input_channels: List[InputChannel] = []
        self.router = OutputRouter(self)
        make_backend = getattr(job, "make_state_backend", None)
        self.state = (make_backend(spec) if make_backend is not None else
                      KeyedStateBackend(bytes_per_entry=spec.bytes_per_entry))
        # Edge-triggered: safe because _run re-checks every wake condition
        # at the top of each iteration before parking (see EdgeWake docs).
        self.wake = EdgeWake(sim)
        self.input_handler: InputHandler = DefaultInputHandler(self)
        #: Scaling hook: called for control-lane signals.
        self.control_handler: Optional[Callable[
            [Optional[InputChannel], StreamElement], None]] = None
        #: Scaling hook: observes every element before normal handling and
        #: may swallow it (return True) — used for confirm barriers.
        self.element_interceptor: Optional[Callable[
            [InputChannel, StreamElement], bool]] = None

        self.running = False
        self.paused = False
        #: Set by failure-recovery teardown while the world is being
        #: scrubbed: an element already mid-service when the failure hit
        #: must be *discarded* on wake-up, not emitted — its effects are
        #: rolled back and it re-enters via source replay, so emitting it
        #: into the freshly flushed channels would double-deliver it.
        self.abandon_work = False
        self.current_watermark = float("-inf")
        #: Key-group currently being processed (migration must not extract
        #: a group mid-record).
        self.current_key_group = None
        #: True while an element is mid-flight through handle_element
        #: (used by drain-to-quiescence protocols).
        self.processing_element = False
        self.suspended_seconds = 0.0
        self.busy_seconds = 0.0
        self.records_processed = 0
        self._suspension_listener: Optional[Callable[
            [OperatorInstance, float, float], None]] = None
        self._eos_channels: set = set()
        self._pending_checkpoint: Dict[int, set] = {}
        self._inband: List = []
        self._process = None
        # Analytic consume-batch state (batched record plane).  Parallel
        # arrays over the batch members: the records themselves, their
        # service-end times, their source channels, and the poll cursor
        # value after each pick (so preemption can rewind the round-robin
        # to exactly where the per-record plane would stand); plus the wire
        # carriers the batch emptied, so preemption can put them back.
        self._batch_records: Optional[List[Record]] = None
        self._batch_ends: Optional[List[float]] = None
        self._batch_channels: Optional[List[InputChannel]] = None
        self._batch_cursors: Optional[List[int]] = None
        self._batch_emptied: Optional[List[RecordBatch]] = None
        self._batch_start = 0.0
        self._batch_applied = 0
        self._batch_pending_end = 0.0
        self._vis_wake_at: Optional[float] = None

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<{self.name} on {self.node.name}>"

    # -- wiring ---------------------------------------------------------------

    def add_input_channel(self, name: str = "") -> InputChannel:
        channel = InputChannel(self, name=name or f"in->{self.name}")
        # New channels must not hold back the watermark: start them at the
        # operator's current watermark (rescaling adds channels at runtime).
        if self.current_watermark > float("-inf"):
            channel.watermark = self.current_watermark
        self.input_channels.append(channel)
        self.input_handler.on_channel_added(channel)
        return channel

    def set_suspension_listener(self, listener) -> None:
        self._suspension_listener = listener

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        if self.running:
            return
        self.running = True
        self.job._live_names = None
        self.logic.open(self)
        self._process = self.sim.spawn(self._run(), name=self.name)

    def stop(self) -> None:
        self.running = False
        self.job._live_names = None
        if self._batch_records is not None:
            self.preempt_batch()
        self.wake.fire()

    def pause(self) -> None:
        self.paused = True
        self.job._live_names = None
        # The per-record plane pauses at the next element boundary; an
        # analytic batch must collapse to that same boundary.
        if self._batch_records is not None:
            self.preempt_batch()

    def resume(self) -> None:
        self.paused = False
        self.job._live_names = None
        self.wake.fire()

    # -- control lane -----------------------------------------------------------

    def on_control(self, channel: Optional[InputChannel],
                   element: StreamElement) -> None:
        if self.control_handler is not None:
            self.control_handler(channel, element)

    def run_inband(self, fn) -> None:
        """Run generator-function ``fn(instance)`` in-band.

        The function executes inside the instance's main loop, strictly
        *between* elements — the injection point scaling coordinators need
        for atomically updating routing tables and emitting barriers.
        """
        self._inband.append(fn)
        if self._batch_records is not None:
            # Collapse an analytic batch so the injection lands at the next
            # element boundary, exactly where the per-record plane runs it.
            self.preempt_batch()
        self.wake.fire()

    # -- main loop ------------------------------------------------------------------

    def _run(self):
        sim = self.sim
        while self.running:
            if self.paused:
                yield self.wake
                continue
            if self._inband:
                fn = self._inband.pop(0)
                yield from fn(self)
                continue
            polled = self.input_handler.poll()
            if polled is None:
                if not self.running:
                    break
                suspended = self.input_handler.suspended
                start = self.sim.now
                yield self.wake
                if suspended:
                    self._note_suspension(start, self.sim.now)
                continue
            channel, element = polled
            self.processing_element = True
            try:
                if element.is_record and self.element_interceptor is None:
                    # Inlined copy of _handle_record (which stays the
                    # canonical version, used via handle_element for
                    # injected/in-band elements): records dominate the
                    # element mix, and inlining skips one generator
                    # allocation per record plus one frame per resumption.
                    count = element.count
                    cost = (self.spec.service_time * count
                            / self.node.speed)
                    job = self.job
                    if (cost > 0 and job._batching
                            and not job.scaling_active
                            and self.logic.batch_eligible
                            and not self._inband
                            and job.record_capture_listener is None
                            and job.aux_hold_hook is None
                            and type(self.input_handler)
                            is DefaultInputHandler
                            and self._try_form_batch(channel, element,
                                                     cost)):
                        yield from self._run_batch()
                        continue
                    self.current_key_group = element.key_group
                    try:
                        if cost > 0:
                            start = sim.now
                            yield cost
                            self.busy_seconds += sim.now - start
                            if self.abandon_work:
                                continue
                        self.records_processed += count
                        telemetry = self.job.telemetry
                        if telemetry is not None:
                            telemetry.registry.counter(
                                "records.processed",
                                operator=self.spec.name).inc(count)
                        listener = self.job.record_capture_listener
                        if listener is not None:
                            listener(self, element)
                        outputs = self.logic.on_record(element, self)
                    finally:
                        self.current_key_group = None
                    router = self.router
                    for out in outputs:
                        if out.is_record:
                            ev = router.emit_record_fast(out)
                            if ev is not None:
                                yield ev
                                continue
                        yield from router.emit(out)
                elif (element.__class__ is Watermark
                        and self.element_interceptor is None):
                    # Inlined copy of _handle_watermark (which stays the
                    # canonical version, used via handle_element for
                    # injected elements): with fan-in n only ~1/n arrivals
                    # advance the min over input channels, and the
                    # non-advancing majority then needs no generator frame,
                    # no dispatch isinstance chain and no yield machinery —
                    # on watermark-heavy graphs they are the second most
                    # common element after records.
                    ts = element.timestamp
                    if ts > channel.watermark:
                        channel.watermark = ts
                    channels = self.input_channels
                    new_wm = channels[0].watermark
                    for ch in channels:
                        if ch.watermark < new_wm:
                            new_wm = ch.watermark
                    if new_wm > self.current_watermark:
                        self.current_watermark = new_wm
                        outputs = self.logic.on_watermark(new_wm, self)
                        router = self.router
                        if outputs:
                            yield from router.emit_burst(outputs)
                        # Inlined router.emit broadcast: sends accepted
                        # immediately hand back the shared pre-succeeded
                        # event, which _resume would continue past
                        # synchronously anyway — only genuinely pending
                        # (backpressured) sends need the yield.
                        wm_out = Watermark(timestamp=new_wm)
                        done = sim.done
                        for edge in router.edges:
                            for ch in edge.channels:
                                if self.abandon_work:
                                    break
                                ev = ch.send(wm_out)
                                if ev is not done:
                                    yield ev
                            else:
                                continue
                            break
                else:
                    yield from self.handle_element(channel, element)
            finally:
                self.processing_element = False

    def _note_suspension(self, start: float, end: float) -> None:
        if end > start:
            self.suspended_seconds += end - start
            telemetry = self.job.telemetry
            if telemetry is not None:
                telemetry.tracer.complete(
                    "suspended", category="suspension", track=self.name,
                    start=start, end=end)
            if self._suspension_listener is not None:
                self._suspension_listener(self, start, end)

    def _note_invisible(self, when: float) -> None:
        """Arm a wake for the time a queued batch member becomes visible."""
        at = self._vis_wake_at
        if at is not None and at <= when:
            return
        self._vis_wake_at = when
        self.sim.call_at(when, self._vis_fire)

    def _vis_fire(self) -> None:
        self._vis_wake_at = None
        self.wake.fire()

    # -- analytic consume batches (batched record plane) ----------------------

    def _try_form_batch(self, first_channel: InputChannel, first: Record,
                        first_cost: float) -> bool:
        """Try to assemble an analytic consume-batch starting with ``first``.

        Replays the per-record plane's poll alternation forward in time: at
        each boundary (the previous record's service end) the round-robin
        outcome must be *provable* from state frozen in this dispatch —
        queued elements, in-batch visibility times, and lower bounds on the
        next wire arrival.  Formation stops at the first boundary where the
        outcome is ambiguous (possible unseen arrival, non-record head,
        exact-tie visibility) or batch-breaking (watermark/barrier/EOS at
        the head).  On success (>= 2 provable back-to-back records) the
        members are popped with their flow-control credits deferred to the
        per-record pop boundaries, the descriptor state is parked on the
        instance, and True is returned; otherwise no state is touched.
        """
        channels = self.input_channels
        # Fast reject: every pick comes from an element already queued at
        # formation time (the arrival bound can only prove emptiness, never
        # supply a record), so with all queues empty a second pick is
        # impossible and the scan below cannot succeed.  Forming is also a
        # pure perf choice (execution is bit-identical either way), so skip
        # shallow queues outright: a 2-member batch elides one heap event —
        # less than the formation scan costs.  A queued carrier means a
        # ship batch's worth of members is waiting; that is always worth
        # the scan.
        depth = 0
        for ch in channels:
            if ch._nbatches:
                depth = 2
                break
            depth += len(ch.queue)
        if depth < 2:
            return False
        handler = self.input_handler
        n = len(channels)
        max_size = self.job.config.max_batch_size
        if max_size < 2:
            return False
        sim = self.sim
        now = sim._now
        service_time = self.spec.service_time
        speed = self.node.speed
        records = [first]
        ends = [now + first_cost]
        chans = [first_channel]
        cursors = [handler._cursor]
        cursor = handler._cursor % n
        # Degenerate fast path: when exactly one channel holds queued
        # content and every other is blocked or empty, each round-robin
        # rotation provably lands on that channel as long as the boundary
        # stays below every empty channel's arrival bound — the per-
        # boundary scan collapses to two float compares per pick.  Ending
        # earlier than the general scan would (min_bound is position-
        # blind) only shortens the batch, which is always sound.
        run_general = True
        live = -1
        min_bound = float("inf")
        for ci in range(n):
            ch = channels[ci]
            if ch.block_tokens:
                continue
            if ch.queue:
                if live >= 0:
                    live = -2  # two live channels: general scan required
                    break
                live = ci
            else:
                bound = _consume_arrival_bound(ch, now)
                if bound < min_bound:
                    min_bound = bound
        if live == -1:
            return False  # nothing queued anywhere: no second pick exists
        if live >= 0:
            run_general = False
            lch = channels[live]
            q = lch.queue
            qlen = len(q)
            cursor = (live + 1) % n
            qi = 0
            bi = -1
            b = ends[0]
            while b < min_bound and len(records) < max_size:
                if qi >= qlen:
                    # Live channel exhausted and every other channel is
                    # empty: no further pick is provable (or possible).
                    break
                el = q[qi]
                if el.__class__ is RecordBatch:
                    if bi < 0:
                        bi = el.next_index
                    if bi >= len(el.records):
                        qi += 1
                        bi = -1
                        continue
                    vt = el.visible_times[bi]
                    if vt >= b:
                        break  # not yet delivered (or exact tie) at b
                    rec = el.records[bi]
                    bi += 1
                elif el.is_record:
                    rec = el
                    qi += 1
                else:
                    break  # watermark/barrier/EOS head ends the batch
                records.append(rec)
                b = b + service_time * rec.count / speed
                ends.append(b)
                chans.append(lch)
                cursors.append(cursor)
        # Per-channel virtual consumption pointer [queue index, member
        # index within a batch carrier; -1 = not yet resolved], and a
        # lazily-computed per-channel arrival bound (index = channel slot).
        if run_general:
            pointers: List[Optional[List[int]]] = [None] * n
            bounds: List[Optional[float]] = [None] * n
        while run_general and len(records) < max_size:
            b = ends[-1]
            picked = None
            scan = cursor
            for _ in range(n):
                ch = channels[scan]
                ci = scan
                scan += 1
                if scan == n:
                    scan = 0
                if ch.block_tokens:
                    # Block state is frozen through the batch window:
                    # block/unblock preempt any in-flight batch, so a
                    # formation-time snapshot is sound.
                    continue
                ptr = pointers[ci]
                if ptr is None:
                    ptr = pointers[ci] = [0, -1]
                qi, bi = ptr
                q = ch.queue
                qlen = len(q)
                head = None
                while qi < qlen:
                    el = q[qi]
                    if el.__class__ is RecordBatch:
                        if bi < 0:
                            bi = el.next_index
                        if bi >= len(el.records):
                            qi += 1
                            bi = -1
                            continue
                        vt = el.visible_times[bi]
                        if vt < b:
                            head = el.records[bi]
                        elif vt > b:
                            # Provably not yet delivered at b; everything
                            # behind it arrives later still.
                            head = _SKIP
                        else:
                            head = _STOP  # exact tie: dispatch order unknowable
                        break
                    head = el if el.is_record else _STOP
                    break
                ptr[0] = qi
                ptr[1] = bi
                if head is None:
                    # Virtual queue exhausted: need an arrival proof.
                    bound = bounds[ci]
                    if bound is None:
                        bound = bounds[ci] = _consume_arrival_bound(ch, now)
                    if b < bound:
                        continue  # provably still empty at b
                    picked = _STOP
                    break
                if head is _SKIP:
                    continue
                if head is _STOP:
                    picked = _STOP
                    break
                picked = (ci, ch, head)
                cursor = scan
                break
            if picked is None or picked is _STOP:
                break
            ci, ch, rec = picked
            ptr = pointers[ci]
            qi, bi = ptr
            el = ch.queue[qi]
            if el.__class__ is RecordBatch:
                bi += 1
                if bi >= len(el.records):
                    qi += 1
                    bi = -1
            else:
                qi += 1
            ptr[0] = qi
            ptr[1] = bi
            records.append(rec)
            ends.append(b + service_time * rec.count / speed)
            chans.append(ch)
            cursors.append(cursor)
        k = len(records)
        if k < 2:
            return False
        # ---- commit: pop members, defer their credits, park descriptor ----
        emptied: List[RecordBatch] = []
        for i in range(1, k):
            ch = chans[i]
            q = ch.queue
            el = q[0]
            if el.__class__ is RecordBatch:
                el.next_index += 1
                if el.next_index == len(el.records):
                    q.popleft()
                    ch._nbatches -= 1
                    emptied.append(el)
            else:
                q.popleft()
            backing = ch.channel
            if backing is not None:
                # The per-record plane returns this credit at the record's
                # poll boundary (= previous record's service end).
                backing.defer_credit(ends[i - 1])
        handler._cursor = cursors[-1]
        self._batch_records = records
        self._batch_ends = ends
        self._batch_channels = chans
        self._batch_cursors = cursors
        self._batch_emptied = emptied
        self._batch_start = now
        self._batch_applied = 0
        self._batch_pending_end = ends[-1]
        return True

    def _run_batch(self):
        """Sleep to the batch's final service end, then apply all members.

        A preemption (scaling quiesce, in-band injection, pause/stop,
        block/unblock) interrupts the sleep after :meth:`preempt_batch` has
        applied completed members, requeued unstarted ones and retargeted
        ``_batch_pending_end`` to the in-progress member's end — the loop
        re-parks until then.
        """
        while True:
            try:
                yield _At(self._batch_pending_end)
            except Interrupt:
                if self._batch_records is None:
                    return  # fully settled by the preemption
                continue
            records = self._batch_records
            if records is None:
                return
            self._apply_batch_prefix(len(records))
            self._clear_batch()
            return

    def _apply_batch_prefix(self, j: int) -> None:
        """Apply members ``[_batch_applied, j)`` at their own end times.

        Arithmetic mirrors the per-record hot path expression-for-
        expression (``end - prev`` is the same float subtraction the
        per-record ``sim.now - start`` performs), so counters stay
        bit-identical.
        """
        i = self._batch_applied
        if j <= i:
            return
        records = self._batch_records
        ends = self._batch_ends
        logic = self.logic
        telemetry = self.job.telemetry
        counter = None
        if telemetry is not None:
            counter = telemetry.registry.counter(
                "records.processed", operator=self.spec.name)
        prev = self._batch_start if i == 0 else ends[i - 1]
        busy = self.busy_seconds
        processed = self.records_processed
        batch_fn = logic.on_record_batch
        if batch_fn is not None:
            # Whole-batch application: the accounting loop stays per-member
            # (``end - prev`` is the same float subtraction sequence), the
            # logic applies the members in one call.
            lo = i
            while i < j:
                end = ends[i]
                busy = busy + (end - prev)
                count = records[i].count
                processed += count
                if counter is not None:
                    counter.inc(count)
                prev = end
                i += 1
            batch_fn(records, lo, j, self)
        else:
            while i < j:
                rec = records[i]
                end = ends[i]
                busy = busy + (end - prev)
                count = rec.count
                processed += count
                if counter is not None:
                    counter.inc(count)
                logic.on_record_at(rec, self, end)
                prev = end
                i += 1
        self.busy_seconds = busy
        self.records_processed = processed
        self._batch_applied = j

    def _clear_batch(self) -> None:
        self._batch_records = None
        self._batch_ends = None
        self._batch_channels = None
        self._batch_cursors = None
        self._batch_emptied = None
        self._batch_applied = 0
        self.current_key_group = None

    def sync_batch(self) -> None:
        """Apply members whose service end has passed (run() boundaries).

        Observers examining the world between ``Simulator.run`` calls see
        per-record-identical counters and sink samples; the rest of the
        batch stays armed for the next run.
        """
        records = self._batch_records
        if records is None:
            return
        now = self.sim._now
        ends = self._batch_ends
        n = len(records)
        j = self._batch_applied
        while j < n and ends[j] <= now:
            j += 1
        self._apply_batch_prefix(j)

    def preempt_batch(self) -> None:
        """Collapse an in-flight analytic batch at the current time.

        Members whose service completed are applied; members not yet
        started go back to the *front* of their channels (their deferred
        credits cancelled — on the per-record plane their pops never
        happened) and the poll cursor rewinds to the in-progress member's
        position.  A member taken from a wire carrier goes back *into* that
        carrier, so one the per-record plane has not delivered yet keeps
        its delivery time (a later explode routes it past the fault hook)
        and a sender-side unwind still truncates it.  The in-progress
        member keeps its original end time: the
        process is interrupted and re-parks until then, after which the
        main loop resumes per-record polling against real state.
        """
        records = self._batch_records
        if records is None:
            return
        now = self.sim._now
        ends = self._batch_ends
        n = len(records)
        j = self._batch_applied
        while j < n and ends[j] <= now:
            j += 1
        self._apply_batch_prefix(j)
        if j >= n:
            self._clear_batch()
            self._process.interrupt("batch-preempt")
            return
        chans = self._batch_channels
        emptied = self._batch_emptied
        for i in range(n - 1, j, -1):
            ch = chans[i]
            rec = records[i]
            q = ch.queue
            # Walking backwards, a member taken from a carrier is the last
            # one its carrier gave up: of the head carrier, or of the most
            # recently emptied one (which then goes back on the queue).
            head = q[0] if q else None
            if emptied and emptied[-1].records[-1] is rec:
                head = emptied.pop()
                q.appendleft(head)
                ch._nbatches += 1
                head.next_index -= 1
            elif (head.__class__ is RecordBatch and head.next_index
                    and head.records[head.next_index - 1] is rec):
                head.next_index -= 1
            else:
                q.appendleft(rec)
            backing = ch.channel
            if backing is not None:
                backing.cancel_deferred_credit(ends[i - 1])
        cursors = self._batch_cursors
        del records[j + 1:]
        del ends[j + 1:]
        del chans[j + 1:]
        del cursors[j + 1:]
        self.input_handler._cursor = cursors[j]
        self._batch_pending_end = ends[j]
        self.current_key_group = records[j].key_group
        self._process.interrupt("batch-preempt")

    # -- element handling ---------------------------------------------------------

    def service_time(self, count: int = 1) -> float:
        return self.spec.service_time * count / self.node.speed

    def handle_element(self, channel: Optional[InputChannel],
                       element: StreamElement):
        """Return an iterator that fully processes one element.

        A plain function returning the per-kind handler *generator* rather
        than a generator itself: callers ``yield from`` the result, and
        skipping the wrapper frame saves one frame walk on every resumption
        of the record hot path.  All callers iterate immediately, so running
        the dispatch logic at call time instead of first-``next`` is
        observably identical.
        """
        if self.element_interceptor is not None:
            if self.element_interceptor(channel, element):
                return iter(())
        # ``is_record`` is a class attribute (no isinstance call) — records
        # dominate the element mix, so this branch goes first and cheap.
        if element.is_record:
            return self._handle_record(element)
        if isinstance(element, Watermark):
            return self._handle_watermark(channel, element)
        if isinstance(element, LatencyMarker):
            return self._handle_marker(element)
        if isinstance(element, CheckpointBarrier):
            return self._handle_checkpoint_barrier(channel, element)
        if isinstance(element, ControlSignal):
            if getattr(self.job, "signal_router", None) is not None:
                return self.job.signal_router(self, channel, element)
            self.on_control(channel, element)
            return iter(())
        if isinstance(element, EndOfStream):
            return self._handle_eos(channel, element)
        return iter(())

    def _handle_record(self, record: Record):
        self.current_key_group = record.key_group
        try:
            count = record.count
            cost = self.spec.service_time * count / self.node.speed
            if cost > 0:
                start = self.sim.now
                yield cost  # bare-delay yield == sim.timeout(cost)
                self.busy_seconds += self.sim.now - start
                if self.abandon_work:
                    return
            self.records_processed += count
            telemetry = self.job.telemetry
            if telemetry is not None:
                telemetry.registry.counter(
                    "records.processed",
                    operator=self.spec.name).inc(count)
            listener = self.job.record_capture_listener
            if listener is not None:
                listener(self, record)
            outputs = self.logic.on_record(record, self)
        finally:
            self.current_key_group = None
        router = self.router
        for out in outputs:
            if out.is_record:
                ev = router.emit_record_fast(out)
                if ev is not None:
                    yield ev
                    continue
            yield from router.emit(out)

    def _handle_watermark(self, channel: Optional[InputChannel],
                          watermark: Watermark):
        if channel is not None:
            channel.note_watermark(watermark)
        channels = self.input_channels
        if channels:
            new_wm = channels[0].watermark
            for ch in channels:
                if ch.watermark < new_wm:
                    new_wm = ch.watermark
        else:
            new_wm = watermark.timestamp
        if new_wm > self.current_watermark:
            self.current_watermark = new_wm
            outputs = self.logic.on_watermark(new_wm, self)
            if outputs:
                yield from self.router.emit_burst(outputs)
            yield from self.router.emit(Watermark(timestamp=new_wm))

    def _handle_marker(self, marker: LatencyMarker):
        cost = self.service_time(1)
        if cost > 0:
            yield cost  # bare-delay yield == sim.timeout(cost)
            self.busy_seconds += cost
        if self.spec.is_sink:
            self.metrics.record_latency(self.sim.now,
                                        self.sim.now - marker.emitted_at)
        else:
            yield from self.router.emit(marker)

    def _handle_checkpoint_barrier(self, channel: Optional[InputChannel],
                                   barrier: CheckpointBarrier):
        """Aligned checkpointing: block the channel until all have arrived."""
        token = ("ckpt", barrier.checkpoint_id)
        seen = self._pending_checkpoint.setdefault(barrier.checkpoint_id,
                                                   set())
        if channel is not None:
            channel.block(token)
            seen.add(id(channel))
        needed = {id(ch) for ch in self.input_channels
                  if not ch.is_auxiliary}
        if seen >= needed or channel is None:
            # Alignment complete (or source-injected): snapshot and forward.
            del self._pending_checkpoint[barrier.checkpoint_id]
            sync_cost = self.job.checkpoint_sync_cost(self)
            if sync_cost > 0:
                telemetry = self.job.telemetry
                span = None
                if telemetry is not None:
                    span = telemetry.tracer.begin(
                        "checkpoint.sync", category="checkpoint",
                        track=self.name,
                        checkpoint_id=barrier.checkpoint_id)
                yield self.sim.timeout(sync_cost)
                if span is not None:
                    telemetry.tracer.end(span)
            self.job.note_snapshot(self, barrier)
            yield from self.router.emit(barrier)
            for ch in self.input_channels:
                ch.unblock(token)
            self.wake.fire()

    def _handle_eos(self, channel: Optional[InputChannel],
                    eos: EndOfStream):
        if channel is not None:
            self._eos_channels.add(id(channel))
        needed = {id(ch) for ch in self.input_channels
                  if not ch.is_auxiliary}
        if channel is None or self._eos_channels >= needed:
            yield from self.router.emit(eos)
            self.running = False
            self.job._live_names = None
