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

from ..simulation.kernel import Simulator
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

    def open(self, instance: "OperatorInstance") -> None:
        """Called once before the first element."""

    def on_record(self, record: Record,
                  instance: "OperatorInstance") -> List[StreamElement]:
        raise NotImplementedError

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

class OperatorInstance:
    """One parallel subtask: a DES process bound to a cluster node."""

    #: Head of the operator chain this instance is a member of: the
    #: instance whose task hands it every element, in order, through
    #: ``handle_element(None, element)``.  None for an instance with its
    #: own input channels and process (a head is its own task).  A class
    #: default that only members shadow: ``__init__`` sets 30 attributes,
    #: the most CPython keeps in an instance's inline value array, and a
    #: 31st on every instance slows each attribute load on the record path.
    chain_head: Optional["OperatorInstance"] = None

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

    def inbox_depth(self) -> int:
        """Elements waiting for this instance's task; for a chain member,
        which has no queue of its own, that is its head's inbox.
        ``len(channel)`` is the visibility-aware logical depth: what the
        per-record plane's queue would hold right now."""
        return sum(len(channel) for channel in
                   (self.chain_head or self).input_channels)

    def set_suspension_listener(self, listener) -> None:
        self._suspension_listener = listener

    # -- lifecycle ------------------------------------------------------------

    # A chain member has no loop of its own: its lifecycle flags stay its
    # own (checkpoint coverage, monitors), and whatever must happen *in* a
    # main loop happens in its head's, where "between elements" holds for
    # the whole chain.

    def start(self) -> None:
        if self.running:
            return
        self.running = True
        self.job._live_names = None
        self.logic.open(self)
        if self.chain_head is None:
            self._process = self.sim.spawn(self._run(), name=self.name)

    def stop(self) -> None:
        self.running = False
        self.job._live_names = None
        if self.chain_head is not None:
            self.chain_head.stop()
        else:
            self.wake.fire()

    def pause(self) -> None:
        self.paused = True
        self.job._live_names = None
        if self.chain_head is not None:
            self.chain_head.pause()

    def resume(self) -> None:
        self.paused = False
        self.job._live_names = None
        if self.chain_head is not None:
            self.chain_head.resume()
        else:
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
        head = self.chain_head
        if head is not None:
            head.run_inband(lambda _head: fn(self))
            return
        self._inband.append(fn)
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
                        rest = router.forward(Watermark(timestamp=new_wm))
                        if rest is not None:
                            yield from rest
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
            rest = self.router.forward(Watermark(timestamp=new_wm))
            if rest is not None:
                yield from rest

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
