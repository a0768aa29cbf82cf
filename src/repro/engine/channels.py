"""Network channels: output caches, credit-based input buffers, control lane.

Each :class:`Channel` connects one sender instance to one receiver instance
and models the parts of Flink's Netty stack the paper's mechanisms act on:

* a bounded **outbox** (the "output cache"): records wait here for
  serialization; a full outbox blocks the sender → backpressure.
* a serializer/drainer process: one element at a time, costing
  ``size_bytes / bandwidth`` seconds, then ``latency`` seconds of propagation.
* **credit-based flow control**: the receiver grants ``inbox_capacity``
  credits; the drainer stalls with no credits, so a slow receiver backs the
  whole pipeline up (the "input cache" is the per-channel inbox).
* a **control lane** (:meth:`send_control`): priority messages that bypass
  all in-flight data in both caches — how DRRS trigger barriers achieve
  topologically-shortest, alignment-free propagation.
* outbox **redirection** (:meth:`inject_confirm`): how confirm barriers
  jump the output cache and how the records they bypass are re-queued onto
  the new instance's channel.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, TYPE_CHECKING

from ..simulation.kernel import Event, Simulator, _Callback
from .cluster import LinkSpec
from .records import RecordBatch, StreamElement, Watermark

if TYPE_CHECKING:  # pragma: no cover
    from .operators import OperatorInstance

__all__ = ["Channel", "InputChannel"]


class Channel:
    """A one-way link from a sender instance to a receiver input channel.

    The drainer is a callback-driven state machine, not a generator process:
    :meth:`_kick` plays the role the old drain Signal's ``fire()`` played
    (wake a parked drainer, or latch a pending wake-up), and
    :meth:`_drain_loop` is the loop body.  Each wake-up and each serialize
    step takes exactly the queue position the generator version took, so
    simulated timing and tie-break order are bit-identical — only the
    per-element generator-resume machinery is gone.
    """

    __slots__ = ("sim", "link", "name", "outbox_capacity", "outbox",
                 "credits", "inbox_capacity", "input_channel",
                 "_send_waiters", "_in_flight", "_closed", "_epoch",
                 "sender", "telemetry", "_drain_parked",
                 "_drain_entry", "_ship_entry", "_deliver_entry",
                 "_serializing", "_serializing_epoch", "_wire",
                 "batching", "max_batch", "_job",
                 "_reservations", "_reserve_wake_at", "_ship_due",
                 "_fused_entry", "_fuse_due", "_late")

    def __init__(self, sim: Simulator, link: LinkSpec, name: str = "",
                 outbox_capacity: int = 64, inbox_capacity: int = 64):
        self.sim = sim
        self.link = link
        self.name = name
        self.outbox_capacity = outbox_capacity
        self.outbox: Deque[StreamElement] = deque()
        self.credits = inbox_capacity
        self.inbox_capacity = inbox_capacity
        self.input_channel: Optional["InputChannel"] = None
        self._send_waiters: Deque = deque()  # (Event, StreamElement) pairs
        self._in_flight = 0  # elements past the outbox, not yet delivered
        self._closed = False
        #: Bumped by flush(); deliveries scheduled under an older epoch are
        #: dropped (failure recovery discards in-flight data).
        self._epoch = 0
        self.sender: Optional["OperatorInstance"] = None
        #: Telemetry bundle shared with the owning job (None = disabled).
        self.telemetry = None
        # Drainer state: parked = waiting for a kick.  Born parked: with
        # nothing queued, the first productive kick (send/attach) starts
        # the loop.  No pending latch is needed — a scheduled or running
        # drain pass is atomic and re-checks all conditions before parking.
        self._drain_parked = True
        # Reusable heap entries (one allocation per channel, not per
        # element).  Drain/ship have at most one outstanding schedule each;
        # the deliver entry may sit in the heap at several positions, one
        # per in-flight element — `_wire` holds their (element, epoch, due)
        # payloads in delivery order (fixed per-channel latency keeps the
        # wire FIFO).
        self._drain_entry = _Callback(self._drain_loop)
        self._ship_entry = _Callback(self._ship)
        self._deliver_entry = _Callback(self._deliver_next)
        self._fused_entry = _Callback(self._ship_deliver)
        #: Scheduled time of a fused singleton ship+deliver dispatch (the
        #: element's arrival time), or None when the split per-record
        #: eventing is in effect.  See ``_ship_deliver``.
        self._fuse_due: Optional[float] = None
        self._serializing: Optional[StreamElement] = None
        # Epoch captured when the serializing element left the outbox: a
        # flush() mid-serialize must still invalidate it.
        self._serializing_epoch = 0
        self._wire: Deque = deque()  # (element, epoch, due) triples
        #: Members of collapsed carriers still on the wire in per-record
        #: terms, as (due, element, epoch), in delivery order; each has its
        #: own heap entry (see ``_deliver_later``).
        self._late: Deque = deque()
        #: Micro-batched shipping.  Off by default so standalone channels
        #: (unit tests, benches) keep per-element behaviour; StreamJob
        #: flips it on at wiring time when the job's record plane is
        #: ``"batched"``.
        self.batching = False
        self.max_batch = 64
        #: Owning StreamJob (None for standalone channels); consulted live
        #: for ``active_scalers`` so batches never span a rescale window.
        self._job = None
        #: Release times of *virtual outbox slots*: a ship batch empties k
        #: slots at formation where the per-record drainer would free them
        #: one serialize at a time, so k-1 phantom occupants keep send-side
        #: capacity (backpressure onset) bit-identical.  Sorted ascending,
        #: expired lazily.
        self._reservations: Deque[float] = deque()
        self._reserve_wake_at: Optional[float] = None
        #: Scheduled time of the live ship-completion entry.  A batch
        #: unwind retargets the ship to an earlier boundary; the superseded
        #: heap position is recognised (and ignored) by this time.
        self._ship_due = 0.0

    # -- sender API ----------------------------------------------------------

    def send(self, element: StreamElement) -> Event:
        """Enqueue ``element``; the returned event fires once accepted.

        Blocks (event stays pending) while the outbox is full — this is the
        backpressure path.
        """
        if self._closed:
            # Decommissioned target: accept and drop.  The shared
            # pre-succeeded event costs neither an allocation nor a heap
            # push at send time.
            return self.sim._done
        if (len(self.outbox) if not self._reservations
                else self._occupied()) < self.outbox_capacity:
            # Accepted immediately: kick the drainer and hand the sender the
            # shared pre-succeeded event — no allocation, no heap push, and
            # the sender's generator resumes synchronously (see
            # Process._resume's processed-event fast path).
            self.outbox.append(element)
            self._kick()
            return self.sim._done
        if self.telemetry is not None:
            self.telemetry.registry.counter(
                "channel.backpressure_blocks", channel=self.name).inc()
        ev = self.sim.event()
        self._send_waiters.append((ev, element))
        if self._reservations:
            # The per-record drainer would free the next phantom slot (and
            # grant this waiter) at its release time; wake up then.
            self._schedule_reserve_wake()
        return ev

    def send_control(self, element: StreamElement) -> None:
        """Priority control-lane send: bypass both caches entirely.

        The element reaches the receiver's control handler after only the
        link propagation latency — this is how trigger barriers bypass all
        in-flight data (§III-A).
        """
        self.sim.call_in(self.link.latency,
                         lambda: self._deliver_control(element))

    def inject_confirm(self, predicate: Callable[[StreamElement], bool],
                       barrier: StreamElement) -> List[StreamElement]:
        """Priority-in-output-cache barrier insertion with redirection.

        Implements the confirm-barrier placement of §III-A together with
        the fault-tolerance rule of §IV-C (Fig. 9a): the barrier overtakes
        the output cache, the records it bypasses that match ``predicate``
        are removed (returned for redirection), **but redirection concludes
        at the newest checkpoint barrier in the cache** — elements at or
        before that barrier belong to the snapshot's consistent cut and
        stay put, and the confirm barrier lands immediately after it
        (forming the integrated signal).

        Blocked send-waiters are logically behind the whole cache, so
        matching waiter elements are always redirected.
        """
        from .records import CheckpointBarrier

        elements = list(self.outbox)
        cut = -1
        for index, element in enumerate(elements):
            if isinstance(element, CheckpointBarrier):
                cut = index
        kept: List[StreamElement] = []
        bypassed: List[StreamElement] = []
        for index, element in enumerate(elements):
            if index > cut and predicate(element):
                bypassed.append(element)
            else:
                kept.append(element)
        # All elements <= cut were kept, so the checkpoint barrier sits at
        # position `cut` in `kept`; the confirm barrier goes right after it
        # (or at the very front when there is no checkpoint barrier).
        kept.insert(cut + 1, barrier)
        self.outbox = deque(kept)
        kept_waiters: Deque = deque()
        for ev, element in self._send_waiters:
            if predicate(element):
                bypassed.append(element)
                if not ev.triggered:
                    ev.succeed()
            else:
                kept_waiters.append((ev, element))
        self._send_waiters = kept_waiters
        self._grant_sends()
        self._kick()
        return bypassed

    @property
    def queued(self) -> int:
        """Elements in the outbox plus in flight (for diagnostics)."""
        return len(self.outbox) + self._in_flight

    @property
    def backlog(self) -> int:
        """Total unconsumed elements on this channel end-to-end.

        Batch members not yet past their per-record delivery time count
        here (the per-record plane would still have them in flight), so
        the sum matches the reference plane exactly.
        """
        inbox = self.input_channel.total_depth() if self.input_channel else 0
        return len(self.outbox) + self._in_flight + inbox

    def quiesce(self) -> bool:
        """Collapse sender-side batch state to the per-record equivalent.

        Called when a collapse window opens (rescale, recovery); returns
        True when there was batch state to
        collapse.  A ship batch mid-serialize is *unwound*: members whose
        per-record serialization would not have started yet go back to the
        outbox head (credits, in-flight counts and phantom slots restored),
        and the ship completion retargets to the in-progress member's
        boundary — from there the per-element drain reproduces the exact
        per-record ship/delivery times.  Scaling-time outbox surgery
        (``inject_confirm``) then sees exactly the elements the reference
        plane would hold.
        """
        found = self._fuse_due is not None
        if found:
            self._downgrade_fuse()
        batch = self._serializing
        if batch is not None and batch.__class__ is RecordBatch:
            self._unwind_serializing(batch)
            found = True
        # Carriers past the serialize slot explode at delivery.
        return found or any(element.__class__ is RecordBatch
                            for element, _epoch, _due in self._wire)

    def _unwind_serializing(self, batch: RecordBatch) -> None:
        sim = self.sim
        now = sim._now
        latency = self.link.latency
        vis = batch.visible_times
        k = len(batch.records)
        # Member j (0-based) serializes until vis[j] - latency; the first
        # boundary still in the future marks the in-progress member.
        progress = None
        for j in range(k):
            if vis[j] - latency > now:
                progress = j
                break
        if progress is None or progress == k - 1:
            return  # nothing beyond the in-progress member to unwind
        cut = progress + 1
        tail = batch.records[cut:]
        n = len(tail)
        outbox = self.outbox
        for rec in reversed(tail):
            outbox.appendleft(rec)
        self.credits += n
        # Only a batch still on the wire carries the members in
        # `_in_flight`; once delivered (short-latency links) the tally was
        # already settled at the deliver dispatch.
        for entry, _epoch, _due in self._wire:
            if entry is batch:
                self._in_flight -= n
                break
        reservations = self._reservations
        dropped = 0
        while reservations and dropped < n and reservations[-1] > now:
            reservations.pop()
            dropped += 1
        for rec in tail:
            batch.size_bytes -= rec.size_bytes
        # Truncate in place: the same object sits on the wire (or already
        # in the receiver's queue), so the consumer view shrinks with it.
        del batch.records[cut:]
        del vis[cut:]
        due = vis[progress] - latency
        self._ship_due = due
        sim.schedule_entry(due, self._ship_entry)

    def flush(self) -> None:
        """Discard everything queued or in flight (failure recovery).

        The outbox empties, blocked senders are released with their
        elements dropped, in-flight deliveries are invalidated, and flow-
        control credits reset to a full window.
        """
        self._epoch += 1
        self.outbox.clear()
        waiters, self._send_waiters = self._send_waiters, deque()
        for ev, _element in waiters:
            if not ev.triggered:
                ev.succeed()
        self.credits = self.inbox_capacity
        # In-flight batches are invalidated: their phantom outbox slots die
        # with them.
        self._reservations.clear()
        self._kick()

    def close(self) -> None:
        """Stop the channel: the drainer exits, queued and future sends are
        dropped, and any blocked sender is released."""
        self._closed = True
        self.outbox.clear()
        waiters, self._send_waiters = self._send_waiters, deque()
        for ev, _element in waiters:
            if not ev.triggered:
                ev.succeed()
        self._reservations.clear()
        self._kick()

    # -- receiver attachment -------------------------------------------------

    def attach(self, input_channel: "InputChannel") -> None:
        self.input_channel = input_channel
        input_channel.channel = self
        self._kick()

    def _return_credit(self) -> None:
        self.credits += 1
        self._kick()

    # -- internals -------------------------------------------------------------

    def _occupied(self) -> int:
        """Outbox occupancy including unexpired virtual slot reservations."""
        res = self._reservations
        now = self.sim._now
        while res and res[0] <= now:
            res.popleft()
        return len(self.outbox) + len(res)

    def _schedule_reserve_wake(self) -> None:
        """Wake blocked senders when the next virtual slot frees."""
        res = self._reservations
        if not res:
            return
        due = res[0]
        at = self._reserve_wake_at
        if at is not None and at <= due:
            return
        self._reserve_wake_at = due
        self.sim.call_at(due, self._reserve_fire)

    def _reserve_fire(self) -> None:
        self._reserve_wake_at = None
        if self._send_waiters and not self._closed:
            self._grant_sends()
            if self._send_waiters and self._reservations:
                self._schedule_reserve_wake()

    def _grant_sends(self) -> None:
        while self._send_waiters and (
                len(self.outbox) if not self._reservations
                else self._occupied()) < self.outbox_capacity:
            waiter, element = self._send_waiters.popleft()
            if waiter.triggered:
                continue
            self.outbox.append(element)
            waiter.succeed()
            self._kick()

    def _kick(self) -> None:
        """Wake the drainer (the old drain Signal's ``fire()``).

        The wake-up must be a dispatch of its own, not run inline: an
        element sent at time T stays in the output cache until the drain
        entry dispatches from the same-instant lane, so a same-timestamp
        ``inject_confirm`` can still overtake or redirect it — the cache
        semantics every bypass protocol in the paper relies on.

        Two classes of wake-up are dropped without scheduling anything:

        * The drainer is not parked.  A scheduled-or-running drain pass is
          atomic (no yields), so it re-checks the outbox/credits/attachment
          state the kicker just changed before it exits — the old
          level-triggered pending latch re-checked conditions the loop had
          already seen.
        * The drainer could not make progress anyway (empty outbox, closed,
          no credits, unattached).  Every one of those conditions kicks
          again at the call site that clears it (send/_grant_sends/
          inject_confirm, close is terminal, pop's credit return, attach),
          so a parked drainer can never be stranded.
        """
        if self._fuse_due is not None and self.outbox and not self._closed:
            # A fused singleton is in flight and new work arrived: restore
            # the split eventing so the next serialize starts at the exact
            # per-record boundary (ship completion or right now).
            self._downgrade_fuse()
        if (self._drain_parked and not self._closed and self.outbox
                and self.input_channel is not None):
            if self.credits <= 0:
                if self.telemetry is not None:
                    # The drain pass this kick would have started would
                    # have stalled on flow control; count it here since
                    # the pass itself is elided.
                    self.telemetry.registry.counter(
                        "channel.credit_stalls", channel=self.name).inc()
                return
            self._drain_parked = False
            self.sim._ready.append(self._drain_entry)

    def _drain_loop(self) -> None:
        """Serialize and ship outbox elements until blocked or drained.

        Runs of queued elements are handled in one wake-up: each element
        schedules its own serialize completion (``_ship``), which re-enters
        this loop directly — no per-element Signal round-trip.
        """
        sim = self.sim
        while True:
            if (self._closed or not self.outbox or self.credits <= 0
                    or self.input_channel is None):
                if self._closed:
                    return
                if (self.outbox and self.credits <= 0
                        and self.input_channel is not None):
                    if self.telemetry is not None:
                        # Flow control, not emptiness, is stalling the
                        # drainer.
                        self.telemetry.registry.counter(
                            "channel.credit_stalls", channel=self.name).inc()
                self._drain_parked = True
                return
            element = self.outbox.popleft()
            if (self.batching and element.is_record and self.credits >= 2
                    and self.outbox and not self._send_waiters
                    and (self._job is None
                         or not self._job.active_scalers)):
                if self._form_batch(element):
                    return
            if self.telemetry is not None:
                registry = self.telemetry.registry
                registry.counter("channel.elements_shipped",
                                 channel=self.name).inc()
                registry.counter("channel.bytes_shipped",
                                 channel=self.name).inc(element.size_bytes)
            if self._send_waiters:
                self._grant_sends()
            self.credits -= 1
            self._in_flight += 1
            serialize = element.size_bytes / self.link.bandwidth
            if serialize > 0:
                self._serializing = element
                self._serializing_epoch = self._epoch
                due = sim._now + serialize
                self._ship_due = due
                if (self.batching and not self.outbox
                        and not self._send_waiters
                        and (self._job is None
                             or not self._job.active_scalers)):
                    # Nothing queued behind this element: the ship
                    # completion's only job would be scheduling the deliver
                    # dispatch, so fuse both into one dispatch at the
                    # arrival time.  Ship/delivery instants are unchanged;
                    # any kick that needs the drain re-entry the fusion
                    # elides (a send that should pipeline at `due`)
                    # downgrades back to the split eventing first.
                    self._fuse_due = due + self.link.latency
                    sim.schedule_entry(self._fuse_due, self._fused_entry)
                    return
                sim.schedule_entry(due, self._ship_entry)
                return
            due = sim._now + self.link.latency
            self._wire.append((element, self._epoch, due))
            sim.schedule_entry(due, self._deliver_entry)

    def _form_batch(self, first: StreamElement) -> Optional[RecordBatch]:
        """Pop the record run at the outbox head into one wire batch.

        The batch's per-record ship/delivery times are the exact cumulative
        serialize sums the per-record drainer would produce; only the heap
        traffic (one ship + one deliver dispatch for the whole run) is
        amortized.  Adaptive sizing falls out of the gates: available
        credits and outbox occupancy cap the run, so backpressure shrinks
        batches and an idle channel ships whatever the drain kick found.
        Returns None (nothing popped beyond ``first``) when no second
        eligible record follows.
        """
        link = self.link
        bandwidth = link.bandwidth
        ser = first.size_bytes / bandwidth
        if ser <= 0:
            return None
        outbox = self.outbox
        nxt = outbox[0]
        if not nxt.is_record or nxt.size_bytes / bandwidth <= 0:
            return None
        sim = self.sim
        limit = min(self.credits, self.max_batch)
        records = [first]
        total = first.size_bytes
        s = sim._now + ser
        ship_times = [s]
        while len(records) < limit and outbox:
            nxt = outbox[0]
            if not nxt.is_record:
                break
            nser = nxt.size_bytes / bandwidth
            if nser <= 0:
                break
            outbox.popleft()
            records.append(nxt)
            s += nser
            ship_times.append(s)
            total += nxt.size_bytes
        if len(records) == 1:
            # The run evaporated (head re-checked ineligible): restore
            # the per-element path for `first`.
            return None
        k = len(records)
        latency = link.latency
        visible = [t + latency for t in ship_times]
        self.credits -= k
        self._in_flight += k
        batch = RecordBatch(records, visible, total)
        epoch = self._epoch
        # On the wire at formation: the deliver dispatch fires at the
        # *first* member's per-record delivery time; later members become
        # visible at theirs without further heap traffic.
        self._wire.append((batch, epoch, visible[0]))
        sim.schedule_entry(visible[0], self._deliver_entry)
        # The serialize slot stays busy until the last member ships.
        self._serializing = batch
        self._serializing_epoch = epoch
        self._ship_due = ship_times[-1]
        sim.schedule_entry(ship_times[-1], self._ship_entry)
        # Members 2..k vacated their outbox slots early; phantom occupants
        # keep send-side capacity identical until the per-record pop times.
        reservations = self._reservations
        for t in ship_times[:-1]:
            reservations.append(t)
        return batch

    def _ship_deliver(self) -> None:
        """Fused singleton ship completion + delivery (batched plane).

        Fires at the element's arrival time; the serialize completed at
        ``_ship_due`` with nothing queued behind it, so no drain re-entry
        was needed in between (``_downgrade_fuse`` restores the split
        eventing whenever that stops being true before this fires).
        """
        if self._fuse_due != self.sim._now:
            # Downgraded to the split path, or a stale heap position: a
            # cancelled schedule, not a processed event.
            self.sim.discount()
            return
        self._fuse_due = None
        element, self._serializing = self._serializing, None
        if element is None:
            self.sim.discount()
            return
        self._in_flight -= 1
        if self._serializing_epoch == self._epoch:
            receiver = self.input_channel
            if receiver is not None:
                receiver.deliver(element)
        if self.outbox:
            self._drain_loop()
        else:
            # What the drain pass would conclude with nothing queued.
            self._drain_parked = True

    def _downgrade_fuse(self) -> None:
        """Collapse a fused ship+deliver back to split per-record eventing.

        Called when something needs the drain re-entry or the parked state
        the fusion elided: a send that should start serializing at the ship
        boundary, or a plane collapse (quiesce) about to perform outbox
        surgery.  Restores the exact per-record channel state for the
        current time; the fused heap position dies on its time guard.
        """
        sim = self.sim
        self._fuse_due = None
        if sim._now < self._ship_due:
            # Still serializing: restore the classic ship completion, which
            # re-enters the drain loop at the per-record boundary.
            sim.schedule_entry(self._ship_due, self._ship_entry)
            return
        # Serialize already finished: per-record state at this instant is
        # "element on the wire awaiting delivery, drainer parked".
        element, self._serializing = self._serializing, None
        if element is None:
            return
        due = self._ship_due + self.link.latency
        self._wire.append((element, self._serializing_epoch, due))
        sim.schedule_entry(due, self._deliver_entry)
        self._drain_parked = True

    def _ship(self) -> None:
        """Serialize finished: put the element on the wire, keep draining."""
        sim = self.sim
        if sim._now != self._ship_due:
            # Superseded heap position (a batch unwind retargeted the ship
            # boundary): a cancelled schedule, not a processed event.
            sim.discount()
            return
        element, self._serializing = self._serializing, None
        if element is None:
            sim.discount()
            return
        if element.__class__ is not RecordBatch:
            due = sim._now + self.link.latency
            self._wire.append((element, self._serializing_epoch, due))
            sim.schedule_entry(due, self._deliver_entry)
        elif self.telemetry is not None:
            # A batch went on the wire at formation with its deliver
            # dispatch already scheduled; this entry marks the serialize
            # slot free and counts the members that shipped — an unwind has
            # truncated the batch to those, so the counters only go up and
            # end where the per-record plane's do.
            registry = self.telemetry.registry
            shipped = registry.counter("channel.elements_shipped",
                                       channel=self.name)
            shipped_bytes = registry.counter("channel.bytes_shipped",
                                             channel=self.name)
            for rec in element.records:
                shipped.inc()
                shipped_bytes.inc(rec.size_bytes)
        self._drain_loop()

    def _deliver_next(self) -> None:
        element, epoch, _due = self._wire.popleft()
        if element.__class__ is RecordBatch:
            self._in_flight -= len(element.records)
            if epoch != self._epoch:
                return  # flushed while in flight: dropped (all members)
            if self.input_channel is None:
                return
            if self.batching and (self._job is None
                                  or not self._job.active_scalers):
                self.input_channel.deliver_batch(element)
            else:
                # A rescale window opened while the batch was in flight:
                # fall back to per-record delivery at the original
                # per-record times.
                self._explode(element)
            return
        self._in_flight -= 1
        if epoch != self._epoch:
            return  # flushed while in flight: dropped
        self._deliver_one(element)

    def _deliver_one(self, element: StreamElement) -> None:
        if self.input_channel is not None:
            self.input_channel.deliver(element)

    def _explode(self, batch: RecordBatch) -> None:
        """Deliver a batch's members individually: past-due members land
        now (in order), future ones at their original per-record times."""
        now = self.sim._now
        records = batch.records
        visible = batch.visible_times
        for i in range(batch.next_index, len(records)):
            if visible[i] <= now:
                self._deliver_one(records[i])
            else:
                self._deliver_later(records[i], visible[i])

    def _deliver_later(self, element: StreamElement, due: float) -> None:
        """Deliver a collapsed carrier's member at its per-record time."""
        entry = (due, element, self._epoch)
        self._late.append(entry)
        self.sim.call_at(due, self._deliver_late)

    def _deliver_late(self) -> None:
        # Same due times, scheduled in delivery order: the heap pops these
        # entries in `_late` order.
        _due, element, epoch = self._late.popleft()
        if epoch == self._epoch:
            self._deliver_one(element)

    def landed(self) -> int:
        """Elements whose delivery time has come but whose delivery
        dispatch has not run yet.

        Such a same-instant tie is broken by dispatch order, and the two
        record planes schedule deliveries differently (a carrier member is
        visible from its time on, with no dispatch of its own), so the
        receiver's logical depth counts these to read alike on both.
        """
        now = self.sim._now
        epoch = self._epoch
        n = 0
        for element, ep, due in self._wire:
            if due > now:
                break
            if ep != epoch:
                continue
            if element.__class__ is RecordBatch:
                for t in element.visible_times:
                    if t > now:
                        break
                    n += 1
            else:
                n += 1
        for due, _element, ep in self._late:
            if due > now:
                break
            if ep == epoch:
                n += 1
        if (self._fuse_due is not None and self._fuse_due <= now
                and self._serializing is not None
                and self._serializing_epoch == epoch):
            n += 1
        return n

    def _deliver_control(self, element: StreamElement) -> None:
        if self.input_channel is not None:
            self.input_channel.deliver_control(element)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<Channel {self.name} backlog={self.backlog}>"


class InputChannel:
    """The receiver-side view of one channel: the per-channel input cache."""

    __slots__ = ("instance", "name", "queue", "channel", "watermark",
                 "block_tokens", "is_auxiliary", "_nbatches")

    def __init__(self, instance: "OperatorInstance", name: str = ""):
        self.instance = instance
        self.name = name
        self.queue: Deque[StreamElement] = deque()
        #: Number of RecordBatch carriers currently in ``queue``.  Kept as
        #: an explicit count (not derived) so the zero case — all of the
        #: per-record plane, and most of the batched plane's control flow —
        #: stays a single truthiness test on the hot path.
        self._nbatches = 0
        self.channel: Optional[Channel] = None
        #: Latest watermark seen on this channel.
        self.watermark = float("-inf")
        #: Tokens of the alignments currently blocking this channel; the
        #: channel is readable only when no token is held.  Token-based
        #: blocking lets overlapping alignments (concurrent subscales,
        #: checkpoint + scaling) coexist without releasing each other.
        self.block_tokens: set = set()
        #: True for runtime-created auxiliary channels (re-route paths);
        #: excluded from watermark aggregation and from every barrier
        #: alignment — checkpoint, end of stream and scale signal — whose
        #: one membership rule lives in ``operators.Alignment``.
        self.is_auxiliary = False

    @property
    def blocked(self) -> bool:
        return bool(self.block_tokens)

    def block(self, token) -> None:
        self.block_tokens.add(token)

    def unblock(self, token) -> None:
        self.block_tokens.discard(token)
        if not self.block_tokens:
            self.instance.wake.fire()

    def deliver(self, element: StreamElement) -> None:
        self.queue.append(element)
        self.instance.wake.fire()

    def deliver_batch(self, batch: RecordBatch) -> None:
        """Queue a micro-batch carrier (one wake, k records)."""
        self.queue.append(batch)
        self._nbatches += 1
        self.instance.wake.fire()

    def deliver_control(self, element: StreamElement) -> None:
        self.instance.on_control(self, element)

    def peek(self) -> Optional[StreamElement]:
        if not self.queue:
            return None
        head = self.queue[0]
        if head.__class__ is RecordBatch:
            index = head.next_index
            if head.visible_times[index] <= self.instance.sim.now:
                return head.records[index]
            return None  # not yet delivered on the per-record plane
        return head

    def pop(self) -> StreamElement:
        """Consume the head element and return its flow-control credit."""
        if self._nbatches:
            head = self.queue[0]
            if head.__class__ is RecordBatch:
                index = head.next_index
                element = head.records[index]
                head.next_index = index + 1
                if head.next_index == len(head.records):
                    self.queue.popleft()
                    self._nbatches -= 1
                channel = self.channel
                if channel is not None:
                    channel.credits += 1
                    channel._kick()
                return element
        element = self.queue.popleft()
        channel = self.channel
        if channel is not None:
            # Inlined _return_credit (hot path).
            channel.credits += 1
            channel._kick()
        return element

    def remove(self, element: StreamElement) -> None:
        """Consume a specific (possibly non-head) element.

        Used by intra-channel scheduling, which may process a later record
        while the head is unprocessable.  Credit accounting matches
        :meth:`pop`.
        """
        self.queue.remove(element)
        if self.channel is not None:
            self.channel._return_credit()

    def note_watermark(self, watermark: Watermark) -> None:
        if watermark.timestamp > self.watermark:
            self.watermark = watermark.timestamp

    def materialize(self, now: float) -> bool:
        """Explode queued batch carriers back to individual records.

        Members already visible (their per-record delivery time has
        passed) take the carrier's place in the queue; members still "on
        the wire" in per-record terms are re-delivered at their original
        times through the backing channel's delivery path (epoch-checked).
        Called when a collapse window opens — rescale or recovery — so
        every consumer-side structure holds only plain elements afterwards.
        Returns True when a carrier was queued.
        """
        if not self._nbatches:
            return False
        out: Deque[StreamElement] = deque()
        channel = self.channel
        sim = self.instance.sim
        for element in self.queue:
            if element.__class__ is not RecordBatch:
                out.append(element)
                continue
            vis = element.visible_times
            records = element.records
            for i in range(element.next_index, len(records)):
                if vis[i] <= now:
                    out.append(records[i])
                elif channel is not None:
                    channel._deliver_later(records[i], vis[i])
                else:
                    sim.call_at(vis[i],
                                lambda r=records[i]: self.deliver(r))
        self.queue = out
        self._nbatches = 0
        return True

    def total_depth(self) -> int:
        """All unconsumed members, including not-yet-visible ones."""
        if not self._nbatches:
            return len(self.queue)
        n = 0
        for element in self.queue:
            n += len(element) if element.__class__ is RecordBatch else 1
        return n

    def __len__(self) -> int:
        # Logical depth at this instant, alike on both record planes: every
        # unconsumed element whose per-record delivery time has come --
        # batch members past it, and elements landing right now whose
        # delivery dispatch is still behind the reader in the heap.
        channel = self.channel
        n = channel.landed() if channel is not None else 0
        if not self._nbatches:
            return n + len(self.queue)
        now = self.instance.sim.now
        for element in self.queue:
            if element.__class__ is RecordBatch:
                vis = element.visible_times
                for i in range(element.next_index, len(element.records)):
                    if vis[i] <= now:
                        n += 1
                    else:
                        break
            else:
                n += 1
        return n

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<InputChannel {self.name} depth={len(self.queue)}>"
