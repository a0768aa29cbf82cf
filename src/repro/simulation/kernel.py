"""Discrete-event simulation kernel.

The kernel is a small, deterministic, generator-based process engine in the
style of SimPy.  Simulated components are written as Python generators that
``yield`` :class:`Event` objects; the kernel resumes a process when the event
it waits on fires.  All state transitions happen at discrete simulated times
drawn from a single event heap, so runs are fully reproducible: identical
inputs produce identical traces.

Example::

    sim = Simulator()

    def ping(sim, interval):
        while True:
            yield sim.timeout(interval)
            print("ping at", sim.now)

    sim.spawn(ping(sim, 1.0))
    sim.run(until=5.0)

Hot-path notes (see ``docs/performance.md``):

* Queue entries are ``(time, counter, entry)`` where ``entry`` is either an
  :class:`Event` or a bare :class:`_Callback` — ``call_at``/``call_in`` skip
  the full Event machinery.  Both respond to ``_dispatch()``; a
  ``_Callback`` stores its target itself in that slot, so the run loop
  calls the target with no trampoline frame.
* Same-instant lane: every schedule site appends an entry due at
  ``now`` to the FIFO ``Simulator._ready`` (no counter, no tuple, no
  queue push), and the loop dispatches, per instant, the queued entries
  due then, the lane, and only then the next queued time.  A queued entry
  due at ``t`` was pushed before the clock reached ``t``, so it drew an
  earlier counter than any push made at ``t``: that is the
  ``(time, counter)`` order exactly.
* Tie-break order on equal times is the global ``counter`` draw order.  Any
  optimization here must preserve the *relative* order of counter draws for
  retained events; removing a draw-less dispatch (e.g. skipping a defunct
  timeout) shifts nothing and is safe, while reordering draws is not.
* Continue in place: a process resumed as the last act of its dispatch
  (a bare-delay fire or an :class:`EdgeWake`) that yields a bare delay
  ending at ``t`` keeps running at ``t``, with no heap entry and no
  counter draw, when ``t`` is within the bound of the current heap
  :meth:`Simulator.run`, the lane is empty and ``t`` is strictly earlier
  than every queued entry.  The entry it skips is the one the loop would
  pop next with nothing in between, and the skipped draw shifts every
  later draw alike, so dispatch order is unchanged; ``step()`` and the
  calendar loop never do this.
* Cancelled waits are marked ``_defunct`` and skipped on pop instead of
  being sifted out of the queue (lazy cancellation).  Defunct dispatches do
  not count toward ``events_processed``, and dispatch targets that detect a
  superseded schedule position call :meth:`Simulator.discount` so stale
  no-op pops do not inflate the count either.
* The pending-event queue is pluggable (``Simulator(scheduler=...)``):
  ``"heap"`` is the classic binary heap, ``"calendar"`` the
  calendar-queue / bucketed-wheel scheduler in
  :mod:`repro.simulation.calqueue`.  Both dispatch in exactly the same
  ``(time, counter)`` order, so traces are bit-identical.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import (Any, Callable, Deque, Generator, Iterable, List,
                    Optional, Tuple)

from .calqueue import CalendarQueue, cq_push

__all__ = [
    "Event",
    "Process",
    "SimulationError",
    "Simulator",
    "Interrupt",
    "SCHEDULERS",
]

#: Supported pending-event queue implementations.
SCHEDULERS = ("heap", "calendar")


class SimulationError(RuntimeError):
    """Raised for kernel misuse (double-firing events, time travel, ...)."""


class Interrupt(Exception):
    """Thrown into a process when another component interrupts it.

    The ``cause`` attribute carries an arbitrary payload describing why the
    interruption happened (e.g. a scaling controller cancelling a wait).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class _Callback:
    """A bare heap entry that runs a function at its scheduled time.

    Carries none of the Event machinery: no value, no waiters, no triggered
    state.  This is what ``call_at``/``call_in`` push, and what
    ``Event.add_callback`` pushes for already-processed events.
    """

    __slots__ = ("_dispatch", "_defunct")

    def __init__(self, fn: Callable[[], None]):
        #: The target itself: the run loop calls ``entry._dispatch()``.
        self._dispatch = fn
        self._defunct = False


#: Sentinel stored in ``Process._waiting_on`` while the process sleeps on a
#: bare-delay yield (no Event exists to point at).
_TIMEOUT_WAIT = object()


class Event:
    """A one-shot occurrence that processes can wait on.

    Events start *pending*; calling :meth:`succeed` (or :meth:`fail`)
    schedules all registered callbacks to run at the current simulated time.
    An event may be waited on by any number of processes and may carry a
    value, delivered as the result of the ``yield``.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_triggered",
                 "_processed", "_scheduled", "_defunct")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._processed = False
        # True for events already scheduled by time (timeouts): they
        # cannot be succeeded manually, but they have NOT fired yet —
        # composites must wait for them.
        self._scheduled = False
        # Lazily-cancelled: still queued, skipped at dispatch.
        self._defunct = False

    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed`/:meth:`fail` has been called."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have run (the event is fully in the past)."""
        return self._processed

    @property
    def value(self) -> Any:
        return self._value

    @property
    def ok(self) -> bool:
        return self._ok

    def succeed(self, value: Any = None) -> "Event":
        """Fire the event successfully, waking all waiters at ``sim.now``."""
        if self._triggered or self._scheduled:
            raise SimulationError("event already triggered or scheduled")
        self._triggered = True
        self._value = value
        self._ok = True
        self.sim._ready.append(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Fire the event as a failure; waiters see the exception raised."""
        if self._triggered or self._scheduled:
            raise SimulationError("event already triggered or scheduled")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._value = exception
        self._ok = False
        self.sim._ready.append(self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback(event)``; runs immediately if already past."""
        if self.callbacks is None:
            # Already processed: run at the current time, after the other
            # same-time activity already in the lane.
            self.sim._ready.append(_Callback(lambda: callback(self)))
        else:
            self.callbacks.append(callback)

    def _dispatch(self) -> None:
        self._triggered = True
        callbacks, self.callbacks = self.callbacks, None
        self._processed = True
        if callbacks:
            for callback in callbacks:
                callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "processed" if self._processed else (
            "triggered" if self._triggered else "pending")
        return f"<Event {state} value={self._value!r}>"


class AnyOf(Event):
    """Composite event that fires when the first of its children fires.

    The value is the child event that fired first.  Used by components that
    must react to whichever of several things happens first (e.g. "a record
    arrived OR the migration completed").

    When the first child fires, the composite detaches from the remaining
    children; a heap-scheduled child (timeout) left with no other observers
    is marked defunct so it does not linger until its fire time.
    """

    __slots__ = ("_children",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self._children = list(events)
        if not self._children:
            raise SimulationError("AnyOf requires at least one child event")
        for child in self._children:
            if child.triggered:
                self.succeed(child)
                return
            child.add_callback(self._on_child)

    def _on_child(self, child: Event) -> None:
        if self._triggered:
            return
        self.succeed(child)
        for other in self._children:
            if other is child:
                continue
            callbacks = other.callbacks
            if callbacks is None:
                continue
            try:
                callbacks.remove(self._on_child)
            except ValueError:
                continue
            if not callbacks and other._scheduled and not other._triggered:
                other._defunct = True


class AllOf(Event):
    """Composite event that fires once every child event has fired."""

    __slots__ = ("_children", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self._children = list(events)
        self._remaining = 0
        for child in self._children:
            if not child.triggered:
                self._remaining += 1
                child.add_callback(self._on_child)
        if self._remaining == 0:
            self.succeed([c.value for c in self._children])

    def _on_child(self, _child: Event) -> None:
        self._remaining -= 1
        if self._remaining == 0 and not self.triggered:
            self.succeed([c.value for c in self._children])


class Process(Event):
    """A running generator.  Also an event: fires when the generator ends.

    Yield protocol: the generator yields :class:`Event` instances — or a
    bare ``float``/``int`` delay, shorthand for ``sim.timeout(delay)``
    without the Event allocation (same queue position; or no entry at
    all when it may continue in place, see the module notes), or an :class:`~repro.simulation.primitives.EdgeWake` to park
    on.
    When the yielded event fires, the process resumes with the event's value
    (or the exception, for failed events); a bare delay or a wake resumes
    with ``None``.
    """

    __slots__ = ("_generator", "name", "_waiting_on", "_timeout_entry")

    def __init__(self, sim: "Simulator", generator: Generator,
                 name: str = ""):
        super().__init__(sim)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on: Optional[Event] = None
        #: Reusable heap entry for bare-delay yields; at most one
        #: outstanding position (recreated after an interrupt leaves a
        #: stale, defunct-marked one behind).
        self._timeout_entry: Optional[_Callback] = None
        # Kick off the process at the current time.
        start = Event(sim)
        start._triggered = True
        start.callbacks.append(self._resume)
        sim._ready.append(start)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        No-op if the process has already finished.  The abandoned wait is
        detached: its callback is removed so a later fire cannot spuriously
        resume the process, and a heap-scheduled wait left with no other
        observers is marked defunct (lazy cancellation).
        """
        if self.triggered:
            return
        target = self._waiting_on
        if target is _TIMEOUT_WAIT:
            # Waiting on a bare-delay entry: mark it defunct in place (lazy
            # cancellation) and drop it so a later delay gets a fresh one.
            self._waiting_on = None
            entry = self._timeout_entry
            if entry is not None:
                entry._defunct = True
                self._timeout_entry = None
        elif type(target) is EdgeWake:
            # Parked: un-park, so neither a later fire() nor a wake already
            # on the heap resumes the process a second time.
            self._waiting_on = None
            target._owner = None
            target._armed = False
        elif target is not None:
            self._waiting_on = None
            callbacks = target.callbacks
            if callbacks is not None:
                try:
                    callbacks.remove(self._resume)
                except ValueError:
                    pass
                else:
                    if (not callbacks and target._scheduled
                            and not target._triggered):
                        target._defunct = True
        wake = Event(self.sim)
        wake._triggered = True
        wake._ok = False
        wake._value = Interrupt(cause)
        wake.callbacks.append(self._resume)
        self.sim._ready.append(wake)

    def _resume(self, event: Event) -> None:
        if self._triggered:  # finished while the wake-up was in flight
            return
        self._waiting_on = None
        gen = self._generator
        sim = self.sim
        # Resumed with the shared `done` event, this resume is the last
        # thing its dispatch does (a bare-delay fire or an EdgeWake), so a
        # bare delay may continue in place (see the module notes).
        sole = event is sim._done
        while True:
            try:
                if event._ok:
                    target = gen.send(event._value)
                else:
                    target = gen.throw(event._value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except Interrupt:
                # An un-caught interrupt terminates the process quietly.
                self.succeed(None)
                return
            kind = type(target)
            if kind is float or kind is int:
                # Bare-delay yield: same queue position as
                # `yield sim.timeout(delay)`, minus the Event allocation.
                if not (target >= 0):
                    raise SimulationError(
                        f"negative or NaN timeout: {target}")
                when = sim._now + target
                if sole and when <= sim._bound and not sim._ready:
                    heap = sim._heap
                    if not heap or heap[0][0] > when:
                        # The next event: dispatch it here, as run() would.
                        sim._now = when
                        sim._event_count += 1
                        if sim.dispatch_probe is not None:
                            sim.dispatch_probe()
                        event = sim._done
                        continue
                entry = self._timeout_entry
                if entry is None:
                    entry = self._timeout_entry = _Callback(
                        self._timeout_fire)
                self._waiting_on = _TIMEOUT_WAIT
                if when == sim._now:
                    sim._ready.append(entry)
                else:
                    sim._push(sim._heap, (when, next(sim._counter), entry))
                return
            if kind is EdgeWake:
                # Park: nothing allocated or scheduled until the wake fires.
                target._owner = self
                target._armed = True
                self._waiting_on = target
                return
            if not isinstance(target, Event):
                raise SimulationError(
                    f"process {self.name!r} yielded {target!r}; "
                    "processes must yield Event instances")
            if target._processed:
                # Already-past event (the shared `done` singleton, or any
                # event that fired in an earlier dispatch): resume
                # synchronously instead of round-tripping a bare callback
                # through the lane — nothing scheduled, no dispatch.
                event = target
                continue
            self._waiting_on = target
            # Not processed, so `callbacks` is a live list (add_callback
            # minus the processed-path branch).
            target.callbacks.append(self._resume)
            return

    def _timeout_fire(self) -> None:
        """Dispatch target of the reusable bare-delay heap entry."""
        if self._waiting_on is _TIMEOUT_WAIT:
            self._resume(self.sim._done)
        else:
            # Stale position of the reusable entry: the wait it was armed
            # for was cancelled or replaced.  Nothing happened.
            self.sim.discount()


class Simulator:
    """The event loop: owns simulated time and the pending-event queue."""

    __slots__ = ("_now", "_heap", "_ready", "_counter", "_event_count",
                 "dispatch_probe", "discount_probe", "_done", "_push",
                 "scheduler", "_bound")

    def __init__(self, scheduler: str = "heap"):
        if scheduler not in SCHEDULERS:
            # Same wording as JobConfig.scheduler validation.
            raise ValueError(
                f"unknown scheduler: {scheduler!r} "
                f"(expected one of: {', '.join(SCHEDULERS)})")
        #: Which pending-event queue implementation this simulator runs on
        #: ("heap" or "calendar").  Dispatch order is identical; only the
        #: data structure (and its scaling behaviour) differs.
        self.scheduler = scheduler
        self._now = 0.0
        if scheduler == "calendar":
            self._heap: Any = CalendarQueue()
            self._push: Callable[[Any, Tuple[float, int, Any]], None] = \
                cq_push
        else:
            self._heap = []
            self._push = heapq.heappush
        #: The same-instant lane: entries due at ``_now``, in dispatch
        #: order (see the module notes).
        self._ready: Deque[Any] = deque()
        self._counter = itertools.count()
        self._event_count = 0
        #: ``until`` of the heap :meth:`run` in progress (``inf`` for an
        #: unbounded run), ``-inf`` outside one: a bare delay continues in
        #: place only up to here.
        self._bound = float("-inf")
        #: Optional zero-arg telemetry hook invoked once per dispatched
        #: event.  None (the default) keeps dispatch on the fast path; the
        #: hook must not schedule simulation events.
        self.dispatch_probe: Optional[Callable[[], None]] = None
        #: Telemetry partner of :attr:`dispatch_probe`: invoked whenever a
        #: dispatch discounts itself (see :meth:`discount`) so probe-side
        #: counters can stay in sync with ``events_processed``.
        self.discount_probe: Optional[Callable[[], None]] = None
        # Shared pre-succeeded event for already-satisfied waits (see
        # the `done` property).
        done = Event(self)
        done._triggered = True
        done._processed = True
        done.callbacks = None
        self._done = done

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Kernel events *dispatched* so far (for diagnostics and benches).

        Counts only dispatches that did work: defunct (lazily-cancelled)
        entries are skipped without counting, and dispatch targets that
        detect a superseded schedule position (a reused entry whose due
        time moved on) call :meth:`discount` to back their pop out of the
        total.  A bare delay that continues in place counts as the
        dispatch it stands in for, so the total is the one ``step()``
        reaches on the same program.
        """
        return self._event_count

    def discount(self) -> None:
        """Back the current dispatch out of ``events_processed``.

        For dispatch targets that discover, once popped, that they are a
        superseded or cancelled schedule position (e.g. a reusable channel
        entry whose due time was re-targeted, or a stale bare-delay timer):
        the pop happened but no simulation work did, so it must not count
        as a processed event or inflate bench denominators.
        """
        self._event_count -= 1
        if self.discount_probe is not None:
            self.discount_probe()

    # -- event construction ------------------------------------------------

    def event(self) -> Event:
        """A fresh pending event; fire it with ``.succeed(value)``."""
        return Event(self)

    @property
    def done(self) -> Event:
        """The shared, already-processed success event (value ``None``).

        Hand this to a waiter whose wait is already satisfied and carries no
        value: no allocation and nothing scheduled.  A process that yields
        it resumes synchronously, inside the same dispatch.
        """
        return self._done

    def completed(self, value: Any = None) -> Event:
        """An event already fired at the current time, carrying ``value``.

        Equivalent to ``sim.event().succeed(value)`` — same lane position,
        same dispatch — minus the guard checks.  This is the accepted-send
        fast path: callers that must hand a waiter an event firing "now"
        without reordering anything.
        """
        ev = Event(self)
        ev._triggered = True
        ev._value = value
        self._ready.append(ev)
        return ev

    def timeout(self, delay: float, value: Any = None) -> Event:
        """An event that fires ``delay`` seconds from now."""
        if not (delay >= 0):
            raise SimulationError(f"negative or NaN timeout: {delay}")
        ev = Event(self)
        ev._scheduled = True
        ev._value = value
        when = self._now + delay
        if when == self._now:
            self._ready.append(ev)
        else:
            self._push(self._heap, (when, next(self._counter), ev))
        return ev

    def any_of(self, events: Iterable[Event]) -> Event:
        """Fires when the first of ``events`` fires; value = that event."""
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> Event:
        """Fires when every event in ``events`` has fired."""
        return AllOf(self, events)

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Run ``generator`` as a simulation process."""
        return Process(self, generator, name=name)

    def call_at(self, when: float, callback: Callable[[], None]) -> None:
        """Run ``callback()`` at absolute simulated time ``when``.

        Cheaper than spawning a process or succeeding an event: the queue
        entry is a bare :class:`_Callback`, not an :class:`Event`.
        """
        self.schedule_entry(when, _Callback(callback))

    def call_in(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback()`` ``delay`` seconds from now."""
        self.call_at(self._now + delay, callback)

    def schedule_entry(self, when: float, entry: "_Callback") -> None:
        """Schedule a caller-owned entry (``_Callback`` or compatible).

        Hot-path variant of :meth:`call_at` for callers that reuse one
        entry object across many schedules (e.g. a channel drainer): no
        per-call wrapper allocation.  The same entry may be queued at
        several positions at once; ``_dispatch()`` runs once per position.
        The caller must never mark a reused entry ``_defunct``.
        """
        if not (when >= self._now):
            raise SimulationError(
                f"cannot schedule at {when}; now is {self._now}")
        if when == self._now:
            self._ready.append(entry)
        else:
            self._push(self._heap, (when, next(self._counter), entry))

    # -- execution -----------------------------------------------------------

    def step(self) -> bool:
        """Process one event.  Returns False when nothing is pending.

        Same order as :meth:`run`; defunct (lazily-cancelled) entries are
        discarded without counting as a processed event.
        """
        head = self._head()
        ready = self._ready
        if head is not None and (head[0] == self._now or not ready):
            heap = self._heap
            if type(heap) is list:
                heapq.heappop(heap)
            else:
                heap.pop()
            self._now = head[0]
            entry = head[2]
        elif ready:
            entry = ready.popleft()
        else:
            return False
        self._event_count += 1
        if self.dispatch_probe is not None:
            self.dispatch_probe()
        entry._dispatch()
        return True

    def run(self, until: Optional[float] = None) -> float:
        """Run until nothing is pending or simulated time passes ``until``.

        Returns the simulated time at which execution stopped.

        One inlined loop (no per-event ``step()`` call) per instant: the
        queued entries due now, then the lane, with dispatches appending
        to its tail, and only then the next queued time.  That is
        ``(time, counter)`` order exactly (see the module notes).
        """
        heap = self._heap
        limit = float("inf") if until is None else until
        if not (self._now <= limit):
            return self._now
        if type(heap) is not list:
            # The reference scheduler: one step() per event.
            while self.peek() <= limit and self.step():
                pass
        else:
            pop = heapq.heappop
            ready = self._ready
            popleft = ready.popleft
            when = self._now
            count = 0
            self._bound = limit
            try:
                while True:
                    while heap and heap[0][0] == when:
                        entry = pop(heap)[2]
                        if entry._defunct:
                            continue
                        self._now = when
                        count += 1
                        if self.dispatch_probe is not None:
                            self.dispatch_probe()
                        entry._dispatch()
                    while ready:
                        entry = popleft()
                        if entry._defunct:
                            continue
                        count += 1
                        if self.dispatch_probe is not None:
                            self.dispatch_probe()
                        entry._dispatch()
                    if not heap or heap[0][0] > limit:
                        break
                    when = heap[0][0]
            finally:
                self._event_count += count
                self._bound = float("-inf")
        if until is not None and self._now < until:
            self._now = until
        return self._now

    def _head(self) -> Optional[Tuple[float, int, Any]]:
        """The first live queued item, or None.

        Drops the defunct entries at the front of the lane and the queue.
        """
        ready = self._ready
        while ready and ready[0]._defunct:
            ready.popleft()
        heap = self._heap
        if type(heap) is list:
            while heap and heap[0][2]._defunct:
                heapq.heappop(heap)
            return heap[0] if heap else None
        while True:
            item = heap.peek_item()
            if item is None or not item[2]._defunct:
                return item
            heap.pop()

    def peek(self) -> float:
        """Time of the next pending event, or ``inf`` if none."""
        head = self._head()
        if self._ready:
            return self._now
        return float("inf") if head is None else head[0]


# Last: primitives builds on the names above; Process tells a wake by type.
from .primitives import EdgeWake  # noqa: E402
