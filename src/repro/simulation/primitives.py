"""Synchronization primitives built on the DES kernel.

These are the building blocks the streaming engine uses to model wake-up
conditions and resource gates:

* :class:`Signal` — a re-armable "something changed, re-check your condition"
  wake-up for any number of waiters.
* :class:`EdgeWake` — the single-owner park every operator and source main
  loop idles on.
* :class:`Semaphore` — counted resource gate (used for per-node subscale
  concurrency limits).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List

from .kernel import Event, SimulationError, Simulator, _Callback

__all__ = ["Signal", "EdgeWake", "Semaphore"]


class Signal:
    """A level-triggered wake-up for condition-polling loops.

    A waiter calls :meth:`wait` and yields the returned event; any producer
    calls :meth:`fire` to wake *all* current waiters.  If :meth:`fire` is
    called while nobody waits, the next :meth:`wait` returns an already-fired
    event, so wake-ups are never lost.
    """

    def __init__(self, sim: Simulator):
        self._sim = sim
        self._waiters: List[Event] = []
        self._pending = False

    def wait(self) -> Event:
        if self._pending:
            self._pending = False
            # Same lane position `event().succeed()` takes, minus the guards.
            return self._sim.completed()
        ev = self._sim.event()
        self._waiters.append(ev)
        return ev

    def fire(self) -> None:
        if self._waiters:
            waiters, self._waiters = self._waiters, []
            for ev in waiters:
                if not ev.triggered:
                    ev.succeed()
        else:
            self._pending = True


class EdgeWake:
    """Edge-triggered park for one main loop: a :meth:`fire` while its
    owner is not parked is dropped.

    The owner ``yield``s the wake itself, which allocates and schedules
    nothing; :meth:`fire` on a parked owner appends the wake's one reusable
    entry to the same-instant lane — the position ``Event.succeed()``
    would take — and later fires are dropped until the owner parks again.

    Strictly cheaper than :class:`Signal` — no pending latch means no
    spurious wake/re-poll round-trip through the event queue when a producer
    fires while the consumer is busy.  It is only correct for a consumer
    that re-checks *all* of its wake conditions immediately before each
    park, with no simulation dispatch in between (the operator and source
    main loops do exactly this: the wakeable state — input queues, in-band
    functions, pause/stop flags — is re-read at the top of every loop
    iteration, so a dropped fire can never strand observable work).
    Several waiters, or one that may wait *after* the producer fired, must
    keep using :class:`Signal`.
    """

    __slots__ = ("_sim", "_entry", "_owner", "_armed")

    def __init__(self, sim: Simulator):
        self._sim = sim
        self._entry = _Callback(self._wake)
        self._owner = None  # the parked Process; cleared by an interrupt
        self._armed = False  # parked, and no wake scheduled yet

    @property
    def parked(self) -> bool:
        """True while the owner waits on this wake and no wake is due."""
        return self._armed

    def fire(self) -> None:
        if self._armed:
            self._armed = False
            self._sim._ready.append(self._entry)

    def _wake(self) -> None:
        owner = self._owner
        if owner is not None:  # else interrupted while the wake was in flight
            owner._resume(self._sim._done)


class Semaphore:
    """Counted resource gate with FIFO acquisition order."""

    def __init__(self, sim: Simulator, count: int):
        if count < 1:
            raise SimulationError("semaphore count must be >= 1")
        self._sim = sim
        self._count = count
        self._capacity = count
        self._waiters: Deque[Event] = deque()

    @property
    def available(self) -> int:
        return self._count

    @property
    def in_use(self) -> int:
        return self._capacity - self._count

    def acquire(self) -> Event:
        ev = self._sim.event()
        if self._count > 0:
            self._count -= 1
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def try_acquire(self) -> bool:
        if self._count > 0:
            self._count -= 1
            return True
        return False

    def release(self) -> None:
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.triggered:
                waiter.succeed()
                return
        if self._count >= self._capacity:
            raise SimulationError("semaphore released more than acquired")
        self._count += 1

    def cancel(self, ticket: Event) -> None:
        """Give back an :meth:`acquire` ticket, held or still queued.

        A process interrupted while waiting on ``acquire()`` abandons its
        ticket event; if that event stayed in the waiter queue, a later
        ``release`` would succeed it with nobody listening and the slot
        would leak forever.  ``cancel`` is safe in either state: a granted
        ticket releases the slot, a queued one is simply withdrawn.
        """
        if ticket.triggered:
            self.release()
            return
        try:
            self._waiters.remove(ticket)
        except ValueError:
            pass
