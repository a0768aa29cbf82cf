"""Structured tracer: typed events and spans at simulated time.

A :class:`Span` is a named interval (``begin``/``end`` at sim-time) on a
*track* — typically one operator instance, one subscale, or a coordinator
lane — with a category and free-form attributes.  An *instant* event is a
zero-duration point.  Both land in a bounded in-memory sink; when the sink
fills, further records are counted in :attr:`Tracer.dropped` and discarded
(keeping the earliest records keeps two identically-seeded runs identical
even at the cap).

:class:`Telemetry` bundles a tracer with a :class:`~.registry.MetricsRegistry`
— it is the single object hot paths test for::

    tel = self.job.telemetry
    if tel is not None:            # zero work when telemetry is disabled
        tel.tracer.instant(...)

The tracer never schedules simulation events itself, so enabling it cannot
perturb simulated behaviour; the optional queue-depth sampler (see
:meth:`Telemetry.start_sampler`) is the one opt-in exception.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .registry import MetricsRegistry

__all__ = ["Span", "InstantEvent", "Tracer", "Telemetry"]


@dataclass
class Span:
    """One named interval on a track.  ``end`` is None while open."""

    span_id: int
    name: str
    category: str
    track: str
    start: float
    end: Optional[float] = None
    parent_id: Optional[int] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    @property
    def closed(self) -> bool:
        return self.end is not None


@dataclass
class InstantEvent:
    """A zero-duration point event."""

    event_id: int
    name: str
    category: str
    track: str
    time: float
    attrs: Dict[str, Any] = field(default_factory=dict)


class Tracer:
    """Bounded in-memory sink of spans and instant events."""

    def __init__(self, sim, capacity: int = 200_000):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.spans: List[Span] = []
        self.events: List[InstantEvent] = []
        #: Records discarded because the sink was full.
        self.dropped = 0
        self._ids = itertools.count(1)
        #: Per-track stack of open spans, for implicit parenting.
        self._open: Dict[str, List[Span]] = {}
        #: Optional ``listener(span)`` called when a span opens — the fault
        #: injector's phase-trigger point.  None (the default) costs one
        #: attribute check per begin().
        self.span_listener = None

    # -- recording -----------------------------------------------------------

    def _full(self) -> bool:
        return len(self.spans) + len(self.events) >= self.capacity

    def begin(self, name: str, category: str = "", track: str = "",
              parent: Optional[Span] = None, **attrs: Any) -> Span:
        """Open a span at ``sim.now``.  Close it with :meth:`end`.

        When ``parent`` is omitted, the innermost open span on the same
        track becomes the parent (natural nesting).
        """
        if self._full():
            self.dropped += 1
            return Span(0, name, category, track, self.sim.now)
        stack = self._open.setdefault(track, [])
        parent_id = parent.span_id if parent is not None else (
            stack[-1].span_id if stack else None)
        span = Span(next(self._ids), name, category, track,
                    self.sim.now, parent_id=parent_id, attrs=dict(attrs))
        self.spans.append(span)
        stack.append(span)
        if self.span_listener is not None:
            self.span_listener(span)
        return span

    def end(self, span: Span, **attrs: Any) -> Span:
        """Close ``span`` at ``sim.now``; extra attrs merge in."""
        if span.span_id == 0:  # placeholder from an over-capacity begin()
            return span
        if span.closed:
            raise ValueError(f"span {span.name!r} already ended")
        span.end = self.sim.now
        if attrs:
            span.attrs.update(attrs)
        stack = self._open.get(span.track)
        if stack and span in stack:
            stack.remove(span)
        return span

    def complete(self, name: str, category: str = "", track: str = "",
                 start: Optional[float] = None, end: Optional[float] = None,
                 **attrs: Any) -> Span:
        """Record an already-finished interval (e.g. a measured stall)."""
        if self._full():
            self.dropped += 1
            return Span(0, name, category, track, start or 0.0, end=end)
        start = self.sim.now if start is None else start
        end = self.sim.now if end is None else end
        if end < start:
            raise ValueError("span cannot end before it starts")
        span = Span(next(self._ids), name, category, track, start, end=end,
                    attrs=dict(attrs))
        self.spans.append(span)
        return span

    def instant(self, name: str, category: str = "", track: str = "",
                **attrs: Any) -> Optional[InstantEvent]:
        """Record a point event at ``sim.now``."""
        if self._full():
            self.dropped += 1
            return None
        event = InstantEvent(next(self._ids), name, category, track,
                             self.sim.now, attrs=dict(attrs))
        self.events.append(event)
        return event

    # -- queries -------------------------------------------------------------

    def closed_spans(self, category: Optional[str] = None,
                     name: Optional[str] = None) -> List[Span]:
        """Finished spans, optionally filtered, in deterministic order."""
        out = [s for s in self.spans if s.closed
               and (category is None or s.category == category)
               and (name is None or s.name == name)]
        out.sort(key=lambda s: (s.start, s.span_id))
        return out

    def events_named(self, name: str) -> List[InstantEvent]:
        return [e for e in self.events if e.name == name]

    def tracks(self) -> List[str]:
        names = {s.track for s in self.spans} | {e.track for e in self.events}
        return sorted(names)


class Telemetry:
    """Registry + tracer bundle attached to a :class:`StreamJob`."""

    def __init__(self, sim):
        self.sim = sim
        self.registry = MetricsRegistry()
        self.tracer = Tracer(sim)
        self._sampler_running = False

    # -- kernel probe (installed on the Simulator when enabled) --------------

    def on_kernel_event(self) -> None:
        self.registry.counter("sim.events_dispatched").inc()

    def on_kernel_discount(self) -> None:
        # A dispatch backed itself out (superseded schedule position, see
        # Simulator.discount()): counters only go up, so the discounts get
        # their own counter and ``events_processed`` equals
        # ``sim.events_dispatched - sim.events_discounted``.
        self.registry.counter("sim.events_discounted").inc()

    # -- opt-in periodic sampling (perturbs the event count; see module doc) --

    def start_sampler(self, job, interval: float) -> None:
        """Sample per-instance queue depths into the tracer every
        ``interval`` simulated seconds.  Adds kernel events, so only use it
        when bit-identity with non-telemetry runs does not matter."""
        if interval <= 0:
            raise ValueError("interval must be positive")
        if self._sampler_running:
            return
        self._sampler_running = True

        def sample_loop():
            while self._sampler_running:
                yield job.sim.timeout(interval)
                for inst in job.all_instances():
                    depth = inst.inbox_depth()
                    backlog = sum(ch.backlog
                                  for ch in inst.router.all_channels())
                    self.registry.gauge("instance.inbox_depth",
                                        instance=inst.name).set(depth)
                    self.tracer.instant(
                        "queue.sample", category="sampling",
                        track=inst.name, inbox_depth=depth,
                        outbox_backlog=backlog)

        job.sim.spawn(sample_loop(), name="telemetry-sampler")
