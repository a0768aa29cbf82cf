"""Re-route Manager (B4) and epoch bookkeeping (§III-A, §IV-A).

The Re-route Manager runs at a migration *source*: records whose state has
already migrated out, and re-routed confirm barriers, are forwarded to the
migration target over a dedicated direct channel.  Relative order between
records and barriers is preserved — the confirm barrier flushes everything
buffered before it ("immediate re-route of records in network caches"),
giving the target the invariant it needs for implicit alignment:

    every rerouted E_p record of a predecessor precedes that predecessor's
    rerouted confirm barrier on the re-route channel.

Flushing is configurable (capacity- or timeout-based, as in the paper's B4);
the buffer also absorbs bursts so the source never blocks in its input
handler.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from ..engine.channels import Channel
from ..engine.records import StreamElement
from ..simulation.kernel import Simulator
from ..simulation.primitives import Signal
from .barriers import ConfirmBarrier

__all__ = ["ReRouteManager"]


class ReRouteManager:
    """Order-preserving forwarder from one migration source to one target."""

    #: Default flush timeout (seconds); DRRS's rollback grace reads it.
    FLUSH_TIMEOUT = 0.002

    def __init__(self, sim: Simulator, channel: Channel,
                 flush_capacity: int = 16,
                 flush_timeout: float = FLUSH_TIMEOUT,
                 telemetry=None):
        if flush_capacity < 1:
            raise ValueError("flush_capacity must be >= 1")
        self.sim = sim
        self.channel = channel
        self.telemetry = telemetry
        self.flush_capacity = flush_capacity
        self.flush_timeout = flush_timeout
        self._buffer: Deque[StreamElement] = deque()
        self._oldest_at: Optional[float] = None
        self._wake = Signal(sim)
        self._closed = False
        self.records_forwarded = 0
        self.barriers_forwarded = 0
        sim.spawn(self._drain(), name=f"reroute:{channel.name}")

    # -- producer side (called synchronously from the input handler) -------------

    def forward_record(self, element: StreamElement) -> None:
        """Queue a record whose state has migrated out."""
        if self._oldest_at is None:
            self._oldest_at = self.sim.now
        self._buffer.append(element)
        if len(self._buffer) >= self.flush_capacity:
            self._wake.fire()

    def forward_barrier(self, barrier: ConfirmBarrier) -> None:
        """Re-route a confirm barrier; flushes all buffered records first."""
        rerouted = ConfirmBarrier(
            scale_id=barrier.scale_id,
            subscale_id=barrier.subscale_id,
            predecessor_id=barrier.predecessor_id,
            key_groups=barrier.key_groups,
            rerouted=True,
            controller=barrier.controller)
        self._buffer.append(rerouted)
        self.barriers_forwarded += 1
        self._wake.fire()

    @property
    def pending(self) -> int:
        return len(self._buffer)

    def close(self) -> None:
        self._closed = True
        self._wake.fire()

    # -- drain process -------------------------------------------------------------

    def _should_flush(self) -> bool:
        if not self._buffer:
            return False
        if self._closed:
            return True  # shutting down: everything buffered must leave
        if any(isinstance(e, ConfirmBarrier) for e in self._buffer):
            return True
        if len(self._buffer) >= self.flush_capacity:
            return True
        if (self._oldest_at is not None
                and self.sim.now - self._oldest_at
                >= self.flush_timeout - 1e-9):
            return True
        return False

    def _drain(self):
        while True:
            if self._closed and not self._buffer:
                return
            if not self._should_flush():
                if self._buffer:
                    # Wait out the remaining timeout (or a wake-up).  The
                    # floor keeps the wait above float-time resolution so a
                    # sub-epsilon remainder can never spin the loop.
                    remaining = self.flush_timeout - (
                        self.sim.now - (self._oldest_at or self.sim.now))
                    yield self.sim.any_of([
                        self.sim.timeout(max(remaining, 1e-6)),
                        self._wake.wait()])
                else:
                    yield self._wake.wait()
                continue
            flush_span = None
            if self.telemetry is not None:
                flush_span = self.telemetry.tracer.begin(
                    "reroute.flush", category="reroute",
                    track=f"reroute:{self.channel.name}")
            records = barriers = 0
            while self._buffer:
                element = self._buffer.popleft()
                if isinstance(element, ConfirmBarrier):
                    barriers += 1
                    yield self.channel.send(element)
                else:
                    self.records_forwarded += 1
                    records += 1
                    yield self.channel.send(element)
            self._oldest_at = None
            if flush_span is not None:
                self.telemetry.tracer.end(flush_span, records=records,
                                          barriers=barriers)
