"""Kernel and channel microbench bodies, plus the shard operator weights.

This module holds only what ``benchmarks/ledger`` imports: ``micro.py``
times the four bench bodies and ``workloads.py`` (like ``repro
shard-check``) reads :data:`SHARD_WEIGHTS`.  ROADMAP's "A ledger that
imports nothing it measures" moves them into the ledger.

Every bench reports wall-clock throughput (operations per second).
Simulated time is free — these measure how much *host* CPU a kernel
primitive costs.  Simulated behaviour is deterministic: the same
arguments always process the same number of events.
"""

from __future__ import annotations

import gc
import time
from typing import Dict

from ..engine.cluster import LinkSpec
from ..engine.records import Record
from ..simulation.kernel import Simulator
from ..simulation.primitives import Signal

__all__ = ["SHARD_WEIGHTS", "bench_timeout_storm", "bench_callback_chain",
           "bench_event_pingpong", "bench_channel_throughput"]

#: Host-cost operator weights for the shard partitioner, calibrated by
#: profiling the paper-tier runs (per-record session-window work makes
#: event counts alone under-weight `session`).  Workloads not listed fall
#: back to telemetry event counts / uniform weights.
SHARD_WEIGHTS = {
    "twitch": {"twitch-source": 14, "parse": 22, "bot-filter": 19,
               "enrich": 18, "session": 30, "loyalty": 20,
               "twitch-sink": 4},
}


def _timed(fn):
    """Run ``fn`` with the collector paused; returns (result, wall_s)."""
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
    finally:
        if gc_was_enabled:
            gc.enable()
    return result, wall


# ---------------------------------------------------------------------------
# Kernel benches
# ---------------------------------------------------------------------------

def bench_timeout_storm(procs: int, rounds: int,
                        scheduler: str = "heap") -> Dict[str, float]:
    """Many processes sleeping on timeouts: pure queue + resume throughput.

    Run under both event schedulers this doubles as the scheduler
    microbench — the timer population here is exactly the regime the
    calendar queue exists for.
    """
    sim = Simulator(scheduler=scheduler)

    def worker(delay):
        for _ in range(rounds):
            yield sim.timeout(delay)

    for i in range(procs):
        sim.spawn(worker(0.001 * (1 + (i % 7))))
    _, wall = _timed(sim.run)
    events = sim.events_processed
    return {"events": events, "wall_s": wall,
            "events_per_s": events / wall if wall else 0.0}


def bench_callback_chain(length: int) -> Dict[str, float]:
    """A chain of ``call_in`` callbacks: the no-process scheduling path."""
    sim = Simulator()
    state = {"left": length}

    def tick():
        state["left"] -= 1
        if state["left"] > 0:
            sim.call_in(0.001, tick)

    sim.call_in(0.001, tick)
    _, wall = _timed(sim.run)
    return {"callbacks": length, "wall_s": wall,
            "callbacks_per_s": length / wall if wall else 0.0}


def bench_event_pingpong(rounds: int) -> Dict[str, float]:
    """Two processes alternating through Signal fire/wait."""
    sim = Simulator()
    ping, pong = Signal(sim), Signal(sim)
    done = {"count": 0}

    def left():
        for _ in range(rounds):
            ping.fire()
            yield pong.wait()
            done["count"] += 1

    def right():
        for _ in range(rounds):
            yield ping.wait()
            pong.fire()

    sim.spawn(right())
    sim.spawn(left())
    _, wall = _timed(sim.run)
    return {"rounds": done["count"], "wall_s": wall,
            "rounds_per_s": done["count"] / wall if wall else 0.0}


# ---------------------------------------------------------------------------
# Channel bench
# ---------------------------------------------------------------------------

class _BenchReceiver:
    """Minimal stand-in for an OperatorInstance input side."""

    def __init__(self, sim):
        self.sim = sim
        self.wake = Signal(sim)
        self.received = 0

    def on_control(self, channel, element):  # pragma: no cover - unused
        pass


def bench_channel_throughput(elements: int) -> Dict[str, float]:
    """Producer -> Channel (serialize + deliver) -> consumer round trips."""
    from ..engine.channels import Channel, InputChannel

    sim = Simulator()
    link = LinkSpec(bandwidth=1e9, latency=0.0001)
    channel = Channel(sim, link, name="bench", outbox_capacity=64,
                      inbox_capacity=64)
    receiver = _BenchReceiver(sim)
    input_channel = InputChannel(receiver, name="bench-in")
    channel.attach(input_channel)

    def producer():
        for i in range(elements):
            yield channel.send(Record(key=i % 128, key_group=i % 128,
                                      event_time=float(i), count=1,
                                      size_bytes=64.0))

    def consumer():
        while receiver.received < elements:
            if input_channel.queue:
                input_channel.pop()
                receiver.received += 1
            else:
                yield receiver.wake.wait()

    sim.spawn(producer(), name="producer")
    sim.spawn(consumer(), name="consumer")
    _, wall = _timed(sim.run)
    return {"elements": receiver.received, "wall_s": wall,
            "elements_per_s": receiver.received / wall if wall else 0.0,
            "kernel_events": sim.events_processed}
