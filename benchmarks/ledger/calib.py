"""Fixed pure-Python calibration kernel for host-time normalisation.

A shared box is slow in spells: on the one this was written on, 38 % of
the time ran 1.15-1.7x slower than the rest, in spells of 0.1 to 4 s
whose slowdown hit this kernel and a simulator slice alike (correlation
0.7-0.8 at 50 ms granularity) and was forgotten after about a second.
Bracketing a 1.3 s run with two passes therefore *adds* noise; a short
chunk of this kernel between every two slices of the run removes it
(repetition-to-repetition spread 15 % raw, 4 % calibrated).

The kernel does the three things the simulator's hot loop does -- heap
push/pop, generator resume, dict update -- in a fixed amount per chunk.
Calibrated seconds of a slice = its wall x (CALIB_NOMINAL_S / mean of the
chunks on either side of it).

This file imports nothing from ``src/`` on purpose: a change to the
program under test can never move the yardstick.
"""

from __future__ import annotations

import heapq
import time

#: What one chunk costs on the box the baseline was recorded on.  Only a
#: scale factor: it cancels out of every ratio between two runs.
CALIB_NOMINAL_S = 0.04

#: Loop trips per chunk, sized so a chunk takes about 40 ms on that box.
CALIB_ROUNDS = 58_000


def _ticker(table):
    """A generator resumed once per round, like a simulated process."""
    slot = 0
    while True:
        slot = (slot * 31 + 7) % 1021
        table[slot] = table.get(slot, 0) + 1
        yield slot


class Calibrator:
    """The kernel's state, kept across chunks so none pays a warm-up."""

    def __init__(self, rounds: int = CALIB_ROUNDS):
        self.rounds = rounds
        self._heap = [(float(i % 97), i) for i in range(256)]
        heapq.heapify(self._heap)
        self._resume = _ticker({}).__next__

    def chunk(self) -> float:
        """Run one fixed chunk of work; return its wall seconds."""
        heap, resume = self._heap, self._resume
        push, pop = heapq.heappush, heapq.heappop
        t0 = time.perf_counter()
        for i in range(self.rounds):
            when, _ = pop(heap)
            push(heap, (when + 1.0 + (resume() % 13) * 0.125, i))
        return time.perf_counter() - t0
