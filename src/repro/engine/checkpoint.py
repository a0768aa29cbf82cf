"""Periodic aligned checkpointing (Flink-style), as a coordinator process.

Needed both as the substrate for Stop-Checkpoint-Restart scaling and for the
DRRS fault-tolerance-compatibility tests (§IV-C): a checkpoint barrier in
flight while scaling signals are injected must still yield a consistent
snapshot.
"""

from __future__ import annotations

import itertools
from typing import List, Tuple

from .records import CheckpointBarrier
from .runtime import StreamJob

__all__ = ["CheckpointCoordinator"]


class CheckpointCoordinator:
    """Injects checkpoint barriers at the sources on a fixed interval.

    Two records, matching the two ends of a checkpoint's life:

    * :attr:`triggered` — ``(time, id)`` recorded when the barriers are
      injected at the sources;
    * :attr:`completed` — ``(time, id)`` recorded when the checkpoint is
      actually usable for recovery.  The job decides this, once, in its
      checkpoint ledger (``StreamJob.completed_checkpoints``): every live
      instance has taken its snapshot for that id and, with an incremental
      (changelog) backend, every segment upload up to that id has landed
      (delta-chain completeness).  A restore discards the checkpoints
      still open, so an id cut before a crash never completes after it.
    """

    def __init__(self, job: StreamJob, interval: float):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.job = job
        self.interval = interval
        self._ids = itertools.count(1)
        self.triggered: List[Tuple[float, int]] = []
        self._running = False

    @property
    def completed(self) -> List[Tuple[float, int]]:
        return self.job.completed_checkpoints

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.job.sim.spawn(self._loop(), name="checkpoint-coordinator")

    def stop(self) -> None:
        self._running = False

    def trigger_now(self) -> int:
        """Inject one checkpoint immediately; returns its id."""
        checkpoint_id = next(self._ids)
        if self.job.telemetry is not None:
            self.job.telemetry.tracer.instant(
                "checkpoint.trigger", category="checkpoint",
                track="checkpoint", checkpoint_id=checkpoint_id)
        self.triggered.append((self.job.sim.now, checkpoint_id))
        for source in self.job.sources():
            source.inject(CheckpointBarrier(checkpoint_id=checkpoint_id))
        return checkpoint_id

    def _loop(self):
        while self._running:
            yield self.job.sim.timeout(self.interval)
            if not self._running:
                return
            self.trigger_now()
