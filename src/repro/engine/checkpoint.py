"""Periodic aligned checkpointing (Flink-style), as a coordinator process.

Needed both as the substrate for Stop-Checkpoint-Restart scaling and for the
DRRS fault-tolerance-compatibility tests (§IV-C): a checkpoint barrier in
flight while scaling signals are injected must still yield a consistent
snapshot.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Set, Tuple

from .records import CheckpointBarrier
from .runtime import StreamJob

__all__ = ["CheckpointCoordinator"]


class CheckpointCoordinator:
    """Injects checkpoint barriers at the sources on a fixed interval.

    Two ledgers, matching the two ends of a checkpoint's life:

    * :attr:`triggered` — ``(time, id)`` recorded when the barriers are
      injected at the sources;
    * :attr:`completed` — ``(time, id)`` recorded when every live instance
      has taken its snapshot for that id (observed via the job's
      snapshot-listener hook), i.e. when the checkpoint is actually usable
      for recovery.

    With an incremental (changelog) backend a snapshot only *cuts* the
    delta segment — the bytes still have to reach durable storage.  The
    coordinator therefore also tracks the job's asynchronous uploads and
    declares a checkpoint complete only once every instance has both
    snapshotted *and* finished uploading its segment (delta-chain
    completeness: a checkpoint whose tail segment never landed must not
    be restored from).
    """

    def __init__(self, job: StreamJob, interval: float):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.job = job
        self.interval = interval
        self._ids = itertools.count(1)
        self.triggered: List[Tuple[float, int]] = []
        self.completed: List[Tuple[float, int]] = []
        #: checkpoint id -> names of instances whose snapshot has arrived.
        self._pending: Dict[int, Set[str]] = {}
        self._running = False
        self._installed = False

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._install()
        self.job.sim.spawn(self._loop(), name="checkpoint-coordinator")

    def stop(self) -> None:
        self._running = False

    def trigger_now(self) -> int:
        """Inject one checkpoint immediately; returns its id."""
        self._install()
        checkpoint_id = next(self._ids)
        if self.job.telemetry is not None:
            self.job.telemetry.tracer.instant(
                "checkpoint.trigger", category="checkpoint",
                track="checkpoint", checkpoint_id=checkpoint_id)
        self.triggered.append((self.job.sim.now, checkpoint_id))
        for source in self.job.sources():
            source.inject(CheckpointBarrier(checkpoint_id=checkpoint_id))
        return checkpoint_id

    # -- completion tracking ---------------------------------------------------

    def _install(self) -> None:
        if not self._installed:
            self._installed = True
            self.job.snapshot_listeners.append(self._on_snapshot)
            self.job.upload_listeners.append(self._on_upload)

    def _on_snapshot(self, instance, barrier: CheckpointBarrier) -> None:
        seen = self._pending.setdefault(barrier.checkpoint_id, set())
        seen.add(instance.name)
        self._maybe_complete(barrier.checkpoint_id)

    def _on_upload(self, instance_name: str, checkpoint_id: int,
                   segment) -> None:
        # A landing upload can unblock *later* checkpoints too (their
        # delta chains reference every earlier segment), so re-check all
        # pending ids oldest-first.  Ids already completed or discarded
        # are ignored.
        for cid in sorted(self._pending):
            self._maybe_complete(cid)

    def _maybe_complete(self, checkpoint_id: int) -> None:
        seen = self._pending.get(checkpoint_id)
        if seen is None or not self.job.checkpoint_durable(checkpoint_id,
                                                            seen):
            return
        del self._pending[checkpoint_id]
        self.completed.append((self.job.sim.now, checkpoint_id))

    def _loop(self):
        while self._running:
            yield self.job.sim.timeout(self.interval)
            if not self._running:
                return
            self.trigger_now()
