"""Megaphone-style baseline: timestamp-driven fluid migration, Naive Division.

Following the paper's re-implementation (§V-A): predecessor injection gives
Megaphone its characteristically short propagation *paths*, and the
200-record scheduling buffer is enabled (as the paper grants it).  The
timestamp-driven migration plan is modelled by Naive Division: the move set
is split into lexicographic batches, and each batch runs a full coupled
synchronization (routing update + alignment) before its fluid migration —
producing the strict linear dependency between migration units, the large
cumulative propagation delay, and the long scaling duration of Fig. 12.
"""

from __future__ import annotations

from .otfs import OTFSController

__all__ = ["MegaphoneController"]


class MegaphoneController(OTFSController):
    """Naive-Division sequence of coupled sub-reconfigurations."""

    name = "megaphone"
    sequential = True

    def __init__(self, job, batch_size: int = 4):
        super().__init__(job, migration="fluid", injection="predecessor",
                         scheduling=True)
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.batch_size = batch_size

    def _batches(self, groups):
        return [groups[i:i + self.batch_size]
                for i in range(0, len(groups), self.batch_size)]
