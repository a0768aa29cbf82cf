"""Scale Planner (C): subscale division and greedy scheduling (§III-C, §IV-A).

The default strategies match the paper's implementation:

* **Policy Generator (C0)** — user-request trigger with uniform
  repartitioning (provided by :class:`repro.scaling.plan.MigrationPlan`).
* **Subscale Scheduler (C1)** — lexicographically divides the migrating
  key-groups into subsets as equally sized as possible, and schedules them
  greedily, prioritising subscales that migrate to the instance currently
  holding the *fewest* keys (so new instances join the computation quickly),
  under a per-node concurrency threshold of two simultaneous subscale
  operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..scaling.plan import MigrationPlan

__all__ = ["Subscale", "SubscalePlanner"]


@dataclass
class Subscale:
    """One independently migrating subset of state units."""

    subscale_id: int
    key_groups: List[int]
    src_index: int
    dst_index: int
    launched_at: Optional[float] = None
    completed_at: Optional[float] = None
    #: Destination-side implicit-alignment bookkeeping: identities of
    #: predecessor instances whose re-routed confirm barriers must arrive.
    expected_predecessors: Set[int] = field(default_factory=set)
    arrived_predecessors: Set[int] = field(default_factory=set)
    migrated_groups: Set[int] = field(default_factory=set)

    @property
    def aligned(self) -> bool:
        return self.arrived_predecessors >= self.expected_predecessors

    @property
    def migrated(self) -> bool:
        return self.migrated_groups >= set(self.key_groups)

    @property
    def done(self) -> bool:
        return self.aligned and self.migrated

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"<Subscale #{self.subscale_id} "
                f"{self.src_index}->{self.dst_index} "
                f"kgs={len(self.key_groups)} "
                f"{'done' if self.done else 'open'}>")


class SubscalePlanner:
    """C1: divide the plan into subscales and schedule them greedily."""

    def __init__(self, num_subscales: int = 16,
                 max_concurrent_per_node: int = 2,
                 strategy: str = "greedy"):
        if num_subscales < 1:
            raise ValueError("num_subscales must be >= 1")
        if max_concurrent_per_node < 1:
            raise ValueError("max_concurrent_per_node must be >= 1")
        if strategy not in ("greedy", "fifo"):
            raise ValueError(f"unknown scheduling strategy: {strategy!r}")
        self.num_subscales = num_subscales
        self.max_concurrent_per_node = max_concurrent_per_node
        self.strategy = strategy

    # -- division ------------------------------------------------------------------

    def divide(self, plan: MigrationPlan) -> List[Subscale]:
        """Lexicographic, as-equal-as-possible division of the move set.

        A subscale has a single migration path (one src, one dst), so moves
        are first grouped by path; each path's key-groups (already sorted)
        are then chopped into chunks of the global target size.
        """
        total = len(plan.moves)
        if total == 0:
            return []
        chunk = max(1, math.ceil(total / self.num_subscales))
        subscales: List[Subscale] = []
        next_id = 0
        for (src, dst), kgs in sorted(plan.by_path().items()):
            for i in range(0, len(kgs), chunk):
                subscales.append(Subscale(
                    subscale_id=next_id,
                    key_groups=kgs[i:i + chunk],
                    src_index=src,
                    dst_index=dst))
                next_id += 1
        return subscales

    # -- greedy scheduling ------------------------------------------------------------

    def pick_next(self, pending: List[Subscale],
                  node_load: Dict[str, int],
                  held_keys: Dict[int, int],
                  node_of: Dict[int, str]) -> Optional[Subscale]:
        """The next launchable subscale, or None if none fits right now.

        ``node_load`` counts subscale participations per node;
        ``held_keys`` counts key-groups currently held per instance index;
        ``node_of`` maps instance index → node name.
        """
        eligible = []
        for subscale in pending:
            src_node = node_of[subscale.src_index]
            dst_node = node_of[subscale.dst_index]
            extra: Dict[str, int] = {}
            extra[src_node] = extra.get(src_node, 0) + 1
            extra[dst_node] = extra.get(dst_node, 0) + 1
            if all(node_load.get(node, 0) + n <= self.max_concurrent_per_node
                   for node, n in extra.items()):
                eligible.append(subscale)
        if not eligible:
            return None
        if self.strategy == "fifo":
            return min(eligible, key=lambda s: s.subscale_id)
        # Greedy default: fewest held keys at the destination first (brings
        # new instances into the computation fastest); ties by subscale id.
        return min(eligible,
                   key=lambda s: (held_keys.get(s.dst_index, 0),
                                  s.subscale_id))
