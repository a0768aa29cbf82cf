"""Migration plans: which key-groups move where during a rescale.

The default policy matches the paper's Policy Generator (C0): uniform
repartitioning — the target assignment is the contiguous uniform assignment
for the new parallelism, and every key-group whose owner changes migrates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..engine.keys import KeyGroupAssignment

__all__ = ["Migration", "MigrationPlan"]


@dataclass(frozen=True)
class Migration:
    """One key-group move."""

    key_group: int
    src_index: int
    dst_index: int


class MigrationPlan:
    """All moves of one rescale operation, plus the target assignment."""

    def __init__(self, op_name: str, old_parallelism: int,
                 new_parallelism: int, moves: List[Migration],
                 target: KeyGroupAssignment):
        self.op_name = op_name
        self.old_parallelism = old_parallelism
        self.new_parallelism = new_parallelism
        self.moves = list(moves)
        self.target = target

    @classmethod
    def uniform(cls, op_name: str, current: KeyGroupAssignment,
                new_parallelism: int) -> "MigrationPlan":
        """Uniform repartition (paper C0): diff current vs. uniform target."""
        target = current.rescaled_uniform(new_parallelism)
        moves = [Migration(kg, src, dst)
                 for kg, src, dst in current.diff(target)]
        return cls(op_name, current.parallelism, new_parallelism, moves,
                   target)

    # -- views -------------------------------------------------------------------

    @property
    def migrating_groups(self) -> List[int]:
        return sorted(m.key_group for m in self.moves)

    @property
    def is_scale_in(self) -> bool:
        return self.new_parallelism < self.old_parallelism

    @property
    def new_instance_indices(self) -> List[int]:
        """Indices of instances to provision (empty for scale-in)."""
        return list(range(self.old_parallelism, self.new_parallelism))

    def routing_updates(self) -> Dict[int, int]:
        """key-group → new owner, for every migrating key-group."""
        return {m.key_group: m.dst_index for m in self.moves}

    def by_path(self) -> Dict[Tuple[int, int], List[int]]:
        """Moves grouped by (src, dst) migration path, key-groups sorted."""
        paths: Dict[Tuple[int, int], List[int]] = {}
        for m in self.moves:
            paths.setdefault((m.src_index, m.dst_index), []).append(
                m.key_group)
        for kgs in paths.values():
            kgs.sort()
        return paths

    def move_for(self, key_group: int) -> Migration:
        for m in self.moves:
            if m.key_group == key_group:
                return m
        raise KeyError(key_group)

    def __len__(self) -> int:
        return len(self.moves)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"<MigrationPlan {self.op_name} "
                f"{self.old_parallelism}->{self.new_parallelism} "
                f"moves={len(self.moves)}>")
