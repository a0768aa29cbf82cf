"""Key-group partitioning, Flink style.

Keys are hashed into a fixed number of *key-groups*; key-groups are the
atomic unit of state assignment and migration (the paper's migration unit,
§V-A).  The default assignment gives each instance a contiguous key-group
range, exactly like Flink's ``KeyGroupRangeAssignment``.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, List, Tuple

__all__ = [
    "key_to_key_group",
    "key_group_memo",
    "memoized_key_group",
    "uniform_ranges",
    "KeyGroupAssignment",
]

#: Most keys one :func:`key_group_memo` holds; a full memo is cleared
#: wholesale (a workload's key space is a few thousand ``str`` keys, so
#: the bound only matters for unbounded key spaces).
KEY_MEMO_LIMIT = 1 << 16

_memos: Dict[int, Dict[str, int]] = {}


def key_to_key_group(key: Any, num_key_groups: int) -> int:
    """Deterministically hash ``key`` into ``[0, num_key_groups)``.

    Uses CRC32 over the string form so results are stable across processes
    and Python versions (``hash()`` is salted).
    """
    if num_key_groups < 1:
        raise ValueError("num_key_groups must be >= 1")
    digest = zlib.crc32(repr(key).encode("utf-8"))
    return digest % num_key_groups


def key_group_memo(num_key_groups: int) -> Dict[str, int]:
    """The ``str`` key → key-group memo shared by every caller hashing
    into ``num_key_groups`` groups.

    Hash routing holds it by direct reference: a hit is one dict lookup
    instead of a ``crc32(repr(key))``.  Only ``str`` keys enter it
    (:func:`memoized_key_group`): ``1``, ``1.0`` and ``True`` are one
    dict key but have three different ``repr`` and so three groups.
    """
    memo = _memos.get(num_key_groups)
    if memo is None:
        memo = _memos[num_key_groups] = {}
    return memo


def memoized_key_group(key: Any, num_key_groups: int,
                       memo: Dict[str, int]) -> int:
    """:func:`key_to_key_group`, remembering ``str`` keys in ``memo`` (the
    :func:`key_group_memo` of ``num_key_groups``) -- the miss path of a
    caller that has already looked ``key`` up there."""
    key_group = key_to_key_group(key, num_key_groups)
    if type(key) is str:
        if len(memo) >= KEY_MEMO_LIMIT:
            memo.clear()
        memo[key] = key_group
    return key_group


def uniform_ranges(num_key_groups: int, parallelism: int) -> List[Tuple[int, int]]:
    """Contiguous per-instance ranges ``[start, end)``, Flink's formula."""
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    if num_key_groups < parallelism:
        raise ValueError(
            f"num_key_groups ({num_key_groups}) must be >= parallelism "
            f"({parallelism})")
    ranges = []
    for index in range(parallelism):
        start = index * num_key_groups // parallelism
        end = (index + 1) * num_key_groups // parallelism
        ranges.append((start, end))
    return ranges


class KeyGroupAssignment:
    """A mapping key-group → owning instance index, with rescale diffing."""

    def __init__(self, num_key_groups: int, parallelism: int,
                 mapping: Dict[int, int] = None):
        self.num_key_groups = num_key_groups
        self.parallelism = parallelism
        if mapping is None:
            mapping = {}
            for instance, (start, end) in enumerate(
                    uniform_ranges(num_key_groups, parallelism)):
                for kg in range(start, end):
                    mapping[kg] = instance
        if set(mapping) != set(range(num_key_groups)):
            raise ValueError("mapping must cover every key-group exactly once")
        self._mapping = dict(mapping)

    def owner(self, key_group: int) -> int:
        return self._mapping[key_group]

    def groups_of(self, instance: int) -> List[int]:
        return sorted(kg for kg, inst in self._mapping.items()
                      if inst == instance)

    def as_dict(self) -> Dict[int, int]:
        return dict(self._mapping)

    def copy(self) -> "KeyGroupAssignment":
        return KeyGroupAssignment(
            self.num_key_groups, self.parallelism, dict(self._mapping))

    def rescaled_uniform(self, new_parallelism: int) -> "KeyGroupAssignment":
        """The uniform assignment for a new parallelism (paper's C0 policy)."""
        return KeyGroupAssignment(self.num_key_groups, new_parallelism)

    def diff(self, target: "KeyGroupAssignment") -> List[Tuple[int, int, int]]:
        """Migrations needed to reach ``target``.

        Returns ``(key_group, from_instance, to_instance)`` triples for every
        key-group whose owner changes, sorted by key-group (the paper's
        lexicographic order used by the Subscale Scheduler).
        """
        if target.num_key_groups != self.num_key_groups:
            raise ValueError("key-group counts differ")
        moves = []
        for kg in range(self.num_key_groups):
            src = self._mapping[kg]
            dst = target._mapping[kg]
            if src != dst:
                moves.append((kg, src, dst))
        return moves

    def apply_move(self, key_group: int, to_instance: int) -> None:
        """Reassign one key-group (used as migrations complete)."""
        if key_group not in self._mapping:
            raise KeyError(key_group)
        self._mapping[key_group] = to_instance

    def counts(self) -> Dict[int, int]:
        """Number of key-groups held per instance index."""
        counts: Dict[int, int] = {}
        for inst in self._mapping.values():
            counts[inst] = counts.get(inst, 0) + 1
        return counts
