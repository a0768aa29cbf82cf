"""Key-group partitioned state backend and state-transfer cost model.

State is organised exactly as the mechanisms need it: per key-group, with a
nominal byte size (drives transfer/snapshot costs) plus real per-key entries
(drives correctness tests), and a status machine covering the migration
lifecycle on both ends:

=================  ==========================================================
``LOCAL``          owned and active here; records may be processed.
``PENDING_OUT``    selected for migration but not yet extracted; still
                   processable (the paper's ``R4`` case in Fig. 4b).
``MIGRATED_OUT``   extracted and shipped; records for it must be re-routed.
``INCOMING``       expected here, bytes not yet arrived; records suspend.
``INACTIVE``       bytes arrived but implicit alignment not achieved
                   (the paper's ``S3`` inactive→active transition, Fig. 4d).
=================  ==========================================================

Sub-key-groups (used by the Meces baseline's Hierarchical State
Organization) divide one key-group into equal slices that can be fetched
independently.

Storage is one of two stores:

* :class:`DictStateBackend` — the reference in-memory store (full-copy
  snapshots; checkpoints pay for the whole state on the barrier path).
* :class:`ChangelogStateBackend` — a log-structured
  :class:`DictStateBackend`: every mutation appends to a per-key-group
  changelog; checkpoints cut *delta segments* (only what changed since
  the previous cut) that are uploaded asynchronously off the barrier
  path, and a background *materialization* periodically folds the log
  into a durable base so the log — and with it the recovery-time delta
  tail — stays bounded.  Restore replays
  materialized base + delta tail (:meth:`ChangelogStateBackend.replay_chain`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = [
    "StateStatus",
    "KeyGroupState",
    "DictStateBackend",
    "ChangelogStateBackend",
    "ChangelogSegment",
    "ChangelogChainError",
    "StateTransferCostModel",
    "PROCESSABLE",
    "mutation_clock",
    "cut_copy",
]


class StateStatus(enum.Enum):
    LOCAL = "local"
    PENDING_OUT = "pending_out"
    MIGRATED_OUT = "migrated_out"
    INCOMING = "incoming"
    INACTIVE = "inactive"


#: Statuses under which a key-group's records may be processed here
#: (:attr:`KeyGroupState.processable`; hot loops test membership directly).
PROCESSABLE = (StateStatus.LOCAL, StateStatus.PENDING_OUT)

#: Process-wide mutation clock, and the version stamp source for
#: :attr:`KeyGroupState.version`: it ticks on every ``KeyGroupState``
#: creation and every :meth:`KeyGroupState.bump_version`.  Global (not
#: per-group) so a dropped-and-re-registered key-group can never reuse a
#: version an observer memoised for the old incarnation, and so an observer
#: caching a view over *all* groups of a backend (the window operators'
#: ripe-time gate) can validate it with one comparison — an unrelated tick
#: merely costs that observer one recomputation.  Detached copies (checkpoint
#: snapshots, flight captures) never become live and pass ``version``.
_clock = [0]


def _tick() -> int:
    _clock[0] += 1
    return _clock[0]


def mutation_clock() -> int:
    """Current reading of the process-wide mutation clock."""
    return _clock[0]


def cut_copy(entries: Dict[Any, Any]) -> Dict[Any, Any]:
    """Copy ``entries`` for a consistent cut (checkpoint or restore).

    Operator logics may mutate ``list``/``dict`` entry values in place
    (window panes), so those are copied one level; everything else —
    ``KeyedReduceLogic``'s immutable values — is shared.
    """
    copied = dict(entries)
    for key, value in entries.items():
        kind = type(value)
        if kind is list or kind is dict:
            copied[key] = value.copy()
    return copied


@dataclass
class KeyGroupState:
    """All state of one key-group on one instance."""

    key_group: int
    status: StateStatus = StateStatus.LOCAL
    size_bytes: float = 0.0
    entries: Dict[Any, Any] = field(default_factory=dict)
    #: Bulk-mutation stamp: any code path that replaces or merges
    #: ``entries`` wholesale (migration install, rollback, recovery merge)
    #: must call :meth:`bump_version`.  Operator logics that cache derived
    #: views of ``entries`` (e.g. the window operators' fire-floor memo)
    #: validate against this stamp; the owning logic's *own* incremental
    #: mutations maintain the cache in place and need no bump.
    version: int = field(default_factory=_tick)

    @property
    def processable(self) -> bool:
        return self.status in PROCESSABLE

    def bump_version(self) -> None:
        """Invalidate observers' memoised views of :attr:`entries`."""
        self.version = _tick()


class DictStateBackend:
    """Per-instance keyed state store, organised by key-group: the
    reference in-memory store, with full-copy snapshots and a synchronous
    checkpoint cost proportional to total state size.

    Two checkpoint-facing hooks are what :class:`ChangelogStateBackend`
    overrides:

    * :meth:`checkpoint_sync_bytes` — bytes charged *synchronously* on the
      barrier path when a checkpoint barrier aligns: the whole state here,
      a small constant manifest for the changelog backend.
    * :attr:`is_incremental` — whether checkpoints are cut as delta
      segments that must be uploaded (and chained) before the checkpoint
      can complete.
    """

    #: Stable identifier used by config plumbing and reports.
    name = "dict"
    #: Incremental backends cut delta segments + async uploads.
    is_incremental = False
    #: In-place write hook: ``note_in_place(key_group, nbytes)`` or None.
    #: A logic that mutates entry values (or ``entries``/``size_bytes``)
    #: directly instead of through ``put``/``delete``/``add_bytes`` must
    #: call it — when not None — after touching a group, with the bytes
    #: written.  None means the backend needs no notice: callers resolve
    #: the attribute once per call and pay a single ``is None`` test.
    note_in_place = None

    def __init__(self, bytes_per_entry: float = 256.0):
        self.bytes_per_entry = bytes_per_entry
        self._groups: Dict[int, KeyGroupState] = {}

    # -- ownership ------------------------------------------------------------

    def register_group(self, key_group: int,
                       status: StateStatus = StateStatus.LOCAL,
                       size_bytes: float = 0.0) -> KeyGroupState:
        group = KeyGroupState(key_group=key_group, status=status,
                              size_bytes=size_bytes)
        self._groups[key_group] = group
        return group

    def group(self, key_group: int) -> Optional[KeyGroupState]:
        return self._groups.get(key_group)

    def require_group(self, key_group: int) -> KeyGroupState:
        group = self._groups.get(key_group)
        if group is None:
            raise KeyError(f"key-group {key_group} not present")
        return group

    def drop_group(self, key_group: int) -> KeyGroupState:
        return self._groups.pop(key_group)

    def install_group(self, key_group: int, entries: Dict[Any, Any],
                      size_bytes: float,
                      status: StateStatus = StateStatus.LOCAL
                      ) -> KeyGroupState:
        """Install a key-group's bytes wholesale (migration arrival or
        rollback), replacing any stub registered for it."""
        group = self._groups.get(key_group)
        if group is None:
            group = self.register_group(key_group, status)
        group.entries = entries
        group.size_bytes = size_bytes
        group.status = status
        group.bump_version()
        return group

    def groups(self) -> List[KeyGroupState]:
        return list(self._groups.values())

    def owned_groups(self) -> List[int]:
        return sorted(kg for kg, g in self._groups.items()
                      if g.status in PROCESSABLE)

    # -- value access (used by operator logics) --------------------------------

    def get(self, key_group: int, key: Any, default: Any = None) -> Any:
        group = self._groups.get(key_group)
        if group is None:
            return default
        return group.entries.get(key, default)

    def put(self, key_group: int, key: Any, value: Any) -> None:
        group = self._groups.get(key_group)
        if group is None:
            group = self.register_group(key_group)
        if key not in group.entries:
            group.size_bytes += self.bytes_per_entry
        group.entries[key] = value

    def delete(self, key_group: int, key: Any) -> None:
        group = self._groups.get(key_group)
        if group is not None and key in group.entries:
            del group.entries[key]
            group.size_bytes = max(0.0,
                                   group.size_bytes - self.bytes_per_entry)

    def add_bytes(self, key_group: int, delta: float) -> None:
        """Adjust the nominal size of a key-group (window panes etc.)."""
        group = self._groups.get(key_group)
        if group is None:
            group = self.register_group(key_group)
        group.size_bytes = max(0.0, group.size_bytes + delta)

    # -- aggregates -------------------------------------------------------------

    def total_bytes(self) -> float:
        return sum(g.size_bytes for g in self._groups.values())

    def snapshot(self) -> Dict[int, KeyGroupState]:
        """A structural copy for checkpoints (entries shared copy-on-write
        is unnecessary in simulation; we copy dicts, and in-place-mutable
        values one level — see :func:`cut_copy`).  Detached: no tick."""
        copied = {}
        for kg, group in self._groups.items():
            copied[kg] = KeyGroupState(
                key_group=kg, status=group.status,
                size_bytes=group.size_bytes,
                entries=cut_copy(group.entries), version=group.version)
        return copied

    # -- checkpoint surface -----------------------------------------------------

    def checkpoint_sync_bytes(self) -> float:
        """Bytes serialized synchronously on the barrier path."""
        return self.total_bytes()


class ChangelogChainError(RuntimeError):
    """A delta chain cannot be replayed (gap or missing anchor)."""


@dataclass
class ChangelogSegment:
    """The delta cut for one checkpoint on one instance.

    ``groups`` maps key-group → payload, one of::

        ("full",  entries_copy, size_bytes, status)   # whole-group image
        ("deltas", [op, ...])                         # ops since last cut
        ("drop",)                                     # group vanished

    where each op is ``("put", key, value, size_delta)``,
    ``("del", key, size_delta)`` or ``("bytes", delta)``.  A group written
    in place since the last cut is carried as a ``full`` image too.

    ``delta_bytes`` is what the asynchronous upload must move;
    ``restore_tail_bytes`` is what a restore must re-read and replay —
    full-group images count only a small manifest there because the
    materialized base is durable and locally recoverable.
    """

    checkpoint_id: int
    seq_from: int
    seq_to: int
    groups: Dict[int, tuple]
    delta_bytes: float
    restore_tail_bytes: float
    #: True when the segment carries a whole-state image (every live
    #: group as a ``full`` payload) — a valid chain anchor.
    full_base: bool

    @property
    def anchors_chain(self) -> bool:
        return self.full_base or self.seq_from == 0


class ChangelogStateBackend(DictStateBackend):
    """Log-structured backend: per-key-group append-only changelogs.

    Every mutation appends an op to the owning group's log.  A checkpoint
    *cut* (:meth:`cut_segment`) captures the ops since the previous cut as
    a :class:`ChangelogSegment`; the runtime uploads segments
    asynchronously off the barrier path, so the synchronous barrier cost
    (:meth:`checkpoint_sync_bytes`) is a small constant manifest
    regardless of state size.

    *Materialization* periodically folds the log into a durable base
    (modeled: the live entries at that instant become the base), clears
    the logs, and flags every group so the next cut re-uploads it as a
    whole-group image — bounding both the log length and the delta tail a
    restore must replay.  It triggers automatically every
    ``materialize_interval`` mutations, or sooner when any single group's
    log exceeds ``max_log_entries`` (truncation bound).

    Bulk mutations that bypass the logging surface (scaling controllers
    replace ``group.entries`` wholesale) are caught by the
    :attr:`KeyGroupState.version` contract: any wholesale replace bumps
    the version, and a version observed to have changed since the last
    cut forces a whole-group image instead of an unsound delta replay.

    In-place writes to entry values (window panes) bypass it too and are
    announced through :meth:`note_in_place`: the group is marked dirty and
    the bytes written are tallied; the next cut carries a self-contained
    image of each dirty group but charges only the tallied bytes — what an
    incremental upload of the touched panes would move.
    """

    name = "changelog"
    is_incremental = True
    #: Synchronous barrier-path cost: the checkpoint manifest (constant).
    MANIFEST_BYTES = 65536.0

    def __init__(self, bytes_per_entry: float = 256.0,
                 materialize_interval: int = 4096,
                 max_log_entries: int = 8192):
        super().__init__(bytes_per_entry=bytes_per_entry)
        if materialize_interval < 1:
            raise ValueError("materialize_interval must be >= 1")
        self.materialize_interval = int(materialize_interval)
        self.max_log_entries = int(max_log_entries)
        #: Global op counter — segment seq ranges chain on it.
        self._seq = 0
        self._last_cut_seq = 0
        #: Per-group ops since the last materialization.
        self._log: Dict[int, List[tuple]] = {}
        #: Per-group op index (into the global seq) of each group's first
        #: un-cut op: ops with seq > _last_cut_seq belong to the next cut.
        self._log_seqs: Dict[int, List[int]] = {}
        self._log_bytes: Dict[int, float] = {}
        #: Version each group had when last captured (cut or materialize);
        #: a mismatch at cut time means out-of-band bulk mutation.
        self._cut_versions: Dict[int, int] = {}
        #: Groups whose next cut must carry a whole-group image.
        self._pending_full: set = set()
        #: Groups written in place since the last cut -> bytes written.
        self._dirty: Dict[int, float] = {}
        self._mutations_since_materialize = 0
        self.materializations = 0
        #: Version at which each group's base is durably captured —
        #: gates the changelog-tail migration fast path.
        self._durable_versions: Dict[int, int] = {}

    # -- logging mutations ----------------------------------------------------

    def _append(self, key_group: int, op: tuple, cost: float) -> None:
        self._seq += 1
        self._log.setdefault(key_group, []).append(op)
        self._log_seqs.setdefault(key_group, []).append(self._seq)
        self._log_bytes[key_group] = self._log_bytes.get(key_group, 0.0) + cost
        self._mutations_since_materialize += 1
        if (self._mutations_since_materialize >= self.materialize_interval
                or len(self._log[key_group]) > self.max_log_entries):
            self.materialize()

    def put(self, key_group: int, key: Any, value: Any) -> None:
        group = self._groups.get(key_group)
        new_key = group is None or key not in group.entries
        super().put(key_group, key, value)
        delta = self.bytes_per_entry if new_key else 0.0
        self._append(key_group, ("put", key, value, delta),
                     self.bytes_per_entry)

    def delete(self, key_group: int, key: Any) -> None:
        group = self._groups.get(key_group)
        if group is None or key not in group.entries:
            return
        super().delete(key_group, key)
        self._append(key_group, ("del", key, -self.bytes_per_entry),
                     self.bytes_per_entry)

    def add_bytes(self, key_group: int, delta: float) -> None:
        super().add_bytes(key_group, delta)
        self._append(key_group, ("bytes", delta), abs(delta))

    def note_in_place(self, key_group: int, nbytes: float) -> None:
        self._dirty[key_group] = self._dirty.get(key_group, 0.0) + nbytes

    # -- materialization & truncation ----------------------------------------

    def materialize(self) -> None:
        """Fold the logs into a durable base (the live entries at this
        instant) and clear them; the next cut re-anchors the chain with
        whole-group images."""
        self._log.clear()
        self._log_seqs.clear()
        self._log_bytes.clear()
        self._dirty.clear()
        self._pending_full = set(self._groups)
        self._mutations_since_materialize = 0
        self.materializations += 1
        for kg, group in self._groups.items():
            self._durable_versions[kg] = group.version
            self._cut_versions[kg] = group.version

    def restart_changelog(self) -> None:
        """Re-anchor after a restore: discard any pre-failure log state so
        the next cut carries a whole-state image."""
        self.materialize()

    def log_length(self, key_group: int) -> int:
        return len(self._log.get(key_group, ()))

    # -- checkpoint cuts ------------------------------------------------------

    def checkpoint_sync_bytes(self) -> float:
        return self.MANIFEST_BYTES

    def cut_segment(self, checkpoint_id: int) -> ChangelogSegment:
        """Capture everything since the previous cut as a delta segment."""
        groups: Dict[int, tuple] = {}
        delta_bytes = 0.0
        restore_tail = 0.0
        seq_from = self._last_cut_seq
        seq_to = self._seq
        live = set(self._groups)
        for kg, group in self._groups.items():
            version_break = self._cut_versions.get(kg, -1) != group.version
            ops = []
            op_bytes = 0.0
            log, seqs = self._log.get(kg), self._log_seqs.get(kg)
            if log:
                for op, seq in zip(log, seqs):
                    if seq > seq_from:
                        if op[0] == "put" and type(op[2]) in (list, dict):
                            # Freeze a value later writes may mutate.
                            op = ("put", op[1], op[2].copy(), op[3])
                        ops.append(op)
                        op_bytes += (abs(op[1]) if op[0] == "bytes"
                                     else self.bytes_per_entry)
            dirty_bytes = self._dirty.get(kg)
            rebase = kg in self._pending_full or version_break
            if rebase or dirty_bytes is not None:
                groups[kg] = ("full", cut_copy(group.entries),
                              group.size_bytes, group.status)
                self._durable_versions[kg] = group.version
                if rebase:
                    delta_bytes += group.size_bytes + self.bytes_per_entry
                    # Base image becomes durable: restores read it locally.
                    restore_tail += self.bytes_per_entry
                else:
                    # In-place writes never reach the log, so the image
                    # stands in for them (subsuming any logged ops) and is
                    # charged what was actually written.
                    delta_bytes += op_bytes + dirty_bytes
                    restore_tail += op_bytes + dirty_bytes
            elif ops:
                groups[kg] = ("deltas", ops)
                delta_bytes += op_bytes
                restore_tail += op_bytes
            self._cut_versions[kg] = group.version
        for kg in list(self._cut_versions):
            if kg not in live:
                groups[kg] = ("drop",)
                del self._cut_versions[kg]
                self._durable_versions.pop(kg, None)
        full_base = bool(live) and all(
            groups.get(kg, ("",))[0] == "full" for kg in live)
        self._pending_full.clear()
        self._dirty.clear()
        self._last_cut_seq = seq_to
        return ChangelogSegment(
            checkpoint_id=checkpoint_id, seq_from=seq_from, seq_to=seq_to,
            groups=groups, delta_bytes=delta_bytes,
            restore_tail_bytes=restore_tail,
            full_base=full_base or seq_from == 0)

    # -- restore --------------------------------------------------------------

    @staticmethod
    def replay_chain(segments: List["ChangelogSegment"]
                     ) -> Dict[int, KeyGroupState]:
        """Rebuild keyed state from an ordered, contiguous delta chain.

        Raises :class:`ChangelogChainError` on a seq gap or when the
        first segment is neither a whole-state image nor the beginning of
        history — an incomplete chain must never be silently replayed.
        """
        if not segments:
            raise ChangelogChainError("empty delta chain")
        if not segments[0].anchors_chain:
            raise ChangelogChainError(
                f"chain does not anchor: first segment (checkpoint "
                f"{segments[0].checkpoint_id}) starts at seq "
                f"{segments[0].seq_from} and is not a full base")
        for prev, nxt in zip(segments, segments[1:]):
            if nxt.seq_from != prev.seq_to:
                raise ChangelogChainError(
                    f"chain gap between checkpoints {prev.checkpoint_id} "
                    f"(..{prev.seq_to}) and {nxt.checkpoint_id} "
                    f"({nxt.seq_from}..)")
        state: Dict[int, KeyGroupState] = {}
        for seg in segments:
            for kg in sorted(seg.groups):
                payload = seg.groups[kg]
                kind = payload[0]
                if kind == "full":
                    _, entries, size, status = payload
                    state[kg] = KeyGroupState(
                        key_group=kg, status=status,
                        size_bytes=size, entries=cut_copy(entries))
                elif kind == "drop":
                    state.pop(kg, None)
                elif kind == "deltas":
                    group = state.get(kg)
                    if group is None:
                        group = KeyGroupState(key_group=kg)
                        state[kg] = group
                    for op in payload[1]:
                        if op[0] == "put":
                            _, key, value, size_delta = op
                            group.entries[key] = value
                            group.size_bytes += size_delta
                        elif op[0] == "del":
                            _, key, size_delta = op
                            group.entries.pop(key, None)
                            group.size_bytes = max(
                                0.0, group.size_bytes + size_delta)
                        else:  # ("bytes", delta)
                            group.size_bytes = max(
                                0.0, group.size_bytes + op[1])
                else:
                    raise ChangelogChainError(
                        f"unknown payload kind {kind!r}")
        return state

    # -- migration fast path --------------------------------------------------

    def changelog_tail_bytes(self, key_group: int) -> Optional[float]:
        """Bytes a migration must move when the destination can fetch the
        durable base and replay only the tail — or None when no durable
        base covers this group's current version (full transfer needed)."""
        group = self._groups.get(key_group)
        if group is None:
            return None
        if self._durable_versions.get(key_group) != group.version:
            return None
        # Ops up to the last cut live in uploaded segments — durable like
        # the base.  Only the un-cut tail has to ride the wire.
        tail = 0.0
        log = self._log.get(key_group)
        if log:
            for op, seq in zip(log, self._log_seqs[key_group]):
                if seq > self._last_cut_seq:
                    tail += (abs(op[1]) if op[0] == "bytes"
                             else self.bytes_per_entry)
        return (tail + self._dirty.get(key_group, 0.0)
                + self.bytes_per_entry)


@dataclass
class StateTransferCostModel:
    """Costs that make up the paper's inherent overhead :math:`L_o`.

    ``extract_seconds_per_group`` models state extraction + serialization
    set-up per migration unit; bytes then move at the link bandwidth (shared
    with data traffic is approximated by a dedicated fraction).
    """

    extract_seconds_per_group: float = 0.002
    #: Fraction of link bandwidth state transfer may use (data keeps flowing).
    bandwidth_fraction: float = 0.5
    #: Fixed per-transfer handshake overhead (seconds).
    handshake_seconds: float = 0.001

    def transfer_seconds(self, size_bytes: float, bandwidth: float,
                         latency: float) -> float:
        effective = max(bandwidth * self.bandwidth_fraction, 1.0)
        return (self.handshake_seconds + latency
                + size_bytes / effective)
