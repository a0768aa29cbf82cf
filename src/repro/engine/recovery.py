"""Checkpoint-based failure recovery (the fault-tolerance half of §IV-C).

The scaling mechanisms coexist with Flink-style fault tolerance; this
module completes the substrate: snapshots taken by the aligned-checkpoint
machinery are *retained* (state copies + source offsets), and a failure
rolls the whole job back to the newest completed checkpoint —

1. every instance pauses, all in-flight channel contents are discarded,
2. each instance's keyed state is restored from its snapshot,
3. sources rewind to their checkpointed offsets and replay,
4. processing resumes after a restart delay + state-restore time.

Since a restore reads only the newest completed checkpoint, that is the
one completed checkpoint retained: once one completes, every older
checkpoint, the source replay history before its offsets and the
changelog segments its delta chains cannot reach are dropped.  Open
checkpoints newer than it stay until they complete or a restore
discards them.

Semantics delivered (matching Flink without transactional sinks):
**exactly-once state** — post-recovery keyed state reflects each input
record exactly once — and **at-least-once output** (records processed
between the checkpoint and the failure are emitted again on replay).

Checkpoints taken **during** a scaling operation are restorable (§IV-C):
key-group bytes that are on the wire between two instances when a
checkpoint barrier passes are *folded* into the snapshot of the instance
they departed from, and a scrub drops any double capture at the
destination.  At restore time, key-group ownership is re-derived from
where the snapshot actually holds the bytes, so a checkpoint cut
mid-migration restores a consistent (possibly mixed old/new) assignment.

A failure that strikes while scaling is in flight first aborts the
requested or running rescale, whose done event fails with
``RescaleAborted``.  The abort only stops the migration: the restore
rebuilds state, routing and assignments from the checkpoint as for any
other failure.  The caller re-requests the rescale;
``rescale_until_done`` waits on ``job.recovery_barrier`` first, so the
re-request cannot race the restore.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .keys import KeyGroupAssignment
from .operators import OperatorInstance
from .records import RecordBatch
from .runtime import SourceInstance, StreamJob
from .state import (ChangelogChainError, KeyGroupState, StateStatus,
                    cut_copy)

__all__ = ["RecoveryManager", "RecoveryError"]


class RecoveryError(RuntimeError):
    """Raised when recovery is impossible (no restorable checkpoint)."""


@dataclass
class _InstanceSnapshot:
    state: Dict[int, KeyGroupState]
    #: For sources: how many admitted elements had been consumed.
    source_offset: Optional[int] = None


@dataclass
class _Checkpoint:
    checkpoint_id: int
    #: instance name -> snapshot
    snapshots: Dict[str, _InstanceSnapshot] = field(default_factory=dict)
    #: Diagnostic: any snapshot of this checkpoint was taken while a
    #: scaling operation was in flight.  Such checkpoints are restorable
    #: (migrating bytes are folded into the departing instance's snapshot,
    #: §IV-C); the flag only feeds reporting and tests.
    mid_scaling: bool = False
    #: Key-group assignments at checkpoint time.  Restore *derives* the
    #: effective owner of each key-group from where the snapshots hold its
    #: bytes; this map is the fallback for groups no snapshot claims.
    assignments: Dict[str, object] = field(default_factory=dict)
    #: ``(op name, key group) -> instance name``: which snapshot *captured*
    #: each key-group's bytes.  Filled by folds of in-flight transfers, by
    #: landing-time amendments, and by plain aligned snapshots claiming the
    #: bytes they hold.  First capture wins — the scrub drops later claims —
    #: and once a group is captured, records it should contain but that were
    #: applied afterwards are compensated via :attr:`pending_records`.
    folded: Dict[Tuple[str, int], str] = field(default_factory=dict)
    #: Captures taken before their owning instance aligned (bytes in flight
    #: at checkpoint creation, or landed at a not-yet-aligned destination):
    #: ``(op, key group) -> (owner instance name, frozen state)``.  Merged
    #: into the owner's snapshot when it aligns, *replacing* the live group
    #: (post-capture mutations are compensated record-by-record instead).
    prefolds: Dict[Tuple[str, int], Tuple[str, KeyGroupState]] = field(
        default_factory=dict)
    #: Records whose key-group was captured for this checkpoint *before*
    #: they were applied, yet precede the checkpoint's source cut
    #: (``src_seq < source offset``) — their effect is in no snapshot, so
    #: restore re-injects them: ``(op name, key group, record)``.
    pending_records: List[Tuple[str, int, object]] = field(
        default_factory=list)
    #: record_ids already in :attr:`pending_records` (double-failure guard:
    #: a re-injected record re-processed after a first restore must not be
    #: queued twice for the next).
    pending_ids: set = field(default_factory=set)


def _capture(flight) -> KeyGroupState:
    """A frozen copy of a migrating flight's bytes as of extraction; it
    never becomes live, so it draws no stamp from the mutation clock."""
    return KeyGroupState(key_group=flight.key_group,
                         status=StateStatus.LOCAL,
                         size_bytes=flight.size_bytes,
                         entries=cut_copy(flight.entries), version=0)


class RecoveryManager:
    """Retains checkpoint snapshots and performs rollback recovery.

    Installed as ``job.recovery``, it is called directly by the job and
    its instances: :meth:`on_snapshot` and :meth:`on_complete` by the
    job's checkpoint ledger (which alone decides completion),
    :meth:`on_flight_landed` by the scaling controllers, and
    :meth:`on_record` / :meth:`holds_aux` on the record path
    (``on_record`` only once ``job.rescaled`` latched).
    """

    def __init__(self, job: StreamJob, restart_seconds: float = 1.0):
        self.job = job
        self.restart_seconds = restart_seconds
        #: The one checkpoint a restore reads: the newest completed one.
        self._restorable: Optional[_Checkpoint] = None
        #: Checkpoints still aligning, all newer than :attr:`_restorable`
        #: (:meth:`_prune`), in ascending id order: barriers are FIFO, so a
        #: newer id's first snapshot comes later.
        self._open: Dict[int, _Checkpoint] = {}
        #: Changelog segment store, ``(instance name, checkpoint id) ->
        #: ChangelogSegment``.  Deliberately *not* tied to checkpoint
        #: lifetime: a segment outlives its own checkpoint for as long as
        #: the retained checkpoint's delta chain runs through it (e.g. the
        #: anchoring full image of a checkpoint whose upload was slow and
        #: which was superseded before completing).  Pruned only below the
        #: newest anchor the retained checkpoint can reach.
        self._segments: Dict[Tuple[str, int], object] = {}
        #: Ids open in the job's ledger at :meth:`install`: their earlier
        #: snapshots were never retained, so they never become restorable.
        self._unrestorable: frozenset = frozenset()
        #: ``(time, checkpoint id)`` of every restore.
        self.recoveries: List[Tuple[float, int]] = []
        #: Ids of restored checkpoints that were cut mid-scaling
        #: (:attr:`_Checkpoint.mid_scaling`), recorded at restore time.
        self.restored_mid_scaling: set = set()
        self._recover_proc = None
        self._pending_dones: List = []

    # -- installation ------------------------------------------------------------

    def install(self) -> "RecoveryManager":
        """Start retaining snapshots; sources begin keeping replay history."""
        if self.job.recovery is self:
            return self
        # The batched plane stays on and collapses only for the duration
        # of a restore (:meth:`_recover`).
        self.job.recovery = self
        self._unrestorable = frozenset(self.job.open_checkpoints)
        for source in self.job.sources():
            source.enable_replay_history()
        return self

    def on_snapshot(self, instance: OperatorInstance, checkpoint_id: int,
                    segment) -> None:
        """Retain ``instance``'s snapshot for ``checkpoint_id``, with the
        changelog ``segment`` the job cut for it (None for full-copy
        backends)."""
        if segment is not None:
            self._segments[(instance.name, checkpoint_id)] = segment
        checkpoint = self._open.get(checkpoint_id)
        restorable = self._restorable
        if checkpoint is None and restorable is not None \
                and checkpoint_id <= restorable.checkpoint_id:
            # A late joiner (an instance added since) joins the restorable
            # checkpoint.  An older cut is never restored, and every source
            # snapshotted it before the restorable one completed, so it
            # would hold no offset: nothing to hold back or compensate.
            if checkpoint_id < restorable.checkpoint_id:
                return
            checkpoint = restorable
        if checkpoint is None:
            assert not self._open or checkpoint_id > max(self._open)
            checkpoint = _Checkpoint(
                checkpoint_id,
                assignments={op: assignment.copy()
                             for op, assignment
                             in self.job.assignments.items()})
            self._open[checkpoint_id] = checkpoint
            # §IV-C fold, taken eagerly: bytes already on the wire when
            # this checkpoint is born are captured *now*, frozen as of
            # extraction (nothing mutates an unlanded flight).  Waiting
            # for the source's own barrier would capture the same frozen
            # copy later — by which time the destination may have applied
            # pre-cut records to the landed group, which the frozen copy
            # cannot contain and which would then silently vanish.  With
            # the capture on record, those records are compensated
            # through :meth:`on_record` instead.
            for key, flight in self.job.inflight_state.items():
                checkpoint.prefolds[key] = (flight.src_name, _capture(flight))
                checkpoint.folded[key] = flight.src_name
        if self.job.active_scalers:
            checkpoint.mid_scaling = True
        snapshot = _InstanceSnapshot(state=instance.state.snapshot())
        if isinstance(instance, SourceInstance):
            snapshot.source_offset = instance.consumed_elements
        op_name = instance.spec.name
        folded = checkpoint.folded
        # Captures this instance owns that were taken early (prefolds)
        # replace its live view: the frozen copy is the consistent cut,
        # and anything applied since is compensated record-by-record.
        for (op, kg), (owner, frozen) in list(checkpoint.prefolds.items()):
            if op == op_name and owner == instance.name:
                snapshot.state[kg] = frozen
                del checkpoint.prefolds[(op, kg)]
        # Flights in the air *from this instance* at its alignment that no
        # earlier capture covers: fold the frozen bytes into this snapshot —
        # at restore time they land back where they departed.
        for (op, kg), flight in self.job.inflight_state.items():
            if flight.src_name != instance.name:
                continue
            if (op, kg) in folded:
                continue
            snapshot.state[kg] = _capture(flight)
            folded[(op, kg)] = instance.name
        # Plain claims: bytes this snapshot holds that no one captured yet
        # are captured here and now (the claim is what lets on_record spot
        # post-capture stragglers).  First capture wins: a group someone
        # else captured is scrubbed (the landed copy at a destination
        # would be a second, differently-timed capture).
        for kg, group in list(snapshot.state.items()):
            owner = folded.get((op_name, kg))
            if owner is None:
                if group.status not in (StateStatus.MIGRATED_OUT,
                                        StateStatus.INCOMING):
                    folded[(op_name, kg)] = instance.name
            elif owner != instance.name:
                del snapshot.state[kg]
        checkpoint.snapshots[instance.name] = snapshot

    def on_complete(self, checkpoint_id: int) -> None:
        """The job's ledger completed ``checkpoint_id``: make it the one
        restorable checkpoint.  Ignored for ids already pruned (a newer
        checkpoint completed first) and for ids that were open at
        :meth:`install`."""
        if checkpoint_id in self._unrestorable:
            return
        checkpoint = self._open.pop(checkpoint_id, None)
        if checkpoint is None:
            return
        self._restorable = checkpoint
        self._prune(checkpoint)

    def on_flight_landed(self, flight, dst: OperatorInstance) -> None:
        """A migrating key-group just installed at its destination.

        Closes the remaining fold race: the destination's barrier passed
        *before* the bytes arrived (its snapshot shows no bytes) and the
        source's barrier has not arrived yet (its snapshot will show only a
        ``MIGRATED_OUT`` stub).  Amend the destination's snapshot with the
        landed bytes — they are exactly the state as of extraction, which
        no one has mutated in between.
        """
        key = (flight.op_name, flight.key_group)
        for checkpoint in self._open.values():
            if key in checkpoint.folded:
                continue
            if flight.src_name in checkpoint.snapshots:
                continue
            frozen = _capture(flight)
            dst_snapshot = checkpoint.snapshots.get(dst.name)
            if dst_snapshot is not None:
                dst_snapshot.state[flight.key_group] = frozen
            else:
                # Destination not aligned yet: park the frozen capture; it
                # replaces the live group when the destination's barrier
                # arrives (records applied in between are compensated via
                # on_record, which sees the capture on record below).
                checkpoint.prefolds[key] = (dst.name, frozen)
            checkpoint.folded[key] = dst.name

    def on_record(self, instance: OperatorInstance, record) -> None:
        """Record-level checkpoint compensation (the aux-lane gap closer).

        Called for every record an instance is about to apply once a
        rescale has started (``job.rescaled``); before the first one,
        FIFO channels and aligned barriers let no record reach a key-group
        after its capture, so the record path skips the call.  A retained
        checkpoint whose cut the record *precedes* (``src_seq < source
        offset``) but whose capture of the record's key-group has already
        been taken cannot contain the record's effect in any snapshot — it
        travelled an alignment-free path (a re-route lane) or
        reached a group captured early (prefold).  Queue it for re-injection
        should that checkpoint ever be restored.
        """
        seq = record.src_seq
        if seq is None:
            return
        origin = record.src_origin
        op = instance.spec.name
        kg = record.key_group
        for checkpoint in self._newest_first():
            snapshot = checkpoint.snapshots.get(origin)
            offset = None if snapshot is None else snapshot.source_offset
            if offset is not None and seq >= offset:
                # On/after this cut — and older cuts are only earlier.
                break
            if checkpoint.folded.get((op, kg)) is None:
                continue  # capture still pending: it will include this
            if record.record_id in checkpoint.pending_ids:
                continue
            checkpoint.pending_ids.add(record.record_id)
            checkpoint.pending_records.append((op, kg, record))

    def _newest_first(self):
        yield from reversed(self._open.values())
        if self._restorable is not None:
            yield self._restorable

    def holds_aux(self, instance: OperatorInstance, element) -> bool:
        """Hold a post-cut element on an alignment-free lane (§IV-C).

        Regular channels park post-barrier elements until the receiver has
        aligned; auxiliary lanes do not.  Without this hold, a record
        consumed *after* a checkpoint's cut could be applied before the
        receiving instance snapshots, contaminating a pre-cut capture with
        a post-cut effect (a double-count after restore).  The hold lasts
        only until the instance's own barrier arrives.
        """
        # Re-route lanes are built with batching off; a carrier here would
        # read as "no lineage" and leak its post-cut members.
        assert element.__class__ is not RecordBatch
        if not self._open:
            return False
        seq = getattr(element, "src_seq", None)
        if seq is None:
            return False
        origin = element.src_origin
        name = instance.name
        for checkpoint in self._open.values():
            if name in checkpoint.snapshots:
                continue
            snapshot = checkpoint.snapshots.get(origin)
            offset = None if snapshot is None else snapshot.source_offset
            if offset is not None and seq >= offset:
                return True
        return False

    def _prune(self, newest: _Checkpoint) -> None:
        """Keep only what a restore can use once ``newest`` completed.

        A restore reads the newest completed checkpoint alone (§IV-C), so
        every checkpoint older than it goes — completed ones are
        superseded, open ones can no longer be restored from — source
        replay history is trimmed to its offsets, and changelog segments
        below the newest anchor its chains reach are dropped.
        """
        cut = newest.checkpoint_id
        self._open = {cid: checkpoint
                      for cid, checkpoint in self._open.items() if cid > cut}
        for source in self.job.sources():
            snapshot = newest.snapshots.get(source.name)
            if snapshot is not None and snapshot.source_offset is not None:
                source.trim_history_before(snapshot.source_offset)
        # Segments below the newest anchor the retained checkpoint can
        # reach are in none of its chains.  Segments *between* that anchor
        # and it stay, even when their own checkpoint is long gone.
        for name in {name for name, _cid in self._segments}:
            cids = sorted(cid for n, cid in self._segments if n == name)
            anchor = None
            for cid in cids:
                if cid > cut:
                    break
                if self._segments[(name, cid)].anchors_chain:
                    anchor = cid
            if anchor is None:
                continue
            for cid in cids:
                if cid < anchor:
                    del self._segments[(name, cid)]

    # -- queries --------------------------------------------------------------------

    def latest_completed(self) -> Optional[_Checkpoint]:
        """The restorable checkpoint: the one completed checkpoint kept."""
        return self._restorable

    def restore_chain(self, checkpoint: _Checkpoint,
                      instance_name: str) -> List[object]:
        """The delta chain a restore of ``instance_name`` must replay.

        Walks the segment store newest-to-oldest from ``checkpoint``
        collecting the instance's segments until one anchors the chain
        (whole-state image, or the beginning of history).  Raises
        :class:`~repro.engine.state.ChangelogChainError` when no anchor is
        reachable — an incomplete chain must never be restored from.
        """
        chain: List[object] = []
        cids = sorted((cid for name, cid in self._segments
                       if name == instance_name), reverse=True)
        for cid in cids:
            if cid > checkpoint.checkpoint_id:
                continue
            segment = self._segments[(instance_name, cid)]
            chain.append(segment)
            if segment.anchors_chain:
                chain.reverse()
                return chain
        raise ChangelogChainError(
            f"no anchoring segment for {instance_name} within retained "
            f"checkpoints (chain ending at checkpoint "
            f"{checkpoint.checkpoint_id} is incomplete)")

    # -- recovery ---------------------------------------------------------------------

    def fail_and_recover(self, reason: str = "injected failure") -> "object":
        """Simulate a failure now; returns an Event firing when recovered.

        Rolls every instance back to the newest completed checkpoint and
        replays sources from their checkpointed offsets.  If a scaling
        operation is in flight or requested, its controller aborts it
        first; the restore then repairs the migration's half-done state.
        Calling again while a recovery is already restoring models a
        *double failure*: the in-flight restore is abandoned and recovery
        restarts from scratch.

        When the checkpoint cannot be restored (it covers decommissioned
        instances, or holds a key-group twice) the returned event has
        already failed with a :class:`RecoveryError`, and nothing was
        torn down: a scale in flight keeps running.
        """
        if self.job.recovery is not self:
            raise RecoveryError("RecoveryManager not installed")
        checkpoint = self.latest_completed()
        if checkpoint is None:
            raise RecoveryError("no completed checkpoint to recover from")
        job = self.job
        # A rescale requested in this same instant has not registered in
        # ``active_scalers`` yet; it is aborted all the same.
        scalers = job.active_scalers + job.pending_scalers
        # Fail fast, before anything is aborted or torn down, when the
        # checkpoint covers instances that no longer exist (decommissioned
        # by a completed scale-in) or its snapshots disagree on an owner.
        # An abort is only safe when the restore that repairs it follows.
        current_names = {inst.name for inst in job.all_instances()}
        missing = set(checkpoint.snapshots) - current_names
        try:
            if missing:
                raise RecoveryError(
                    f"checkpoint {checkpoint.checkpoint_id} covers "
                    f"decommissioned instances {sorted(missing)}; no "
                    "restorable checkpoint exists")
            derived = self._derived_owners(checkpoint)
        except RecoveryError as error:
            return job.sim.event().fail(error)
        if job.recovery_barrier is None:
            job.recovery_barrier = job.sim.event()
        for scaler in scalers:
            scaler.abort(reason)
        if self._recover_proc is not None and self._recover_proc.is_alive:
            # Double failure: abandon the half-done restore and start over.
            self._recover_proc.interrupt(reason)
        done = job.sim.event()
        self._pending_dones.append(done)
        self._recover_proc = job.sim.spawn(
            self._recover(checkpoint, derived),
            name=f"recover:ckpt-{checkpoint.checkpoint_id}")
        return done

    def _derived_owners(self, checkpoint: _Checkpoint
                        ) -> Dict[str, Dict[int, int]]:
        """Per keyed operator: key-group → owner index, from the snapshots.

        A snapshot *claims* a key-group when it holds its bytes (``LOCAL``,
        ``PENDING_OUT``, ``INACTIVE``, or a folded group); ``MIGRATED_OUT``
        and ``INCOMING`` stubs never claim.  Groups no snapshot claims fall
        back to the assignment recorded at checkpoint time.  Two snapshots
        claiming the same group is a retention bug → :class:`RecoveryError`.
        """
        derived: Dict[str, Dict[int, int]] = {}
        for op_name in self.job.assignments:
            by_name = {inst.name: inst
                       for inst in self.job.instances(op_name)}
            claimed: Dict[int, int] = {}
            for name, snapshot in checkpoint.snapshots.items():
                instance = by_name.get(name)
                if instance is None:
                    continue
                for kg, group in snapshot.state.items():
                    if group.status in (StateStatus.MIGRATED_OUT,
                                        StateStatus.INCOMING):
                        continue
                    prev = claimed.get(kg)
                    if prev is not None and prev != instance.index:
                        raise RecoveryError(
                            f"checkpoint {checkpoint.checkpoint_id} holds "
                            f"key-group {kg} of {op_name} on two instances "
                            f"(indices {prev} and {instance.index})")
                    claimed[kg] = instance.index
            fallback = checkpoint.assignments.get(op_name)
            if fallback is not None:
                for kg, owner in fallback.as_dict().items():
                    if kg not in claimed and owner < len(by_name):
                        claimed[kg] = owner
            derived[op_name] = claimed
        return derived

    def _recover(self, checkpoint: _Checkpoint,
                 derived: Dict[str, Dict[int, int]]):
        job = self.job
        sim = job.sim
        self.recoveries.append((sim.now, checkpoint.checkpoint_id))
        if checkpoint.mid_scaling:
            self.restored_mid_scaling.add(checkpoint.checkpoint_id)
        restore_span = None
        if job.telemetry is not None:
            restore_span = job.telemetry.tracer.begin(
                "recovery.restore", category="recovery", track="recovery",
                checkpoint_id=checkpoint.checkpoint_id)

        # 1. Halt everything and discard in-flight data.  ``abandon_work``
        # covers the straggler window: an element already mid-service when
        # the failure hit would otherwise be emitted into the freshly
        # flushed channels on wake-up and then *also* replayed — the flag
        # makes the instance discard it instead.  The plane collapses
        # first, so the sweep below sees individual records and the flush
        # cannot strand a carrier count on a cleared queue.
        job.quiesce_batches()
        instances = job.all_instances()
        for instance in instances:
            instance.pause()
            instance.abandon_work = True

        # 1a. Incomplete checkpoints die with the cut they were collecting:
        # their barriers are about to be flushed, so they can never
        # complete, and their half-taken snapshots mix pre-crash state.
        # The job's ledger drops them too.
        self._open.clear()
        job.open_checkpoints.clear()
        # Segments newer than the restore point belong to those discarded
        # cuts; post-restore backends re-anchor (``restart_changelog``),
        # so the pre-crash tail must not shadow the fresh chain.
        for name, cid in list(self._segments):
            if cid > checkpoint.checkpoint_id:
                del self._segments[(name, cid)]

        # 1b. Sweep alignment-free lanes (re-route channels, re-route
        # manager buffers) for stranded *pre-cut* records before
        # everything is flushed.  Regular channels cannot hold
        # pre-cut records of a completed checkpoint — alignment would not
        # have finished over them — so auxiliary lanes are the only leak.
        offsets = {name: snap.source_offset
                   for name, snap in checkpoint.snapshots.items()
                   if snap.source_offset is not None}

        def queue_stranded(op_name, element):
            if not element.is_record:
                return
            seq = element.src_seq
            if seq is None:
                return
            offset = offsets.get(element.src_origin)
            if offset is None or seq >= offset:
                return  # post-cut: source replay re-delivers it
            if element.record_id in checkpoint.pending_ids:
                return
            checkpoint.pending_ids.add(element.record_id)
            checkpoint.pending_records.append(
                (op_name, element.key_group, element))

        for instance in instances:
            op = instance.spec.name
            for input_channel in instance.input_channels:
                if not input_channel.is_auxiliary:
                    continue
                for element in input_channel.queue:
                    queue_stranded(op, element)
                backing = input_channel.channel
                if backing is None:
                    continue
                for element in backing.outbox:
                    queue_stranded(op, element)
                for _ev, element in backing._send_waiters:
                    queue_stranded(op, element)
                for element, epoch, _due in backing._wire:
                    if epoch == backing._epoch:
                        queue_stranded(op, element)
                if (backing._serializing is not None
                        and backing._serializing_epoch == backing._epoch):
                    queue_stranded(op, backing._serializing)
        for hook in job.aux_sweep_hooks:
            for op, element in hook():
                queue_stranded(op, element)

        total_bytes = 0.0
        for instance in instances:
            for channel in instance.router.all_channels():
                channel.flush()
            for input_channel in instance.input_channels:
                input_channel.queue.clear()
                input_channel.block_tokens.clear()
            # Every alignment but end-of-stream waits on a barrier the
            # flush just discarded: an open checkpoint's, or an aborted
            # rescale's coupled one.
            for token in [t for t in instance.alignments if t[0] != "eos"]:
                del instance.alignments[token]
            snapshot = checkpoint.snapshots.get(instance.name)
            if snapshot is not None:
                full_bytes = sum(g.size_bytes
                                 for g in snapshot.state.values())
                if instance.state.is_incremental:
                    # Local recovery: the materialized base is durable and
                    # locally available — restore re-reads only the delta
                    # tail back to the nearest anchor.  A broken chain
                    # falls back to the full-state cost.
                    try:
                        chain = self.restore_chain(checkpoint,
                                                   instance.name)
                    except ChangelogChainError:
                        chain = None
                    if chain is not None:
                        full_bytes = min(full_bytes, sum(
                            seg.restore_tail_bytes for seg in chain))
                total_bytes += full_bytes
        job.inflight_state.clear()

        # 2. Restart + restore costs.
        yield sim.timeout(self.restart_seconds)
        if total_bytes > 0:
            yield sim.timeout(total_bytes / job.snapshot_bandwidth)

        # 3. Restore state, routing and source offsets.  Ownership is
        # derived from where the snapshots hold each group's bytes, so a
        # checkpoint cut mid-migration restores the mixed assignment it
        # actually captured.
        for op_name, owner_map in derived.items():
            assignment = KeyGroupAssignment(
                job.graph.num_key_groups,
                len(job.instances(op_name)), owner_map)
            job.assignments[op_name] = assignment
            for _sender, edge in job.senders_to(op_name):
                for kg, owner in owner_map.items():
                    edge.set_routing(kg, owner)
        for instance in instances:
            snapshot = checkpoint.snapshots.get(instance.name)
            owner_map = derived.get(instance.spec.name)
            if snapshot is None:
                # Added after the checkpoint: starts empty, receives no
                # routed records under the restored assignment.
                if instance.spec.keyed:
                    instance.state._groups = {}
                    if instance.state.is_incremental:
                        instance.state.restart_changelog()
                continue
            restored = {}
            for kg, group in snapshot.state.items():
                if group.status in (StateStatus.MIGRATED_OUT,
                                    StateStatus.INCOMING):
                    continue
                if owner_map is not None \
                        and owner_map.get(kg) != instance.index:
                    continue
                restored[kg] = KeyGroupState(
                    key_group=kg, status=StateStatus.LOCAL,
                    size_bytes=group.size_bytes,
                    entries=cut_copy(group.entries))
            if owner_map is not None:
                # Groups this instance owns but no snapshot held bytes for
                # (fallback-assigned): start them empty and LOCAL.
                for kg, owner in owner_map.items():
                    if owner == instance.index and kg not in restored:
                        restored[kg] = KeyGroupState(
                            key_group=kg, status=StateStatus.LOCAL)
            instance.state._groups = restored
            if instance.state.is_incremental:
                # Re-anchor: the pre-failure log is meaningless against
                # the restored state; the next cut carries a whole-state
                # image so later chains anchor past the restore.
                instance.state.restart_changelog()
            instance.current_watermark = float("-inf")
            for input_channel in instance.input_channels:
                if not input_channel.is_auxiliary:
                    input_channel.watermark = float("-inf")
            if (isinstance(instance, SourceInstance)
                    and snapshot.source_offset is not None):
                instance.rewind_to(snapshot.source_offset)

        # 3.5 Re-inject compensation records: pre-cut records whose effect
        # the snapshots cannot contain (applied after their key-group's
        # capture, or stranded on an alignment-free lane at the crash).
        # They go to the restored owner's input queue ahead of replay; the
        # list stays with the checkpoint so a second failure restoring the
        # same checkpoint re-injects them again.
        for op, kg, record in checkpoint.pending_records:
            owner_map = derived.get(op)
            owner = None if owner_map is None else owner_map.get(kg)
            if owner is None:
                continue
            for input_channel in job.instances(op)[owner].input_channels:
                if not input_channel.is_auxiliary:
                    input_channel.deliver(record)
                    break

        # 4. Resume.
        for instance in instances:
            instance.abandon_work = False
            instance.resume()
        if restore_span is not None:
            job.telemetry.tracer.end(restore_span,
                                     restored_bytes=total_bytes)
        barrier, job.recovery_barrier = job.recovery_barrier, None
        if barrier is not None and not barrier.triggered:
            barrier.succeed()
        dones, self._pending_dones = self._pending_dones, []
        for done in dones:
            if not done.triggered:
                done.succeed(checkpoint.checkpoint_id)
