"""Checkpoint-based failure recovery (the fault-tolerance half of §IV-C).

The scaling mechanisms coexist with Flink-style fault tolerance; this
module completes the substrate: snapshots taken by the aligned-checkpoint
machinery are *retained* (state copies + source offsets), and a failure
rolls the whole job back to the newest completed checkpoint —

1. every instance pauses, all in-flight channel contents are discarded,
2. each instance's keyed state is restored from its snapshot,
3. sources rewind to their checkpointed offsets and replay,
4. processing resumes after a restart delay + state-restore time.

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

A failure that strikes while scaling is in flight first asks the active
controller to abort and roll the migration back (DRRS supports this;
controllers without an ``abort_and_rollback`` method still raise), then
restores as usual; the controller's retry waits on
``job.recovery_barrier`` so it cannot race the restore.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .keys import KeyGroupAssignment
from .operators import OperatorInstance
from .records import CheckpointBarrier, RecordBatch
from .runtime import SourceInstance, StreamJob
from .state import (ChangelogChainError, KeyGroupState, StateStatus,
                    cut_copy)

__all__ = ["RecoveryManager", "RecoveryError"]


class RecoveryError(RuntimeError):
    """Raised when recovery is impossible (no checkpoint, scaling active)."""


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
    completed_at: Optional[float] = None
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
    #: Changelog backends only: the delta segment each instance cut for
    #: this checkpoint (instance name -> ChangelogSegment).  The chain of
    #: segments back to the nearest anchor is what a restore must re-read;
    #: the checkpoint is complete only once every segment's asynchronous
    #: upload has landed.
    segments: Dict[str, object] = field(default_factory=dict)


class RecoveryManager:
    """Retains checkpoint snapshots and performs rollback recovery."""

    def __init__(self, job: StreamJob,
                 restart_seconds: float = 1.0,
                 restore_bandwidth: float = 400e6,
                 retain_checkpoints: int = 5):
        if retain_checkpoints < 1:
            raise ValueError("retain_checkpoints must be >= 1")
        self.job = job
        self.restart_seconds = restart_seconds
        self.restore_bandwidth = restore_bandwidth
        #: Newest-N completed checkpoints kept restorable; older ones (and
        #: superseded incomplete ones) are dropped, and source replay
        #: history older than the oldest retained checkpoint is trimmed.
        self.retain_checkpoints = retain_checkpoints
        self._checkpoints: Dict[int, _Checkpoint] = {}
        #: Changelog segment store, ``(instance name, checkpoint id) ->
        #: ChangelogSegment``.  Deliberately *not* tied to checkpoint
        #: lifetime: a segment outlives its own checkpoint for as long as
        #: any retained checkpoint's delta chain runs through it (e.g. the
        #: anchoring full image of a checkpoint whose upload was slow and
        #: which was superseded before completing).  Pruned only below the
        #: newest anchor the oldest retained checkpoint can reach.
        self._segments: Dict[Tuple[str, int], object] = {}
        #: Retained checkpoint ids, ascending (iteration newest-first).
        self._cids: List[int] = []
        #: Ids of retained checkpoints that are still aligning — the only
        #: ones the auxiliary-lane hold has to consider.
        self._open_cids: List[int] = []
        #: Latched once any checkpoint has captured a key-group (non-empty
        #: ``folded``) — until then no record can need compensating.
        self._captured = False
        self.recoveries: List[Tuple[float, int]] = []
        self._installed = False
        self._recover_proc = None
        self._pending_dones: List = []

    # -- installation ------------------------------------------------------------

    def install(self) -> "RecoveryManager":
        """Start retaining snapshots; sources begin keeping replay history."""
        if self._installed:
            return self
        self._installed = True
        # The batched plane stays on and collapses only for the duration
        # of a restore (:meth:`_recover`).
        self.job.snapshot_listener = self._on_snapshot
        self.job.flight_landed_hook = self._on_flight_landed
        self.job.record_capture_listener = self._on_record
        self.job.aux_hold_hook = self._should_hold_aux
        self.job.upload_listeners.append(self._on_upload)
        for source in self.job.sources():
            source.enable_replay_history()
        return self

    def _reindex(self) -> None:
        self._cids = sorted(self._checkpoints)
        self._open_cids = [cid for cid in self._cids
                           if self._checkpoints[cid].completed_at is None]

    def _on_snapshot(self, instance: OperatorInstance,
                     barrier: CheckpointBarrier) -> None:
        checkpoint = self._checkpoints.get(barrier.checkpoint_id)
        if checkpoint is None:
            checkpoint = _Checkpoint(
                barrier.checkpoint_id,
                assignments={op: assignment.copy()
                             for op, assignment
                             in self.job.assignments.items()})
            self._checkpoints[barrier.checkpoint_id] = checkpoint
            # §IV-C fold, taken eagerly: bytes already on the wire when
            # this checkpoint is born are captured *now*, frozen as of
            # extraction (nothing mutates an unlanded flight).  Waiting
            # for the source's own barrier would capture the same frozen
            # copy later — by which time the destination may have applied
            # pre-cut records to the landed group, which the frozen copy
            # cannot contain and which would then silently vanish.  With
            # the capture on record, those records are compensated
            # through :meth:`_on_record` instead.
            for (op, kg), flight in self.job.inflight_state.items():
                checkpoint.prefolds[(op, kg)] = (
                    flight.src_name,
                    KeyGroupState(key_group=kg, status=StateStatus.LOCAL,
                                  size_bytes=flight.size_bytes,
                                  entries=cut_copy(flight.entries)))
                checkpoint.folded[(op, kg)] = flight.src_name
            self._reindex()
        if self.job.scaling_active:
            checkpoint.mid_scaling = True
        snapshot = _InstanceSnapshot(state=instance.state.snapshot())
        if isinstance(instance, SourceInstance):
            snapshot.source_offset = instance.consumed_elements
        op_name = instance.spec.name
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
            if (op, kg) in checkpoint.folded:
                continue
            snapshot.state[kg] = KeyGroupState(
                key_group=kg, status=StateStatus.LOCAL,
                size_bytes=flight.size_bytes,
                entries=cut_copy(flight.entries))
            checkpoint.folded[(op, kg)] = instance.name
        # First capture wins: a key-group someone else already captured is
        # scrubbed from this snapshot (the landed copy at a destination
        # would otherwise be a second, differently-timed capture).
        for (op, kg), src_name in list(checkpoint.folded.items()):
            if op != op_name or instance.name == src_name:
                continue
            snapshot.state.pop(kg, None)
        # Plain claims: key-groups whose bytes this snapshot holds and that
        # no one captured yet are captured here and now.  Recording the
        # claim is what lets _on_record spot post-capture stragglers.
        for kg, group in snapshot.state.items():
            if group.status in (StateStatus.MIGRATED_OUT,
                                StateStatus.INCOMING):
                continue
            checkpoint.folded.setdefault((op_name, kg), instance.name)
        # Changelog backends: adopt the delta segment the runtime cut for
        # this snapshot (the cut happens before the listeners fire, so it
        # is always registered by now).
        segment = self.job.changelog_segments.pop(
            (instance.name, barrier.checkpoint_id), None)
        if segment is not None:
            checkpoint.segments[instance.name] = segment
            self._segments[(instance.name, barrier.checkpoint_id)] = \
                segment
        checkpoint.snapshots[instance.name] = snapshot
        if checkpoint.folded:
            self._captured = True
        self._maybe_complete(checkpoint)

    def _on_upload(self, instance_name: str, checkpoint_id: int,
                   segment) -> None:
        """An asynchronous segment upload landed — re-check completeness.

        A landing upload can unblock *later* checkpoints too (their delta
        chains reference every earlier segment), so every still-open
        checkpoint is re-checked oldest-first.  Uploads for checkpoints
        already completed, pruned, or discarded (incomplete at a restore)
        are ignored."""
        for cid in sorted(self._checkpoints):
            checkpoint = self._checkpoints.get(cid)
            if checkpoint is None or checkpoint.completed_at is not None:
                continue
            self._maybe_complete(checkpoint)

    def _uploads_done(self, checkpoint: _Checkpoint) -> bool:
        # The checkpoint's delta chain references every earlier segment,
        # so it is durable only once all uploads up to and including its
        # own id have landed.
        cid = checkpoint.checkpoint_id
        return not any(pending_cid <= cid
                       for _, pending_cid in self.job.pending_uploads)

    def _maybe_complete(self, checkpoint: _Checkpoint) -> None:
        if (self._covers_everything(checkpoint)
                and self._uploads_done(checkpoint)):
            checkpoint.completed_at = self.job.sim.now
            self._prune()
            self._reindex()

    def _on_flight_landed(self, flight, dst: OperatorInstance) -> None:
        """A migrating key-group just installed at its destination.

        Closes the remaining fold race: the destination's barrier passed
        *before* the bytes arrived (its snapshot shows no bytes) and the
        source's barrier has not arrived yet (its snapshot will show only a
        ``MIGRATED_OUT`` stub).  Amend the destination's snapshot with the
        landed bytes — they are exactly the state as of extraction, which
        no one has mutated in between.
        """
        for checkpoint in self._checkpoints.values():
            if checkpoint.completed_at is not None:
                continue
            key = (flight.op_name, flight.key_group)
            if key in checkpoint.folded:
                continue
            if flight.src_name in checkpoint.snapshots:
                continue
            frozen = KeyGroupState(
                key_group=flight.key_group, status=StateStatus.LOCAL,
                size_bytes=flight.size_bytes,
                entries=cut_copy(flight.entries))
            dst_snapshot = checkpoint.snapshots.get(dst.name)
            if dst_snapshot is not None:
                dst_snapshot.state[flight.key_group] = frozen
            else:
                # Destination not aligned yet: park the frozen capture; it
                # replaces the live group when the destination's barrier
                # arrives (records applied in between are compensated via
                # _on_record, which sees the capture on record below).
                checkpoint.prefolds[key] = (dst.name, frozen)
            checkpoint.folded[key] = dst.name
            self._captured = True

    def _on_record(self, instance: OperatorInstance, record) -> None:
        """Record-level checkpoint compensation (the aux-lane gap closer).

        Called for every record an instance is about to apply.  A retained
        checkpoint whose cut the record *precedes* (``src_seq < source
        offset``) but whose capture of the record's key-group has already
        been taken cannot contain the record's effect in any snapshot — it
        travelled an alignment-free path (re-route lane, rollback queue) or
        reached a group captured early (prefold).  Queue it for re-injection
        should that checkpoint ever be restored.
        """
        seq = record.src_seq
        if seq is None or not self._captured:
            return
        origin = record.src_origin
        op = instance.spec.name
        kg = record.key_group
        for cid in reversed(self._cids):
            checkpoint = self._checkpoints.get(cid)
            if checkpoint is None:
                continue
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

    def _should_hold_aux(self, instance: OperatorInstance,
                         element) -> bool:
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
        if not self._open_cids:
            return False
        seq = getattr(element, "src_seq", None)
        if seq is None:
            return False
        origin = element.src_origin
        name = instance.name
        for cid in self._open_cids:
            checkpoint = self._checkpoints.get(cid)
            if checkpoint is None or name in checkpoint.snapshots:
                continue
            snapshot = checkpoint.snapshots.get(origin)
            offset = None if snapshot is None else snapshot.source_offset
            if offset is not None and seq >= offset:
                return True
        return False

    def _covers_everything(self, checkpoint: _Checkpoint) -> bool:
        return checkpoint.snapshots.keys() >= self.job.live_instance_names()

    def _prune(self) -> None:
        """Satellite of checkpoint completion: bound retention.

        Keeps the newest :attr:`retain_checkpoints` completed checkpoints,
        drops completed ones beyond that and incomplete ones older than the
        oldest retained (their barriers can no longer complete), and trims
        source replay history below the oldest retained offset.
        """
        completed = sorted(c.checkpoint_id
                           for c in self._checkpoints.values()
                           if c.completed_at is not None)
        if not completed:
            return
        retained = set(completed[-self.retain_checkpoints:])
        oldest = min(retained)
        for cid in list(self._checkpoints):
            ckpt = self._checkpoints[cid]
            if ckpt.completed_at is not None:
                if cid not in retained:
                    del self._checkpoints[cid]
            elif cid < oldest:
                del self._checkpoints[cid]
        oldest_ckpt = self._checkpoints[oldest]
        for source in self.job.sources():
            snapshot = oldest_ckpt.snapshots.get(source.name)
            if snapshot is not None and snapshot.source_offset is not None:
                source.trim_history_before(snapshot.source_offset)
        # Changelog segments below the newest anchor the oldest retained
        # checkpoint can reach are unreachable from every restorable
        # chain — drop them.  Segments *between* that anchor and the
        # oldest retained checkpoint stay, even when their own checkpoint
        # is long gone.
        for name in {name for name, _cid in self._segments}:
            cids = sorted(cid for n, cid in self._segments if n == name)
            anchor = None
            for cid in cids:
                if cid > oldest:
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
        """Newest complete, restorable checkpoint."""
        done = [c for c in self._checkpoints.values()
                if c.completed_at is not None]
        return max(done, key=lambda c: c.checkpoint_id) if done else None

    def checkpoint(self, checkpoint_id: int) -> Optional[_Checkpoint]:
        """A retained checkpoint by id (None once pruned)."""
        return self._checkpoints.get(checkpoint_id)

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
        operation is in flight, the controller is asked to abort and roll
        the migration back first (``abort_and_rollback``; controllers
        without one still make this an error).  Calling again while a
        recovery is already restoring models a *double failure*: the
        in-flight restore is abandoned and recovery restarts from scratch.
        """
        if not self._installed:
            raise RecoveryError("RecoveryManager not installed")
        checkpoint = self.latest_completed()
        if checkpoint is None:
            raise RecoveryError("no completed checkpoint to recover from")
        job = self.job
        if job.scaling_active:
            scalers = list(job.active_scalers)
            unsupported = [s for s in scalers
                           if not hasattr(s, "abort_and_rollback")]
            if unsupported:
                names = ", ".join(s.name for s in unsupported)
                raise RecoveryError(
                    f"a scaling operation ({names}) is in flight and the "
                    "controller cannot abort it; complete or cancel it "
                    "before injecting a failure")
            if job.recovery_barrier is None:
                job.recovery_barrier = job.sim.event()
            for scaler in scalers:
                scaler.abort_and_rollback(reason, retry=True)
        if job.recovery_barrier is None:
            job.recovery_barrier = job.sim.event()
        if self._recover_proc is not None and self._recover_proc.is_alive:
            # Double failure: abandon the half-done restore and start over.
            self._recover_proc.interrupt(reason)
        done = job.sim.event()
        self._pending_dones.append(done)
        self._recover_proc = job.sim.spawn(
            self._recover(checkpoint),
            name=f"recover:ckpt-{checkpoint.checkpoint_id}")
        return done

    def _settle(self, error: Optional[BaseException],
                value=None) -> None:
        dones, self._pending_dones = self._pending_dones, []
        for done in dones:
            if done.triggered:
                continue
            if error is not None:
                done.fail(error)
            else:
                done.succeed(value)

    def _release_barrier(self) -> None:
        barrier = self.job.recovery_barrier
        self.job.recovery_barrier = None
        if barrier is not None and not barrier.triggered:
            barrier.succeed()

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

    def _recover(self, checkpoint: _Checkpoint):
        job = self.job
        sim = job.sim
        self.recoveries.append((sim.now, checkpoint.checkpoint_id))
        restore_span = None
        if job.telemetry is not None:
            restore_span = job.telemetry.tracer.begin(
                "recovery.restore", category="recovery", track="recovery",
                checkpoint_id=checkpoint.checkpoint_id)

        # 0. Fail fast — before tearing anything down — when the checkpoint
        # covers instances that no longer exist (decommissioned by a
        # completed scale-in).  Surfaced through the done event: raising
        # here would explode inside a spawned process nobody observes.
        current_names = {inst.name for inst in job.all_instances()}
        missing = set(checkpoint.snapshots) - current_names
        if missing:
            error = RecoveryError(
                f"checkpoint {checkpoint.checkpoint_id} covers "
                f"decommissioned instances {sorted(missing)}; no "
                "restorable checkpoint exists")
            if restore_span is not None:
                job.telemetry.tracer.end(restore_span, failed=True)
            self._release_barrier()
            self._settle(error)
            return
        try:
            derived = self._derived_owners(checkpoint)
        except RecoveryError as error:
            if restore_span is not None:
                job.telemetry.tracer.end(restore_span, failed=True)
            self._release_barrier()
            self._settle(error)
            return

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
        for cid in list(self._checkpoints):
            if self._checkpoints[cid].completed_at is None:
                del self._checkpoints[cid]
        self._reindex()
        # Segments newer than the restore point belong to those discarded
        # cuts; post-restore backends re-anchor (``restart_changelog``),
        # so the pre-crash tail must not shadow the fresh chain.
        for name, cid in list(self._segments):
            if cid > checkpoint.checkpoint_id:
                del self._segments[(name, cid)]

        # 1b. Sweep alignment-free lanes (re-route channels, rollback
        # queues, re-route manager buffers) for stranded *pre-cut* records
        # before everything is flushed.  Regular channels cannot hold
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
                for element, epoch in backing._wire:
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
            instance._pending_checkpoint.clear()
            snapshot = checkpoint.snapshots.get(instance.name)
            if snapshot is not None:
                full_bytes = sum(g.size_bytes
                                 for g in snapshot.state.values())
                if getattr(instance.state, "is_incremental", False):
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
            yield sim.timeout(total_bytes / self.restore_bandwidth)

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
                    if hasattr(instance.state, "restart_changelog"):
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
            if hasattr(instance.state, "restart_changelog"):
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
            targets = job.instances(op)
            if owner >= len(targets):
                continue
            for input_channel in targets[owner].input_channels:
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
        self._release_barrier()
        self._settle(None, checkpoint.checkpoint_id)
