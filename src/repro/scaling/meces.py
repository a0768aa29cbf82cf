"""Meces-style baseline: single synchronization + prioritized fetch-on-demand.

Modelled on the paper's re-implementation (§V-A):

* **Single synchronization**: one coupled barrier injected at the
  predecessors updates all routing at once — no alignment blocking, so
  Meces has the lowest cumulative propagation overhead (Fig. 12).
* **Hierarchical State Organization**: each key-group splits into
  ``sub_groups`` independently movable sub-key-groups.
* **Fetch-on-Demand**: whichever instance needs a sub-key-group it does not
  hold issues a priority fetch and suspends until it arrives.  Because
  records keep arriving at the *original* instance until the barrier passes,
  hot sub-key-groups bounce back and forth between instances — the
  remigration storms and high suspension time of Fig. 13.
* A **background pusher** migrates the remaining sub-key-groups toward their
  planned owners at low priority.
* Per §V-A, Meces runs *without* the 200-record scheduling buffer (it made
  fetch-on-demand more aggressive and hurt performance).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Set, Tuple

from ..engine.keys import key_to_key_group
from ..engine.operators import Alignment, OperatorInstance
from ..engine.records import Record
from ..engine.state import StateStatus
from .base import ScaleSignalBarrier, ScalingController

__all__ = ["MecesController"]


class MecesController(ScalingController):
    """Fetch-on-demand rescaling with hierarchical sub-key-groups."""

    name = "meces"
    unrestorable = ("its sub-key-group moves split a key-group across "
                    "instances, and the RecoveryManager's checkpoint fold "
                    "captures whole key-groups only")

    def __init__(self, job, sub_groups: int = 4):
        super().__init__(job)
        if sub_groups < 1:
            raise ValueError("sub_groups must be >= 1")
        self.sub_groups = sub_groups
        #: (key_group, sub) → current holder instance.
        self._sub_owner: Dict[Tuple[int, int], OperatorInstance] = {}
        #: (key_group, sub) currently on the wire.
        self._in_flight: Set[Tuple[int, int]] = set()
        self._move_counts: Dict[Tuple[int, int], int] = {}
        self._tasks = deque()
        self._task_wake = None
        #: The original instances' counting alignments of the barrier.
        self._epochs: List[Alignment] = []
        self._migration_enabled = False
        self._done_event = None

    # -- sub-key-group helpers ----------------------------------------------------

    def sub_of_key(self, key) -> int:
        return key_to_key_group(("meces-sub", key), self.sub_groups)

    def sub_of_record(self, record: Record) -> int:
        return self.sub_of_key(record.key)

    def _holds(self, instance: OperatorInstance, key_group: int,
               sub: int) -> bool:
        return self._sub_owner.get((key_group, sub)) is instance

    # -- processability + fetch-on-demand side effect ---------------------------------

    def record_ready(self, instance, record) -> bool:
        kg = record.key_group
        if self._plan is None or kg not in self._moving:
            group = instance.state.group(kg)
            return group is not None and group.processable
        sub = self.sub_of_record(record)
        if self._holds(instance, kg, sub):
            return True
        # Fetch-on-demand: request the missing sub-key-group, then suspend.
        self._request_fetch(instance, kg, sub, priority=True)
        return False

    def _request_fetch(self, requester, key_group, sub,
                       priority: bool) -> None:
        if (key_group, sub) in self._in_flight:
            return
        task = (requester, key_group, sub)
        if task in self._tasks:
            if priority and self._tasks[0] != task:
                # Fetch-on-demand outranks the background pusher: promote
                # the queued task to the head of the transfer queue.
                self._tasks.remove(task)
                self._tasks.appendleft(task)
            return
        if priority:
            self._tasks.appendleft(task)
        else:
            self._tasks.append(task)
        if self._task_wake is not None:
            self._task_wake.fire()

    # -- main flow -----------------------------------------------------------------

    def _execute(self, op_name, plan, scale_id):
        from ..simulation.primitives import Signal

        self._moving = set(plan.migrating_groups)
        self._task_wake = Signal(self.sim)
        self._done_event = self.sim.event()

        yield from self._provision(op_name, plan)
        instances = self.job.instances(op_name)

        # Ownership map: every sub of every moving group starts at its src.
        for move in plan.moves:
            src = instances[move.src_index]
            for sub in range(self.sub_groups):
                self._sub_owner[(move.key_group, sub)] = src
                self._move_counts[(move.key_group, sub)] = 0
            instances[move.dst_index].state.register_group(
                move.key_group, StateStatus.INCOMING)
        self._epochs = [Alignment(inst, ("scale", (scale_id, 0)),
                                  blocking=False)
                        for inst in instances[:plan.old_parallelism]]

        # Single synchronization: routing for every move flips at once.
        signal_id = (scale_id, 0)
        for kg in self._moving:
            self.metrics.assign_group(kg, signal_id)
        barrier = ScaleSignalBarrier(scale_id=scale_id, phase=0,
                                     routing_updates=plan.routing_updates())
        yield self.sim.timeout(self.control_latency)
        self.metrics.signal_injected(signal_id, self.sim.now)
        for sender, edge in self.job.senders_to(op_name):
            sender.run_inband(self._make_injection(barrier, edge))
        self._migration_enabled = True

        transfer_proc = self.sim.spawn(self._transfer_executor(),
                                       name="meces-transfers")
        pusher_proc = self.sim.spawn(self._background_pusher(instances),
                                     name="meces-pusher")

        yield self._done_event
        for move in plan.moves:
            dst = instances[move.dst_index]
            dst.state.require_group(move.key_group).status = StateStatus.LOCAL
        self._task_wake.fire()  # let the executor observe completion and exit

    def _make_injection(self, barrier, edge):
        def inject(instance):
            for kg, dst in barrier.routing_updates.items():
                edge.set_routing(kg, dst)
            for ch in edge.channels:
                yield ch.send(ScaleSignalBarrier(
                    scale_id=barrier.scale_id, phase=barrier.phase,
                    routing_updates={}, controller=self))
        return inject

    def on_signal(self, instance, channel, signal):
        """Barrier arrival at scaling instances: no blocking, just epochs."""
        if instance.spec.name != self._op_name:
            return
        for epoch in self._epochs:
            if epoch.instance is instance:
                epoch.arrive(channel)
        self._check_done()
        return
        yield  # pragma: no cover - makes this a generator

    # -- transfers -------------------------------------------------------------------

    def _transfer_executor(self):
        """Serialized sub-key-group transfer service with priority queue."""
        cost_model = self.job.config.transfer
        while self.active:
            while not self._tasks:
                if not self.active:
                    return
                yield self._task_wake.wait()
                if not self.active:
                    return
            requester, kg, sub = self._tasks.popleft()
            holder = self._sub_owner.get((kg, sub))
            if holder is requester or holder is None:
                continue
            self._in_flight.add((kg, sub))
            yield from self._wait_until_idle(holder, kg)
            src_group = holder.state.group(kg)
            if self._move_counts[(kg, sub)] == 0:
                self.metrics.note_migration_started(kg, self.sim.now)
            # Extract this sub's share of entries and bytes: the holder's
            # bytes split evenly over the subs it holds (one moves at a
            # time, so none of them is on the wire).
            held = sum(self._holds(holder, kg, s)
                       for s in range(self.sub_groups))
            share = src_group.size_bytes / held
            moved_entries = {k: v for k, v in src_group.entries.items()
                             if self.sub_of_key(k) == sub}
            for k in moved_entries:
                del src_group.entries[k]
            src_group.bump_version()
            src_group.size_bytes = max(0.0, src_group.size_bytes - share)
            if held == 1:
                src_group.status = StateStatus.MIGRATED_OUT
            if cost_model.extract_seconds_per_group > 0:
                yield self.sim.timeout(
                    cost_model.extract_seconds_per_group / self.sub_groups)
            yield from self._ship(holder, requester, share, kg)
            dst_group = requester.state.group(kg)
            if dst_group is None:
                dst_group = requester.state.register_group(
                    kg, StateStatus.LOCAL)
            dst_group.entries.update(moved_entries)
            dst_group.size_bytes += share
            dst_group.bump_version()
            dst_group.status = StateStatus.LOCAL
            self._sub_owner[(kg, sub)] = requester
            self._in_flight.discard((kg, sub))
            count = self._move_counts[(kg, sub)] + 1
            self._move_counts[(kg, sub)] = count
            if count > 1:
                self.metrics.note_remigration()
            if self._group_at_target(kg):
                self.metrics.note_migration_completed(kg, self.sim.now)
            holder.wake.fire()
            requester.wake.fire()
            self._check_done()

    def _background_pusher(self, instances):
        """Low-priority push of every sub not yet at its planned owner."""
        while self.active and self._done_event is not None \
                and not self._done_event.triggered:
            progress = False
            for move in self._plan.moves:
                target = instances[move.dst_index]
                for sub in range(self.sub_groups):
                    key = (move.key_group, sub)
                    if (self._sub_owner.get(key) is not target
                            and key not in self._in_flight):
                        self._request_fetch(target, move.key_group, sub,
                                            priority=False)
                        progress = True
            self._check_done()
            yield self.sim.timeout(0.05 if progress else 0.02)

    # -- completion -----------------------------------------------------------------

    def _group_at_target(self, kg: int) -> bool:
        instances = self.job.instances(self._op_name)
        target = instances[self._plan.move_for(kg).dst_index]
        return all(self._sub_owner.get((kg, sub)) is target
                   for sub in range(self.sub_groups))

    def _check_done(self) -> None:
        if self._done_event is None or self._done_event.triggered:
            return
        if not self._migration_enabled:
            return
        # 1) every old instance has seen the barrier on every channel
        #    (no more pre-epoch records can arrive and trigger fetch-backs);
        if not all(epoch.complete() for epoch in self._epochs):
            return
        # 2) every sub of every moving group rests at its planned owner.
        for kg in self._moving:
            if not self._group_at_target(kg):
                return
        if self._in_flight or self._tasks:
            return
        self._done_event.succeed()
