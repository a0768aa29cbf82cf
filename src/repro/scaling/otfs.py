"""The generalized on-the-fly-scaling (OTFS) framework of §II-B.

One coupled scaling barrier carries both the routing confirmation and the
migration trigger:

1. **Synchronization** — the barrier is injected (at the sources by default,
   or directly at the predecessors), propagates through the topology like a
   checkpoint barrier with per-operator alignment, and predecessors update
   their routing tables as they forward it.  Scaling instances block each
   input channel on barrier arrival until fully aligned.
2. **State migration** — once an original instance is aligned, its outgoing
   key-groups migrate either *all-at-once* (one synchronized batch, Fig. 1b)
   or *fluid* (one key-group at a time, resuming per arrival, Fig. 1c).

New instances suspend whenever the engine delivers a record whose state has
not arrived (no record scheduling in the baseline).
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from ..engine.operators import OperatorInstance
from ..engine.state import StateStatus
from .base import ScaleSignalBarrier, ScalingController
from .plan import MigrationPlan

__all__ = ["OTFSController"]


class OTFSController(ScalingController):
    """Generalized OTFS with coupled signals and configurable migration."""

    name = "otfs"

    def __init__(self, job, migration: str = "fluid",
                 injection: str = "source",
                 scheduling: bool = False,
                 buffer_size: int = 200,
                 control_latency: float = 0.002):
        super().__init__(job, control_latency=control_latency)
        if migration not in ("fluid", "all_at_once"):
            raise ValueError(f"unknown migration mode: {migration}")
        if injection not in ("source", "predecessor"):
            raise ValueError(f"unknown injection mode: {injection}")
        self.migration = migration
        self.injection = injection
        self.scheduling = scheduling
        self.buffer_size = buffer_size
        self._align: Dict = {}
        self._plan: Optional[MigrationPlan] = None
        self._op_name: Optional[str] = None
        self._route_set: Set[str] = set()
        self._remaining: Set[int] = set()
        self._complete = None
        self._aligned_old: Set[int] = set()

    # -- main flow ---------------------------------------------------------------

    def _execute(self, op_name, plan, scale_id):
        self._plan = plan
        self._op_name = op_name
        self._route_set = self._upstream_closure(op_name) | {op_name}
        self._remaining = set(plan.migrating_groups)
        self._complete = self.sim.event()
        self._aligned_old = set()
        self.job.signal_router = self._on_signal

        new_instances = yield from self._provision(op_name, plan)
        instances = self.job.instances(op_name)
        old_instances = instances[:plan.old_parallelism]
        scaling_instances = old_instances + new_instances

        # Pre-register migration lifecycle state.
        for move in plan.moves:
            instances[move.src_index].state.require_group(
                move.key_group).status = StateStatus.PENDING_OUT
            instances[move.dst_index].state.register_group(
                move.key_group, StateStatus.INCOMING)

        self._attach_suspension_probes(scaling_instances)
        saved = self._install_handlers(scaling_instances,
                                       scheduling=self.scheduling,
                                       buffer_size=self.buffer_size)

        yield from self._inject_phase(op_name, plan, scale_id, phase=0,
                                      routing=plan.routing_updates())
        if self._remaining:
            yield self._complete
        self._restore_handlers(saved)
        self._detach_suspension_probes(scaling_instances)
        self._finalize_assignment(op_name, plan)

    def _inject_phase(self, op_name, plan, scale_id, phase, routing,
                      anchor=None):
        """Send the coupled barrier for one phase into the dataflow."""
        signal_id = (scale_id, phase)
        for kg in routing:
            self.metrics.assign_group(kg, signal_id, anchor_id=anchor)
        barrier = ScaleSignalBarrier(scale_id=scale_id, phase=phase,
                                     routing_updates=dict(routing))
        yield self.sim.timeout(self.control_latency)
        self.metrics.signal_injected(signal_id, self.sim.now)
        if self.injection == "source":
            for source in self.job.sources():
                source.inject(ScaleSignalBarrier(
                    scale_id=scale_id, phase=phase,
                    routing_updates=dict(routing)))
        else:
            for sender, _edge in self.job.senders_to(op_name):
                sender.run_inband(self._make_injection(barrier))

    def _make_injection(self, barrier):
        def inject(instance):
            self._apply_routing(instance, barrier)
            yield from self._forward(instance, barrier,
                                     only_to=self._op_name)
        return inject

    # -- signal propagation -----------------------------------------------------------

    def _upstream_closure(self, op_name: str) -> Set[str]:
        closure: Set[str] = set()
        frontier = [op_name]
        while frontier:
            name = frontier.pop()
            for up in self.job.graph.upstream_of(name):
                if up not in closure:
                    closure.add(up)
                    frontier.append(up)
        return closure

    def _role(self, instance: OperatorInstance) -> str:
        if instance.spec.name == self._op_name:
            if instance.index < self._plan.old_parallelism:
                return "old"
            return "new"
        if instance.spec.name in self.job.graph.upstream_of(self._op_name):
            return "predecessor"
        return "other"

    def _on_signal(self, instance, channel, signal):
        """In-band dispatch for coupled barriers (generator)."""
        if not isinstance(signal, ScaleSignalBarrier):
            return
        role = self._role(instance)
        if role in ("old", "new"):
            self._align_scaling_instance(instance, channel, signal, role)
            return
        key = (id(instance), signal.signal_key)
        token = ("scale", signal.signal_key)
        seen = self._align.setdefault(key, set())
        if channel is not None:
            channel.block(token)
            seen.add(id(channel))
        needed = {id(ch) for ch in instance.input_channels
                  if not ch.is_auxiliary}
        if channel is None or seen >= needed:
            self._align.pop(key, None)
            if role == "predecessor":
                self._apply_routing(instance, signal)
            for ch in instance.input_channels:
                ch.unblock(token)
            instance.wake.fire()
            yield from self._forward(instance, signal)

    def _align_scaling_instance(self, instance, channel, signal, role):
        key = (id(instance), signal.signal_key)
        token = ("scale", signal.signal_key)
        seen = self._align.setdefault(key, set())
        if channel is not None:
            channel.block(token)
            seen.add(id(channel))
        needed = {id(ch) for ch in instance.input_channels
                  if not ch.is_auxiliary}
        if seen >= needed:
            self._align.pop(key, None)
            for ch in instance.input_channels:
                ch.unblock(token)
            instance.wake.fire()
            mig_key = (instance.index, signal.signal_key)
            if role == "old" and mig_key not in self._aligned_old:
                self._aligned_old.add(mig_key)
                self._start_migration(instance, signal)

    def _apply_routing(self, instance, signal) -> None:
        for edge in instance.router.edges:
            if edge.dst_op == self._op_name:
                for kg, dst in signal.routing_updates.items():
                    edge.set_routing(kg, dst)

    def _forward(self, instance, signal, only_to: Optional[str] = None):
        """Pass the barrier on towards the scaling operator: down every
        path into ``only_to``, or into the upstream closure by default.
        Returns what the caller ``yield from``s (empty when every send was
        accepted at once)."""
        return instance.router.forward(
            ScaleSignalBarrier(scale_id=signal.scale_id, phase=signal.phase,
                               routing_updates=dict(signal.routing_updates)),
            dst_ops=self._route_set if only_to is None else {only_to}) or ()

    # -- migration ------------------------------------------------------------------

    def _start_migration(self, src: OperatorInstance, signal) -> None:
        moves = [m for m in self._plan.moves
                 if m.src_index == src.index
                 and m.key_group in signal.routing_updates]
        if not moves:
            return
        instances = self.job.instances(self._op_name)
        if self.migration == "fluid":
            self.sim.spawn(self._fluid_migration(src, moves, instances),
                           name=f"migrate:{src.name}")
        else:
            self.sim.spawn(self._batch_migration(src, moves, instances),
                           name=f"migrate:{src.name}")

    def _fluid_migration(self, src, moves, instances):
        for move in moves:
            dst = instances[move.dst_index]
            yield from self._transfer_group(src, dst, move.key_group,
                                            arrival_status=StateStatus.LOCAL)
            self._mark_done(move.key_group)

    def _batch_migration(self, src, moves, instances):
        """All-at-once: one synchronized batch per source instance."""
        cost_model = self.job.config.transfer
        extracted = []
        total_size = 0.0
        for move in moves:
            yield from self._wait_until_idle(src, move.key_group)
            if cost_model.extract_seconds_per_group > 0:
                yield self.sim.timeout(cost_model.extract_seconds_per_group)
            group = src.state.require_group(move.key_group)
            self.metrics.note_migration_started(move.key_group, self.sim.now)
            extracted.append((move, group.entries, group.size_bytes))
            total_size += group.size_bytes
            group.entries = {}
            group.size_bytes = 0.0
            group.status = StateStatus.MIGRATED_OUT
            group.bump_version()
        src.wake.fire()
        link = self.job.link_between(src, instances[moves[0].dst_index])
        yield self.sim.timeout(cost_model.transfer_seconds(
            total_size, link.bandwidth, link.latency))
        for move, entries, size in extracted:
            dst = instances[move.dst_index]
            group = dst.state.group(move.key_group)
            if group is None:
                group = dst.state.register_group(move.key_group,
                                                 StateStatus.LOCAL)
            group.entries = entries
            group.size_bytes = size
            group.status = StateStatus.LOCAL
            group.bump_version()
            self.metrics.note_migration_completed(move.key_group,
                                                  self.sim.now)
            dst.wake.fire()
            self._mark_done(move.key_group)

    def _mark_done(self, key_group: int) -> None:
        self._remaining.discard(key_group)
        if not self._remaining and self._complete is not None:
            if not self._complete.triggered:
                self._complete.succeed()
