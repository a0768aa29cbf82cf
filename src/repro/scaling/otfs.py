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

from typing import List, Optional, Set

from ..engine.operators import OperatorInstance
from ..engine.state import StateStatus
from .base import ScaleSignalBarrier, ScalingController

__all__ = ["OTFSController"]


class OTFSController(ScalingController):
    """Generalized OTFS with coupled signals and configurable migration."""

    name = "otfs"
    #: Naive Division: wait for each batch before injecting the next, and
    #: anchor every batch's dependency at the first sub-reconfiguration.
    sequential = False

    def __init__(self, job, migration: str = "fluid",
                 injection: str = "source",
                 scheduling: bool = False):
        super().__init__(job)
        if migration not in ("fluid", "all_at_once"):
            raise ValueError(f"unknown migration mode: {migration}")
        if injection not in ("source", "predecessor"):
            raise ValueError(f"unknown injection mode: {injection}")
        self.migration = migration
        self.injection = injection
        self.scheduling = scheduling
        self._route_set: Set[str] = set()
        self._remaining: Set[int] = set()
        self._complete = None
        self._aligned_old: Set[int] = set()

    # -- main flow ---------------------------------------------------------------

    def _batches(self, groups: List[int]) -> List[List[int]]:
        """The migrating key-groups split into one coupled barrier each."""
        return [groups]

    def _execute(self, op_name, plan, scale_id):
        self._route_set = self._upstream_closure(op_name) | {op_name}
        yield from self._provision(op_name, plan)
        instances = self.job.instances(op_name)
        groups = plan.migrating_groups  # lexicographic, as the paper's C1
        anchor = (scale_id, 0) if self.sequential else None
        self._remaining = set(groups)
        self._complete = self.sim.event()
        for phase, batch in enumerate(self._batches(groups)):
            # Lifecycle marking: only injected batches are in flight.
            routing = {}
            for kg in batch:
                move = plan.move_for(kg)
                routing[kg] = move.dst_index
                instances[move.src_index].state.require_group(
                    kg).status = StateStatus.PENDING_OUT
                instances[move.dst_index].state.register_group(
                    kg, StateStatus.INCOMING)
            self._aligned_old = set()
            if self.sequential:
                self._remaining = set(batch)
                self._complete = self.sim.event()
            yield from self._inject_phase(op_name, plan, scale_id,
                                          phase=phase, routing=routing,
                                          anchor=anchor)
            if self.sequential and self._remaining:
                yield self._complete
        if self._remaining:
            yield self._complete

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
                    routing_updates=dict(routing), controller=self))
        else:
            for sender, _edge in self.job.senders_to(op_name):
                sender.run_inband(self._make_injection(barrier))

    def _make_injection(self, barrier):
        def inject(instance):
            self._apply_routing(instance, barrier)
            yield from self._forward(instance, barrier,
                                     only_to=self._op_name)
        return self._guarded(inject)

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

    def on_signal(self, instance, channel, signal):
        """In-band arrival of a coupled barrier (generator): align, then
        act by role — a predecessor flips its routing, every instance
        outside the scaling operator passes the barrier on, and an
        original instance of it starts migrating."""
        token = ("scale", signal.signal_key)
        alignment = instance.alignment(token)
        if not alignment.arrive(channel):
            return
        del instance.alignments[token]
        self._apply_routing(instance, signal)  # a no-op off predecessors
        alignment.release()
        if instance.spec.name != self._op_name:
            yield from self._forward(instance, signal)
            return
        mig_key = (instance.index, signal.signal_key)
        if (instance.index < self._plan.old_parallelism
                and mig_key not in self._aligned_old):
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
                               routing_updates=dict(signal.routing_updates),
                               controller=self),
            dst_ops=self._route_set if only_to is None else {only_to}) or ()

    # -- migration ------------------------------------------------------------------

    def _start_migration(self, src: OperatorInstance, signal) -> None:
        moves = [m for m in self._plan.moves
                 if m.src_index == src.index
                 and m.key_group in signal.routing_updates]
        if not moves:
            return
        instances = self.job.instances(self._op_name)
        migrate = (self._fluid_migration if self.migration == "fluid"
                   else self._batch_migration)
        self._spawn_migration(migrate(src, moves, instances),
                              f"migrate:{src.name}")

    def _fluid_migration(self, src, moves, instances):
        for move in moves:
            dst = instances[move.dst_index]
            yield from self._transfer_group(src, dst, move.key_group,
                                            arrival_status=StateStatus.LOCAL)
            self._mark_done(move.key_group)

    def _batch_migration(self, src, moves, instances):
        """All-at-once: extract every group, ship the summed bytes in one
        synchronized batch per source instance, then land each group."""
        extracted = []
        for move in moves:
            dst = instances[move.dst_index]
            flight, wire_bytes, span = yield from self._extract(
                src, dst, move.key_group)
            extracted.append((dst, flight, wire_bytes, span))
        yield from self._ship(src, extracted[0][0],
                              sum(wire for _d, _f, wire, _s in extracted),
                              moves[0].key_group)
        for dst, flight, _wire, span in extracted:
            self._land(flight, dst, StateStatus.LOCAL, span)
            self._mark_done(flight.key_group)

    def _mark_done(self, key_group: int) -> None:
        self._remaining.discard(key_group)
        if not self._remaining and self._complete is not None:
            if not self._complete.triggered:
                self._complete.succeed()
