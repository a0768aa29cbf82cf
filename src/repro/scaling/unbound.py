"""The "Unbound" probe of §II-B: performance without correctness.

Unbound updates routing tables and triggers state migration independently —
no scaling-signal propagation — and converts record keys into "universal
keys" so every local state may process any record, eliminating processing
suspensions entirely.  It therefore removes :math:`L_p` and :math:`L_s` and
hides :math:`L_d` from the latency signal, bounding how fast *any* correct
mechanism could possibly be (Fig. 2).

Correctness is intentionally violated: records may execute against missing
or stale state.  Use only as an experimental lower bound.
"""

from __future__ import annotations

from ..engine.state import StateStatus
from .base import ScalingController

__all__ = ["UnboundController"]


class UnboundController(ScalingController):
    """Lower-bound probe: instant routing flip, background migration."""

    name = "unbound"
    unrestorable = ("its universal keys apply records against missing or "
                    "stale state, which no checkpoint restore makes "
                    "exactly-once")

    def _input_handler(self, instance):
        # Universal keys: every record is processable everywhere, so the
        # instance's own handler stays.
        return None

    def _execute(self, op_name, plan, scale_id):
        yield from self._provision(op_name, plan)
        instances = self.job.instances(op_name)

        # Routing tables flip instantly and out-of-band: no signals at all.
        signal_id = (scale_id, 0)
        self.metrics.signal_injected(signal_id, self.sim.now)
        routing = plan.routing_updates()
        for kg in routing:
            self.metrics.assign_group(kg, signal_id)
        for _sender, edge in self.job.senders_to(op_name):
            for kg, dst in routing.items():
                edge.set_routing(kg, dst)

        # Universal keys at the new instances: pre-register empty LOCAL
        # groups so any record can execute immediately (state or not).
        for move in plan.moves:
            dst = instances[move.dst_index]
            if dst.state.group(move.key_group) is None:
                dst.state.register_group(move.key_group, StateStatus.LOCAL)

        # Background migration, fluid, one path at a time per source.
        events = []
        for src_index, moves in self._moves_by_src(plan).items():
            src = instances[src_index]
            events.append(self._spawn_migration(
                self._migrate(src, moves, instances),
                f"unbound-migrate:{src.name}"))
        if events:
            yield self.sim.all_of(events)

    @staticmethod
    def _moves_by_src(plan):
        by_src = {}
        for move in plan.moves:
            by_src.setdefault(move.src_index, []).append(move)
        return by_src

    def _migrate(self, src, moves, instances):
        for move in moves:
            yield from self._transfer_group(src, instances[move.dst_index],
                                            move.key_group)

    def _install(self, dst, flight, arrival_status):
        # Merge into the universal-key group instead of replacing it: the
        # destination may already have processed records for it.  Stale-
        # state hazard, accepted by design: destination-side updates made
        # while the state was in flight win over migrated values.
        group = dst.state.require_group(flight.key_group)
        merged = dict(flight.entries)
        merged.update(group.entries)
        group.entries = merged
        group.size_bytes += flight.size_bytes
        group.status = StateStatus.LOCAL
        group.bump_version()
