"""Scale Executor (B): per-instance scaling machinery (§IV-A).

One :class:`ScaleExecutor` runs on every scaling-operator instance and hosts
the paper's worker-side modules:

* **Scale Input Handler (B1)** — :class:`DRRSInputHandler` replaces the
  native input handler and classifies every incoming element: barriers go to
  the Barrier Handler, processable records to the native path, temporarily
  unprocessable records to the Suspend Manager, migrated-out records to the
  Re-route Manager.
* **Barrier Handler (B2)** — trigger barriers start the subscale's state
  migration (first one wins, duplicates ignored); confirm barriers are
  re-routed to the migration target.
* **Suspend Manager (B3)** — suspension happens only when *all* swappable
  records are unprocessable (delegated to the Record Scheduling scans).
* **Re-route Manager (B4)** — order-preserving forwarding of migrated-out
  records and confirm barriers (see :mod:`repro.core.rerouting`).

An instance may simultaneously be the *source* of some subscales and the
*destination* of others (uniform repartitioning moves key-groups between old
instances too); the executor tracks both directions.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, TYPE_CHECKING

from ..engine.channels import InputChannel
from ..engine.operators import OperatorInstance
from ..engine.records import LatencyMarker, Record, StreamElement
from ..engine.state import StateStatus
from ..scaling.base import MigrationAwareHandler
from .barriers import ConfirmBarrier, TriggerBarrier
from .planner import Subscale
from .rerouting import ReRouteManager

if TYPE_CHECKING:  # pragma: no cover
    from .drrs import DRRSController

__all__ = ["ScaleExecutor", "DRRSInputHandler", "READY", "INTERNAL", "BLOCKED"]

READY = "ready"
INTERNAL = "internal"
BLOCKED = "blocked"


class ScaleExecutor:
    """Worker-side scaling state for one scaling-operator instance."""

    def __init__(self, controller: "DRRSController",
                 instance: OperatorInstance):
        self.controller = controller
        self.instance = instance
        self.out_subscales: Dict[int, Subscale] = {}
        self.in_subscales: Dict[int, Subscale] = {}
        self.kg_out: Dict[int, Subscale] = {}
        self.kg_in: Dict[int, Subscale] = {}
        self.reroute_managers: Dict[int, ReRouteManager] = {}
        self._triggered: Set[int] = set()

    # -- Scale Coordinator notifications (A1) -------------------------------------

    def register_out(self, subscale: Subscale) -> None:
        """This instance is the migration source of ``subscale``."""
        self.out_subscales[subscale.subscale_id] = subscale
        for kg in subscale.key_groups:
            self.kg_out[kg] = subscale

    def expect_subscale(self, subscale: Subscale) -> None:
        """This instance is the migration target of ``subscale``."""
        self.in_subscales[subscale.subscale_id] = subscale
        for kg in subscale.key_groups:
            self.kg_in[kg] = subscale
            if self.instance.state.group(kg) is None:
                self.instance.state.register_group(kg, StateStatus.INCOMING)
        self.instance.wake.fire()

    def shutdown(self) -> None:
        for manager in self.reroute_managers.values():
            manager.close()

    # -- Barrier Handler (B2) -----------------------------------------------------

    def on_trigger(self, barrier: TriggerBarrier) -> None:
        """Control-lane delivery: trigger barriers bypass all caches."""
        if barrier.subscale_id in self._triggered:
            return  # duplicates from other predecessors are ignored
        self._triggered.add(barrier.subscale_id)
        subscale = self.out_subscales.get(barrier.subscale_id)
        if subscale is None:
            return
        for kg in subscale.key_groups:
            group = self.instance.state.group(kg)
            if group is not None and group.status is StateStatus.LOCAL:
                group.status = StateStatus.PENDING_OUT
        self.controller.start_subscale_migration(subscale)

    def on_confirm(self, barrier: ConfirmBarrier) -> None:
        """In-band confirm barrier at the source: re-route it (B4)."""
        subscale = self.out_subscales.get(barrier.subscale_id)
        if subscale is None:
            return
        self.reroute_manager_for(subscale).forward_barrier(barrier)

    def on_rerouted_confirm(self, barrier: ConfirmBarrier) -> None:
        """Re-routed confirm barrier consumed at the destination."""
        subscale = self.in_subscales.get(barrier.subscale_id)
        if subscale is None:
            return
        subscale.arrived_predecessors.add(barrier.predecessor_id)
        if subscale.aligned:
            self.activate_subscale(subscale)
        self.controller.on_subscale_progress(subscale)
        self.instance.wake.fire()

    def activate_subscale(self, subscale: Subscale) -> None:
        """Implicit alignment achieved: inactive states become active."""
        for kg in subscale.key_groups:
            group = self.instance.state.group(kg)
            if group is not None and group.status is StateStatus.INACTIVE:
                group.status = StateStatus.LOCAL

    # -- Re-route Manager (B4) ------------------------------------------------------

    def reroute_manager_for(self, subscale: Subscale) -> ReRouteManager:
        dst = self.controller.scaling_instances()[subscale.dst_index]
        key = id(dst)
        manager = self.reroute_managers.get(key)
        if manager is None:
            channel = self.controller.job.create_direct_channel(
                self.instance, dst, name_suffix="reroute")
            manager = ReRouteManager(
                self.instance.sim, channel,
                telemetry=self.controller.job.telemetry)
            self.reroute_managers[key] = manager
        return manager

    def reroute_record(self, element: StreamElement) -> None:
        subscale = self.kg_out[element.key_group]
        self.reroute_manager_for(subscale).forward_record(element)
        count = element.count if isinstance(element, Record) else 1
        self.controller.metrics.note_reroute(count)
        telemetry = self.controller.job.telemetry
        if telemetry is not None:
            telemetry.registry.counter(
                "drrs.records_rerouted",
                operator=self.instance.spec.name).inc(count)

    # -- element classification (the heart of B1) -------------------------------------

    def classify(self, channel: Optional[InputChannel],
                 element: StreamElement) -> str:
        """READY to process, INTERNAL to consume here, or BLOCKED."""
        if isinstance(element, ConfirmBarrier):
            return INTERNAL
        key_group = getattr(element, "key_group", None)
        if key_group is None:
            return READY  # watermarks, checkpoint barriers, EOS, ...
        out_sub = self.kg_out.get(key_group)
        if out_sub is not None:
            group = self.instance.state.group(key_group)
            if group is None or group.status is StateStatus.MIGRATED_OUT:
                return INTERNAL  # state left: re-route (Fig. 4c)
            return READY  # LOCAL or PENDING_OUT: still processable (Fig. 4b)
        in_sub = self.kg_in.get(key_group)
        if in_sub is not None:
            group = self.instance.state.group(key_group)
            if group is None or group.status is StateStatus.INCOMING:
                return BLOCKED  # bytes not here yet
            if group.status is StateStatus.LOCAL:
                return READY
            # INACTIVE: bytes arrived, implicit alignment pending.
            if self.controller.config.record_scheduling:
                # Fluid confirmation: this channel alone must be confirmed.
                sender = channel.channel.sender if (
                    channel is not None and channel.channel is not None) \
                    else None
                if sender is not None and (
                        id(sender) in in_sub.arrived_predecessors):
                    return READY
                return BLOCKED
            return BLOCKED  # global implicit alignment required
        return READY  # untouched key-group

    def rerouted_ready(self, element: StreamElement) -> bool:
        """Re-routed records need their state bytes, nothing more."""
        key_group = getattr(element, "key_group", None)
        if key_group is None:
            return True
        group = self.instance.state.group(key_group)
        return group is not None and group.status in (
            StateStatus.INACTIVE, StateStatus.LOCAL, StateStatus.PENDING_OUT)

    def consume_internal(self, channel: Optional[InputChannel],
                         element: StreamElement) -> None:
        if isinstance(element, ConfirmBarrier):
            self.on_confirm(element)
        else:
            self.reroute_record(element)


class DRRSInputHandler(MigrationAwareHandler):
    """Scale Input Handler (B1): classification + Record Scheduling.

    Record Scheduling itself is the shared :class:`MigrationAwareHandler`;
    this handler adds Phase 0 (re-routed lanes and INTERNAL consumption)
    and judges readiness by :meth:`ScaleExecutor.classify`.
    """

    def __init__(self, instance: OperatorInstance, executor: ScaleExecutor,
                 scheduling: bool, buffer_size: int = 200):
        super().__init__(instance, executor.controller,
                         scheduling=scheduling, buffer_size=buffer_size)
        self.executor = executor

    def _ready(self, channel, element) -> bool:
        return self.executor.classify(channel, element) == READY

    def _switched(self) -> None:
        telemetry = self.instance.job.telemetry
        if telemetry is not None:
            telemetry.registry.counter(
                "drrs.inter_channel_switches",
                operator=self.instance.spec.name).inc()

    def _bypassed(self) -> None:
        telemetry = self.instance.job.telemetry
        if telemetry is not None:
            telemetry.registry.counter(
                "drrs.intra_channel_bypasses",
                operator=self.instance.spec.name).inc()

    def poll(self):
        executor = self.executor
        channels = self.instance.input_channels
        if not channels:
            self.suspended = False
            return None

        # Phase 0 — priority lanes and internal consumption.
        aux_blocked = False
        progress = True
        while progress:
            progress = False
            for channel in channels:
                if not channel.is_auxiliary:
                    continue
                while channel.queue:
                    head = channel.peek()
                    if isinstance(head, ConfirmBarrier) and head.rerouted:
                        channel.pop()
                        executor.on_rerouted_confirm(head)
                        progress = True
                        continue
                    if isinstance(head, (Record, LatencyMarker)):
                        if executor.rerouted_ready(head):
                            recovery = self.instance.job.recovery
                            if recovery is not None and recovery.holds_aux(
                                    self.instance, head):
                                # Post-barrier element on an alignment-free
                                # lane: parked until this instance aligns
                                # the checkpoint it postdates (§IV-C).
                                aux_blocked = True
                                break
                            # Re-routed records are special events: processed
                            # immediately, unaffected by suspension (§III-A).
                            return channel, channel.pop()
                        aux_blocked = True
                    break
            for channel in channels:
                if channel.is_auxiliary or channel.blocked:
                    continue
                while channel.queue:
                    head = channel.peek()
                    if executor.classify(channel, head) == INTERNAL:
                        channel.pop()
                        executor.consume_internal(channel, head)
                        progress = True
                    else:
                        break

        # Phase 1/2 — Record Scheduling over the regular channels.
        polled = self._select([ch for ch in channels
                               if not ch.is_auxiliary])
        if polled is None and aux_blocked:
            self.suspended = True
        return polled

    def _poll_committed(self, channels):
        """Engine order with head commitment; an INTERNAL item at the
        committed head is consumed here, since it never blocks."""
        channel = self._committed
        if channel is not None:
            head = channel.peek()
            if head is not None and (self.executor.classify(channel, head)
                                     == INTERNAL):
                channel.pop()
                self.executor.consume_internal(channel, head)
                self._committed = None
        return super()._poll_committed(channels)
