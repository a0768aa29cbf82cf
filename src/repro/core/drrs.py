"""DRRS: the paper's on-the-fly scaling method, and its ablation variants.

:class:`DRRSController` wires the three mechanisms together:

* Decoupling and Re-routing (§III-A) — decoupled trigger/confirm barriers
  with predecessor injection and implicit alignment at the receiver;
* Record Scheduling (§III-B) — inter-/intra-channel execution-order
  adjustments within a bounded buffer;
* Subscale Division (§III-C) — independent subscales scheduled greedily
  under a per-node concurrency threshold.

:func:`make_variant` builds the four systems of the Fig. 14 isolation test:
``"drrs"`` (all three), ``"dr"`` (Decoupling and Re-routing only),
``"schedule"`` (Record Scheduling on a conventional coupled-signal scaling),
and ``"subscale"`` (Subscale Division driven by coupled signals, whose
mutual synchronization interference the paper highlights).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..engine.keys import KeyGroupAssignment
from ..engine.runtime import StreamJob
from ..engine.state import StateStatus
from ..scaling.base import RescaleAborted, ScalingController
from ..scaling.otfs import OTFSController
from ..simulation.primitives import Signal
from .barriers import ConfirmBarrier, TriggerBarrier
from .executor import DRRSInputHandler, ScaleExecutor
from .planner import Subscale, SubscalePlanner

__all__ = ["DRRSConfig", "DRRSController", "CoupledSubscaleController",
           "make_variant"]


@dataclass
class DRRSConfig:
    """Per-mechanism toggles and tunables (defaults = the paper's).

    Decoupling and Re-routing is always on; :func:`make_variant` builds the
    coupled-signal ablations.
    """

    #: Record Scheduling: inter-channel switching and intra-channel
    #: bypassing within ``schedule_buffer``.
    record_scheduling: bool = True
    #: Subscale Division; when False the scale runs as one undivided
    #: subscale per migration path.
    subscale_division: bool = True
    #: Target number of subscales for the lexicographic division (C1).
    num_subscales: int = 16
    #: Per-node concurrent-subscale threshold (§IV-A).
    max_concurrent_per_node: int = 2
    #: Subscale scheduling strategy: "greedy" (paper default: fewest held
    #: keys first) or "fifo" (lexicographic order).
    subscale_strategy: str = "greedy"
    #: Bounded pre-serialization buffer for Record Scheduling (items).
    schedule_buffer: int = 200

    def __post_init__(self):
        if self.schedule_buffer < 1:
            raise ValueError("schedule_buffer must be >= 1")


class DRRSController(ScalingController):
    """DRRS on-the-fly rescaling (Decoupling/Re-routing + Scheduling +
    Subscale Division).

    The controller is the master-side Scale Coordinator (A, §IV-A): its
    Topology Updater (A0) provisions the new instances and installs the
    Scale Input Handlers (B1); its Subscale Handler (A1) schedules the
    planner's subscales (C1) greedily under the per-node concurrency
    threshold and commands the predecessors to inject the decoupled
    signals.  It also supersedes requests (§IV-B).
    """

    name = "drrs"

    def __init__(self, job: StreamJob, config: Optional[DRRSConfig] = None):
        super().__init__(job)
        self.config = config or DRRSConfig()
        self._executors: Dict[int, object] = {}
        self._completion_signal = None
        self._wave_spans: Dict[int, object] = {}
        #: Set by ``cancel`` and ``abort``, cleared by each new request (not
        #: when its scale process starts): a request aborted in its own
        #: instant, before that process ran, still ends on the partial
        #: commit, never committing its target or decommissioning.
        self.cancelled = False
        # Failure recovery sweeps re-route manager buffers: records parked
        # there live outside any channel, so a teardown flush would
        # silently drop them (pre-checkpoint ones would be lost for good).
        job.aux_sweep_hooks.append(self._sweep_reroute_buffers)

    def _sweep_reroute_buffers(self):
        """Drain every re-route manager buffer for recovery's sweep.

        Returns ``(op name, element)`` pairs for every buffered element
        (recovery keeps the pre-cut records) and *empties* the buffers —
        post-restore, pre-cut records are re-injected and post-cut ones
        replayed, so letting the drain process flush the stale copies into
        the fresh epoch would double-deliver them.  The executors go with
        their buffers: a later sweep has nothing of this scale to drain.
        """
        swept = []
        for executor in self._executors.values():
            op = executor.instance.spec.name
            for manager in executor.reroute_managers.values():
                swept.extend((op, element) for element in manager._buffer)
                manager._buffer.clear()
        self._executors = {}
        return swept

    # -- concurrent executions (§IV-B) ----------------------------------------------

    def request_rescale(self, op_name: str, new_parallelism: int):
        """Start (or supersede) a rescale of ``op_name``.

        If a scaling operation is already in flight for this controller,
        it is terminated (§IV-B case 1): no further subscales launch, the
        ones already running complete, the partial result is committed,
        and the new request then plans from the partially migrated state —
        avoiding redundant data migrations.  An abort of either scale
        fails the returned event with :class:`RescaleAborted`.
        """
        if not self.active:
            self.cancelled = False
            return super().request_rescale(op_name, new_parallelism)
        previous_done = self._current_done
        self.cancel()
        done = self.sim.event()

        def chain():
            try:
                yield previous_done
                self.cancelled = False
                done.succeed((yield super(DRRSController, self)
                              .request_rescale(op_name, new_parallelism)))
            except RescaleAborted:
                done.fail(RescaleAborted(op_name, new_parallelism,
                                         self._aborted))

        self.sim.spawn(chain(), name=f"supersede:{op_name}")
        return done

    def cancel(self) -> None:
        """Terminate the in-flight scaling operation after the subscales
        already launched have completed."""
        if self.active:
            self.cancelled = True
            if self._completion_signal is not None:
                self._completion_signal.fire()

    # -- ScalingController hooks ---------------------------------------------------

    def _input_handler(self, instance):
        executor = ScaleExecutor(self, instance)
        self._executors[id(instance)] = executor
        return DRRSInputHandler(instance, executor,
                                scheduling=self.config.record_scheduling,
                                buffer_size=self.config.schedule_buffer)

    def _execute(self, op_name, plan, scale_id):
        config = self.config
        telemetry = self.job.telemetry

        # -- A0/B0: deploy update -------------------------------------------------
        decouple_span = None
        if telemetry is not None:
            decouple_span = telemetry.tracer.begin(
                "decouple", category="drrs.phase", track="scale",
                op=op_name, scale_id=scale_id)
        self._executors = {}
        yield from self._provision(op_name, plan)
        instances = self.job.instances(op_name)
        if decouple_span is not None:
            telemetry.tracer.end(decouple_span, instances=len(instances))

        # -- C1: divide into subscales --------------------------------------------
        planner = SubscalePlanner(
            num_subscales=(config.num_subscales
                           if config.subscale_division else 1),
            max_concurrent_per_node=config.max_concurrent_per_node,
            strategy=config.subscale_strategy)
        subscales = planner.divide(plan)
        predecessor_ids = {id(sender)
                           for sender, _e in self.job.senders_to(op_name)}
        for subscale in subscales:
            subscale.expected_predecessors = set(predecessor_ids)
            for kg in subscale.key_groups:
                self.metrics.assign_group(kg, subscale.subscale_id)

        # -- A1: greedy scheduling loop --------------------------------------------
        completion = Signal(self.sim)
        self._completion_signal = completion
        pending: List[Subscale] = list(subscales)
        running: List[Subscale] = []
        # Concurrency accounting is per worker "node" in the paper's sense:
        # one TaskManager container per instance in the Dockerized setups,
        # so the threshold applies per participating instance.
        node_of = {inst.index: f"container-{inst.index}"
                   for inst in instances}
        node_load: Dict[str, int] = {}
        held = {inst.index: len(inst.state.owned_groups())
                for inst in instances}
        reserved: Dict[int, List[str]] = {}

        while pending or running:
            if self.cancelled:
                # Superseded (§IV-B): stop launching, let running subscales
                # finish (they are already routed), then commit partially.
                pending.clear()
            while pending:
                if config.subscale_division:
                    nxt = planner.pick_next(pending, node_load, held,
                                            node_of)
                    if nxt is None:
                        break
                else:
                    nxt = pending[0]
                pending.remove(nxt)
                running.append(nxt)
                nodes = [node_of[nxt.src_index], node_of[nxt.dst_index]]
                reserved[nxt.subscale_id] = nodes
                for node in nodes:
                    node_load[node] = node_load.get(node, 0) + 1
                held[nxt.dst_index] = (held.get(nxt.dst_index, 0)
                                       + len(nxt.key_groups))
                yield from self._launch_subscale(op_name, nxt, instances)
            if not running and not pending:
                break
            yield completion.wait()
            for subscale in list(running):
                if subscale.done:
                    running.remove(subscale)
                    for node in reserved.pop(subscale.subscale_id, []):
                        node_load[node] = max(0, node_load.get(node, 0) - 1)

    def _teardown(self, op_name) -> None:
        """Shut every executor down and activate what is still INACTIVE,
        waking each instance; runs even when the scale is aborted, so no
        DRRS component stays active after scaling (non-scaling
        neutrality).  An aborted scale keeps its executors until
        recovery's sweep has drained their re-route buffers."""
        if self._aborted is None:
            self._executors = {}
        for instance in self.job.instances(op_name):
            handler = instance.input_handler
            if isinstance(handler, DRRSInputHandler):
                handler.executor.shutdown()
            for group in instance.state.groups():
                if group.status is StateStatus.INACTIVE:
                    group.status = StateStatus.LOCAL
            instance.wake.fire()

    def _commit(self, op_name, plan) -> None:
        if not self.cancelled:
            super()._commit(op_name, plan)
            return
        # Partial finalize: the authoritative assignment already reflects
        # every *launched* subscale (updated at launch time; after an abort
        # the restore that follows re-derives it from the checkpoint).
        # Rebuild it with the deployed parallelism so a superseding or
        # re-requested scale plans from reality, and drop the migrated-out
        # stubs.
        instances = self.job.instances(op_name)
        old = self.job.assignments[op_name]
        self.job.assignments[op_name] = KeyGroupAssignment(
            old.num_key_groups, len(instances), old.as_dict())
        for instance in instances:
            for group in list(instance.state.groups()):
                if group.status is StateStatus.MIGRATED_OUT:
                    instance.state.drop_group(group.key_group)

    # -- A1: subscale launch (commands to the predecessors) ---------------------------

    def _launch_subscale(self, op_name, subscale: Subscale, instances):
        src = instances[subscale.src_index]
        dst = instances[subscale.dst_index]
        self._executors[id(src)].register_out(subscale)
        self._executors[id(dst)].expect_subscale(subscale)
        subscale.launched_at = self.sim.now
        telemetry = self.job.telemetry
        if telemetry is not None:
            self._wave_spans[subscale.subscale_id] = telemetry.tracer.begin(
                f"subscale-{subscale.subscale_id}",
                category="drrs.phase",
                track=f"subscale[{subscale.subscale_id}]",
                subscale_id=subscale.subscale_id,
                src=src.name, dst=dst.name,
                key_groups=list(subscale.key_groups),
                bytes_moved=0.0)
        # Keep the job-level assignment consistent with the routing flip:
        # any instance deployed from now on (e.g. by a concurrent scaling
        # of an adjacent operator, §IV-B) must copy the updated routing.
        assignment = self.job.assignments[op_name]
        for kg in subscale.key_groups:
            assignment.apply_move(kg, subscale.dst_index)
        # The authoritative swap above and the per-sender in-band swaps
        # below are not atomic; drop every sender-side routing cache now so
        # the window holds no stale key-group -> channel entries (the
        # in-band set_routing writes re-invalidate per edge as they land).
        self.job.invalidate_routing_caches(op_name)
        # Control-plane command to the predecessors.
        yield self.sim.timeout(self.control_latency)
        self.metrics.signal_injected(subscale.subscale_id, self.sim.now)
        if telemetry is not None:
            # Emitted at the exact sim-time ScalingMetrics records, so the
            # span-derived propagation delay matches the metric.
            telemetry.tracer.instant(
                "signal.injected", category="drrs.phase",
                track=f"subscale[{subscale.subscale_id}]",
                subscale_id=subscale.subscale_id)
        for sender, edge in self.job.senders_to(op_name):
            sender.run_inband(self._make_injection(subscale, edge))

    def _make_injection(self, subscale: Subscale, edge):
        """Decoupled signal injection, executed in-band at one predecessor.

        Order of operations within the atomic in-band step (§III-A, Fig. 4a):
        routing update → trigger barrier on the control lane → confirm
        barrier at the *front* of the old output cache → redirection of the
        bypassed records (preserving relative order) to the new channel.
        """
        key_groups = set(subscale.key_groups)

        def inject(predecessor):
            old_channel = edge.channels[subscale.src_index]
            new_channel = edge.channels[subscale.dst_index]
            for kg in subscale.key_groups:
                edge.set_routing(kg, subscale.dst_index)
            old_channel.send_control(TriggerBarrier(
                scale_id=self._scale_ids,
                subscale_id=subscale.subscale_id,
                key_groups=tuple(subscale.key_groups),
                src_index=subscale.src_index,
                dst_index=subscale.dst_index,
                controller=self))
            # Confirm barrier overtakes the output cache; bypassed records
            # are redirected (§III-A), except those belonging to a pending
            # checkpoint's consistent cut (§IV-C, Fig. 9a).
            bypassed = old_channel.inject_confirm(
                lambda e: getattr(e, "key_group", None) in key_groups,
                ConfirmBarrier(
                    scale_id=self._scale_ids,
                    subscale_id=subscale.subscale_id,
                    predecessor_id=id(predecessor),
                    key_groups=tuple(subscale.key_groups),
                    controller=self))
            for element in bypassed:
                yield new_channel.send(element)

        return self._guarded(inject)

    def scaling_instances(self):
        return self.job.instances(self._op_name)

    def on_control(self, instance, channel, signal) -> None:
        """A trigger barrier goes to the receiving instance's executor
        (§III-A).  Confirm barriers ride the data lane, where the
        executor's input handler consumes them; one that reaches the
        engine's dispatch instead is dropped."""
        executor = self._executors.get(id(instance))
        if executor is not None:
            executor.on_trigger(signal)

    # -- migration (driven by trigger barriers via the executors) ---------------------

    def start_subscale_migration(self, subscale: Subscale) -> None:
        self._spawn_migration(self._migrate_subscale(subscale),
                              f"drrs-subscale-{subscale.subscale_id}")

    def _migrate_subscale(self, subscale: Subscale):
        instances = self.scaling_instances()
        src = instances[subscale.src_index]
        dst = instances[subscale.dst_index]
        wave_span = self._wave_spans.get(subscale.subscale_id)
        for kg in subscale.key_groups:
            if wave_span is not None:
                group = src.state.group(kg)
                if group is not None:
                    wave_span.attrs["bytes_moved"] = (
                        wave_span.attrs.get("bytes_moved", 0.0)
                        + group.size_bytes)
            yield from self._transfer_group(
                src, dst, kg, arrival_status=StateStatus.INACTIVE)
            group = dst.state.group(kg)
            if subscale.aligned and group.status is StateStatus.INACTIVE:
                group.status = StateStatus.LOCAL
            subscale.migrated_groups.add(kg)
            dst.wake.fire()
            self.on_subscale_progress(subscale)

    def on_subscale_progress(self, subscale: Subscale) -> None:
        if subscale.done and subscale.completed_at is None:
            subscale.completed_at = self.sim.now
            wave_span = self._wave_spans.pop(subscale.subscale_id, None)
            if wave_span is not None and not wave_span.closed:
                self.job.telemetry.tracer.end(
                    wave_span, migrated=len(subscale.migrated_groups))
            if self._completion_signal is not None:
                self._completion_signal.fire()

    def _on_abort(self) -> None:
        self.cancelled = True
        for wave_span in self._wave_spans.values():
            if not wave_span.closed:
                self.job.telemetry.tracer.end(wave_span, aborted=True)
        self._wave_spans.clear()


class CoupledSubscaleController(OTFSController):
    """Subscale Division *without* decoupled signals (Fig. 14 "Subscale").

    The move set is divided as DRRS would, but each subscale synchronizes
    with a conventional coupled barrier.  All subscale barriers are injected
    back-to-back, so their alignments interfere (Fig. 7a): a blocked channel
    from subscale *i*'s alignment delays subscale *i+1*'s barrier — the
    source of the large fluctuations the paper reports for this variant.
    """

    name = "subscale_only"

    def __init__(self, job, num_subscales: int = 16):
        super().__init__(job, migration="fluid", injection="predecessor")
        if num_subscales < 1:
            raise ValueError("num_subscales must be >= 1")
        self.num_subscales = num_subscales

    def _batches(self, groups):
        chunk = max(1, math.ceil(len(groups) / self.num_subscales))
        return [groups[i:i + chunk] for i in range(0, len(groups), chunk)]


def make_variant(job: StreamJob, variant: str = "drrs",
                 num_subscales: int = 16) -> ScalingController:
    """The four systems of the design-rationale isolation test (Fig. 14)."""
    if variant == "drrs":
        return DRRSController(job, DRRSConfig(num_subscales=num_subscales))
    if variant == "dr":
        return DRRSController(
            job,
            DRRSConfig(record_scheduling=False, subscale_division=False))
    if variant == "schedule":
        return OTFSController(job, migration="fluid",
                              injection="predecessor", scheduling=True)
    if variant == "subscale":
        return CoupledSubscaleController(job, num_subscales=num_subscales)
    raise ValueError(f"unknown DRRS variant: {variant!r}")
