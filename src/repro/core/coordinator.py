"""Scale Coordinator (A): master-side orchestration (§IV-A).

* **Topology Updater (A0)** — provisions the new instances (with the Deploy
  Updater B0 cost) and installs the Scale Input Handlers (B1).
* **Subscale Handler (A1)** — on each subscale command from the planner
  (C1), commands the predecessor operators to inject the decoupled scaling
  signals: routing update, trigger barrier on the control lane, confirm
  barrier at the front of the output cache with redirection of the records
  it bypasses.

The coordinator also runs the greedy subscale scheduling loop under the
per-node concurrency threshold, and performs cleanup so that no DRRS
component remains active after scaling (non-scaling neutrality).
"""

from __future__ import annotations

from typing import Dict, List, TYPE_CHECKING

from ..engine.state import StateStatus
from ..simulation.primitives import Signal
from .barriers import ConfirmBarrier, TriggerBarrier
from .executor import DRRSInputHandler, ScaleExecutor
from .planner import Subscale, SubscalePlanner

if TYPE_CHECKING:  # pragma: no cover
    from ..scaling.plan import MigrationPlan
    from .drrs import DRRSController

__all__ = ["ScaleCoordinator"]


class ScaleCoordinator:
    """One rescale operation's master-side driver."""

    def __init__(self, controller: "DRRSController"):
        self.controller = controller
        self.job = controller.job
        self.sim = controller.sim
        self.config = controller.config

    def execute(self, op_name: str, plan: "MigrationPlan", scale_id: int):
        # The body runs under try/finally: an abort (``abort``
        # interrupting the scale process) must still tear every DRRS
        # resource down — executors, handlers, probes — and commit the
        # partial assignment, or the job would be left with scaling
        # machinery permanently installed.
        executors: Dict[int, ScaleExecutor] = {}
        saved_handlers = {}
        try:
            yield from self._execute_body(op_name, plan, scale_id,
                                          executors, saved_handlers)
        finally:
            self._cleanup(op_name, plan, executors, saved_handlers)

    def _execute_body(self, op_name: str, plan: "MigrationPlan",
                      scale_id: int, executors, saved_handlers):
        controller = self.controller
        config = self.config
        telemetry = self.job.telemetry

        # -- A0/B0: deploy update -------------------------------------------------
        decouple_span = None
        if telemetry is not None:
            decouple_span = telemetry.tracer.begin(
                "decouple", category="drrs.phase", track="scale",
                op=op_name, scale_id=scale_id)
        new_instances = yield from controller._provision(op_name, plan)
        instances = self.job.instances(op_name)
        for instance in instances:
            executor = ScaleExecutor(controller, instance)
            executors[id(instance)] = executor
            saved_handlers[instance] = instance.input_handler
            instance.input_handler = DRRSInputHandler(
                instance, executor, scheduling=config.record_scheduling,
                buffer_size=config.schedule_buffer)
            instance.wake.fire()
        controller._executors = executors
        controller._attach_suspension_probes(instances)
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
                controller.metrics.assign_group(kg, subscale.subscale_id)

        # -- A1: greedy scheduling loop --------------------------------------------
        completion = Signal(self.sim)
        controller._completion_signal = completion
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
            if controller.cancelled:
                # Superseded (§IV-B): stop launching, let running subscales
                # finish (they are already routed), then clean up partially.
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
                yield from self.launch_subscale(op_name, nxt, executors,
                                                instances)
            if not running and not pending:
                break
            yield completion.wait()
            for subscale in list(running):
                if subscale.done:
                    running.remove(subscale)
                    for node in reserved.pop(subscale.subscale_id, []):
                        node_load[node] = max(0, node_load.get(node, 0) - 1)

    def _cleanup(self, op_name: str, plan: "MigrationPlan",
                 executors, saved_handlers) -> None:
        """Release every DRRS resource; runs even when the scale is aborted.

        On the normal and superseded paths this is the tail of the original
        inline cleanup; on the abort path (Interrupt delivered into
        :meth:`execute`) it additionally copes with partially-installed
        machinery — instances provisioned but not yet started, handlers not
        yet swapped in.
        """
        controller = self.controller
        instances = self.job.instances(op_name)
        # An abort can interrupt _provision between deployment and start-up;
        # finish starting the new instances so the deployed parallelism is
        # fully live before a retry plans against it.
        for instance in instances[plan.old_parallelism:]:
            if not instance.running and not instance.paused:
                instance.start()
        for instance in instances:
            executor = executors.get(id(instance))
            if executor is not None:
                executor.shutdown()
            saved = saved_handlers.pop(instance, None)
            if saved is not None:
                instance.input_handler = saved
            for group in instance.state.groups():
                if group.status is StateStatus.INACTIVE:
                    group.status = StateStatus.LOCAL
            instance.wake.fire()
        controller._detach_suspension_probes(instances)
        if controller.cancelled:
            # Partial finalize: the authoritative assignment already
            # reflects every *launched* subscale (updated at launch time;
            # after an abort the restore that follows re-derives it from
            # the checkpoint).  Rebuild it with the deployed parallelism so
            # a superseding or retried scale plans from reality, and drop
            # the migrated-out stubs.
            from ..engine.keys import KeyGroupAssignment
            old = self.job.assignments[op_name]
            self.job.assignments[op_name] = KeyGroupAssignment(
                old.num_key_groups, len(instances), old.as_dict())
            for instance in instances:
                for group in list(instance.state.groups()):
                    if group.status is StateStatus.MIGRATED_OUT:
                        instance.state.drop_group(group.key_group)
        else:
            controller._finalize_assignment(op_name, plan)

    # -- subscale launch (A1 → predecessors) -----------------------------------------

    def launch_subscale(self, op_name: str, subscale: Subscale,
                        executors: Dict[int, ScaleExecutor],
                        instances) -> None:
        src = instances[subscale.src_index]
        dst = instances[subscale.dst_index]
        executors[id(src)].register_out(subscale)
        executors[id(dst)].expect_subscale(subscale)
        subscale.launched_at = self.sim.now
        telemetry = self.job.telemetry
        if telemetry is not None:
            self.controller._wave_spans[subscale.subscale_id] = (
                telemetry.tracer.begin(
                    f"subscale-{subscale.subscale_id}",
                    category="drrs.phase",
                    track=f"subscale[{subscale.subscale_id}]",
                    subscale_id=subscale.subscale_id,
                    src=src.name, dst=dst.name,
                    key_groups=list(subscale.key_groups),
                    bytes_moved=0.0))
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
        yield self.sim.timeout(self.controller.control_latency)
        self.controller.metrics.signal_injected(subscale.subscale_id,
                                                self.sim.now)
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
        controller = self.controller
        key_groups = set(subscale.key_groups)
        epoch = controller._abort_epoch

        def inject(predecessor):
            if controller._abort_epoch != epoch:
                # The scale was aborted between command and in-band
                # execution: injecting now would flip routing that the
                # restore has just re-derived from the checkpoint.
                return
            old_channel = edge.channels[subscale.src_index]
            new_channel = edge.channels[subscale.dst_index]
            for kg in subscale.key_groups:
                edge.set_routing(kg, subscale.dst_index)
            old_channel.send_control(TriggerBarrier(
                scale_id=controller._scale_ids,
                subscale_id=subscale.subscale_id,
                key_groups=tuple(subscale.key_groups),
                src_index=subscale.src_index,
                dst_index=subscale.dst_index,
                controller=controller))
            # Confirm barrier overtakes the output cache; bypassed records
            # are redirected (§III-A), except those belonging to a pending
            # checkpoint's consistent cut (§IV-C, Fig. 9a).
            bypassed = old_channel.inject_confirm(
                lambda e: getattr(e, "key_group", None) in key_groups,
                ConfirmBarrier(
                    scale_id=controller._scale_ids,
                    subscale_id=subscale.subscale_id,
                    predecessor_id=id(predecessor),
                    key_groups=tuple(subscale.key_groups),
                    controller=controller))
            for element in bypassed:
                yield new_channel.send(element)

        return inject
