"""Execution runtime: expands a job graph onto a cluster and runs it.

:class:`StreamJob` is the piece every scaling controller manipulates:

* it owns the physical instances and channels,
* it tracks the *current* key-group assignment of every keyed operator,
* it can add instances and channels **at runtime** (on-the-fly scaling), and
* it exposes the state-transfer and checkpoint cost models.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Set, Tuple

from ..simulation.kernel import Simulator
from .channels import Channel
from .cluster import ClusterModel, LinkSpec, single_machine
from .graph import EdgeSpec, JobGraph, OperatorSpec
from .keys import KeyGroupAssignment
from .metrics import MetricsCollector
from .operators import OperatorInstance
from .records import (CheckpointBarrier, EndOfStream, LatencyMarker, Record,
                      StreamElement)
from .routing import OutputEdge, Partitioning
from .state import StateStatus, StateTransferCostModel

__all__ = ["JobConfig", "StreamJob", "SourceInstance", "_InflightState"]


@dataclass
class JobConfig:
    """Engine tunables shared by every run."""

    #: Output-cache capacity per channel, in elements (batches).
    outbox_capacity: int = 32
    #: Input-cache (credit) capacity per channel, in elements.
    inbox_capacity: int = 32
    #: State transfer cost model (extraction + network).
    transfer: StateTransferCostModel = field(
        default_factory=StateTransferCostModel)
    #: Record plane: ``"batched"`` ships runs of records over a channel as
    #: one wire carrier (bit-identical semantics, golden-trace enforced);
    #: ``"single"`` is the per-record reference implementation.  Operators
    #: consume one record at a time on both.  Rescales and recoveries
    #: collapse the batched plane to per-record state for their own
    #: window, never for the rest of the job.
    record_plane: str = "batched"
    #: Upper bound on records per wire carrier — the only batches there
    #: are; credits and channel occupancy shrink actual carriers below
    #: this.
    max_batch_size: int = 64
    #: Kernel event scheduler: ``"heap"`` (binary heap) or ``"calendar"``
    #: (calendar-queue / bucketed wheel — same dispatch order
    #: bit-identically, faster at paper-scale timer populations).
    scheduler: str = "heap"
    #: Keyed state backend: ``"dict"`` (reference full-copy store,
    #: synchronous checkpoint cost proportional to state size) or
    #: ``"changelog"`` (append-only delta logs; checkpoints cut delta
    #: segments uploaded asynchronously off the barrier path, so the
    #: synchronous barrier cost is a small constant manifest).
    state_backend: str = "dict"
    #: Changelog backends fold their logs into a durable base every this
    #: many mutations (bounds the delta tail a restore must replay).
    changelog_materialize_interval: int = 4096
    #: Worker processes for the sharded multi-process kernel.  Read only
    #: by :func:`~repro.simulation.sharded.run_sharded`; a
    #: :class:`StreamJob` built with any other value raises.
    shards: int = 1
    #: Inbox (credit) capacity used for cut-crossing channels when a run is
    #: sharded: the benchmark ledger substitutes this for
    #: ``inbox_capacity`` on *both* the sharded run and its single-process
    #: equivalence reference, so the credit-ledger certification has
    #: headroom on cut edges (the paper-tier Twitch session->loyalty cut
    #: needs > the default 32).  Per-cut-edge overrides can be attached to
    #: the partition plan (:meth:`~..engine.routing.ShardPlan.annotate_cuts`).
    shard_inbox_capacity: int = 512

    #: Legal record planes / schedulers / backends and the numeric bounds.
    RECORD_PLANES = ("batched", "single")
    SCHEDULERS = ("heap", "calendar")
    STATE_BACKENDS = ("dict", "changelog")
    MAX_BATCH_SIZE_LIMIT = 4096
    MAX_SHARDS = 64
    MAX_SHARD_INBOX = 1 << 20

    def __post_init__(self):
        if self.record_plane not in self.RECORD_PLANES:
            raise ValueError(
                f"unknown record_plane: {self.record_plane!r} "
                f"(expected one of: {', '.join(self.RECORD_PLANES)})")
        if self.state_backend not in self.STATE_BACKENDS:
            raise ValueError(
                f"unknown state_backend: {self.state_backend!r} "
                f"(expected one of: {', '.join(self.STATE_BACKENDS)})")
        # A channel with no credit or no outbox slot carries nothing.
        for name in ("outbox_capacity", "inbox_capacity",
                     "changelog_materialize_interval"):
            value = getattr(self, name)
            if (not isinstance(value, int) or isinstance(value, bool)
                    or value < 1):
                raise ValueError(
                    f"{name} must be a positive integer, got {value!r}")
        if self.scheduler not in self.SCHEDULERS:
            raise ValueError(
                f"unknown scheduler: {self.scheduler!r} "
                f"(expected one of: {', '.join(self.SCHEDULERS)})")
        if (not isinstance(self.max_batch_size, int)
                or isinstance(self.max_batch_size, bool)
                or not 1 <= self.max_batch_size <= self.MAX_BATCH_SIZE_LIMIT):
            raise ValueError(
                "max_batch_size must be an integer in "
                f"[1, {self.MAX_BATCH_SIZE_LIMIT}], "
                f"got {self.max_batch_size!r}")
        if (not isinstance(self.shards, int)
                or isinstance(self.shards, bool)
                or not 1 <= self.shards <= self.MAX_SHARDS):
            raise ValueError(
                f"shards must be an integer in [1, {self.MAX_SHARDS}], "
                f"got {self.shards!r}")
        if (not isinstance(self.shard_inbox_capacity, int)
                or isinstance(self.shard_inbox_capacity, bool)
                or not 1 <= self.shard_inbox_capacity
                <= self.MAX_SHARD_INBOX):
            raise ValueError(
                "shard_inbox_capacity must be an integer in "
                f"[1, {self.MAX_SHARD_INBOX}], "
                f"got {self.shard_inbox_capacity!r}")


@dataclass
class _InflightState:
    """One key-group's bytes while they are on the wire between instances.

    Registered in :attr:`StreamJob.inflight_state` by
    ``ScalingController._extract`` at the instant the entries leave the
    source backend (status → ``MIGRATED_OUT``) and popped by
    ``ScalingController._land`` when they are installed at the
    destination.  Every whole-key-group move of every controller passes
    through those two steps.  While registered, the bytes exist *nowhere
    else* — checkpoints fold them into the source's snapshot, and a
    restore discards them with the rest of the pre-crash world.
    """

    op_name: str
    key_group: int
    entries: dict
    size_bytes: float
    src_name: str
    src_index: int
    dst_index: int


class SourceInstance(OperatorInstance):
    """A source subtask: pulls from an admission queue, emits downstream.

    The admission queue models the Kafka topic / internal generator: the
    workload generator calls :meth:`offer` (never blocking — Kafka is
    durable) and the source consumes as fast as downstream backpressure
    allows.  Element ``created_at``/``emitted_at`` is stamped at *admission*,
    so end-to-end latency includes queue wait, as in §V-A.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.pending: Deque[StreamElement] = deque()
        self.injected: Deque[StreamElement] = deque()
        self.emitted_records = 0
        #: Elements consumed from the admission queue (the replay offset).
        self.consumed_elements = 0
        self._history: Optional[List[StreamElement]] = None
        #: Replay offset of ``_history[0]`` — grows as old history is
        #: trimmed away once no retained checkpoint can rewind past it.
        self._history_base = 0

    def enable_replay_history(self) -> None:
        """Keep every admitted element so the source can be rewound
        (checkpoint-recovery support).  Off by default: retention costs
        memory proportional to the run."""
        if self._history is None:
            self._history = list(self.pending)
            self._history_base = self.consumed_elements

    def rewind_to(self, offset: int) -> None:
        """Rewind consumption to ``offset`` admitted elements (replay)."""
        if self._history is None:
            raise RuntimeError("replay history not enabled on this source")
        if not self._history_base <= offset \
                <= self._history_base + len(self._history):
            raise ValueError(f"offset {offset} out of range")
        self.pending = deque(self._history[offset - self._history_base:])
        self.consumed_elements = offset
        self.wake.fire()

    def trim_history_before(self, offset: int) -> int:
        """Drop replay history for offsets below ``offset``; returns the
        number of elements released.  Rewinding past the trim point then
        raises, so callers must only trim below every offset they may
        still restore (the RecoveryManager's one retained checkpoint).
        """
        if self._history is None:
            return 0
        drop = min(max(offset - self._history_base, 0), len(self._history))
        if drop:
            del self._history[:drop]
            self._history_base += drop
        return drop

    def offer(self, element: StreamElement) -> None:
        """Admit one element from the workload generator."""
        now = self.sim._now
        if isinstance(element, Record):
            element.created_at = now
        elif isinstance(element, LatencyMarker):
            element.emitted_at = now
        self.pending.append(element)
        if self._history is not None:
            self._history.append(element)
        self.wake.fire()

    def inject(self, element: StreamElement) -> None:
        """Inject a control element (checkpoint barrier) ahead of data."""
        self.injected.append(element)
        self.wake.fire()

    @property
    def backlog(self) -> int:
        return len(self.pending)

    def _run(self):
        sim = self.sim
        done = sim._done
        while self.running:
            if self.paused:
                yield self.wake
                continue
            if self._inband:
                fn = self._inband.pop(0)
                yield from fn(self)
                continue
            if self.injected:
                element = self.injected.popleft()
                yield from self.handle_element(None, element)
                continue
            if not self.pending:
                yield self.wake
                continue
            element = self.pending.popleft()
            self.consumed_elements += 1
            is_record = element.is_record
            if is_record and self._history is not None:
                # Stamp the consistent-cut lineage (see Record.src_seq).
                # Replay re-consumes the same element objects at the same
                # indices, so the stamp is stable across rewinds.
                element.src_origin = self.name
                element.src_seq = self.consumed_elements - 1
            # Inlined service_time(), as in the operator loop.
            cost = (self.spec.service_time
                    * (element.count if is_record else 1) / self.node.speed)
            if cost > 0:
                yield cost  # bare-delay yield == sim.timeout(cost)
                if self.abandon_work:
                    # A failure struck mid-service: the rewind will
                    # re-deliver this element, so emitting it now would
                    # double-count it downstream.
                    continue
            if is_record:
                ev = self.router.emit_record_fast(element)
                if ev is None:
                    edges = self.router.edges
                    member = edges[0].chained if len(edges) == 1 else None
                    if (member is None or self.abandon_work
                            or member.element_interceptor is not None):
                        yield from self.router.emit(element)
                    else:  # a chained first hop: the member walks it on
                        yield from member._handle_record(element)
                elif ev is not done:
                    yield ev
                self.emitted_records += element.count
                self.metrics.record_source_output(sim._now, element.count)
                telemetry = self.job.telemetry
                if telemetry is not None:
                    telemetry.registry.counter(
                        "source.records_emitted",
                        operator=self.spec.name).inc(element.count)
            elif isinstance(element, EndOfStream):
                yield from self.router.emit(element)
                self.running = False
                self.job._live_names = None
            else:
                yield from self.handle_element(None, element)


class StreamJob:
    """A deployed, runnable dataflow."""

    #: Checkpoint storage bandwidth (bytes/s): snapshots are written at
    #: this rate, and restored at it after a failure.
    snapshot_bandwidth = 400e6
    #: Fraction of snapshot write time that blocks processing (the
    #: aligned, synchronous part).
    snapshot_sync_fraction = 0.05
    #: Concurrent state transfers sharing one host's NIC/disk; with the
    #: default transfer bandwidth fraction this caps aggregate state
    #: traffic at roughly the host link rate.
    max_concurrent_transfers_per_host = 4

    def __init__(self, graph: JobGraph,
                 cluster: Optional[ClusterModel] = None,
                 sim: Optional[Simulator] = None,
                 metrics: Optional[MetricsCollector] = None,
                 config: Optional[JobConfig] = None):
        graph.validate()
        self.graph = graph
        self.cluster = cluster or single_machine()
        self.config = config or JobConfig()
        self.sim = sim or Simulator(scheduler=self.config.scheduler)
        self.metrics = metrics or MetricsCollector()
        if self.config.record_plane not in JobConfig.RECORD_PLANES:
            raise ValueError(
                f"unknown record_plane: {self.config.record_plane!r} "
                f"(expected one of: {', '.join(JobConfig.RECORD_PLANES)})")
        if self.config.shards != 1:
            raise ValueError(
                f"shards={self.config.shards}: a StreamJob runs in one "
                "process; repro.simulation.sharded.run_sharded runs a "
                "workload on several")
        #: True when the record plane rides micro-batch carriers; decided
        #: by ``record_plane`` alone for the life of the job.  Rescales
        #: and recoveries collapse the plane for their own window through
        #: :meth:`quiesce_batches`.
        self._batching = self.config.record_plane == "batched"
        #: :meth:`quiesce_batches` calls that found batch state to collapse.
        self.plane_collapses = 0
        self._instances: Dict[str, List[OperatorInstance]] = {}
        #: Cache behind :meth:`live_instance_names`; every ``running`` /
        #: ``paused`` flip resets it to None.
        self._live_names: Optional[frozenset] = None
        #: Current (authoritative) key-group assignment per keyed operator.
        self.assignments: Dict[str, KeyGroupAssignment] = {}
        self._snapshots: List[Tuple[float, str, int]] = []
        self._built = False
        #: The checkpoint ledger, the one record of which checkpoints
        #: completed.  Open checkpoints: id -> names of the instances that
        #: have snapshotted for it; ``(time, id)`` appended once when one
        #: completes (:meth:`_complete_checkpoints`).
        self.open_checkpoints: Dict[int, Set[str]] = {}
        self.completed_checkpoints: List[Tuple[float, int]] = []
        #: The installed RecoveryManager (set by its ``install()``), told
        #: directly about snapshots, completions, landed flights,
        #: auxiliary-lane pops and, once ``rescaled`` latched, applied
        #: records.  None costs one attribute load per site.
        self.recovery = None
        #: Scaling controllers with an operation in flight, registered by
        #: ``ScalingController._run_scale``.  Non-empty keeps the batched
        #: plane collapsed to per-record, and the RecoveryManager asks these
        #: to abort when a failure strikes mid-scaling.
        self.active_scalers: List = []
        #: Controllers whose ``request_rescale`` has spawned the scale but
        #: whose ``_run_scale`` has not started yet, so that a failure in
        #: the same instant aborts them too.
        self.pending_scalers: List = []
        #: Latched when a controller first registers in ``active_scalers``;
        #: until then the record path skips ``recovery.on_record``.  Only
        #: rescales create alignment-free lanes, early captures and
        #: in-flight folds; before the first one, FIFO channels and aligned
        #: barriers let no record reach a key-group after that group's
        #: capture, so there is nothing to compensate.
        self.rescaled = False
        #: Key-group state currently on the wire between two instances:
        #: ``(op name, key group) -> _InflightState``.  Registered when a
        #: transfer extracts the bytes from the source, popped when they are
        #: installed at the destination — so a checkpoint taken mid-transfer
        #: can fold the migrating bytes into the source's snapshot (§IV-C).
        self.inflight_state: Dict[Tuple[str, int], "_InflightState"] = {}
        #: Callables ``() -> List[(op_name, record)]`` that *remove and
        #: return* records parked in scaling-internal buffers outside any
        #: channel (e.g. DRRS re-route managers) — swept by failure
        #: recovery so pre-checkpoint records stranded there are restored.
        self.aux_sweep_hooks: List = []
        #: Optional hook ``(src, dst, key_group) -> extra_seconds`` invoked
        #: while a state transfer holds its NIC slot — the fault injector's
        #: transfer-stall point.  None (the default) costs one attribute
        #: load and draws no events.
        self.transfer_fault_hook = None
        #: Optional hook ``(instance, segment) -> extra_seconds`` invoked
        #: while an asynchronous changelog-segment upload is in flight —
        #: the fault injector's upload-stall point.
        self.checkpoint_upload_hook = None
        #: Segments cut but whose asynchronous upload has not finished —
        #: a checkpoint is not complete while any of its keys are here.
        self.pending_uploads: set = set()
        #: Event set by the RecoveryManager for the duration of a recovery
        #: (pause → restore → resume); scaling retries wait on it so they
        #: do not race the restore.  None when no recovery is in flight.
        self.recovery_barrier = None
        self._transfer_gates: Dict[str, object] = {}
        #: Telemetry bundle (registry + tracer), or None when disabled.
        #: Hot paths guard every recording with ``if telemetry is not None``
        #: so the disabled default costs one attribute load per site.
        self.telemetry = None

    def enable_telemetry(self, sample_interval: Optional[float] = None):
        """Attach a :class:`repro.telemetry.Telemetry` to this job.

        Installs the kernel dispatch probe, tags every existing channel
        (future channels are tagged at creation), and — only when
        ``sample_interval`` is given — starts the periodic queue-depth
        sampler.  Without the sampler, telemetry records at existing event
        boundaries only, so enabling it never changes simulated behaviour.
        Idempotent; returns the Telemetry.
        """
        if self.telemetry is not None:
            return self.telemetry
        from ..telemetry import Telemetry
        telemetry = Telemetry(self.sim)
        self.telemetry = telemetry
        self.sim.dispatch_probe = telemetry.on_kernel_event
        self.sim.discount_probe = telemetry.on_kernel_discount
        for instance in self.all_instances():
            for channel in instance.router.all_channels():
                channel.telemetry = telemetry
        if sample_interval is not None:
            telemetry.start_sampler(self, sample_interval)
        return telemetry

    def transfer_gate(self, node_name: str):
        """Per-host semaphore limiting concurrent state transfers."""
        from ..simulation.primitives import Semaphore
        gate = self._transfer_gates.get(node_name)
        if gate is None:
            gate = Semaphore(self.sim, self.max_concurrent_transfers_per_host)
            self._transfer_gates[node_name] = gate
        return gate

    # -- construction -------------------------------------------------------------

    def build(self) -> "StreamJob":
        """Materialise instances and channels; idempotent."""
        if self._built:
            return self
        for spec in self.graph.operators.values():
            instances = []
            for index in range(spec.parallelism):
                instances.append(self._make_instance(spec, index))
            self._instances[spec.name] = instances
            if spec.keyed:
                assignment = KeyGroupAssignment(self.graph.num_key_groups,
                                                spec.parallelism)
                self.assignments[spec.name] = assignment
                for kg, owner in assignment.as_dict().items():
                    instances[owner].state.register_group(
                        kg, StateStatus.LOCAL,
                        size_bytes=spec.initial_state_bytes_per_group)
        # Operator chains: a hop Flink would chain gets no channel; its
        # downstream instances run inside the task of their chain's head.
        upstream = {edge.dst: edge.src for edge in self.graph.edges
                    if self._chains(edge)}
        for edge in self.graph.edges:
            if edge.dst in upstream:
                head = edge.src
                while head in upstream:
                    head = upstream[head]
                self._chain_edge(edge, self._instances[head])
            else:
                self._wire_edge(edge)
        self._built = True
        return self

    def _make_instance(self, spec: OperatorSpec,
                       index: int) -> OperatorInstance:
        node = self.cluster.place()
        cls = SourceInstance if spec.is_source else OperatorInstance
        return cls(self.sim, self, spec, index, node, self.metrics)

    def _chains(self, edge: EdgeSpec) -> bool:
        """Whether ``edge`` is a hop Flink would chain: FORWARD between
        equal parallelisms, the upstream's only output and the
        downstream's only input, neither end keyed (a rescale target
        changes parallelism at run time), downstream not a sink, and every
        ``src[i]`` placed on ``dst[i]``'s node.  Decided from graph shape
        and placement alone; instances on different nodes keep the
        channel."""
        operators = self.graph.operators
        src, dst = operators[edge.src], operators[edge.dst]
        return (edge.partitioning is Partitioning.FORWARD
                and src.parallelism == dst.parallelism
                and not (src.keyed or dst.keyed or dst.is_sink)
                and len(self.graph.out_edges(edge.src)) == 1
                and len(self.graph.in_edges(edge.dst)) == 1
                and all(u.node.name == v.node.name for u, v in zip(
                    self._instances[edge.src], self._instances[edge.dst])))

    def _out_edge(self, edge: EdgeSpec,
                  sender: OperatorInstance) -> OutputEdge:
        return OutputEdge(name=edge.name, partitioning=edge.partitioning,
                          num_key_groups=self.graph.num_key_groups,
                          sender_index=sender.index, dst_op=edge.dst)

    def _chain_edge(self, edge: EdgeSpec,
                    heads: List[OperatorInstance]) -> None:
        """Fuse ``src[i] -> dst[i]`` into the task of ``heads[i]``: no
        Channel, no InputChannel and no process for ``dst[i]``."""
        for sender, member in zip(self._instances[edge.src],
                                  self._instances[edge.dst]):
            out_edge = self._out_edge(edge, sender)
            out_edge.chained = member
            member.chain_head = heads[member.index]
            sender.router.add_edge(out_edge)

    def _wire_edge(self, edge: EdgeSpec) -> None:
        dst_instances = self._instances[edge.dst]
        assignment = self.assignments.get(edge.dst)
        for sender in self._instances[edge.src]:
            out_edge = self._out_edge(edge, sender)
            for dst in dst_instances:
                self._connect(sender, out_edge, dst)
            if edge.partitioning is Partitioning.HASH:
                for kg, owner in assignment.as_dict().items():
                    out_edge.set_routing(kg, owner)
            sender.router.add_edge(out_edge)

    def _connect(self, sender: OperatorInstance, out_edge: OutputEdge,
                 dst: OperatorInstance) -> Channel:
        link = self.cluster.link(sender.node.name, dst.node.name)
        channel = Channel(
            self.sim, link,
            name=f"{sender.name}->{dst.name}",
            outbox_capacity=self.config.outbox_capacity,
            inbox_capacity=self.config.inbox_capacity)
        channel.sender = sender
        channel.telemetry = self.telemetry
        if self._batching:
            channel.batching = True
            channel.max_batch = self.config.max_batch_size
        channel._job = self
        input_channel = dst.add_input_channel(name=channel.name)
        channel.attach(input_channel)
        out_edge.add_channel(channel)
        return channel

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> "StreamJob":
        self.build()
        for instances in self._instances.values():
            for instance in instances:
                instance.start()
        return self

    def run(self, until: Optional[float] = None) -> float:
        self.start()
        return self.sim.run(until=until)

    def stop(self) -> None:
        for instance in self.all_instances():
            instance.stop()

    # -- record-plane control ------------------------------------------------------

    def quiesce_batches(self) -> None:
        """Collapse every in-flight micro-batch of the job to per-record
        state.

        Unwinds ship batches mid-serialize and explodes batches queued at
        input channels; batches still on a wire explode at delivery (the
        deliver path re-checks the plane).  Formation gates read
        ``active_scalers`` live, so a caller that needs a per-record window
        (rescale, recovery) quiesces once when it opens and the plane stays
        collapsed for as long as its gate holds.
        """
        now = self.sim.now
        receivers = self.all_instances()
        channels = [channel for instance in receivers
                    for channel in instance.router.all_channels()]
        inputs = [input_channel for instance in receivers
                  for input_channel in instance.input_channels]
        found = False
        # Sender side first: unwinding a mid-serialize ship batch truncates
        # the shared carrier, so the consumer-side materialize below sees
        # only the members that per-record serialization had committed.
        for channel in channels:
            found |= channel.quiesce()
        for input_channel in inputs:
            found |= input_channel.materialize(now)
        if found:
            self.plane_collapses += 1

    def invalidate_routing_caches(self, op_name: str) -> None:
        """Drop every sender-side routing cache targeting ``op_name``.

        ``OutputEdge.set_routing`` already invalidates on each table write;
        this hook is the defense-in-depth sweep for bulk ownership swaps
        (the DRRS re-routing table swap).
        """
        for _sender, edge in self.senders_to(op_name):
            edge.invalidate_cache()

    # -- queries ------------------------------------------------------------------

    def instances(self, name: str) -> List[OperatorInstance]:
        return self._instances[name]

    def all_instances(self) -> List[OperatorInstance]:
        return [inst for group in self._instances.values()
                for inst in group]

    def live_instance_names(self) -> frozenset:
        """Names of the running or paused instances — the set a checkpoint
        must cover.  Rebuilt after an instance lifecycle change, not per
        snapshot."""
        names = self._live_names
        if names is None:
            names = self._live_names = frozenset(
                inst.name for inst in self.all_instances()
                if inst.running or inst.paused)
        return names

    def sources(self) -> List[SourceInstance]:
        return [inst for spec in self.graph.sources()
                for inst in self._instances[spec.name]]

    def sink_logic(self, name: Optional[str] = None):
        sinks = self.graph.sinks()
        if name is None:
            if len(sinks) != 1:
                raise ValueError("specify the sink name explicitly")
            name = sinks[0].name
        return self._instances[name][0].logic

    def senders_to(self, op_name: str
                   ) -> List[Tuple[OperatorInstance, OutputEdge]]:
        """All (predecessor instance, output edge) pairs targeting an op."""
        result = []
        for src_name in self.graph.upstream_of(op_name):
            for sender in self._instances[src_name]:
                for edge in sender.router.edges:
                    if edge.dst_op == op_name:
                        result.append((sender, edge))
        return result

    def total_state_bytes(self, op_name: str) -> float:
        return sum(inst.state.total_bytes()
                   for inst in self._instances[op_name])

    # -- runtime rescaling support -------------------------------------------------

    def add_instance(self, op_name: str,
                     node: Optional[str] = None) -> OperatorInstance:
        """Create one new instance of ``op_name`` and wire all channels.

        The new instance's input channels from predecessors and output
        channels to successors are created immediately, but **no routing
        table points at it yet** — the scaling controller flips routing
        entries as part of its synchronization protocol.  The caller is
        responsible for ``instance.start()`` after the provisioning delay.
        """
        spec = self.graph.operators[op_name]
        first = self._instances[op_name][0]
        if first.chain_head is not None or any(
                edge.chained is not None for edge in first.router.edges):
            raise ValueError(
                f"{op_name} runs in an operator chain, whose parallelism is "
                "fixed at build time (only keyed operators rescale, and "
                "they are never chained)")
        index = len(self._instances[op_name])
        node_spec = self.cluster.place(preferred=node)
        cls = SourceInstance if spec.is_source else OperatorInstance
        instance = cls(self.sim, self, spec, index, node_spec, self.metrics)
        self._instances[op_name].append(instance)
        spec.parallelism = len(self._instances[op_name])

        # Channels from every predecessor instance.
        for sender, edge in self.senders_to(op_name):
            channel = self._connect(sender, edge, instance)
            # The new channel inherits the sender's output watermark so it
            # neither stalls nor prematurely advances the new instance.
            channel.input_channel.watermark = sender.current_watermark
        # Channels to every successor instance.
        for edge_spec in self.graph.out_edges(op_name):
            out_edge = self._out_edge(edge_spec, instance)
            for dst in self._instances[edge_spec.dst]:
                self._connect(instance, out_edge, dst)
            if edge_spec.partitioning is Partitioning.HASH:
                assignment = self.assignments[edge_spec.dst]
                for kg, owner in assignment.as_dict().items():
                    out_edge.set_routing(kg, owner)
            instance.router.add_edge(out_edge)
        return instance

    def remove_trailing_instances(self, op_name: str,
                                  keep: int) -> List[OperatorInstance]:
        """Decommission instances ``keep..`` of an operator (scale-in).

        Must only be called once every key-group has migrated off the
        removed instances and no data is routed to them: their feeding
        channels are closed and dropped from every predecessor's edge, and
        their own outgoing channels are closed.  Uniform repartitioning
        always removes the *trailing* instances, so edge channel lists stay
        index-aligned with instance indices.
        """
        instances = self._instances[op_name]
        if keep < 1 or keep > len(instances):
            raise ValueError(f"keep must be in [1, {len(instances)}]")
        removed = instances[keep:]
        if not removed:
            return []
        del instances[keep:]
        self.graph.operators[op_name].parallelism = keep
        for _sender, edge in self.senders_to(op_name):
            for channel in edge.channels[keep:]:
                channel.close()
            del edge.channels[keep:]
            edge.invalidate_cache()  # channels mutated in place
        for instance in removed:
            instance.stop()
            for channel in instance.router.all_channels():
                channel.close()
                # The receiver keeps the input channel (its queue may still
                # hold valid pre-decommission output) but it must no longer
                # hold back watermarks or end-of-stream alignment.
                if channel.input_channel is not None:
                    channel.input_channel.is_auxiliary = True
                    channel.input_channel.watermark = float("inf")
        return removed

    def create_direct_channel(self, src: OperatorInstance,
                              dst: OperatorInstance,
                              name_suffix: str = "reroute") -> Channel:
        """A dedicated runtime channel (re-routing / migration path).

        The receiving input channel is excluded from watermark aggregation;
        scaling handlers duplicate data-driven messages onto it explicitly
        when required (§III-A, compatibility discussion).
        """
        link = self.cluster.link(src.node.name, dst.node.name)
        channel = Channel(
            self.sim, link,
            name=f"{src.name}=>{dst.name}:{name_suffix}",
            outbox_capacity=self.config.outbox_capacity,
            inbox_capacity=self.config.inbox_capacity)
        channel.sender = src
        channel.telemetry = self.telemetry
        input_channel = dst.add_input_channel(name=channel.name)
        input_channel.watermark = float("inf")  # never the min
        input_channel.is_auxiliary = True
        channel.attach(input_channel)
        return channel

    def link_between(self, a: OperatorInstance,
                     b: OperatorInstance) -> LinkSpec:
        return self.cluster.link(a.node.name, b.node.name)

    # -- state backends & checkpoint support --------------------------------------

    def make_state_backend(self, spec):
        """Build the configured keyed-state backend for one instance."""
        from .state import ChangelogStateBackend, DictStateBackend
        if self.config.state_backend == "changelog":
            return ChangelogStateBackend(
                bytes_per_entry=spec.bytes_per_entry,
                materialize_interval=(
                    self.config.changelog_materialize_interval))
        return DictStateBackend(bytes_per_entry=spec.bytes_per_entry)

    def checkpoint_sync_cost(self, instance: OperatorInstance) -> float:
        """Seconds the barrier path blocks while the snapshot is cut.

        Full-copy backends serialize the whole state synchronously;
        incremental backends write a constant-size manifest and move the
        real bytes asynchronously (:meth:`_upload_segment`)."""
        sync_bytes = instance.state.checkpoint_sync_bytes()
        if sync_bytes <= 0:
            return 0.0
        full = sync_bytes / self.snapshot_bandwidth
        return full * self.snapshot_sync_fraction

    def note_snapshot(self, instance: OperatorInstance,
                      barrier: CheckpointBarrier) -> None:
        checkpoint_id = barrier.checkpoint_id
        self._snapshots.append((self.sim.now, instance.name, checkpoint_id))
        if self.telemetry is not None:
            self.telemetry.tracer.instant(
                "checkpoint.snapshot", category="checkpoint",
                track=instance.name, checkpoint_id=checkpoint_id,
                state_bytes=instance.state.total_bytes())
        # Cut + launch the async upload *before* the completion check, so
        # the pending upload holds the checkpoint open.
        segment = None
        if instance.state.is_incremental:
            segment = instance.state.cut_segment(checkpoint_id)
            self.pending_uploads.add((instance.name, checkpoint_id))
            self.sim.spawn(self._upload_segment(instance, segment))
        if self.recovery is not None:
            self.recovery.on_snapshot(instance, checkpoint_id, segment)
        self.open_checkpoints.setdefault(checkpoint_id, set()).add(
            instance.name)
        self._complete_checkpoints((checkpoint_id,))

    def _complete_checkpoints(self, checkpoint_ids) -> None:
        """Complete each open checkpoint of ``checkpoint_ids`` (ascending)
        that is durable: every live instance has snapshotted for it, and
        no upload with an id up to and including it is pending (its delta
        chain references every earlier segment)."""
        for checkpoint_id in checkpoint_ids:
            if not (self.open_checkpoints[checkpoint_id]
                    >= self.live_instance_names()):
                continue
            if any(cid <= checkpoint_id for _, cid in self.pending_uploads):
                continue
            del self.open_checkpoints[checkpoint_id]
            self.completed_checkpoints.append((self.sim.now, checkpoint_id))
            if self.recovery is not None:
                self.recovery.on_complete(checkpoint_id)

    def _upload_segment(self, instance: OperatorInstance, segment):
        """Asynchronously ship one delta segment to durable storage.

        Upload time follows the cluster's default link through the
        transfer cost model, off the barrier path; the checkpoint
        completes only once every instance's segment has landed."""
        link = self.cluster.default_link
        cost = self.config.transfer.transfer_seconds(
            segment.delta_bytes, link.bandwidth, link.latency)
        span = None
        if self.telemetry is not None:
            span = self.telemetry.tracer.begin(
                "checkpoint.upload", category="checkpoint",
                track=instance.name, checkpoint_id=segment.checkpoint_id,
                delta_bytes=segment.delta_bytes)
        if cost > 0:
            yield cost
        hook = self.checkpoint_upload_hook
        if hook is not None:
            extra = hook(instance, segment)
            if extra and extra > 0:
                yield extra
        if span is not None:
            self.telemetry.tracer.end(span)
        self.pending_uploads.discard((instance.name, segment.checkpoint_id))
        # A landing upload can unblock later checkpoints too (their delta
        # chains reference every earlier segment): re-check oldest first.
        self._complete_checkpoints(sorted(self.open_checkpoints))

    @property
    def snapshots(self) -> List[Tuple[float, str, int]]:
        return list(self._snapshots)
