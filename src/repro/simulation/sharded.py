"""Sharded multi-process kernel: conservative-lookahead partitioned runs.

The single-process kernel executes the whole operator graph in one event
loop; at paper scale the host CPU, not simulated time, is the bottleneck.
This module partitions the graph into contiguous topological segments
(:func:`repro.engine.routing.partition_graph`), runs each segment in its own
worker process on its own :class:`~repro.simulation.kernel.Simulator`, and
synchronizes the workers conservatively (Chandy–Misra–Bryant style):

* Every **cut edge** (an inter-shard operator edge) has strictly positive
  channel latency — the *lookahead*.  A record delivered into a downstream
  shard at simulated time ``t`` can cause an egress delivery no earlier
  than ``t`` (services and serialization are non-negative, the outgoing
  latency is positive), so grants never regress.
* Each worker repeatedly advances its local event loop to
  ``stop = min(safe, now + quantum)`` where ``safe = min(upstream grants)``
  — the null-message exchange.  A **grant** is a lower bound on the
  delivery time of any message the upstream shard may still send:
  ``min(local event queue head, staged ingress head, its own safe)``.
* Cross-shard record traffic is captured at the *sender's* simulated
  delivery time by a proxy input-channel endpoint (:class:`_Egress`) and
  re-injected at the *receiver* at exactly that time, in canonical
  ``(time, channel id, FIFO seq)`` order — so ``(time, seq)`` ordering on
  every cut channel is preserved.

**Transport.**  Each flush crosses a cut as one columnar frame
(:mod:`repro.engine.frames`) through a shared-memory SPSC ring
(:mod:`repro.simulation.shm_ring`) per cut shard pair — record batches
cross as seven packed numeric columns plus one pickle per frame,
watermarks as pure structs.  Grants piggyback on data frames; a *bare*
grant (null message) is sent only when the downstream reader has raised
its blocked flag in shared memory (demand-driven nulls), and each worker
adapts its quantum — widening after consecutive productive rounds,
shrinking on blocked waits — so synchronization overhead tracks how
tightly the shards are actually coupled.  Frames that exceed the ring
capacity spill through the pair's pipe behind an in-band marker,
preserving order; the pipe carries nothing else.  Where the rings cannot
be created the run degrades to single-process
(``"single-process:no-shm"``) — there is no second wire format.

The shard graph is feed-forward (contiguous topological segments), so the
first shard always progresses and the pipeline never deadlocks; speedup is
pipeline parallelism — all shards crunch different sim-time windows of the
same run concurrently.

**Flow-control caveat** (documented in docs/performance.md): cut channels
run with unbounded sender credits — receiver-side flow control cannot be
simulated conservatively without a feedback channel.  A post-hoc credit
ledger replays the single-process credit counter against the actual
delivery/consumption times and flags the run (``backpressure_safe=False``)
if backpressure *would* have engaged, in which case the sharded timing is
not equivalent to single-process and callers should fall back.

Barriers, checkpoints, rescale, fault injection and telemetry all
require a single event loop; the kernel runs plain jobs only, and
:func:`supports_sharding` turns it off for the configurations (the
changelog backend, platforms without ``fork``) it cannot run.
"""

from __future__ import annotations

# ``multiprocessing`` and ``traceback`` are imported where a sharded run
# starts, so single-process runs that import this module never load them.
import dataclasses
import heapq
import math
import time
import warnings
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..engine.frames import decode_frame, encode_frame
from ..engine.routing import ShardPlan, partition_graph, topological_order
from .shm_ring import DEFAULT_RING_BYTES, SPILL, ShmRing

__all__ = [
    "ShardSpec",
    "ShardedRunResult",
    "run_sharded",
    "run_single_reference",
    "supports_sharding",
    "ShardingSupport",
    "collect_run_view",
    "plan_for_job",
]

#: Default (initial) sim-seconds a worker advances per synchronization
#: pass.  Only transport-batching granularity — runahead is unbounded
#: (feed-forward DAG).  Workers widen it adaptively up to
#: ``quantum * QUANTUM_GROWTH_LIMIT`` while rounds stay productive.
DEFAULT_QUANTUM = 0.25

#: Max adaptive widening factor over the initial quantum.
QUANTUM_GROWTH_LIMIT = 32.0

#: Consecutive productive (advanced-without-blocking) rounds before the
#: adaptive quantum doubles.
PRODUCTIVE_STREAK = 2


@dataclass(frozen=True)
class ShardingSupport:
    """Truthy verdict of :func:`supports_sharding`.

    Truthiness preserves the old boolean contract; when sharding is
    unsupported, :attr:`reason` carries a stable machine-readable code
    (``"changelog-async-uploads"``, ``"no-fork"``) and :attr:`detail` a
    human sentence — both end up in the fallback warning, and the code
    as ``"single-process:<reason>"`` in the ``degraded`` list of
    :class:`ShardedRunResult`.
    """

    supported: bool
    reason: Optional[str] = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.supported


def supports_sharding(config=None) -> ShardingSupport:
    """Whether a run at ``config`` may use the multi-process kernel.

    The changelog backend's asynchronous segment uploads need one global
    event loop, and platforms without the ``fork`` start method cannot
    hand the workers the workload factory; both degrade to
    single-process.  Returns a truthy/falsy :class:`ShardingSupport`;
    falsy verdicts name the degradation.  One more single-process reason,
    ``"no-shm"``, is decided by :func:`run_sharded` when the
    shared-memory rings cannot be created.
    """
    if getattr(config, "state_backend", "dict") == "changelog":
        return ShardingSupport(
            False, "changelog-async-uploads",
            "the changelog backend spawns asynchronous segment-upload "
            "processes that complete checkpoints on the global loop")
    import multiprocessing
    try:
        multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return ShardingSupport(
            False, "no-fork",
            "workers inherit the workload factory by forking")
    return ShardingSupport(True)


# ---------------------------------------------------------------------------
# Shard specs (pickled parent -> worker) and plan construction
# ---------------------------------------------------------------------------

@dataclass
class ShardSpec:
    """Everything one worker needs beyond the forked workload factory.

    Sent pickled over the worker's spec pipe (the workload factory itself
    rides the fork; the spec is genuinely serialized).
    """

    shard_id: int
    #: Operator names per shard, topological-contiguous (full plan — every
    #: worker derives the identical channel enumeration from it).
    shards: List[List[str]] = field(default_factory=list)
    until: float = 0.0
    quantum: float = DEFAULT_QUANTUM
    #: JobConfig fields (with ``shards`` forced to 1 for the local build).
    config_kwargs: Dict[str, Any] = field(default_factory=dict)
    collect_sinks: bool = False
    trace_watermarks: bool = False
    #: Per-edge inbox-capacity overrides (edge name -> capacity) from the
    #: plan's cut hints; applied to matching *local* channels so a shard's
    #: internal flow control matches the overridden reference run.
    inbox_overrides: Dict[str, int] = field(default_factory=dict)

    @property
    def num_shards(self) -> int:
        return len(self.shards)


def _config_kwargs(config) -> Dict[str, Any]:
    # Not dataclasses.asdict — that would recurse into the nested
    # StateTransferCostModel and JobConfig(**kwargs) would get a dict.
    kwargs = {f.name: getattr(config, f.name)
              for f in dataclasses.fields(config)}
    kwargs["shards"] = 1
    return kwargs


def plan_for_job(job, num_shards: int,
                 weights: Optional[Dict[str, float]] = None,
                 forbidden_edges: Optional[set] = None) -> ShardPlan:
    """Partition a built job's graph using its *actual* channel latencies.

    The legality of a cut is decided by the minimum latency any physical
    channel of the edge has (instance placement can map one logical edge
    onto several links).  ``weights`` default to per-operator event counts
    when the job has run (telemetry probe / previous run), else uniform.
    ``forbidden_edges`` (edge names, ``"src->dst"``) are treated as
    zero-latency — i.e. never cut; :func:`run_sharded` uses this to
    replan around cut channels whose credit ledger showed single-process
    flow control would have engaged.
    """
    lat: Dict[str, float] = {}
    for op_name in job.graph.operators:
        for inst in job.instances(op_name):
            for edge in inst.router.edges:
                name = f"{op_name}->{edge.dst_op}"
                for ch in edge.channels:
                    cur = lat.get(name)
                    l = ch.link.latency
                    lat[name] = l if cur is None else min(cur, l)
    if weights is None:
        weights = operator_event_weights(job)
    forbidden = forbidden_edges or set()

    def edge_latency(e):
        if e.name in forbidden:
            return 0.0
        return lat.get(e.name, 0.0)

    return partition_graph(job.graph, num_shards, edge_latency,
                           weights=weights)


def operator_event_weights(job) -> Optional[Dict[str, float]]:
    """Per-operator event-count weights from a (probe) run's counters.

    Returns ``None`` when the job has not processed anything yet (fresh
    build) so the partitioner falls back to uniform weights.  Sources do
    not count records the way operators do; they are weighted like their
    heaviest direct consumer (they emit what the consumer processes).
    """
    counts: Dict[str, float] = {}
    for op_name in job.graph.operators:
        counts[op_name] = float(sum(
            inst.records_processed for inst in job.instances(op_name)))
    if not any(counts.values()):
        return None
    for spec in job.graph.sources():
        downstream = [counts.get(e.dst, 0.0)
                      for e in job.graph.out_edges(spec.name)]
        counts[spec.name] = max(downstream) if downstream else 1.0
    floor = max(counts.values()) * 0.01 + 1.0
    return {name: max(c, floor) for name, c in counts.items()}


# ---------------------------------------------------------------------------
# Channel enumeration (identical deterministic walk in every worker)
# ---------------------------------------------------------------------------

def _enumerate_channels(job) -> List[Tuple[int, str, str, object]]:
    """``[(channel_id, src_op, dst_op, Channel)]`` in deterministic order.

    Walk: operators in topological order, instances in index order, output
    edges in attach order, channels in attach order — every worker builds
    the same job the same way, so ids agree across processes.
    """
    out = []
    cid = 0
    for op_name in topological_order(job.graph):
        for inst in job.instances(op_name):
            for edge in inst.router.edges:
                for ch in edge.channels:
                    out.append((cid, op_name, edge.dst_op, ch))
                    cid += 1
    return out


# ---------------------------------------------------------------------------
# Proxy endpoints
# ---------------------------------------------------------------------------

class _Egress:
    """Sender-side stand-in for the receiver's InputChannel.

    The real Channel keeps simulating serialization and propagation; its
    delivery events call these methods at the exact per-element delivery
    times, which we capture (kind, channel id, time, element) for the
    next frame.  Credit debits for the post-hoc flow-control ledger are
    reconstructed here: an element delivered at ``t`` left the outbox
    (consumed its credit) one serialization + propagation earlier.
    """

    __slots__ = ("cid", "sim", "buf", "latency", "bw", "debits")

    def __init__(self, cid: int, sim, buf: List, latency: float, bw: float,
                 debits: List):
        self.cid = cid
        self.sim = sim
        self.buf = buf
        self.latency = latency
        self.bw = bw
        self.debits = debits

    def deliver(self, element) -> None:
        now = self.sim._now
        size = getattr(element, "size_bytes", 0.0) or 0.0
        self.debits.append((now - self.latency - size / self.bw, 1))
        self.buf.append(("e", self.cid, now, element))

    def deliver_batch(self, batch) -> None:
        head = batch.records[0]
        when = (batch.visible_times[0] - self.latency
                - head.size_bytes / self.bw)
        self.debits.append((when, len(batch.records)))
        self.buf.append(("b", self.cid, self.sim._now, batch))

    def deliver_control(self, element) -> None:
        # Control lane bypasses flow control: no debit.
        self.buf.append(("c", self.cid, self.sim._now, element))

    def total_depth(self) -> int:
        return 0


class _IngressFeed:
    """Receiver-side stand-in for the sending Channel.

    Keeps the real InputChannel; this object only *ledgers* the credit
    returns the consume side makes to its backing channel (``pop`` /
    ``remove``): each is recorded at pop time for the post-hoc credit
    replay (see module docstring).  ``credits`` exists for the ``+= 1``
    inlined in ``pop()``; the sender, in another process, runs with
    unbounded credits of its own.
    """

    __slots__ = ("cid", "sim", "credits", "returns")

    def __init__(self, cid: int, sim):
        self.cid = cid
        self.sim = sim
        self.credits = float("inf")
        #: Times at which the receiver returned a flow-control credit.
        self.returns: List[float] = []

    # -- credit ledger (InputChannel call sites) ----------------------------

    def _kick(self) -> None:
        # Called right after the inlined ``credits += 1`` in pop().
        self.returns.append(self.sim._now)

    def _return_credit(self) -> None:
        self.returns.append(self.sim._now)

    def landed(self) -> int:
        # The wire lives in the sender's process: nothing to add to the
        # receiver's logical depth here.
        return 0


# ---------------------------------------------------------------------------
# Run-view collection (shared by workers and the single-process reference)
# ---------------------------------------------------------------------------

def _canon(obj):
    """Canonical, process-independent form of a state value for digesting."""
    if isinstance(obj, dict):
        return tuple(sorted(((repr(k), _canon(v)) for k, v in obj.items())))
    if isinstance(obj, (set, frozenset)):
        return tuple(sorted(repr(x) for x in obj))
    if isinstance(obj, (list, tuple)):
        return tuple(_canon(x) for x in obj)
    return repr(obj)


def _state_digest(instance) -> str:
    """Stable digest of an instance's keyed state.

    Excludes ``KeyGroupState.version`` (a process-wide counter, not
    simulated state) and canonicalizes dict/set ordering.
    """
    import hashlib
    groups = []
    for g in sorted(instance.state.groups(), key=lambda g: g.key_group):
        groups.append((g.key_group, g.status.name, repr(g.size_bytes),
                       _canon(g.entries)))
    return hashlib.sha256(repr(groups).encode()).hexdigest()


def _record_view(rec) -> tuple:
    """A Record as comparable data, excluding process-local ids."""
    return (rec.key, rec.key_group, rec.event_time, _canon(rec.value),
            rec.count, rec.size_bytes, rec.created_at)


def collect_run_view(job, owned_ops, *, collect_sinks=False,
                     watermark_traces=None) -> Dict[str, Any]:
    """The comparable outcome of a run, restricted to ``owned_ops``."""
    metrics = job.metrics
    view: Dict[str, Any] = {
        "latency_samples": list(metrics.latency_samples),
        "source_events": list(metrics.source_events()),
        "sink_events": list(metrics.sink_events()),
        "custom": {k: list(v) for k, v in metrics.custom.items()},
        "state_digests": {},
        "watermarks": {},
        "records_processed": {},
        "sinks": {},
        "watermark_traces": dict(watermark_traces or {}),
    }
    sink_names = {spec.name for spec in job.graph.sinks()}
    for op_name in owned_ops:
        for inst in job.instances(op_name):
            view["watermarks"][inst.name] = inst.current_watermark
            view["records_processed"][inst.name] = inst.records_processed
            if inst.state.groups():
                view["state_digests"][inst.name] = _state_digest(inst)
            if op_name in sink_names:
                logic = inst.logic
                view["sinks"][inst.name] = {
                    "records_in": getattr(logic, "records_in", None),
                    "collected": ([_record_view(r)
                                   for r in logic.collected]
                                  if collect_sinks and
                                  getattr(logic, "collect", False) else None),
                }
    return view


def _merge_views(views: List[Dict[str, Any]]) -> Dict[str, Any]:
    merged: Dict[str, Any] = {
        "latency_samples": [], "source_events": [], "sink_events": [],
        "custom": {}, "state_digests": {}, "watermarks": {},
        "records_processed": {}, "sinks": {}, "watermark_traces": {},
    }
    for v in views:
        merged["latency_samples"] += v["latency_samples"]
        merged["source_events"] += v["source_events"]
        merged["sink_events"] += v["sink_events"]
        for k, series in v["custom"].items():
            merged["custom"].setdefault(k, []).extend(series)
        for k in ("state_digests", "watermarks", "records_processed",
                  "sinks", "watermark_traces"):
            merged[k].update(v[k])
    # Cross-shard concatenation order is shard order; normalize the merged
    # time series so they compare equal to the single-process ordering.
    merged["latency_samples"].sort()
    merged["source_events"].sort()
    merged["sink_events"].sort()
    for series in merged["custom"].values():
        series.sort()
    return merged


# ---------------------------------------------------------------------------
# Worker
# ---------------------------------------------------------------------------

def _install_watermark_trace(job, traces: Dict[str, List]) -> None:
    """Record (arrival sim-time, timestamp) of every sink-side watermark."""
    from ..engine.records import Watermark
    for spec in job.graph.sinks():
        for inst in job.instances(spec.name):
            trace = traces.setdefault(inst.name, [])

            def intercept(channel, element, _inst=inst, _trace=trace):
                if element.__class__ is Watermark:
                    _trace.append((_inst.sim._now, element.timestamp))
                return False

            inst.element_interceptor = intercept


def _apply_inbox_overrides(job, overrides: Dict[str, int]) -> None:
    """Set per-edge inbox (credit) capacities on a freshly built job.

    ``overrides`` maps edge names (``"src->dst"``) to capacities; every
    physical channel of a matching edge gets the new capacity (credits are
    still untouched by traffic at this point, so they are reset too).
    Used by both the sharded workers and the single-process reference so
    the two runs being compared simulate identical flow control.
    """
    if not overrides:
        return
    for op_name in job.graph.operators:
        for inst in job.instances(op_name):
            for edge in inst.router.edges:
                cap = overrides.get(f"{op_name}->{edge.dst_op}")
                if cap is None:
                    continue
                for ch in edge.channels:
                    ch.inbox_capacity = cap
                    ch.credits = cap


def _build_local_job(workload, spec: ShardSpec):
    """Replicate ``Workload.build`` with shard-selective generator spawn."""
    from ..engine.runtime import JobConfig, StreamJob
    config = JobConfig(**spec.config_kwargs)
    graph = workload.build_graph()
    job = StreamJob(graph, config=config)
    job.build()
    _apply_inbox_overrides(job, spec.inbox_overrides)
    owned = set(spec.shards[spec.shard_id])
    owns_sources = any(graph.operators[name].is_source for name in owned)
    if owns_sources:
        for index, generator in enumerate(workload.generators(job)):
            job.sim.spawn(generator, name=f"{workload.name}-gen-{index}")
    if spec.collect_sinks:
        for sink_spec in graph.sinks():
            if sink_spec.name in owned:
                for inst in job.instances(sink_spec.name):
                    inst.logic.collect = True
    return job, owned


def _localize(job, spec: ShardSpec):
    """Replace cross-shard channel endpoints with proxies; start owned ops.

    Returns ``(egress_buffers, feeds, debits)`` where ``egress_buffers``
    maps a downstream shard id to its capture list, ``feeds`` maps channel
    id to its :class:`_IngressFeed`, and ``debits`` maps channel id to the
    credit-debit ledger list its egress endpoint appends to.
    """
    shard_of = {name: i for i, ops in enumerate(spec.shards)
                for name in ops}
    me = spec.shard_id
    egress_buffers: Dict[int, List] = {}
    debits: Dict[int, List] = {}
    feeds: Dict[int, _IngressFeed] = {}
    for cid, src_op, dst_op, ch in _enumerate_channels(job):
        s, d = shard_of[src_op], shard_of[dst_op]
        if s == d:
            continue
        if s == me:
            buf = egress_buffers.setdefault(d, [])
            debit = debits.setdefault(cid, [])
            ch.input_channel = _Egress(cid, job.sim, buf, ch.link.latency,
                                       ch.link.bandwidth, debit)
            ch.credits = float("inf")
        elif d == me:
            feed = _IngressFeed(cid, job.sim)
            ic = ch.input_channel
            ic.channel = feed
            feeds[cid] = feed
    owned = set(spec.shards[me])
    for op_name in owned:
        for inst in job.instances(op_name):
            inst.start()
    return egress_buffers, feeds, debits


def _inject(ic, kind: str, element) -> None:
    if kind == "e":
        ic.deliver(element)
    elif kind == "b":
        ic.deliver_batch(element)
    else:
        ic.deliver_control(element)


# ---------------------------------------------------------------------------
# Cut-edge transport
# ---------------------------------------------------------------------------

#: Blocked/writer-full wait backoff: start, cap (seconds).
_WAIT_MIN = 5e-5
_WAIT_MAX = 2e-3
#: Safety bound on one blocked wait.
_WAIT_LIMIT = 10.0


class _SyncStats:
    """Per-worker synchronization-protocol counters (one per worker,
    shared by all of its senders; shipped in the result bundle)."""

    __slots__ = ("null_sent", "null_suppressed",
                 "grant_rounds", "frames_sent", "msgs_sent",
                 "bytes_shipped", "spills", "batch_fallbacks",
                 "blocked_waits", "blocked_wait_s", "writer_full_wait_s")

    def __init__(self):
        self.null_sent = 0           # bare-grant frames actually sent
        self.null_suppressed = 0     # grant advances not sent (no demand)
        self.grant_rounds = 0        # synchronization rounds (flush calls)
        self.frames_sent = 0
        self.msgs_sent = 0           # staged cut-edge messages shipped
        self.bytes_shipped = 0
        self.spills = 0              # frames too large for the ring
        self.batch_fallbacks = 0     # batches that needed whole-pickle
        self.blocked_waits = 0
        self.blocked_wait_s = 0.0
        self.writer_full_wait_s = 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "null_sent": self.null_sent,
            "null_suppressed": self.null_suppressed,
            "grant_rounds": self.grant_rounds,
            "frames_sent": self.frames_sent,
            "msgs_sent": self.msgs_sent,
            "bytes_shipped": self.bytes_shipped,
            "spills": self.spills,
            "batch_fallbacks": self.batch_fallbacks,
            "blocked_waits": self.blocked_waits,
            "blocked_wait_s": self.blocked_wait_s,
            "writer_full_wait_s": self.writer_full_wait_s,
        }


class _AdaptiveQuantum:
    """Per-worker quantum controller: widen while rounds are productive,
    shrink back toward the initial quantum on blocked waits.

    Host pacing only — the quantum never changes *what* is simulated
    (injection times are exact), just how much sim-time each
    synchronization round covers, i.e. how often the worker pays flush +
    grant overhead.
    """

    __slots__ = ("value", "initial", "qmax", "streak", "widenings",
                 "shrinks")

    def __init__(self, initial: float):
        self.value = initial
        self.initial = initial
        self.qmax = initial * QUANTUM_GROWTH_LIMIT
        self.streak = 0
        self.widenings = 0
        self.shrinks = 0

    def productive(self) -> None:
        """A round advanced the frontier without a blocked wait."""
        self.streak += 1
        if self.streak >= PRODUCTIVE_STREAK and self.value < self.qmax:
            self.value = min(self.value * 2.0, self.qmax)
            self.streak = 0
            self.widenings += 1

    def blocked(self) -> None:
        """A round stalled on upstream grants."""
        self.streak = 0
        if self.value > self.initial:
            self.value = max(self.value * 0.5, self.initial)
            self.shrinks += 1


class _ShmSender:
    """Upstream endpoint of one cut shard pair over a shared-memory ring.

    Data frames always carry the current grant (piggybacking).  Bare
    grants are demand-driven: sent only when the grant advanced *and* the
    downstream reader has raised its blocked flag — otherwise the advance
    is only noted (``null_suppressed``) and will piggyback on the next
    data frame, or be sent late if the reader blocks on it after all.
    """

    __slots__ = ("ring", "spill", "stats", "sent_grant", "seen_grant")

    def __init__(self, ring: ShmRing, spill, stats: _SyncStats):
        self.ring = ring
        self.spill = spill  # the pair's pipe: oversized-frame side channel
        self.stats = stats
        self.sent_grant = -1.0  # grant the receiver has actually seen
        self.seen_grant = -1.0  # newest grant observed (sent or not)

    def send(self, msgs: Optional[List], grant: float, final: bool) -> None:
        stats = self.stats
        if msgs or final:
            data = encode_frame(msgs or (), grant, final, stats=stats)
            if msgs:
                stats.msgs_sent += len(msgs)
                # Safe even though the ring write below may still be
                # waiting for space: the frame bytes captured everything
                # (columns copied, object payloads pickled) at encode
                # time, so clearing/mutating the staging list or the
                # elements cannot corrupt the receiver.  Regression:
                # tests/simulation/test_shm_ring.py.
                msgs.clear()
            self._push(data)
            self.sent_grant = self.seen_grant = grant
            return
        if grant > self.seen_grant:
            self.seen_grant = grant
            if self.ring.reader_blocked():
                self._push(encode_frame((), grant, False))
                self.sent_grant = grant
                stats.null_sent += 1
            else:
                stats.null_suppressed += 1
        elif grant > self.sent_grant and self.ring.reader_blocked():
            # Previously-suppressed grant, but the reader has since
            # blocked on it: deliver the null message now.
            self._push(encode_frame((), grant, False))
            self.sent_grant = grant
            stats.null_sent += 1

    def _push(self, data: bytes) -> None:
        stats = self.stats
        ring = self.ring
        stats.frames_sent += 1
        stats.bytes_shipped += len(data)
        if len(data) + 4 > ring.capacity:
            # Frame larger than the ring: in-band marker first (keeps
            # frame order), then the payload over the side pipe.  The
            # marker-before-payload order matters — the reader only does
            # a blocking pipe read after consuming the marker, so the
            # writer can never wedge mid-protocol.
            stats.spills += 1
            t0 = time.perf_counter()
            delay = _WAIT_MIN
            while not ring.push_spill_marker():
                time.sleep(delay)
                if delay < _WAIT_MAX:
                    delay *= 2
            stats.writer_full_wait_s += time.perf_counter() - t0
            self.spill.send_bytes(data)
            return
        if ring.push(data):
            return
        # Ring full: the reader always drains (its main loop and its
        # blocked wait both poll), so back off until space frees up.
        t0 = time.perf_counter()
        delay = _WAIT_MIN
        while not ring.push(data):
            time.sleep(delay)
            if delay < _WAIT_MAX:
                delay *= 2
        stats.writer_full_wait_s += time.perf_counter() - t0


class _ShmReceiver:
    """Downstream endpoint of one cut pair: drains frames off the ring
    (fetching spilled payloads from the side pipe) and tracks the
    upstream grant."""

    __slots__ = ("ring", "spill", "grant", "done")

    def __init__(self, ring: ShmRing, spill):
        self.ring = ring
        self.spill = spill
        self.grant = 0.0
        self.done = False

    def poll(self, out: List) -> bool:
        """Decode every available frame into ``out``; True if any frame
        (data or bare grant) arrived."""
        got = False
        ring = self.ring
        while True:
            item = ring.pop()
            if item is None:
                break
            if item is SPILL:
                item = self.spill.recv_bytes()
            grant, final, msgs = decode_frame(item)
            got = True
            if grant > self.grant:
                self.grant = grant
            if final:
                self.grant = math.inf
                self.done = True
            if msgs:
                out.extend(msgs)
        return got


def _worker_main(shard_id: int, workload_factory, spec_conn, result_conn,
                 upstream: Dict[int, Tuple], downstream: Dict[int, Tuple]):
    """One shard's event loop under conservative synchronization.

    ``upstream`` / ``downstream`` map a peer shard id to that cut pair's
    ``(ShmRing, spill pipe end)``.
    """
    try:
        spec: ShardSpec = spec_conn.recv()
        workload = workload_factory()
        job, owned = _build_local_job(workload, spec)
        sim = job.sim
        egress_buffers, feeds, debits = _localize(job, spec)
        traces: Dict[str, List] = {}
        if spec.trace_watermarks:
            _install_watermark_trace(job, traces)
        ics = {}
        for cid, _s, _d, ch in _enumerate_channels(job):
            if cid in feeds:
                ics[cid] = ch.input_channel

        until = spec.until
        stats = _SyncStats()
        aq = _AdaptiveQuantum(spec.quantum)
        senders = {d: _ShmSender(ring, spill, stats)
                   for d, (ring, spill) in downstream.items()}
        receivers = {u: _ShmReceiver(ring, spill)
                     for u, (ring, spill) in upstream.items()}
        grants = {u: 0.0 for u in upstream}
        # Staged ingress: heap of (time, channel_id, seq, kind, payload).
        staged: List[Tuple] = []
        seqs = {cid: 0 for cid in feeds}
        my_grant = 0.0
        t0 = time.perf_counter()
        cpu0 = time.process_time()

        def stage(msgs: List) -> None:
            for mkind, cid, t, payload in msgs:
                seq = seqs[cid]
                seqs[cid] = seq + 1
                heapq.heappush(staged, (t, cid, seq, mkind, payload))

        def poll_all() -> bool:
            buf: List = []
            got = False
            for u, rx in receivers.items():
                if rx.poll(buf):
                    got = True
                g = rx.grant
                if g > grants[u]:
                    grants[u] = g
            if buf:
                stage(buf)
            return got

        def drain_upstream(block: bool) -> None:
            got = poll_all()
            if not block or got:
                return
            # Blocked wait: nothing new and the caller cannot advance.
            stats.blocked_waits += 1
            w0 = time.perf_counter()
            # Raise the blocked flag on the *binding* upstream rings
            # (grant == the current minimum) — that is the demand signal
            # their writers' null messages are gated on.  The re-poll
            # after raising the flags closes the race with a writer that
            # pushed between our first poll and the flag.
            low = min(grants.values()) if grants else math.inf
            flagged = [rx for u, rx in receivers.items()
                       if not rx.done and grants[u] <= low]
            for rx in flagged:
                rx.ring.set_blocked(True)
            delay = _WAIT_MIN
            try:
                while not poll_all():
                    if time.perf_counter() - w0 > _WAIT_LIMIT:
                        break
                    time.sleep(delay)
                    if delay < _WAIT_MAX:
                        delay *= 2
            finally:
                for rx in flagged:
                    rx.ring.set_blocked(False)
            w1 = time.perf_counter()
            stats.blocked_wait_s += w1 - w0

        def flush(final: bool) -> None:
            nonlocal my_grant
            stats.grant_rounds += 1
            local_next = sim.peek()
            pending_min = staged[0][0] if staged else math.inf
            safe = min(grants.values()) if grants else math.inf
            if final:
                my_grant = math.inf
            else:
                my_grant = max(my_grant,
                               min(local_next, pending_min, safe))
            for d, snd in senders.items():
                snd.send(egress_buffers.get(d), my_grant, final)

        def run_to(stop: float, inclusive: bool) -> None:
            """Advance local sim to ``stop``, injecting staged messages
            below it (at it too, when inclusive) at their exact times."""
            while staged:
                t = staged[0][0]
                if t > stop or (t == stop and not inclusive):
                    break
                sim.run(until=math.nextafter(t, -math.inf))
                # All messages at exactly t, canonical (t, cid, seq)
                # order, delivered by ONE kernel callback: the per-message
                # pop/update/inject sequence inside it is exactly the
                # sequence N separate consecutive-counter callbacks would
                # have produced, at a fraction of the heap traffic.
                batch = []
                while staged and staged[0][0] == t:
                    _t, cid, _seq, mkind, payload = heapq.heappop(staged)
                    batch.append((cid, mkind, payload))

                def deliver_all(batch=batch):
                    for cid, mkind, payload in batch:
                        _inject(ics[cid], mkind, payload)

                sim.call_at(t, deliver_all)
            if inclusive:
                sim.run(until=stop)
            else:
                sim.run(until=math.nextafter(stop, -math.inf))

        # `frontier` is the exclusive simulated-time bound this shard has
        # fully executed (run_to leaves sim._now at nextafter(stop, -inf),
        # so sim._now itself never equals the bound).
        frontier = 0.0
        while True:
            drain_upstream(block=False)
            safe = min(grants.values()) if grants else math.inf
            if safe > until:
                # Everything upstream is final: run inclusive of events at
                # `until` (matching single-process job.run semantics),
                # chunked so downstream keeps receiving traffic.
                while frontier < until:
                    frontier = min(frontier + aq.value, until)
                    if frontier == until:
                        break
                    run_to(frontier, inclusive=False)
                    flush(final=False)
                    aq.productive()
                run_to(until, inclusive=True)
                flush(final=True)
                break
            stop = min(safe, frontier + aq.value, until)
            if stop > frontier or (staged and staged[0][0] < stop):
                run_to(stop, inclusive=False)
                frontier = max(frontier, stop)
                flush(final=False)
                aq.productive()
            else:
                # Cannot advance: wait for upstream grants/messages.
                flush(final=False)
                aq.blocked()
                drain_upstream(block=True)

        view = collect_run_view(job, owned,
                                collect_sinks=spec.collect_sinks,
                                watermark_traces=traces)
        sync = stats.as_dict()
        sync["quantum_initial"] = aq.initial
        sync["quantum_final"] = aq.value
        sync["quantum_max"] = aq.qmax
        sync["quantum_widenings"] = aq.widenings
        sync["quantum_shrinks"] = aq.shrinks
        bundle = {
            "shard_id": shard_id,
            "view": view,
            "events_processed": sim.events_processed,
            "wall_s": time.perf_counter() - t0,
            "cpu_s": time.process_time() - cpu0,
            "credit_returns": {cid: feed.returns
                               for cid, feed in feeds.items()},
            "credit_debits": debits,
            "inbox_capacity": job.config.inbox_capacity,
            "sync": sync,
        }
        result_conn.send(("done", bundle))
    except BaseException:
        import traceback
        try:
            result_conn.send(("err", traceback.format_exc()))
        except Exception:  # pragma: no cover - parent gone
            pass
    finally:
        result_conn.close()


# ---------------------------------------------------------------------------
# Credit-ledger replay (post-hoc backpressure check)
# ---------------------------------------------------------------------------

def _replay_credits(debits: Dict[int, List[Tuple[float, int]]],
                    returns: Dict[int, List[float]],
                    capacity,
                    edge_of: Optional[Dict[int, str]] = None,
                    ) -> Tuple[bool, List[str], set]:
    """Replay each cut channel's credit counter; flag exhaustion.

    ``capacity`` is either one int for every channel or a ``cid ->
    capacity`` mapping (per-cut-edge inbox overrides from the plan's cut
    hints land here).
    """
    problems = []
    flagged = set()
    edge_of = edge_of or {}
    per_cid = capacity if isinstance(capacity, dict) else None
    for cid, debit_list in debits.items():
        cap = per_cid[cid] if per_cid is not None else capacity
        events = [(when, 1, -k) for when, k in debit_list]
        events += [(when, 0, 1) for when in returns.get(cid, [])]
        events.sort()
        credits = cap
        low = cap
        for _when, _prio, delta in events:
            credits += delta
            low = min(low, credits)
        if low < 0:
            edge = edge_of.get(cid)
            where = f"channel {cid}" + (f" ({edge})" if edge else "")
            problems.append(
                f"{where}: single-process flow control would have "
                f"engaged (credit low-water {low}, capacity {cap})")
            if edge:
                flagged.add(edge)
    return (not problems), problems, flagged


# ---------------------------------------------------------------------------
# Result + orchestration
# ---------------------------------------------------------------------------

class ShardedRunResult:
    """Merged outcome of a sharded (or reference single-process) run."""

    def __init__(self, view: Dict[str, Any], *, shards: int, plan=None,
                 events_per_shard=None, wall_s: float = 0.0,
                 worker_walls=None, worker_cpus=None,
                 backpressure_safe: bool = True,
                 backpressure_detail=None, until: float = 0.0,
                 replans: int = 0, forbidden_cuts=None,
                 transport: Optional[str] = None, sync_per_shard=None,
                 shards_requested: Optional[int] = None, degraded=None):
        self.view = view
        #: Worker processes the run actually used.
        self.shards = shards
        #: Worker processes the caller asked for (``shards`` when it got
        #: them all).
        self.shards_requested = (shards if shards_requested is None
                                 else shards_requested)
        #: Machine-readable reasons the run is less than what was asked
        #: for, in the order they arose: ``"single-process:<reason>"``
        #: (:func:`supports_sharding` said no, or ``no-shm``: the
        #: shared-memory rings could not be created) and
        #: ``"clamped:<asked>-><got>"`` (fewer legal cut boundaries than
        #: requested shards).  Empty for an undegraded run.
        self.degraded: List[str] = list(degraded or [])
        self.plan = plan
        self.events_per_shard = events_per_shard or []
        self.wall_s = wall_s
        self.worker_walls = worker_walls or []
        self.worker_cpus = worker_cpus or []
        self.backpressure_safe = backpressure_safe
        self.backpressure_detail = backpressure_detail or []
        self.until = until
        self.replans = replans
        self.forbidden_cuts = sorted(forbidden_cuts or [])
        #: ``"shm"`` for sharded runs, None single-process.
        self.transport = transport
        #: Per-shard sync-protocol counter dicts (see ``_SyncStats``).
        self.sync_per_shard: List[Dict[str, Any]] = sync_per_shard or []
        self._flagged_edges: set = set()

    # -- bench-facing aggregates -------------------------------------------

    @property
    def kernel_events(self) -> int:
        return sum(self.events_per_shard)

    @property
    def bottleneck_cpu_s(self) -> float:
        """CPU seconds of the busiest shard — the critical-path wall time
        the run would take with one free core per shard.  On machines with
        fewer cores than shards, measured wall-clock reflects timeslicing
        of one core, not the pipeline; this is the hardware-independent
        number (plus IPC, which overlaps with compute)."""
        return max(self.worker_cpus, default=0.0)

    def total_source_output(self) -> int:
        return sum(c for _t, c in self.view["source_events"])

    def total_sink_input(self) -> int:
        return sum(c for _t, c in self.view["sink_events"])

    def sync_totals(self) -> Dict[str, Any]:
        """Sum of the sync-protocol counters across shards (the
        aggregate the benchmark ledger reports).
        Empty for single-process runs."""
        if not self.sync_per_shard:
            return {}
        totals: Dict[str, Any] = {}
        for key in ("null_sent", "null_suppressed", "grant_rounds",
                    "frames_sent", "msgs_sent", "bytes_shipped", "spills",
                    "batch_fallbacks", "blocked_waits"):
            totals[key] = sum(s.get(key, 0) for s in self.sync_per_shard)
        for key in ("blocked_wait_s", "writer_full_wait_s"):
            totals[key] = sum(s.get(key, 0.0) for s in self.sync_per_shard)
        return totals

    # -- equivalence -------------------------------------------------------

    def semantic_view(self) -> Dict[str, Any]:
        """The cross-process-comparable subtree (no kernel event counts —
        injection callbacks inflate them; no wall-clock).

        Time series are sorted: a sharded run concatenates per-shard
        series, a single-process run records them in dispatch order — the
        multisets must be identical, the interleavings need not be.
        """
        view = dict(self.view)
        view["latency_samples"] = sorted(view["latency_samples"])
        view["source_events"] = sorted(view["source_events"])
        view["sink_events"] = sorted(view["sink_events"])
        view["custom"] = {k: sorted(v) for k, v in view["custom"].items()}
        return view


def run_single_reference(workload_factory, *, until: float,
                         job_config=None, collect_sinks: bool = False,
                         trace_watermarks: bool = False,
                         inbox_overrides: Optional[Dict[str, int]] = None,
                         ) -> ShardedRunResult:
    """Single-process run producing the same result shape as a sharded run.

    ``inbox_overrides`` applies per-edge inbox capacities (the plan's cut
    hints) so the reference simulates the same flow control as a sharded
    run configured with them.
    """
    from ..engine.runtime import JobConfig
    import dataclasses as _dc
    config = job_config or JobConfig()
    if config.shards != 1:
        config = _dc.replace(config, shards=1)
    workload = workload_factory()
    job = workload.build(job_config=config)
    _apply_inbox_overrides(job, inbox_overrides or {})
    if collect_sinks:
        for spec in job.graph.sinks():
            for inst in job.instances(spec.name):
                inst.logic.collect = True
    traces: Dict[str, List] = {}
    if trace_watermarks:
        _install_watermark_trace(job, traces)
    t0 = time.perf_counter()
    cpu0 = time.process_time()
    job.run(until=until)
    cpu = time.process_time() - cpu0
    wall = time.perf_counter() - t0
    view = collect_run_view(job, list(job.graph.operators),
                            collect_sinks=collect_sinks,
                            watermark_traces=traces)
    return ShardedRunResult(view, shards=1,
                            events_per_shard=[job.sim.events_processed],
                            wall_s=wall, worker_cpus=[cpu], until=until)


def run_sharded(workload_factory, *, until: float, shards: int,
                job_config=None, weights: Optional[Dict[str, float]] = None,
                collect_sinks: bool = False,
                trace_watermarks: bool = False,
                quantum: float = DEFAULT_QUANTUM,
                max_replans: int = 1,
                cut_inbox: Optional[Dict[str, int]] = None,
                ring_bytes=None) -> ShardedRunResult:
    """Run a workload to ``until`` across ``shards`` worker processes.

    ``workload_factory`` must be a zero-argument callable returning a
    fresh :class:`~repro.workloads.base.Workload`; each worker calls it
    after forking and builds the *full* job deterministically, then starts
    only its own shard's instances.  Falls back to
    :func:`run_single_reference` when ``shards <= 1``, the plan collapses
    to one shard, the platform cannot fork, or the shared-memory rings
    cannot be created.  Whenever the run is less than what was asked for
    -- single-process, or fewer workers than ``shards`` because the graph
    has fewer legal cuts -- it warns, and the result says so in
    ``shards_requested`` / ``degraded``.

    ``cut_inbox`` maps edge names to per-cut-edge inbox-capacity overrides
    and ``ring_bytes`` (int or per-edge mapping) sizes the shared-memory
    rings; both are recorded as cut hints on the partition plan.  A caller
    that passes ``cut_inbox`` must pass the same mapping to
    :func:`run_single_reference` (``inbox_overrides``) for equivalence
    comparisons.

    When the post-hoc credit ledger shows single-process flow control
    would have engaged on a cut channel (``backpressure_safe`` False —
    the one case where results may diverge from single-process), the run
    is re-planned with those edges forbidden and retried, up to
    ``max_replans`` times.  A result that still is not certified is
    returned with ``backpressure_safe=False`` so callers can fall back.
    """
    from ..engine.runtime import JobConfig
    config = job_config or JobConfig()

    def single(*degraded: str) -> ShardedRunResult:
        result = run_single_reference(
            workload_factory, until=until, job_config=config,
            collect_sinks=collect_sinks, trace_watermarks=trace_watermarks,
            inbox_overrides=cut_inbox)
        result.shards_requested = shards
        result.degraded += degraded
        return result

    support = supports_sharding(config)
    if shards <= 1:
        return single()
    if not support:
        warnings.warn(
            f"sharded run degraded to single-process "
            f"[{support.reason}]: {support.detail}",
            RuntimeWarning, stacklevel=2)
        return single(f"single-process:{support.reason}")

    # Plan on a throwaway build (actual channel latencies, no run).
    probe_workload = workload_factory()
    probe_job = probe_workload.build(job_config=dataclasses.replace(
        config, shards=1))

    forbidden: set = set()
    replans = 0
    while True:
        plan = plan_for_job(probe_job, shards, weights=weights,
                            forbidden_edges=forbidden)
        # partition_graph clamps to the legal boundaries; say so.
        clamped = []
        if plan.num_shards < shards:
            clamped = [f"clamped:{shards}->{plan.num_shards}"]
            warnings.warn(
                f"sharded run clamped from {shards} to {plan.num_shards} "
                f"workers: the graph has only {plan.num_shards - 1} legal "
                f"cut boundaries ({plan.describe()})",
                RuntimeWarning, stacklevel=2)
        if plan.num_shards <= 1:
            return single(*clamped)
        plan.annotate_cuts(ring_bytes=ring_bytes, inbox_overrides=cut_inbox)
        try:
            result = _run_sharded_once(
                workload_factory, probe_job, plan, config, until=until,
                collect_sinks=collect_sinks,
                trace_watermarks=trace_watermarks, quantum=quantum)
        except _NoSharedMemory as exc:
            warnings.warn(
                f"sharded run degraded to single-process [no-shm]: the "
                f"shared-memory rings could not be created ({exc})",
                RuntimeWarning, stacklevel=2)
            return single(*clamped, "single-process:no-shm")
        result.shards_requested = shards
        result.degraded = clamped
        result.replans = replans
        result.forbidden_cuts = sorted(forbidden)
        flagged = result._flagged_edges & set(plan.cut_edges)
        if result.backpressure_safe or replans >= max_replans or not flagged:
            return result
        forbidden |= flagged
        replans += 1


def _pair_ring_bytes(plan, pair_edges: Dict[Tuple[int, int], List[str]],
                     pair) -> int:
    """Ring capacity for one cut shard pair: the max ``ring_bytes`` hint
    over the pair's edges, defaulting to :data:`DEFAULT_RING_BYTES`."""
    best = 0
    for name in pair_edges.get(pair, ()):
        best = max(best, plan.cut_hints.get(name, {}).get("ring_bytes", 0))
    return best or DEFAULT_RING_BYTES


class _NoSharedMemory(Exception):
    """The cut pairs' shared-memory rings could not be created."""


def _run_sharded_once(workload_factory, probe_job, plan, config, *,
                      until: float, collect_sinks: bool,
                      trace_watermarks: bool,
                      quantum: float) -> ShardedRunResult:
    pairs = set()
    pair_edges: Dict[Tuple[int, int], List[str]] = {}
    shard_of = plan.shard_of
    for e in probe_job.graph.edges:
        s, d = shard_of[e.src], shard_of[e.dst]
        if s != d:
            pairs.add((s, d))
            pair_edges.setdefault((s, d), []).append(e.name)

    # Shared-memory rings, created by the parent *before* forking so the
    # workers inherit the mappings (nothing pickled, no re-attach); the
    # parent closes and unlinks them after the run.
    rings: Dict[Tuple[int, int], ShmRing] = {}
    try:
        for pair in sorted(pairs):
            rings[pair] = ShmRing(_pair_ring_bytes(plan, pair_edges, pair))
    except OSError as exc:
        for ring in rings.values():
            ring.close()
            ring.unlink()
        raise _NoSharedMemory(str(exc)) from exc

    import multiprocessing
    import multiprocessing.connection
    ctx = multiprocessing.get_context("fork")
    spec_pipes = [ctx.Pipe(duplex=False) for _ in range(plan.num_shards)]
    result_pipes = [ctx.Pipe(duplex=False) for _ in range(plan.num_shards)]
    # One pipe per cut shard pair (u -> v): the oversized-frame spill
    # channel behind the ring.
    pair_pipes = {pair: ctx.Pipe(duplex=False) for pair in sorted(pairs)}

    inbox_overrides = {name: hints["inbox_capacity"]
                       for name, hints in plan.cut_hints.items()
                       if "inbox_capacity" in hints}

    workers = []
    t0 = time.perf_counter()
    try:
        for sid in range(plan.num_shards):
            # Pipe end 0 is the receiver side, end 1 the sender side.
            up = {u: (rings[u, v], pair_pipes[u, v][0])
                  for (u, v) in pairs if v == sid}
            down = {v: (rings[u, v], pair_pipes[u, v][1])
                    for (u, v) in pairs if u == sid}
            proc = ctx.Process(
                target=_worker_main,
                args=(sid, workload_factory, spec_pipes[sid][0],
                      result_pipes[sid][1], up, down),
                name=f"repro-shard-{sid}", daemon=True)
            proc.start()
            workers.append(proc)
        spec = ShardSpec(shard_id=0, shards=plan.shards, until=until,
                         quantum=quantum,
                         config_kwargs=_config_kwargs(config),
                         collect_sinks=collect_sinks,
                         trace_watermarks=trace_watermarks,
                         inbox_overrides=inbox_overrides)
        for sid in range(plan.num_shards):
            spec_pipes[sid][1].send(dataclasses.replace(spec,
                                                        shard_id=sid))

        bundles: Dict[int, Dict] = {}
        try:
            pending = {sid: result_pipes[sid][0]
                       for sid in range(plan.num_shards)}
            while pending:
                ready = multiprocessing.connection.wait(
                    list(pending.values()), timeout=1.0)
                if not ready:
                    for sid, proc in enumerate(workers):
                        if (sid not in bundles
                                and proc.exitcode not in (None, 0)):
                            raise RuntimeError(
                                f"shard {sid} worker died "
                                f"(exit {proc.exitcode})")
                    continue
                for conn in ready:
                    sid = next(s for s, c in pending.items() if c is conn)
                    status, payload = conn.recv()
                    if status == "err":
                        raise RuntimeError(
                            f"shard {sid} worker failed:\n{payload}")
                    bundles[sid] = payload
                    del pending[sid]
            for proc in workers:
                proc.join(timeout=30.0)
        finally:
            for proc in workers:
                if proc.is_alive():
                    proc.terminate()
    finally:
        for ring in rings.values():
            ring.close()
            ring.unlink()
    wall = time.perf_counter() - t0

    ordered = [bundles[sid] for sid in range(plan.num_shards)]
    view = _merge_views([b["view"] for b in ordered])

    # Post-hoc flow-control certification: replay every cut channel's
    # credit counter (sender-side debits vs receiver-side return times),
    # honouring per-cut-edge capacity overrides from the plan hints.
    edge_of = {cid: f"{src}->{dst}"
               for cid, src, dst, _ch in _enumerate_channels(probe_job)}
    backpressure_safe, detail, flagged = _ledger_check(
        ordered, edge_of, inbox_overrides)

    result = ShardedRunResult(
        view, shards=plan.num_shards, plan=plan,
        events_per_shard=[b["events_processed"] for b in ordered],
        wall_s=wall,
        worker_walls=[b["wall_s"] for b in ordered],
        worker_cpus=[b.get("cpu_s", 0.0) for b in ordered],
        backpressure_safe=backpressure_safe,
        backpressure_detail=detail, until=until,
        transport="shm",
        sync_per_shard=[b.get("sync", {}) for b in ordered])
    result._flagged_edges = flagged
    return result


def _ledger_check(bundles: List[Dict],
                  edge_of: Optional[Dict[int, str]] = None,
                  inbox_overrides: Optional[Dict[str, int]] = None,
                  ) -> Tuple[bool, List[str], set]:
    """Replay cut-channel credit counters from the workers' ledgers."""
    capacity = bundles[0].get("inbox_capacity", 32) if bundles else 32
    debits: Dict[int, List[Tuple[float, int]]] = {}
    returns: Dict[int, List[float]] = {}
    for b in bundles:
        for cid, lst in b.get("credit_debits", {}).items():
            debits.setdefault(cid, []).extend(lst)
        for cid, lst in b.get("credit_returns", {}).items():
            returns.setdefault(cid, []).extend(lst)
    if not debits:
        return True, [], set()
    if inbox_overrides and edge_of:
        per_cid = {cid: inbox_overrides.get(edge, capacity)
                   for cid, edge in edge_of.items()}
        return _replay_credits(debits, returns, per_cid, edge_of)
    return _replay_credits(debits, returns, capacity, edge_of)
