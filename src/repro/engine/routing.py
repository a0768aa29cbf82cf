"""Output-side routing: per-sender routing tables over keyed edges.

Every sender instance holds its *own copy* of the routing table for each
outgoing keyed edge — exactly the structure scaling signals coordinate: a
predecessor updates its private table and then emits barriers so downstream
can tell which records were routed with the old vs. new table.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, TYPE_CHECKING

from .channels import Channel
from .keys import key_group_memo, memoized_key_group
from .records import LatencyMarker, Record, StreamElement

if TYPE_CHECKING:  # pragma: no cover
    from .operators import OperatorInstance

__all__ = ["Partitioning", "OutputEdge", "OutputRouter", "ShardPlan",
           "NoChannelError", "partition_graph", "topological_order"]


class Partitioning(enum.Enum):
    FORWARD = "forward"        # 1:1 by instance index (chain)
    HASH = "hash"              # key-group routing table
    REBALANCE = "rebalance"    # round-robin
    BROADCAST = "broadcast"    # every element to every target


# Module globals for the per-record partitioning tests: a global load is
# several times cheaper than an enum class attribute read.
_FORWARD = Partitioning.FORWARD
_HASH = Partitioning.HASH
_REBALANCE = Partitioning.REBALANCE
_BROADCAST = Partitioning.BROADCAST


class NoChannelError(LookupError):
    """A channel was asked of an edge that has none: the hop is chained
    (its downstream instance runs inside the sender's task) or unwired."""


class OutputEdge:
    """One sender instance's view of an edge to a downstream operator.

    Keyed (HASH) lookups hash a ``str`` key once per key through the
    shared :func:`~.keys.key_group_memo`, then go through a key-group →
    channel cache; every routing-table or channel-list change (a re-route
    epoch, from this sender's perspective) must call
    :meth:`invalidate_cache` — done by
    :meth:`set_routing`/:meth:`add_channel`, and explicitly by runtime code
    that trims ``channels`` in place.

    A *chained* edge (:attr:`chained` set, ``channels`` empty for good) is
    a co-located FORWARD hop fused into the sender's task: every element
    goes to that one downstream instance directly, a record mostly inside
    the sender's ``OperatorInstance._handle_record`` walk.
    """

    def __init__(self, name: str, partitioning: Partitioning,
                 num_key_groups: int = 0,
                 sender_index: int = 0,
                 dst_op: Optional[str] = None):
        self.name = name
        self.partitioning = partitioning
        self.num_key_groups = num_key_groups
        self.sender_index = sender_index
        #: Name of the downstream operator (None for hand-built edges).
        self.dst_op = dst_op
        self.channels: List[Channel] = []
        #: The downstream instance of a chained hop, else None.
        self.chained: Optional["OperatorInstance"] = None
        #: key-group -> index into ``channels``; private to this sender.
        self.routing_table: Dict[int, int] = {}
        self._rr = 0
        #: key-group -> Channel, derived from routing_table + channels.
        self._channel_cache: Dict[int, Channel] = {}
        #: str key -> key-group, shared by every edge of this group count.
        self._key_memo = key_group_memo(num_key_groups)

    def add_channel(self, channel: Channel) -> int:
        """Register a channel to a (possibly new) downstream instance."""
        self.channels.append(channel)
        self.invalidate_cache()
        return len(self.channels) - 1

    def set_routing(self, key_group: int, target_index: int) -> None:
        if not 0 <= target_index < len(self.channels):
            raise ValueError(
                f"target {target_index} out of range "
                f"({len(self.channels)} channels)")
        self.routing_table[key_group] = target_index
        self.invalidate_cache()

    def invalidate_cache(self) -> None:
        """Drop the key-group → channel cache (routing changed)."""
        self._channel_cache.clear()

    def _no_channel(self) -> NoChannelError:
        why = ("not wired" if self.chained is None else
               f"chained: the router hands elements to {self.chained.name}")
        return NoChannelError(f"edge {self.name} has no channels ({why})")

    def channel_for_record(self, record: Record) -> Channel:
        partitioning = self.partitioning
        if partitioning is _HASH:
            kg = record.key_group
            if kg is None:
                key = record.key
                kg = self._key_memo.get(key) if type(key) is str else None
                if kg is None:
                    kg = memoized_key_group(key, self.num_key_groups,
                                            self._key_memo)
                record.key_group = kg
            channel = self._channel_cache.get(kg)
            if channel is None:
                channel = self.channels[self.routing_table[kg]]
                self._channel_cache[kg] = channel
            return channel
        # An edge without channels shows as the modulo's ZeroDivisionError:
        # catching it names the error without a per-record emptiness check.
        try:
            if partitioning is _FORWARD:
                return self.channels[self.sender_index % len(self.channels)]
            if partitioning is _REBALANCE:
                channel = self.channels[self._rr % len(self.channels)]
                self._rr += 1
                return channel
        except ZeroDivisionError:
            raise self._no_channel() from None
        raise ValueError(f"record on {partitioning} edge")

    def channel_for_marker(self, marker: LatencyMarker) -> Channel:
        if self.partitioning is _HASH:
            kg = marker.key_group
            if kg is None:
                key = marker.key
                kg = self._key_memo.get(key) if type(key) is str else None
                if kg is None:
                    kg = memoized_key_group(key, self.num_key_groups,
                                            self._key_memo)
                marker.key_group = kg
            channel = self._channel_cache.get(kg)
            if channel is None:
                channel = self.channels[self.routing_table[kg]]
                self._channel_cache[kg] = channel
            return channel
        # Forward/rebalance/broadcast edges: pin markers to one path for
        # stable measurements.
        try:
            return self.channels[self.sender_index % len(self.channels)]
        except ZeroDivisionError:
            raise self._no_channel() from None


class OutputRouter:
    """All outgoing edges of one operator instance, with blocking emit."""

    def __init__(self, instance: "OperatorInstance"):
        self.instance = instance
        self.edges: List[OutputEdge] = []

    def add_edge(self, edge: OutputEdge) -> None:
        self.edges.append(edge)

    def emit_record_fast(self, record: Record):
        """Single-edge record emission without the generator machinery.

        Returns the one send event when this router has exactly one
        non-broadcast edge with channels — the overwhelmingly common record
        path — or ``None``, in which case the caller must fall back to
        :meth:`emit`.  Semantically identical to ``emit(record)``: same
        single ``channel_for_record`` + ``send`` call, minus one generator.
        Callers yield the event only when it is not the simulator's shared
        ``_done`` (an accepted send): a pending send is backpressure.
        """
        edges = self.edges
        if len(edges) == 1:
            edge = edges[0]
            if edge.partitioning is not _BROADCAST \
                    and edge.channels:
                return edge.channel_for_record(record).send(record)
        return None

    def emit(self, element: StreamElement):
        """Generator: yields until the element is accepted everywhere.

        Records/markers go to exactly one channel per edge; watermarks and
        checkpoint barriers are broadcast to every channel of every edge
        (they must reach all downstream instances).
        """
        # ``abandon_work`` re-checks after every blocking yield: a sender
        # parked mid-broadcast when a failure-recovery teardown scrubbed
        # the channels must not push the remaining copies into the fresh
        # epoch (they belong to the rolled-back world).
        instance = self.instance
        if isinstance(element, Record):
            for edge in self.edges:
                if instance.abandon_work:
                    return
                if edge.partitioning is _BROADCAST:
                    for channel in edge.channels:
                        yield channel.send(element)
                elif edge.channels:
                    yield edge.channel_for_record(element).send(element)
                elif edge.chained is not None:
                    yield from edge.chained.handle_element(None, element)
        elif isinstance(element, LatencyMarker):
            for edge in self.edges:
                if instance.abandon_work:
                    return
                if edge.channels:
                    yield edge.channel_for_marker(element).send(element)
                elif edge.chained is not None:
                    yield from edge.chained.handle_element(None, element)
        else:
            rest = self.forward(element)
            if rest is not None:
                yield from rest

    def forward(self, element: StreamElement, dst_ops=None):
        """Send one in-band element down *every* path out of this instance
        — each channel of each edge, and each chained member — or only
        the edges into ``dst_ops`` when given.

        The one place that walks edges to broadcast: watermarks,
        checkpoint barriers, end-of-stream and scaling signals all come
        through here, so a channel-less (chained) edge cannot be skipped
        by a caller's own loop.  Returns ``None`` when every path took the
        element at once — the common case, which then costs no generator
        — and otherwise the generator the caller must ``yield from`` to
        finish the walk: it starts at the first chained member or pending
        (backpressured) send.  Accepted sends hand back the shared
        pre-succeeded event, which the kernel would continue past
        synchronously anyway, so they are never yielded.
        """
        instance = self.instance
        done = instance.sim.done
        for e, edge in enumerate(self.edges):
            if dst_ops is not None and edge.dst_op not in dst_ops:
                continue
            if edge.chained is not None:
                return self._forward_from(element, dst_ops, e, 0)
            for c, channel in enumerate(edge.channels):
                if instance.abandon_work:
                    return None
                ev = channel.send(element)
                if ev is not done:
                    return self._forward_from(element, dst_ops, e, c + 1, ev)
        return None

    def _forward_from(self, element, dst_ops, e, c, ev=None):
        """The rest of a :meth:`forward` walk: wait for the pending send
        ``ev``, then go on from channel ``c`` of edge ``e`` (live lists: a
        rescale may add channels while a send is pending)."""
        if ev is not None:
            yield ev
        instance = self.instance
        done = instance.sim.done
        edges = self.edges
        while e < len(edges):
            edge = edges[e]
            if dst_ops is None or edge.dst_op in dst_ops:
                if edge.chained is not None:
                    if instance.abandon_work:
                        return
                    yield from edge.chained.handle_element(None, element)
                while c < len(edge.channels):
                    if instance.abandon_work:
                        return
                    ev = edge.channels[c].send(element)
                    c += 1
                    if ev is not done:
                        yield ev
            e += 1
            c = 0

    def emit_burst(self, outputs):
        """Generator: emit a sequence of outputs, fast-pathing records.

        Waits for exactly what ``for out in outputs: yield from emit(out)``
        would, minus one generator allocation per record on the single-edge
        fast path; a send accepted there hands back the shared
        pre-succeeded event, which the kernel would continue past at once,
        so only a pending (backpressured) send is yielded.  Window fires
        emit bursts of records at one watermark boundary — the hot caller.
        """
        done = self.instance.sim._done
        for out in outputs:
            if out.is_record:
                ev = self.emit_record_fast(out)
                if ev is not None:
                    if ev is not done:
                        yield ev
                    continue
            yield from self.emit(out)

    def all_channels(self) -> List[Channel]:
        return [ch for edge in self.edges for ch in edge.channels]


# -- graph partitioning for the sharded kernel ---------------------------------

class ShardPlan:
    """A contiguous-in-topological-order partition of a job graph.

    Produced by :func:`partition_graph` and consumed by
    :class:`repro.simulation.sharded.ShardedSimulator`.  Each shard is a
    list of operator names; every edge between two shards (a *cut edge*)
    must have strictly positive latency — that latency is the conservative
    lookahead that lets the downstream shard run ahead of the upstream
    shard's grant.
    """

    def __init__(self, shards, cut_edges, lookahead, weights):
        #: Operator names per shard, in topological order.
        self.shards: List[List[str]] = shards
        #: ``op name -> shard index``.
        self.shard_of: Dict[str, int] = {
            name: i for i, ops in enumerate(shards) for name in ops}
        #: Names of edges that cross a shard boundary.
        self.cut_edges: List[str] = cut_edges
        #: Minimum latency over the cut edges (the binding lookahead).
        self.lookahead: float = lookahead
        #: The per-operator weights the balance was computed from.
        self.weights: Dict[str, float] = weights
        #: Per-cut-edge transport/flow-control hints, ``edge name ->
        #: {"ring_bytes": int, "inbox_capacity": int}`` (either key may be
        #: absent).  Filled by :meth:`annotate_cuts`; the sharded runner
        #: sizes each cut pair's shared-memory ring from the max
        #: ``ring_bytes`` over the pair's edges and replays the credit
        #: ledger (and configures the equivalence reference) with the
        #: per-edge ``inbox_capacity``.
        self.cut_hints: Dict[str, Dict[str, int]] = {}

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def annotate_cuts(self, ring_bytes=None, inbox_overrides=None) -> None:
        """Attach transport/capacity hints to this plan's cut edges.

        ``ring_bytes`` may be an int (applied to every cut edge) or an
        ``edge name -> int`` mapping; ``inbox_overrides`` maps edge names
        to per-edge inbox capacities.  Hints for edges that are not cut in
        this plan are ignored (a replan may cut different edges).
        """
        for name in self.cut_edges:
            hints = self.cut_hints.setdefault(name, {})
            if ring_bytes is not None:
                rb = (ring_bytes.get(name)
                      if isinstance(ring_bytes, dict) else ring_bytes)
                if rb is not None:
                    hints["ring_bytes"] = int(rb)
            if inbox_overrides and name in inbox_overrides:
                hints["inbox_capacity"] = int(inbox_overrides[name])

    def describe(self) -> str:
        parts = []
        for i, ops in enumerate(self.shards):
            w = sum(self.weights.get(op, 0.0) for op in ops)
            parts.append(f"shard {i}: {'+'.join(ops)} (w={w:g})")
        return "; ".join(parts)


def topological_order(graph) -> List[str]:
    """Deterministic topological order with all sources first.

    Kahn's algorithm over the graph's insertion order, seeding the ready
    queue with source operators ahead of other in-degree-zero operators —
    so a contiguous prefix partition always keeps every source (and
    therefore every workload generator) in shard 0.
    """
    indegree = {name: len(graph.in_edges(name))
                for name in graph.operators}
    ready = [name for name, spec in graph.operators.items()
             if indegree[name] == 0 and spec.is_source]
    ready += [name for name, spec in graph.operators.items()
              if indegree[name] == 0 and not spec.is_source]
    order = []
    while ready:
        name = ready.pop(0)
        order.append(name)
        for edge in graph.out_edges(name):
            indegree[edge.dst] -= 1
            if indegree[edge.dst] == 0:
                ready.append(edge.dst)
    if len(order) != len(graph.operators):
        raise ValueError("graph has a cycle; cannot topologically order")
    return order


def partition_graph(graph, num_shards: int, edge_latency,
                    weights: Optional[Dict[str, float]] = None) -> ShardPlan:
    """Cut the job graph into ``num_shards`` contiguous topological segments.

    ``edge_latency`` maps an :class:`~repro.engine.graph.EdgeSpec` to the
    *minimum* latency any of its physical channels can have; a boundary is
    legal only where every crossing edge has strictly positive latency
    (zero-latency edges admit no conservative lookahead).  ``weights`` maps
    operator names to relative host-cost weights — per-operator event
    counts from a telemetry probe when available, a uniform default
    otherwise — and the partition minimizes the maximum per-shard weight
    (classic contiguous min-max DP).  Fewer legal boundaries than requested
    shards clamps the shard count rather than failing; the caller compares
    ``plan.num_shards`` with what it asked for (``run_sharded`` reports it).
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    order = topological_order(graph)
    n = len(order)
    pos = {name: i for i, name in enumerate(order)}
    if weights is None:
        weights = {name: 1.0 for name in order}
    w = [max(float(weights.get(name, 1.0)), 1e-9) for name in order]
    prefix = [0.0]
    for x in w:
        prefix.append(prefix[-1] + x)

    # A boundary before position p is legal iff every edge spanning it has
    # positive latency, and p is past the source prefix (all sources and
    # their generators stay together in shard 0).
    num_source_prefix = 0
    for name in order:
        if graph.operators[name].is_source:
            num_source_prefix += 1
        else:
            break
    legal = [False] * (n + 1)
    for p in range(max(1, num_source_prefix), n):
        crossing = [e for e in graph.edges if pos[e.src] < p <= pos[e.dst]]
        legal[p] = all(edge_latency(e) > 0.0 for e in crossing)

    k = min(num_shards, 1 + sum(legal))
    # f[j][p]: minimal max-segment-weight splitting order[:p] into j segments.
    INF = float("inf")
    f = [[INF] * (n + 1) for _ in range(k + 1)]
    back = [[0] * (n + 1) for _ in range(k + 1)]
    f[0][0] = 0.0
    for j in range(1, k + 1):
        for p in range(1, n + 1):
            for q in range(0, p):
                if f[j - 1][q] == INF:
                    continue
                if q > 0 and not legal[q]:
                    continue
                cost = max(f[j - 1][q], prefix[p] - prefix[q])
                if cost < f[j][p]:
                    f[j][p] = cost
                    back[j][p] = q
    # Reconstruct the k-way split of the full order.
    bounds = []
    p = n
    for j in range(k, 0, -1):
        bounds.append(p)
        p = back[j][p]
    bounds.append(0)
    bounds.reverse()
    shards = [order[bounds[i]:bounds[i + 1]] for i in range(k)]
    shards = [s for s in shards if s]
    plan_shard_of = {name: i for i, ops in enumerate(shards) for name in ops}
    cut_edges, lookahead = [], float("inf")
    for e in graph.edges:
        if plan_shard_of[e.src] != plan_shard_of[e.dst]:
            cut_edges.append(e.name)
            lookahead = min(lookahead, edge_latency(e))
    if not cut_edges:
        lookahead = 0.0
    return ShardPlan(shards, cut_edges, lookahead,
                     {name: w[pos[name]] for name in order})
