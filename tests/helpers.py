"""Shared pipeline builders used by tests and benchmarks."""

from __future__ import annotations

from repro.engine import (JobGraph, KeyedReduceLogic, LatencyMarker,
                          OperatorSpec, Partitioning, Record, StreamJob,
                          Watermark)
from repro.engine.cluster import ClusterModel, LinkSpec, NodeSpec
from repro.engine.graph import OperatorSpec
from repro.engine.operators import DefaultInputHandler
from repro.engine.runtime import JobConfig
from repro.faults.invariants import semantic_trace


def build_keyed_job(num_key_groups: int = 16,
                    source_parallelism: int = 2,
                    agg_parallelism: int = 2,
                    agg_service: float = 0.0004,
                    state_bytes_per_group: float = 2e6,
                    collect: bool = False,
                    job_config: JobConfig = None) -> StreamJob:
    """source → keyed sum → sink, the canonical scaling test pipeline."""
    graph = JobGraph("test-job", num_key_groups=num_key_groups)
    graph.add_source("src", parallelism=source_parallelism,
                     service_time=0.00005)
    graph.add_operator(OperatorSpec(
        "agg",
        logic_factory=lambda: KeyedReduceLogic(
            lambda old, r: (old or 0) + r.count),
        parallelism=agg_parallelism,
        service_time=agg_service,
        keyed=True,
        initial_state_bytes_per_group=state_bytes_per_group))
    graph.add_sink("sink", collect=collect)
    graph.connect("src", "agg", Partitioning.HASH)
    graph.connect("agg", "sink", Partitioning.FORWARD)
    return StreamJob(graph, config=job_config).build()


def build_tie_job(stages, sources, aggs, latency, bandwidth, services, plane,
                  agg_logic=None, stateless=(), op_head=False, spread=False):
    """src → [agg →] sink on one node with one link spec for every hop, so
    zero or equal latencies make deliveries and wakes tie at one instant.
    ``services`` is (source, agg, sink) service time; ``agg_logic`` replaces
    the emitting keyed sum.

    ``stateless`` is a sequence of ``(logic_factory, service)`` FORWARD
    stages ``s0, s1, …`` of the sources' parallelism, placed behind the
    source — or, with ``op_head``, behind a REBALANCE-fed pass-through
    ``pre`` — so that on the one node they chain into that head's task.
    ``spread`` deals the instances round-robin over three nodes joined by
    the same link spec: no ``u[i]``/``v[i]`` pair shares a node (the
    parallelism is 1 or 2), and every hop stays a channel."""
    link = LinkSpec(latency=latency, bandwidth=bandwidth)
    cluster = ClusterModel(
        [NodeSpec(f"n{i}") for i in range(3 if spread else 1)],
        default_link=link, loopback=link)
    graph = JobGraph("tie-job", num_key_groups=4)
    graph.add_source("src", parallelism=sources, service_time=services[0])
    tail = "src"
    if op_head:
        graph.add_operator(OperatorSpec("pre", parallelism=sources,
                                        service_time=services[0]))
        graph.connect("src", "pre", Partitioning.REBALANCE)
        tail = "pre"
    for k, (logic_factory, service) in enumerate(stateless):
        graph.add_operator(OperatorSpec(
            f"s{k}", logic_factory=logic_factory, parallelism=sources,
            service_time=service))
        graph.connect(tail, f"s{k}", Partitioning.FORWARD)
        tail = f"s{k}"
    graph.add_sink("sink", collect=True, service_time=services[2])
    if stages == 3:
        graph.add_operator(OperatorSpec(
            "agg",
            logic_factory=agg_logic or (lambda: KeyedReduceLogic(
                lambda old, r: (old or 0) + r.count)),
            parallelism=aggs, service_time=services[1], keyed=True))
        graph.connect(tail, "agg", Partitioning.HASH)
        graph.connect("agg", "sink", Partitioning.REBALANCE)
    else:
        graph.connect(tail, "sink", Partitioning.REBALANCE)
    return StreamJob(graph, cluster=cluster,
                     config=JobConfig(record_plane=plane)).build()


def run_outcome(job: StreamJob) -> dict:
    """Everything a finished run of a collecting job can show, for
    differential tests: two runs that must agree compare these equal."""
    return {
        "trace": semantic_trace(job),
        "latency": job.metrics.latency_samples,
        "source_events": list(job.metrics.source_events()),
        "sink_events": list(job.metrics.sink_events()),
        "arrivals": [(r.key, r.value, r.count, r.event_time)
                     for r in job.sink_logic().collected],
        "instances": {i.name: (i.records_processed, i.current_watermark,
                               i.busy_seconds, i.suspended_seconds)
                      for i in job.all_instances()},
        "snapshots": job.snapshots,
    }


def drive(job: StreamJob, until: float, record_gap: float = 0.005,
          keys: int = 40, count: int = 5, marker_every: int = 5,
          watermark_every: int = 20):
    """Deterministic generator: round-robin keys at a fixed rate."""
    def gen():
        sources = job.sources()
        i = 0
        while job.sim.now < until:
            for s in sources:
                s.offer(Record(key=f"k{i % keys}", event_time=job.sim.now,
                               count=count))
            if marker_every and i % marker_every == 0:
                sources[0].offer(LatencyMarker(key=f"k{i % keys}"))
            if watermark_every and i % watermark_every == 0:
                for s in sources:
                    s.offer(Watermark(timestamp=job.sim.now))
            i += 1
            yield job.sim.timeout(record_gap)
    job.sim.spawn(gen(), name="test-driver")
    return job


def run_until(job: StreamJob, condition, within: float = 5.0,
              step: float = 0.01) -> None:
    """Advance ``job`` in ``step`` increments until ``condition()`` holds,
    for at most ``within`` simulated seconds."""
    deadline = job.sim.now + within
    while not condition() and job.sim.now < deadline:
        job.run(until=job.sim.now + step)


def assert_assignment_consistent(job: StreamJob, op_name: str) -> None:
    """Post-scaling invariant: every key-group lives exactly where the
    authoritative assignment says, and nowhere else (processable)."""
    assignment = job.assignments[op_name]
    instances = job.instances(op_name)
    for kg, owner in assignment.as_dict().items():
        group = instances[owner].state.group(kg)
        assert group is not None and group.processable, (
            f"kg {kg} missing at declared owner {owner}")
        for other in instances:
            if other.index != owner:
                group = other.state.group(kg)
                assert group is None or not group.processable, (
                    f"kg {kg} duplicated on instance {other.index}")


def runs_without_rescale(job: StreamJob, op_name: str) -> bool:
    """Whether no rescale is left deployed on ``op_name``: every instance
    runs the engine's own input handler and has no suspension probe."""
    return all(type(instance.input_handler) is DefaultInputHandler
               and instance._suspension_listener is None
               for instance in job.instances(op_name))


class EventPerWaitWake:
    """The ``EdgeWake`` from before main loops parked, kept as a test-only
    oracle: one fresh ``Event`` and callback list per wait, fired through
    ``succeed()`` and ``Event._dispatch``."""

    def __init__(self, sim):
        self._sim = sim
        self._waiters = []

    def wait(self):
        ev = self._sim.event()
        self._waiters.append(ev)
        return ev

    def fire(self):
        if self._waiters:
            waiters, self._waiters = self._waiters, []
            for ev in waiters:
                if not ev.triggered:
                    ev.succeed()


def use_oracle_wake(job: StreamJob) -> StreamJob:
    """Make every instance of a built, not yet started job idle the old way.

    Each ``_run`` is driven through an adapter that swaps the yielded wake
    for ``oracle.wait()``; everything else the generator yields (delays,
    send events, an interrupt thrown in) passes through untouched.
    """
    for instance in job.all_instances():
        oracle = instance.wake = EventPerWaitWake(instance.sim)
        instance._run = _oracle_run(oracle, instance._run)
    return job


def _oracle_run(oracle, make_generator):
    def run():
        gen = make_generator()
        step, arg = gen.send, None
        while True:
            try:
                target = step(arg)
            except StopIteration:
                return
            try:
                if target is oracle:
                    yield oracle.wait()
                    step, arg = gen.send, None
                else:
                    step, arg = gen.send, (yield target)
            except BaseException as exc:  # thrown in by the kernel
                step, arg = gen.throw, exc
    return run
