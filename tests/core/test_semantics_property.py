"""Property-based semantics preservation: random workloads + random
scaling instants must never corrupt per-key histories (DRRS)."""

import sys

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

sys.path.insert(0, "tests")
from helpers import assert_assignment_consistent  # noqa: E402

from repro.core.drrs import DRRSConfig, DRRSController
from repro.engine import (JobGraph, KeyedReduceLogic, OperatorSpec,
                          Partitioning, Record, StreamJob)


def run_random_scale(key_choices, scale_at_tenths, num_subscales,
                     scheduling):
    graph = JobGraph("prop", num_key_groups=8)
    graph.add_source("src", parallelism=1)
    graph.add_operator(OperatorSpec(
        "agg",
        logic_factory=lambda: KeyedReduceLogic(
            lambda old, r: (old or ()) + (r.value,)),
        parallelism=2, service_time=0.002, keyed=True,
        initial_state_bytes_per_group=1e5))
    graph.add_sink("sink", collect=True)
    graph.connect("src", "agg", Partitioning.HASH)
    graph.connect("agg", "sink", Partitioning.FORWARD)
    job = StreamJob(graph).build()

    counters = {}

    def gen():
        source = job.sources()[0]
        for key_index in key_choices:
            key = f"k{key_index}"
            seq = counters.get(key, 0)
            counters[key] = seq + 1
            source.offer(Record(key=key, event_time=job.sim.now,
                                value=seq, count=1))
            yield job.sim.timeout(0.01)

    job.sim.spawn(gen())
    scale_at = 0.1 * scale_at_tenths
    job.run(until=max(scale_at, 0.01))
    controller = DRRSController(job, DRRSConfig(
        num_subscales=num_subscales,
        record_scheduling=scheduling))
    done = controller.request_rescale("agg", 3)
    job.run(until=len(key_choices) * 0.01 + 30.0)
    assert done.triggered
    assert_assignment_consistent(job, "agg")

    sink = job.sink_logic()
    last = {}
    for record in sink.collected:
        last[record.key] = record.value
    for key, total in counters.items():
        assert last.get(key) == tuple(range(total)), (
            f"history of {key} corrupted: {last.get(key)}")


@given(key_choices=st.lists(st.integers(0, 11), min_size=20, max_size=120),
       scale_at_tenths=st.integers(0, 9),
       num_subscales=st.sampled_from([1, 3, 8]),
       scheduling=st.booleans())
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_random_workload_random_instant_preserves_history(
        key_choices, scale_at_tenths, num_subscales, scheduling):
    run_random_scale(key_choices, scale_at_tenths, num_subscales,
                     scheduling)
