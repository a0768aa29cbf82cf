"""Execution-semantics preservation (§III-A): scaling must not change what
a deterministic pipeline computes.

The pipeline appends every record's unique sequence number to its key's
state and emits the full history; the *last* emission per key must be
exactly the generator's per-key sequence — any lost, duplicated or
key-order-reordered record changes it.  We compare scaled runs (every
correct controller, all DRRS variants) against the no-scale run.
"""

import sys

import pytest

sys.path.insert(0, "tests")
from helpers import assert_assignment_consistent  # noqa: E402

from repro.core.drrs import make_variant
from repro.engine import (JobGraph, KeyedReduceLogic, OperatorSpec,
                          Partitioning, Record, StreamJob, Watermark)
from repro.scaling import (MecesController, MegaphoneController,
                           OTFSController, StopRestartController)


def history_job(num_key_groups=16, parallelism=2):
    graph = JobGraph("hist", num_key_groups=num_key_groups)
    graph.add_source("src", parallelism=2)
    graph.add_operator(OperatorSpec(
        "agg",
        logic_factory=lambda: KeyedReduceLogic(
            lambda old, r: (old or ()) + (r.value,)),
        parallelism=parallelism,
        service_time=0.0004,
        keyed=True,
        initial_state_bytes_per_group=5e5))
    graph.add_sink("sink", collect=True)
    graph.connect("src", "agg", Partitioning.HASH)
    graph.connect("agg", "sink", Partitioning.FORWARD)
    return StreamJob(graph).build()


def feed(job, keys=24, until=20.0, gap=0.004):
    """Deterministic per-key sequence numbers, split across two sources
    by key parity (so per-key order is well-defined at the sources)."""
    counters = {}

    def gen():
        sources = job.sources()
        i = 0
        while job.sim.now < until:
            key = f"k{i % keys}"
            seq = counters.get(key, 0)
            counters[key] = seq + 1
            source = sources[(i % keys) % len(sources)]
            source.offer(Record(key=key, event_time=job.sim.now, value=seq,
                                count=1))
            if i % 50 == 0:
                for s in sources:
                    s.offer(Watermark(timestamp=job.sim.now))
            i += 1
            yield job.sim.timeout(gap)

    job.sim.spawn(gen())
    return counters


def final_histories(job):
    sink = job.sink_logic()
    last = {}
    for record in sink.collected:
        last[record.key] = record.value
    return last


def run_reference():
    job = history_job()
    counters = feed(job)
    job.run(until=30.0)
    return final_histories(job), counters


REFERENCE = None


def reference():
    global REFERENCE
    if REFERENCE is None:
        REFERENCE = run_reference()
    return REFERENCE


def run_with(make_controller, scale_at=6.0, new_parallelism=4):
    job = history_job()
    counters = feed(job)
    job.run(until=scale_at)
    controller = make_controller(job)
    done = controller.request_rescale("agg", new_parallelism)
    job.run(until=30.0)
    assert done.triggered, f"{controller.name} never completed"
    assert_assignment_consistent(job, "agg")
    return final_histories(job), counters


CONTROLLERS = [
    ("otfs-fluid", lambda job: OTFSController(job)),
    ("otfs-batch", lambda job: OTFSController(job,
                                              migration="all_at_once")),
    ("megaphone", lambda job: MegaphoneController(job, batch_size=2)),
    ("meces", lambda job: MecesController(job, sub_groups=2)),
    ("stop-restart", lambda job: StopRestartController(job)),
    ("drrs", lambda job: make_variant(job, "drrs", num_subscales=5)),
    ("drrs-dr", lambda job: make_variant(job, "dr")),
    ("drrs-schedule", lambda job: make_variant(job, "schedule")),
    ("drrs-subscale", lambda job: make_variant(job, "subscale",
                                               num_subscales=5)),
]


@pytest.mark.parametrize("name,factory", CONTROLLERS,
                         ids=[c[0] for c in CONTROLLERS])
def test_scaled_output_equals_unscaled(name, factory):
    ref_hist, ref_counts = reference()
    hist, counts = run_with(factory)
    assert counts == ref_counts, "generator must be deterministic"
    assert hist == ref_hist, f"{name} changed the computed result"


@pytest.mark.parametrize("name,factory", CONTROLLERS,
                         ids=[c[0] for c in CONTROLLERS])
def test_per_key_history_is_exact_sequence(name, factory):
    """Every key's final state is exactly 0..n-1 in order: nothing lost,
    duplicated or reordered within the key."""
    hist, counts = run_with(factory)
    for key, total in counts.items():
        assert hist.get(key) == tuple(range(total)), (
            f"{name}: key {key} history corrupted")


@pytest.mark.parametrize("scale_at", [2.0, 5.5, 10.0, 15.0])
def test_drrs_correct_at_any_scaling_instant(scale_at):
    hist, counts = run_with(
        lambda job: make_variant(job, "drrs", num_subscales=4),
        scale_at=scale_at)
    for key, total in counts.items():
        assert hist.get(key) == tuple(range(total))


def test_drrs_correct_with_single_subscale_and_no_scheduling():
    from repro.core.drrs import DRRSConfig, DRRSController
    hist, counts = run_with(lambda job: DRRSController(job, DRRSConfig(
        record_scheduling=False, subscale_division=False)))
    for key, total in counts.items():
        assert hist.get(key) == tuple(range(total))


def test_drrs_correct_with_many_tiny_subscales():
    hist, counts = run_with(
        lambda job: make_variant(job, "drrs", num_subscales=64))
    for key, total in counts.items():
        assert hist.get(key) == tuple(range(total))
