"""StreamJob runtime: build, queries, runtime instance addition."""

import sys

import pytest

sys.path.insert(0, "tests")
from helpers import build_keyed_job, drive  # noqa: E402

from repro.engine import JobConfig, JobGraph, StateStatus, StreamJob


def test_build_is_idempotent():
    job = build_keyed_job()
    instances = job.all_instances()
    job.build()
    assert job.all_instances() == instances


def test_keyed_operator_gets_initial_assignment_and_state():
    job = build_keyed_job(num_key_groups=16, agg_parallelism=2,
                          state_bytes_per_group=100.0)
    assignment = job.assignments["agg"]
    for kg in range(16):
        owner = assignment.owner(kg)
        group = job.instances("agg")[owner].state.group(kg)
        assert group is not None and group.status is StateStatus.LOCAL
        assert group.size_bytes == 100.0


def test_channel_matrix_is_full_mesh_per_edge():
    job = build_keyed_job(source_parallelism=2, agg_parallelism=3)
    for sender, edge in job.senders_to("agg"):
        assert len(edge.channels) == 3
    for inst in job.instances("agg"):
        assert len(inst.input_channels) == 2


def test_senders_to_lists_all_upstream_instances():
    job = build_keyed_job(source_parallelism=3)
    senders = job.senders_to("agg")
    assert len(senders) == 3
    assert all(edge.dst_op == "agg" for _s, edge in senders)


def test_add_instance_wires_channels_both_ways():
    job = build_keyed_job(source_parallelism=2, agg_parallelism=2)
    job.start()
    job.run(until=0.1)
    new = job.add_instance("agg")
    assert new.index == 2
    # upstream: each source now has 3 channels on its agg edge
    for _sender, edge in job.senders_to("agg"):
        assert len(edge.channels) == 3
    # downstream: new instance has an edge to the sink
    assert len(new.router.edges) == 1
    assert len(new.router.edges[0].channels) == 1
    # input channels from both sources
    assert len(new.input_channels) == 2


def test_add_instance_does_not_change_routing():
    job = build_keyed_job()
    before = {kg: edge.routing_table[kg]
              for _s, edge in job.senders_to("agg")
              for kg in edge.routing_table}
    job.start()
    job.add_instance("agg")
    after = {kg: edge.routing_table[kg]
             for _s, edge in job.senders_to("agg")
             for kg in edge.routing_table}
    assert before == after


def test_new_instance_inherits_watermark():
    job = build_keyed_job()
    drive(job, until=2.0, watermark_every=3, marker_every=0)
    job.run(until=2.0)
    new = job.add_instance("agg")
    for ch in new.input_channels:
        assert ch.watermark > float("-inf")


def test_create_direct_channel_is_auxiliary():
    job = build_keyed_job()
    job.start()
    a, b = job.instances("agg")
    channel = job.create_direct_channel(a, b)
    aux = channel.input_channel
    assert aux.is_auxiliary
    assert aux.watermark == float("inf")
    assert aux in b.input_channels


def test_transfer_gate_is_shared_per_node():
    job = build_keyed_job()
    gate1 = job.transfer_gate("server-0")
    gate2 = job.transfer_gate("server-0")
    assert gate1 is gate2
    assert gate1.available == StreamJob.max_concurrent_transfers_per_host \
        == 4


def test_sink_logic_requires_unique_sink():
    graph = JobGraph("two-sinks", num_key_groups=4)
    graph.add_source("s")
    graph.add_sink("k1")
    graph.add_sink("k2")
    graph.connect("s", "k1")
    graph.connect("s", "k2")
    job = StreamJob(graph).build()
    with pytest.raises(ValueError):
        job.sink_logic()
    assert job.sink_logic("k1") is not None


def test_total_state_bytes():
    job = build_keyed_job(num_key_groups=16, state_bytes_per_group=10.0)
    assert job.total_state_bytes("agg") == pytest.approx(160.0)


def test_config_capacities_apply():
    config = JobConfig(outbox_capacity=7, inbox_capacity=9)
    job = build_keyed_job(job_config=config)
    for _sender, edge in job.senders_to("agg"):
        for channel in edge.channels:
            assert channel.outbox_capacity == 7
            assert channel.inbox_capacity == 9


@pytest.mark.parametrize("name", ["outbox_capacity", "inbox_capacity",
                                  "changelog_materialize_interval"])
@pytest.mark.parametrize("bad", [0, -1, True, 2.0, "4"])
def test_config_rejects_capacities_below_one(name, bad):
    # A zero inbox admits records and delivers none; a zero outbox admits
    # none; a changelog cannot fold its logs every zero mutations.  All
    # three are refused when the configuration is built.
    with pytest.raises(ValueError, match=f"{name} must be a positive"):
        JobConfig(**{name: bad})
    assert getattr(JobConfig(**{name: 1}), name) == 1
