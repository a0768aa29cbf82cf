"""Output routing: partitioning modes and per-sender routing tables."""

import sys

import pytest

sys.path.insert(0, "tests")
from helpers import build_keyed_job, drive  # noqa: E402

from repro.engine import LatencyMarker, Partitioning, Record
from repro.engine.routing import NoChannelError, OutputEdge


def hash_edge(channels=4, num_key_groups=16):
    edge = OutputEdge("e", Partitioning.HASH, num_key_groups=num_key_groups)
    for i in range(channels):
        edge.add_channel(_FakeChannel(i))
    for kg in range(num_key_groups):
        edge.set_routing(kg, kg % channels)
    return edge


class _FakeChannel:
    def __init__(self, index):
        self.index = index


def test_hash_edge_uses_routing_table():
    edge = hash_edge()
    record = Record(key="x", key_group=5)
    assert edge.channel_for_record(record).index == 5 % 4


def test_hash_edge_computes_key_group_once():
    edge = hash_edge()
    record = Record(key="somekey")
    assert record.key_group is None
    edge.channel_for_record(record)
    assert record.key_group is not None
    first = record.key_group
    edge.channel_for_record(record)
    assert record.key_group == first


def test_set_routing_validates_target():
    edge = hash_edge(channels=2)
    with pytest.raises(ValueError):
        edge.set_routing(0, 5)


def test_forward_edge_uses_sender_index():
    edge = OutputEdge("e", Partitioning.FORWARD, sender_index=1)
    edge.add_channel(_FakeChannel(0))
    edge.add_channel(_FakeChannel(1))
    assert edge.channel_for_record(Record(key="a")).index == 1


def test_rebalance_round_robins():
    edge = OutputEdge("e", Partitioning.REBALANCE)
    for i in range(3):
        edge.add_channel(_FakeChannel(i))
    picks = [edge.channel_for_record(Record(key="a")).index
             for _ in range(6)]
    assert picks == [0, 1, 2, 0, 1, 2]


@pytest.mark.parametrize("partitioning", [Partitioning.FORWARD,
                                          Partitioning.REBALANCE])
def test_edge_without_channels_raises_a_named_error(partitioning):
    edge = OutputEdge("a->b", partitioning)
    with pytest.raises(NoChannelError, match="a->b has no channels"):
        edge.channel_for_record(Record(key="a"))
    with pytest.raises(NoChannelError, match="not wired"):
        edge.channel_for_marker(LatencyMarker(key="a"))


def test_forward_reaches_every_channel_or_only_the_named_operators():
    """`forward` is the one broadcaster: all channels of all edges, in
    order, no generator when every send is accepted at once."""
    job = build_keyed_job(source_parallelism=1, agg_parallelism=3)
    job.start()
    router = job.sources()[0].router
    marker = LatencyMarker(key="probe")
    assert router.forward(marker, dst_ops={"sink"}) is None
    assert all(not ch.outbox for ch in router.all_channels())
    assert router.forward(marker, dst_ops={"agg"}) is None
    assert [list(ch.outbox) for ch in router.all_channels()] \
        == [[marker]] * 3


def test_marker_routing_follows_key_on_hash_edges():
    edge = hash_edge()
    marker = LatencyMarker(key="probe")
    channel = edge.channel_for_marker(marker)
    assert channel.index == marker.key_group % 4


def test_routing_tables_are_per_sender():
    """Each sender instance owns a private copy of the routing table —
    mutating one must not affect another (the property scaling-signal
    coordination depends on)."""
    job = build_keyed_job()
    senders = job.senders_to("agg")
    assert len(senders) == 2
    (s0, e0), (s1, e1) = senders
    assert e0 is not e1
    before = e1.routing_table[0]
    e0.set_routing(0, 1)
    assert e1.routing_table[0] == before


def test_watermarks_broadcast_to_every_channel():
    job = build_keyed_job()
    drive(job, until=1.0, marker_every=0, watermark_every=5)
    job.run(until=2.0)
    # every agg instance saw a watermark on every channel
    for inst in job.instances("agg"):
        for ch in inst.input_channels:
            assert ch.watermark > float("-inf")
