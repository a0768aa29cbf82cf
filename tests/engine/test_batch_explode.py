"""Per-record explode of batch carriers, at every site that needs it.

Batches (including carriers with a cached column view) are transport
envelopes only: whenever a consumer-side structure must hold
individual records — checkpoint barriers, rescale re-routing,
recovery surgery — the plane collapses and the member records
come back out with identity, order and per-record delivery times intact.
"""

import sys

sys.path.insert(0, "tests")
from helpers import build_keyed_job, drive  # noqa: E402

from repro.engine.channels import Channel, InputChannel
from repro.engine.cluster import LinkSpec
from repro.engine.records import Record, RecordBatch, Watermark
from repro.simulation import Simulator
from repro.simulation.primitives import Signal


class _Receiver:
    def __init__(self, sim):
        self.sim = sim
        self.wake = Signal(sim)

    def on_control(self, channel, element):
        pass


def _wire_channel():
    """A batching channel into a bare receiver, outside any StreamJob."""
    sim = Simulator()
    channel = Channel(sim, LinkSpec(bandwidth=1e6, latency=0.001),
                      name="t", outbox_capacity=64, inbox_capacity=64)
    channel.batching = True
    channel.max_batch = 32
    receiver = _Receiver(sim)
    input_channel = InputChannel(receiver, name="t-in")
    channel.attach(input_channel)
    return sim, channel, input_channel


def _send_records(sim, channel, n):
    records = [Record(key=f"k{i}", key_group=i % 4, event_time=float(i),
                      count=2, size_bytes=200.0) for i in range(n)]

    def producer():
        for rec in records:
            yield channel.send(rec)

    sim.spawn(producer(), name="producer")
    return records


def _materialize_roundtrip(cached_view):
    sim, channel, input_channel = _wire_channel()
    records = _send_records(sim, channel, 20)
    # Run just long enough for a carrier to be queued with some members
    # still invisible (per-record plane would not have delivered them yet).
    while not any(e.__class__ is RecordBatch for e in input_channel.queue):
        if sim.peek() == float("inf"):
            raise AssertionError("no batch ever formed")
        sim.step()
    batch = next(e for e in input_channel.queue
                 if e.__class__ is RecordBatch)
    if cached_view:
        from repro.engine.columnar import HAVE_NUMPY
        # column view cached pre-explode (None on a numpy-less box)
        assert (batch.columns() is not None) == HAVE_NUMPY
    visible = list(batch.visible_times)
    now = sim.now
    input_channel.materialize(now)
    # Round trip: no carriers left anywhere on the consumer side.
    assert all(e.__class__ is not RecordBatch for e in input_channel.queue)
    queued_ids = [e.record_id for e in input_channel.queue
                  if isinstance(e, Record)]
    visible_ids = [rec.record_id for rec, t in
                   zip(batch.records, visible) if t <= now]
    assert queued_ids == visible_ids  # identity + order preserved
    # Late members are re-delivered at their original per-record times.
    sim.run()
    delivered = [e.record_id for e in input_channel.queue
                 if isinstance(e, Record)]
    assert delivered == [rec.record_id for rec in records]


def test_materialize_roundtrip_batched():
    _materialize_roundtrip(cached_view=False)


def test_materialize_roundtrip_with_cached_column_view():
    _materialize_roundtrip(cached_view=True)


def test_batches_never_cross_a_watermark():
    """Formation stops at time signals: a watermark is never swallowed."""
    sim, channel, input_channel = _wire_channel()

    def producer():
        for i in range(6):
            yield channel.send(Record(key=f"a{i}", key_group=0,
                                      event_time=float(i), size_bytes=200.0))
        yield channel.send(Watermark(timestamp=3.0))
        for i in range(6):
            yield channel.send(Record(key=f"b{i}", key_group=1,
                                      event_time=10.0 + i, size_bytes=200.0))

    sim.spawn(producer(), name="producer")
    sim.run()
    kinds = [type(e).__name__ for e in input_channel.queue]
    wm = kinds.index("Watermark")
    # Every element before the watermark is an a-record (or carrier of
    # them), every element after is a b-record: no reordering across it.
    for e in list(input_channel.queue)[:wm]:
        members = e.records if e.__class__ is RecordBatch else [e]
        assert all(m.key.startswith("a") for m in members)
    for e in list(input_channel.queue)[wm + 1:]:
        members = e.records if e.__class__ is RecordBatch else [e]
        assert all(m.key.startswith("b") for m in members)


def test_quiesce_batches_explodes_everything():
    """StreamJob.quiesce_batches: the rescale/recovery collapse."""
    job = build_keyed_job()
    drive(job, until=0.5)
    job.start()
    job.sim.run(until=0.25)
    assert job._batching
    job.quiesce_batches()
    for inst in job.all_instances():
        for ic in inst.input_channels:
            assert all(e.__class__ is not RecordBatch for e in ic.queue)
    # Visible members stay queued; invisible ones are re-delivered later —
    # nothing is lost once the run finishes.
    job.sim.run(until=0.5)
    job.stop()


def _shipped_counters(batching, quiesce_at=None):
    """Ship 8 x 200 B over a 1 MB/s link with telemetry on; optionally
    quiesce mid-serialize.  Returns (elements_shipped, bytes_shipped)."""
    from repro.telemetry import Telemetry

    sim, channel, input_channel = _wire_channel()
    channel.batching = batching
    channel.telemetry = telemetry = Telemetry(sim)
    _send_records(sim, channel, 8)
    if quiesce_at is not None:
        sim.run(until=quiesce_at)
        assert channel._serializing.__class__ is RecordBatch
        channel.quiesce()  # parent: Counter.inc(-n) -> ValueError
        assert channel._serializing.__class__ is RecordBatch
        assert len(channel._serializing.records) < 8  # really unwound
    sim.run()
    assert input_channel.total_depth() == 8
    registry = telemetry.registry
    return (registry.counter("channel.elements_shipped",
                             channel=channel.name).value,
            registry.counter("channel.bytes_shipped",
                             channel=channel.name).value)


def test_unwind_mid_serialize_keeps_ship_counters_monotone():
    """Unwinding a ship batch mid-serialize must not decrement a Counter;
    the final tallies equal the per-record plane's."""
    reference = _shipped_counters(batching=False)
    assert reference == (8.0, 1600.0)
    assert _shipped_counters(batching=True) == reference
    assert _shipped_counters(batching=True, quiesce_at=0.0003) == reference


def test_reroute_lanes_never_batch():
    """Auxiliary (re-route) lanes are built per-record on every plane: the
    recovery manager's aux-lane hold and stranded-record sweep read queue
    heads as individual records."""
    job = build_keyed_job()
    assert job._batching
    src, dst = job.instances("agg")
    lane = job.create_direct_channel(src, dst)
    assert lane.batching is False
    assert lane.input_channel.is_auxiliary
    job.stop()
