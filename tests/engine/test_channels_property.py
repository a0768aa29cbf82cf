"""Property-based channel tests: conservation and order under random
operation sequences."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.channels import Channel, InputChannel
from repro.engine.cluster import LinkSpec
from repro.engine.records import Record
from repro.simulation import Simulator


class FakeInstance:
    def __init__(self, sim):
        from repro.simulation import Signal
        self.sim = sim
        self.wake = Signal(sim)

    def on_control(self, channel, element):
        pass


def build(sim, outbox, inbox):
    channel = Channel(sim, LinkSpec(latency=0.0001, bandwidth=1e8),
                      name="prop", outbox_capacity=outbox,
                      inbox_capacity=inbox)
    receiver = FakeInstance(sim)
    input_channel = InputChannel(receiver, name="in")
    channel.attach(input_channel)
    return channel, input_channel


@given(n=st.integers(1, 60), outbox=st.integers(1, 8),
       inbox=st.integers(1, 8),
       consume_gap=st.floats(0.0001, 0.01))
@settings(max_examples=60, deadline=None)
def test_every_sent_element_arrives_exactly_once_in_order(
        n, outbox, inbox, consume_gap):
    sim = Simulator()
    channel, input_channel = build(sim, outbox, inbox)
    records = [Record(key=i, size_bytes=8) for i in range(n)]
    received = []

    def sender():
        for r in records:
            yield channel.send(r)

    def consumer():
        while len(received) < n:
            while len(input_channel):
                received.append(input_channel.pop())
            yield sim.timeout(consume_gap)

    sim.spawn(sender())
    sim.spawn(consumer())
    sim.run(until=60.0)
    assert received == records


@given(data=st.data(),
       n=st.integers(2, 30))
@settings(max_examples=40, deadline=None)
def test_inject_confirm_conserves_and_orders(data, n):
    from repro.engine.records import CheckpointBarrier, Watermark
    sim = Simulator()
    channel, input_channel = build(sim, outbox=64, inbox=128)
    elements = []
    for i in range(n):
        if data.draw(st.booleans(), label=f"is_ckpt_{i}") and i % 7 == 3:
            elements.append(CheckpointBarrier(checkpoint_id=i))
        else:
            elements.append(Record(key=i, key_group=i % 2, size_bytes=8))
    for e in elements:
        channel.send(e)
    confirm = Watermark(timestamp=123.0)
    bypassed = channel.inject_confirm(
        lambda e: getattr(e, "key_group", None) == 1, confirm)
    sim.run(until=10.0)
    delivered = []
    while len(input_channel):
        delivered.append(input_channel.pop())
    # conservation: everything sent is either delivered or bypassed, plus
    # the confirm barrier itself is delivered exactly once.
    assert sorted(map(id, delivered + bypassed)) == sorted(
        map(id, elements + [confirm]))
    # nothing at or before the last checkpoint barrier was bypassed
    ckpt_positions = [i for i, e in enumerate(elements)
                      if isinstance(e, CheckpointBarrier)]
    if ckpt_positions:
        cut = ckpt_positions[-1]
        protected = set(map(id, elements[:cut + 1]))
        assert not protected & set(map(id, bypassed))
        # confirm barrier delivered right after that checkpoint barrier
        ckpt = elements[cut]
        idx = delivered.index(ckpt)
        assert delivered[idx + 1] is confirm
    else:
        assert delivered[0] is confirm
    # relative order of survivors and of bypassed both preserved
    survivor_order = [e for e in elements if e in delivered]
    assert [e for e in delivered if e in elements] == survivor_order
    bypass_order = [e for e in elements if e in bypassed]
    assert bypassed == bypass_order
