"""Channel model: delivery, backpressure, control lane, redirection."""

import pytest

from repro.engine.channels import Channel, InputChannel
from repro.engine.cluster import LinkSpec
from repro.engine.records import Record, Watermark
from repro.simulation import Simulator


class FakeInstance:
    """Just enough of OperatorInstance for channel unit tests."""

    def __init__(self, sim):
        from repro.simulation import Signal
        self.sim = sim
        self.wake = Signal(sim)
        self.controls = []

    def on_control(self, channel, element):
        self.controls.append(element)


def make_pair(sim, latency=0.001, bandwidth=1e6, outbox=4, inbox=4):
    channel = Channel(sim, LinkSpec(latency=latency, bandwidth=bandwidth),
                      name="test", outbox_capacity=outbox,
                      inbox_capacity=inbox)
    receiver = FakeInstance(sim)
    input_channel = InputChannel(receiver, name="in")
    channel.attach(input_channel)
    return channel, input_channel, receiver


def test_delivery_includes_serialize_and_latency():
    sim = Simulator()
    channel, inbox, _r = make_pair(sim, latency=0.01, bandwidth=1000)
    record = Record(key="a", size_bytes=100)  # serialize = 0.1s

    def sender():
        yield channel.send(record)

    sim.spawn(sender())
    sim.run(until=0.05)
    assert len(inbox) == 0
    sim.run(until=0.2)
    assert len(inbox) == 1
    assert inbox.peek() is record


def test_fifo_order_preserved():
    sim = Simulator()
    channel, inbox, _r = make_pair(sim, outbox=16, inbox=16)
    records = [Record(key=i, size_bytes=10) for i in range(6)]

    def sender():
        for r in records:
            yield channel.send(r)

    sim.spawn(sender())
    sim.run()
    delivered = [inbox.pop() for _ in range(len(inbox))]
    assert delivered == records


def test_outbox_backpressure_blocks_sender():
    sim = Simulator()
    # Tiny inbox and outbox; no consumer → sender must stall.
    channel, inbox, _r = make_pair(sim, outbox=2, inbox=2)
    accepted = []

    def sender():
        for i in range(10):
            yield channel.send(Record(key=i, size_bytes=10))
            accepted.append(i)

    sim.spawn(sender())
    sim.run(until=10.0)
    # 2 inbox credits + 2 outbox slots (+1 freed as elements serialize).
    assert len(accepted) < 10


def test_consuming_returns_credit_and_unblocks():
    sim = Simulator()
    channel, inbox, _r = make_pair(sim, outbox=2, inbox=2)
    accepted = []

    def sender():
        for i in range(10):
            yield channel.send(Record(key=i, size_bytes=10))
            accepted.append(i)

    def consumer():
        consumed = 0
        while consumed < 10:
            if len(inbox):
                inbox.pop()
                consumed += 1
            else:
                yield sim.timeout(0.01)
        return None
        yield  # pragma: no cover

    sim.spawn(sender())
    sim.spawn(consumer())
    sim.run(until=10.0)
    assert len(accepted) == 10


def test_send_control_bypasses_queued_data():
    sim = Simulator()
    channel, inbox, receiver = make_pair(sim, latency=0.005,
                                         bandwidth=100.0, outbox=16)

    def sender():
        for i in range(8):  # each takes 0.1s to serialize
            yield channel.send(Record(key=i, size_bytes=10))

    sim.spawn(sender())
    sim.call_at(0.01, lambda: channel.send_control(Watermark(timestamp=1.0)))
    sim.run(until=0.05)
    # Control arrived (0.01 + 0.005) while data still serializing.
    assert len(receiver.controls) == 1
    assert len(inbox) == 0


def test_block_tokens_stack():
    sim = Simulator()
    _channel, inbox, _r = make_pair(sim)
    inbox.block("a")
    inbox.block("b")
    assert inbox.blocked
    inbox.unblock("a")
    assert inbox.blocked
    inbox.unblock("b")
    assert not inbox.blocked


def test_remove_returns_credit():
    sim = Simulator()
    channel, inbox, _r = make_pair(sim, inbox=2)
    r1, r2 = Record(key=1, size_bytes=1), Record(key=2, size_bytes=1)

    def sender():
        yield channel.send(r1)
        yield channel.send(r2)

    sim.spawn(sender())
    sim.run()
    before = channel.credits
    inbox.remove(r2)
    assert channel.credits == before + 1
    assert inbox.peek() is r1


def test_backlog_accounting():
    sim = Simulator()
    channel, inbox, _r = make_pair(sim, bandwidth=1e9)
    channel.send(Record(key=1, size_bytes=1))
    assert channel.backlog == 1
    sim.run()
    assert channel.backlog == 1  # now in the inbox
    inbox.pop()
    assert channel.backlog == 0


def test_inject_confirm_without_checkpoint_barrier_goes_front():
    from repro.engine.records import Watermark as WM
    sim = Simulator()
    channel, inbox, _r = make_pair(sim, bandwidth=1e9, outbox=16, inbox=16)
    records = [Record(key=f"k{i}", key_group=i % 2, size_bytes=10)
               for i in range(6)]
    for r in records:
        channel.send(r)
    marker = WM(timestamp=99.0)  # stands in for a confirm barrier
    bypassed = channel.inject_confirm(
        lambda e: getattr(e, "key_group", None) == 1, marker)
    assert [e.key_group for e in bypassed] == [1, 1, 1]
    sim.run()
    delivered = [inbox.pop() for _ in range(len(inbox))]
    assert delivered[0] is marker
    assert all(getattr(e, "key_group", 0) == 0 for e in delivered[1:])


def test_inject_confirm_redirection_concludes_at_checkpoint_barrier():
    """§IV-C Fig. 9a: records at or before a checkpoint barrier in the
    output cache belong to the snapshot cut — never redirected — and the
    confirm barrier lands right after the checkpoint barrier."""
    from repro.engine.records import CheckpointBarrier, Watermark as WM
    sim = Simulator()
    channel, inbox, _r = make_pair(sim, bandwidth=1e9, outbox=16, inbox=16)
    pre = Record(key="pre", key_group=1, size_bytes=10)
    ckpt = CheckpointBarrier(checkpoint_id=7)
    post = Record(key="post", key_group=1, size_bytes=10)
    other = Record(key="other", key_group=0, size_bytes=10)
    for e in (pre, ckpt, post, other):
        channel.send(e)
    confirm = WM(timestamp=99.0)
    bypassed = channel.inject_confirm(
        lambda e: getattr(e, "key_group", None) == 1, confirm)
    # only the record AFTER the checkpoint barrier was redirected
    assert bypassed == [post]
    sim.run()
    delivered = [inbox.pop() for _ in range(len(inbox))]
    assert delivered[0] is pre          # cut preserved
    assert delivered[1] is ckpt
    assert delivered[2] is confirm      # integrated signal position
    assert delivered[3] is other


@pytest.mark.parametrize(
    "groups,outbox,bypassed_keys,delivered_keys",
    [((1, 1, 1, 1), 1, [1, 2], [0, 3]),
     ((0, 1, 0, 1, 0, 1), 3, [1, 3], [0, 2, 4, 5])],
    ids=["all-matching", "mixed"])
def test_inject_confirm_redirects_blocked_waiters_always(
        groups, outbox, bypassed_keys, delivered_keys):
    """A slow link keeps the outbox full, so the sender blocks.  Waiters
    are logically behind the cache: matching ones are always redirected.
    The redirect frees outbox slots, so every blocked send completes, and
    the survivors deliver in order behind the confirm barrier."""
    from repro.engine.records import Watermark as WM
    sim = Simulator()
    channel, inbox, _r = make_pair(sim, bandwidth=100.0, outbox=outbox,
                                   inbox=16)
    accepted = []

    def sender():
        for i, group in enumerate(groups):
            yield channel.send(Record(key=i, key_group=group, size_bytes=10))
            accepted.append(i)

    sim.spawn(sender())
    sim.run(until=0.01)
    # Record 0 is mid-serialize, the outbox is full, the next send waits.
    assert accepted == list(range(outbox + 1))
    confirm = WM(timestamp=1.0)
    bypassed = channel.inject_confirm(
        lambda e: getattr(e, "key_group", None) == 1, confirm)
    assert [e.key for e in bypassed] == bypassed_keys
    sim.run()
    delivered = [inbox.pop() for _ in range(len(inbox))]
    # Record 0 was already on the wire; the barrier overtakes the rest.
    assert delivered.index(confirm) == 1
    assert [e.key for e in delivered if isinstance(e, Record)] \
        == delivered_keys
    assert accepted == list(range(len(groups)))


def test_closed_channel_send_returns_shared_event_without_heap_growth():
    sim = Simulator()
    channel, inbox, _r = make_pair(sim)
    sim.run()  # let construction-time events settle
    channel.close()

    def pending():
        return len(sim._heap) + len(sim._ready)

    before = pending()
    events = [channel.send(Record(key=f"k{i}", size_bytes=10))
              for i in range(50)]
    # Every send is accepted-and-dropped via the one shared pre-succeeded
    # event: no per-send allocation, and nothing is scheduled -- neither a
    # queued entry nor a same-instant one.
    assert all(ev is sim.done for ev in events)
    assert pending() == before
    sim.run()
    assert len(inbox) == 0


def test_a_landed_fused_singleton_leaves_the_drainer_parked():
    """With nothing queued behind it, the fused ship+deliver parks the
    drainer itself, so the next send's kick starts a drain pass."""
    sim = Simulator()
    channel, inbox, _r = make_pair(sim, latency=0.01, bandwidth=1000)
    channel.batching = True
    first = Record(key="a", size_bytes=100)
    second = Record(key="b", size_bytes=100)
    channel.send(first)
    sim.run(until=0.05)
    assert channel._fuse_due == pytest.approx(0.11)
    sim.run(until=0.2)
    assert list(inbox.queue) == [first] and channel._drain_parked
    channel.send(second)
    sim.run(until=0.5)
    assert list(inbox.queue) == [first, second]


def _singleton_then(batching, first, follower, send_at):
    """``first`` (serialize 0.1 s, latency 0.01 s), then ``follower``
    sent at ``send_at`` while ``first`` is still in flight; returns each
    delivery's time and element and the credits left."""
    sim = Simulator()
    channel, inbox, receiver = make_pair(sim, latency=0.01, bandwidth=1000)
    channel.batching = batching
    deliveries = []

    class LoggingWake:
        """Each delivery wakes the receiver once: log what just landed."""

        def fire(self):
            deliveries.append((sim.now, inbox.queue[-1]))

    receiver.wake = LoggingWake()
    fused = []

    def send_follower():
        fused.append(channel._fuse_due is not None)
        channel.send(follower)

    channel.send(first)
    sim.call_at(send_at, send_follower)
    sim.run(until=1.0)
    return {"fused": fused[0], "deliveries": deliveries,
            "credits": channel.credits}


@pytest.mark.parametrize("send_at", [0.05, 0.105])
@pytest.mark.parametrize("follower", [
    Record(key="b", size_bytes=100), Watermark(timestamp=1.0)],
    ids=["record", "watermark"])
def test_a_send_mid_fused_flight_delivers_as_on_the_split_path(
        follower, send_at):
    """Sent while the singleton serializes (0.05) or is on the wire
    (0.105), the follower lands after it, as on the split path: the first
    record still arrives at 0.11, FIFO order holds and both credits are
    held by the receiver's queue."""
    first = Record(key="a", size_bytes=100)
    fused = _singleton_then(True, first, follower, send_at)
    split = _singleton_then(False, first, follower, send_at)
    assert fused.pop("fused") and not split.pop("fused")
    assert fused == split
    (first_at, landed_first), (_then, landed_second) = fused["deliveries"]
    assert first_at == pytest.approx(0.11)
    assert landed_first is first and landed_second is follower
    assert fused["credits"] == 2
