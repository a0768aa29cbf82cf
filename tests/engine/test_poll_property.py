"""``DefaultInputHandler.poll`` against a reference copy of its earlier
scan.

The reference below is the round-robin scan as it stood before the poll
was rewritten to visit each channel once with a single ``queue`` test per
empty channel.  Both run on twin instances built from one drawn layout —
empty channels, plain elements, visible and invisible batch heads,
blocked channels and auxiliary lanes that recovery holds — and must
return the same pair and leave the same cursor, suspension flag and
ordered ``_note_invisible`` calls, also after a channel is added between
polls.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.channels import InputChannel
from repro.engine.operators import DefaultInputHandler
from repro.engine.records import Record, RecordBatch, Watermark

NOW = 5.0

KINDS = ("empty", "plain", "batch_visible", "batch_invisible", "blocked",
         "blocked_empty", "aux", "aux_held")


def reference_poll(handler):
    """The scan as it was: a modulo-stepped cursor over every channel."""
    instance = handler.instance
    channels = instance.input_channels
    if not channels:
        handler.suspended = False
        return None
    n = len(channels)
    cursor = handler._cursor % n
    saw_blocked_data = False
    for _ in range(n):
        channel = channels[cursor]
        cursor += 1
        if cursor == n:
            cursor = 0
        if channel.queue and channel._nbatches:
            head = channel.queue[0]
            if head.__class__ is RecordBatch:
                vt = head.visible_times[head.next_index]
                if vt > instance.sim._now:
                    instance._note_invisible(vt)
                    continue
        if channel.block_tokens:
            if channel.queue:
                saw_blocked_data = True
            continue
        if channel.queue:
            if channel.is_auxiliary:
                recovery = instance.job.recovery
                if recovery is not None and recovery.holds_aux(
                        instance, channel.queue[0]):
                    saw_blocked_data = True
                    continue
            handler._cursor = cursor
            return channel, channel.pop()
    handler.suspended = saw_blocked_data
    return None


class FakeSim:
    _now = NOW
    now = NOW


class FakeWake:
    def fire(self):
        pass


class HoldingRecovery:
    """Holds the records of ``aux_held`` lanes (marked in their value)."""

    def holds_aux(self, instance, element):
        value = getattr(element, "value", None)
        return value is not None and value[2]


class FakeJob:
    recovery = HoldingRecovery()


class FakeInstance:
    def __init__(self):
        self.sim = FakeSim()
        self.job = FakeJob()
        self.wake = FakeWake()
        self.input_channels = []
        self.invisible = []

    def _note_invisible(self, when):
        self.invisible.append(when)


def add_channel(instance, index, kind, depth):
    """An input channel of ``kind``; its elements are named by position so
    the twin built from the same layout can be compared by value."""
    channel = InputChannel(instance, name=f"in{index}")

    def record(j):
        return Record(key=f"k{index}.{j}",
                      value=(index, j, kind == "aux_held"))

    if kind in ("plain", "blocked", "aux", "aux_held"):
        channel.queue.append(record(0))
        for j in range(1, depth):
            channel.queue.append(record(j) if j % 2
                                 else Watermark(timestamp=float(j)))
    elif kind in ("batch_visible", "batch_invisible"):
        offset = -0.5 if kind == "batch_visible" else 0.25 * (index + 1)
        records = [record(j) for j in range(depth)]
        visible = [NOW + offset + 0.001 * j for j in range(depth)]
        channel.queue.append(RecordBatch(records, visible))
        channel._nbatches = 1
        channel.queue.append(Watermark(timestamp=float(index)))
    if kind in ("blocked", "blocked_empty"):
        channel.block(("ckpt", index))
    if kind in ("aux", "aux_held"):
        channel.is_auxiliary = True
    instance.input_channels.append(channel)
    return channel


def build(layout, cursor):
    instance = FakeInstance()
    for index, (kind, depth) in enumerate(layout):
        add_channel(instance, index, kind, depth)
    handler = DefaultInputHandler(instance)
    handler._cursor = cursor
    return instance, handler


def outcome(instance, handler, polled):
    if polled is None:
        picked = None
    else:
        channel, element = polled
        picked = (instance.input_channels.index(channel),
                  getattr(element, "value", None),
                  getattr(element, "timestamp", None))
    return (picked, handler._cursor, handler.suspended,
            list(instance.invisible))


layouts = st.lists(st.tuples(st.sampled_from(KINDS), st.integers(1, 3)),
                   min_size=1, max_size=12)


@given(layout=layouts, cursor=st.integers(0, 40), polls=st.integers(1, 6),
       added=st.tuples(st.sampled_from(KINDS), st.integers(1, 3)),
       add_after=st.integers(0, 6))
@settings(max_examples=300, deadline=None)
def test_poll_matches_the_reference_scan(layout, cursor, polls, added,
                                         add_after):
    ref_instance, ref_handler = build(layout, cursor)
    new_instance, new_handler = build(layout, cursor)
    for round_ in range(polls + 1):
        if round_ == add_after:
            index = len(layout)
            add_channel(ref_instance, index, *added)
            add_channel(new_instance, index, *added)
        expected = outcome(ref_instance, ref_handler,
                           reference_poll(ref_handler))
        actual = outcome(new_instance, new_handler, new_handler.poll())
        assert actual == expected
