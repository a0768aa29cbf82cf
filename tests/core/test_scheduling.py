"""Record Scheduling: inter-/intra-channel policies (§III-B), exercised
through the one handler that implements them."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.engine.channels import InputChannel
from repro.engine.records import CheckpointBarrier, Record, Watermark
from repro.scaling.base import MigrationAwareHandler
from repro.simulation import Simulator


class FakeInstance:
    def __init__(self, sim):
        from repro.simulation import Signal
        self.sim = sim
        self.wake = Signal(sim)
        self.input_channels = []


class ReadyIf:
    """Controller stub: a record is processable iff its key-group is in
    ``groups``."""

    def __init__(self, groups):
        self.groups = groups

    def record_ready(self, instance, record):
        return record.key_group in self.groups


def scheduler(channel_elements, ready_groups, buffer_size=200):
    """A scheduling handler over one fresh channel per element list."""
    instance = FakeInstance(Simulator())
    for elements in channel_elements:
        channel = InputChannel(instance, name="c")
        channel.queue.extend(elements)
        instance.input_channels.append(channel)
    handler = MigrationAwareHandler(instance, ReadyIf(ready_groups),
                                    scheduling=True, buffer_size=buffer_size)
    return handler, instance.input_channels


def rec(kg, key="k"):
    return Record(key=key, key_group=kg)


def test_inter_channel_picks_processable_head():
    handler, (stuck, open_ch) = scheduler([[rec(1)], [rec(2)]], {2})
    channel, element = handler.poll()
    assert channel is open_ch and element.key_group == 2
    assert handler.poll() is None
    assert handler.suspended is True


def test_inter_channel_reports_idle():
    handler, _ = scheduler([[], []], {1})
    assert handler.poll() is None
    assert handler.suspended is False


def test_inter_channel_skips_blocked_channels():
    handler, (a, b) = scheduler([[rec(1)], [rec(1)]], {1})
    a.block("align")
    channel, _ = handler.poll()
    assert channel is b
    assert handler.poll() is None
    assert handler.suspended is True  # blocked-with-data counts as stuck


def test_inter_channel_round_robin_start():
    handler, (a, b) = scheduler([[rec(1), rec(1)], [rec(1)]], {1})
    assert handler.poll()[0] is a
    assert handler.poll()[0] is b  # the scan resumes after the last pick


def test_intra_channel_bypasses_unprocessable_record():
    handler, (ch,) = scheduler([[rec(1), rec(2), rec(3)]], {2})
    channel, element = handler.poll()
    assert channel is ch and element.key_group == 2
    assert [e.key_group for e in ch.queue] == [1, 3]  # order kept


def test_intra_channel_never_crosses_watermark():
    handler, _ = scheduler([[rec(1), Watermark(timestamp=5.0), rec(2)]], {2})
    assert handler.poll() is None
    assert handler.suspended is True


def test_intra_channel_never_crosses_checkpoint_barrier():
    handler, _ = scheduler(
        [[rec(1), CheckpointBarrier(checkpoint_id=1), rec(2)]], {2})
    assert handler.poll() is None


def test_intra_channel_never_crosses_confirm_barrier():
    from repro.core.barriers import ConfirmBarrier
    handler, _ = scheduler(
        [[rec(1), ConfirmBarrier(subscale_id=0), rec(2)]], {2})
    assert handler.poll() is None


def test_intra_channel_respects_buffer_bound():
    elements = [rec(1)] * 50 + [rec(2)]
    handler, _ = scheduler([elements], {2}, buffer_size=10)
    assert handler.poll() is None
    handler, _ = scheduler([elements], {2}, buffer_size=200)
    assert handler.poll()[1].key_group == 2


def test_intra_channel_skips_blocked_channels():
    handler, (ch,) = scheduler([[rec(1), rec(2)]], {2})
    ch.block("align")
    assert handler.poll() is None
    assert handler.suspended is True


@given(st.lists(st.tuples(st.integers(0, 5), st.booleans()),
                min_size=0, max_size=30),
       st.integers(1, 40))
@settings(max_examples=100, deadline=None)
def test_intra_channel_result_is_first_ready_before_any_signal(
        items, buffer_size):
    """Property: with no head ready, the returned record is the earliest
    ready record in the channel that is not preceded by a time-semantics
    signal and within the scan budget; otherwise None."""
    elements = [Watermark(timestamp=1.0) if is_signal else rec(kg)
                for kg, is_signal in items]
    ready_groups = {0, 1, 2}

    def ready(e):
        return not isinstance(e, Record) or e.key_group in ready_groups

    # A ready head (a watermark included) is the inter-channel step's.
    assume(not elements or not ready(elements[0]))
    handler, _ = scheduler([elements], ready_groups, buffer_size=buffer_size)
    found = handler.poll()

    expected = None
    for i, e in enumerate(elements):
        if i >= buffer_size:
            break
        if e.is_time_signal:
            break
        if ready(e):
            expected = e
            break
    if expected is None:
        assert found is None
    else:
        assert found is not None and found[1] is expected
