"""Batched vs. per-record plane under everything that cuts into a backlog.

Records reach an operator by one path on both planes -- ``poll()`` ->
``pop()`` -> service -> ``on_record`` -- and the batched plane differs only
in how they cross a channel (wire carriers whose members become visible at
their per-record delivery times).  Here a silent receiver -- slower than
the wire, so carriers queue up on its two input channels, or faster, so it
runs into members not yet delivered -- is hit mid-backlog by ``pause()`` /
``resume()``, an in-band function, a checkpoint barrier (``block`` /
``unblock``), ``stop()`` and a ``job.run(until=t)`` boundary.  Everything a
run can show must be equal on both planes, and the batched plane may never
dispatch more kernel events than the reference.
"""

import sys

import pytest
from hypothesis import given, settings, strategies as st

sys.path.insert(0, "tests")
from helpers import build_tie_job, run_outcome  # noqa: E402

from repro.engine import (CheckpointBarrier, KeyedReduceLogic, Record,
                          Watermark)
from repro.engine.windows import SlidingWindowAggregateLogic

TICK = 0.001
END = 0.2
#: Receiver service times: slower than the wire (a backlog of carriers
#: builds) and faster (it runs into members not yet delivered).
SLOW, FAST = 5e-4, 1e-4

#: receiver kind -> (stages, operator holding the backlog, its logic).
_RECEIVERS = {
    "reduce": (3, "agg", lambda: KeyedReduceLogic(
        lambda old, r: (old or 0) + r.count, emit_updates=False)),
    "window": (3, "agg", lambda: SlidingWindowAggregateLogic(
        size=4 * TICK, slide=TICK, bytes_per_record=8.0)),
    "sink": (2, "sink", None),
}
ACTIONS = ["pause", "inband", "checkpoint", "stop", "run-until"]


def _observe(job, receiver):
    """What an observer standing at the current instant can read."""
    return (job.sim.now, receiver.records_processed, receiver.busy_seconds,
            receiver.current_watermark,
            [len(ic) for ic in receiver.input_channels],
            list(job.metrics.sink_events()))


def _outcome(plane, kind, service, script, action, probe=None):
    stages, op_name, logic = _RECEIVERS[kind]
    # 0.2 ms to serialize a record: carriers form on the wire and, at the
    # slow ``service``, queue up behind the receiver.
    job = build_tie_job(stages=stages, sources=2, aggs=1, latency=TICK,
                        bandwidth=1e6, services=(1e-5, service, service),
                        plane=plane, agg_logic=logic)
    sim = job.sim
    sources = job.sources()
    receiver = job.instances(op_name)[0]
    assert len(receiver.input_channels) >= 2
    for tick, source, what, arg in script:
        src = sources[source]
        if what == "burst":
            def offer(src=src, tick=tick, n=arg + 2):
                for i in range(n):
                    src.offer(Record(key=f"k{i % 5}", event_time=tick * TICK,
                                     count=1, size_bytes=200.0))
        else:
            def offer(src=src, arg=arg):
                src.offer(Watermark(timestamp=arg * TICK))
        sim.call_at(tick * TICK, offer)
    what, at = action
    seen = []
    if probe is not None:  # scheduled first: the world the action lands in
        sim.call_at(at, lambda: probe(receiver))
    if what == "pause":
        sim.call_at(at, receiver.pause)
        sim.call_at(at + 3 * TICK, receiver.resume)
    elif what == "inband":
        def fn(instance):
            seen.append(_observe(job, instance))
            yield TICK
            seen.append(_observe(job, instance))
        sim.call_at(at, lambda: receiver.run_inband(fn))
    elif what == "checkpoint":
        # Staggered, so the alignment window stays open across a carrier.
        for i, src in enumerate(sources):
            sim.call_at(at + 2 * i * TICK, lambda s=src: s.inject(
                CheckpointBarrier(checkpoint_id=1)))
    elif what == "stop":
        sim.call_at(at, receiver.stop)
    else:
        job.run(until=at)
        seen.append(_observe(job, receiver))
    job.run(until=END)
    credits = {ch.name: ch.credits for i in job.all_instances()
               for ch in i.router.all_channels()}
    return (dict(run_outcome(job), credits=credits, seen=seen),
            sim.events_processed)


def _assert_planes_agree(kind, service, script, action, probe=None):
    batched, batched_events = _outcome("batched", kind, service, script,
                                       action, probe)
    single, single_events = _outcome("single", kind, service, script, action)
    assert batched == single
    assert batched_events <= single_events


_script = st.lists(
    st.tuples(st.integers(0, 8), st.integers(0, 1),
              st.sampled_from(["burst", "burst", "watermark"]),
              st.integers(0, 12)),
    min_size=2, max_size=12).map(sorted)
_action = st.tuples(st.sampled_from(ACTIONS),
                    st.integers(0, 30000).map(lambda us: us * 1e-6))


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(sorted(_RECEIVERS)),
       service=st.sampled_from([SLOW, SLOW, FAST]), script=_script,
       action=_action)
def test_interrupted_backlog_is_plane_independent(kind, service, script,
                                                  action):
    _assert_planes_agree(kind, service, script, action)


def test_depth_read_at_a_delivery_instant():
    """Pinned case of the above: the in-band function resumes at the very
    instant a record lands, and on the per-record plane its delivery
    dispatch is still behind the reader in the heap, while the batched
    plane's carrier member is visible from that instant on.  The depth
    counts it on both."""
    script = [(0, 0, "burst", 0), (2, 0, "burst", 9)]
    outcome, _events = _outcome("single", "reduce", SLOW, script,
                                ("inband", 0.003711))
    assert [seen[4] for seen in outcome["seen"]] == [[4, 0], [9, 0]]
    _assert_planes_agree("reduce", SLOW, script, ("inband", 0.003711))


@pytest.mark.parametrize("kind", sorted(_RECEIVERS))
@pytest.mark.parametrize("what", ACTIONS)
def test_action_landing_on_queued_carriers(kind, what):
    """Pinned case of the above, checked to land while both input channels
    of the batched run really hold a carrier with unconsumed members."""
    script = [(1, 0, "burst", 10), (1, 1, "burst", 10),
              (2, 0, "watermark", 1), (2, 1, "watermark", 1),
              (3, 0, "burst", 6), (3, 1, "burst", 6),
              (9, 0, "watermark", 9), (9, 1, "watermark", 9)]
    carriers = []

    def probe(receiver):
        carriers.extend(ic._nbatches for ic in receiver.input_channels)

    _assert_planes_agree(kind, SLOW, script, (what, 0.0047), probe)
    assert len(carriers) >= 2 and all(carriers)
