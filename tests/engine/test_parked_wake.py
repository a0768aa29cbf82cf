"""Parked main loops against the old Event-per-wait wake.

The differential runs one small job twice -- once as shipped, once with
``helpers.use_oracle_wake`` -- on links with zero or equal latency, so
several deliveries and the wake tie at one instant.  Everything a run can
show must agree: the semantic trace, every metrics sample, the sink's
arrival order, per-instance counters and the kernel's event count.
"""

import sys

import pytest
from hypothesis import given, settings, strategies as st

sys.path.insert(0, "tests")
from helpers import (build_keyed_job, build_tie_job,  # noqa: E402
                     run_outcome, use_oracle_wake)

from repro.engine import (CheckpointBarrier, EndOfStream, LatencyMarker,
                          Record, Watermark)
from repro.engine.cluster import GBIT
from repro.engine.runtime import JobConfig
from repro.simulation.kernel import Event, Process
from repro.workloads.twitch import TwitchConfig, TwitchWorkload

TICK = 0.001


def _outcome(params, script, action, oracle):
    job = build_tie_job(**params)
    if oracle:
        use_oracle_wake(job)
    sim = job.sim
    sources = job.sources()
    for tick, source, kind, arg in script:
        src = sources[source % len(sources)]
        if kind == "record":
            element = Record(key=f"k{arg}", event_time=tick * TICK, count=1)
        elif kind == "watermark":
            element = Watermark(timestamp=arg * TICK)
        else:
            element = LatencyMarker(key="k0")
        sim.call_at(tick * TICK, lambda s=src, e=element: s.offer(e))
    kind, at = action
    last = job.all_instances()[-2 if kind == "pause-mid" else -1]
    if kind == "checkpoint":
        # Staggered across the sources, so the barrier's alignment window
        # is open long enough for data to queue behind it (a suspension).
        for i, src in enumerate(sources):
            sim.call_at((at + 2 * i) * TICK, lambda s=src: s.inject(
                CheckpointBarrier(checkpoint_id=1)))
    elif kind != "none":
        sim.call_at(at * TICK, last.pause)
        sim.call_at((at + 3) * TICK, last.resume)
    job.run(until=0.2)
    return dict(run_outcome(job), events=sim.events_processed)


_script = st.lists(
    st.tuples(st.integers(0, 12), st.integers(0, 1),
              st.sampled_from(["record", "record", "watermark", "marker"]),
              st.integers(0, 12)),
    min_size=1, max_size=40).map(sorted)
_params = st.fixed_dictionaries({
    "stages": st.sampled_from([2, 3]),
    "sources": st.integers(1, 2),
    "aggs": st.integers(1, 2),
    "latency": st.sampled_from([0.0, TICK]),
    "bandwidth": st.sampled_from([float("inf"), GBIT]),
    "services": st.tuples(*[st.sampled_from([0.0, TICK, 2.5 * TICK])] * 3),
    "plane": st.sampled_from(["batched", "single"]),
})
_action = st.tuples(
    st.sampled_from(["none", "checkpoint", "pause-sink", "pause-mid"]),
    st.integers(0, 12))


@settings(max_examples=120, deadline=None)
@given(params=_params, script=_script, action=_action)
def test_parked_wake_matches_event_per_wait_oracle(params, script, action):
    parked = _outcome(params, script, action, oracle=False)
    oracle = _outcome(params, script, action, oracle=True)
    assert parked == oracle


# -- deterministic cases ---------------------------------------------------

class _Calls:
    """Counts calls of ``cls.name`` per receiver (class-level wrap, undone
    on exit)."""

    def __init__(self, cls, name, key=lambda receiver: None):
        self.cls, self.name, self.key = cls, name, key
        self.by_key = {}

    def __enter__(self):
        original = self._original = getattr(self.cls, self.name)
        by_key, key = self.by_key, self.key

        def counting(receiver, *args):
            k = key(receiver)
            by_key[k] = by_key.get(k, 0) + 1
            return original(receiver, *args)

        setattr(self.cls, self.name, counting)
        return self

    def __exit__(self, *exc):
        setattr(self.cls, self.name, self._original)

    @property
    def total(self):
        return sum(self.by_key.values())


def _resumes():
    return _Calls(Process, "_resume", key=lambda process: process.name)


def _idle_agg():
    """A keyed job run to quiescence; returns (job, its one agg instance)."""
    job = build_keyed_job(agg_parallelism=1, job_config=JobConfig(
        record_plane="single"))
    job.run(until=0.01)
    agg = job.instances("agg")[0]
    assert agg.wake._armed  # parked, nothing on the heap
    return job, agg


def test_non_advancing_watermark_wakes_once_and_parks_again():
    job, agg = _idle_agg()
    ch0, ch1 = agg.input_channels
    backing = ch0.channel
    backing.credits -= 1  # as if the watermark had taken a send credit
    credits = backing.credits
    before = job.sim.events_processed
    with _resumes() as resumes, _Calls(Event, "__init__") as events:
        ch0.deliver(Watermark(timestamp=5.0))
        job.run(until=0.02)
    assert resumes.by_key == {agg.name: 1}  # nothing forwarded downstream
    assert events.total == 0  # the wake allocated nothing
    assert job.sim.events_processed == before + 1  # its one heap entry
    assert agg.wake._armed  # parked again
    assert ch0.watermark == 5.0 and ch1.watermark == float("-inf")
    assert agg.current_watermark == float("-inf")
    assert backing.credits == credits + 1  # returned by the pop
    assert not ch0.queue and agg.input_handler._cursor == 1


@pytest.mark.parametrize("case", [
    "advancing-watermark", "record", "marker", "barrier", "eos",
    "unblocked-data", "paused", "inband", "interceptor"])
def test_a_wake_resumes_the_generator_exactly_once(case):
    job, agg = _idle_agg()
    ch0, ch1 = agg.input_channels
    ran = []
    fire = None
    if case == "advancing-watermark":
        ch1.watermark = 9.0
        element = Watermark(timestamp=5.0)
    elif case in ("record", "unblocked-data"):
        element = Record(key="k1", key_group=0, count=1)
    elif case == "marker":
        element = LatencyMarker(key="k1")
    elif case == "barrier":
        element = CheckpointBarrier(checkpoint_id=1)
    elif case == "eos":
        element = EndOfStream()
    elif case == "paused":
        agg.pause()
        element = Watermark(timestamp=5.0)
    elif case == "inband":
        def action(instance):
            ran.append(instance.sim.now)
            return
            yield  # pragma: no cover

        def fire():
            agg.run_inband(action)
    else:
        agg.element_interceptor = lambda channel, el: ran.append(el) or True
        element = Watermark(timestamp=5.0)
    if case == "unblocked-data":
        # Data behind a block: the delivery wakes the instance, which finds
        # nothing readable and parks as suspended; the unblock wakes it again.
        ch0.block("test")
        ch0.deliver(element)
        job.sim.run(until=0.015)
        assert agg.wake._armed and agg.records_processed == 0

        def fire():
            ch0.unblock("test")
    with _resumes() as resumes:
        if fire is not None:
            fire()
        else:
            ch0.deliver(element)
        # Stop short of a record's or marker's service end: only the wake
        # itself can have resumed the generator by then.
        job.sim.run(until=job.sim.now + agg.service_time(1) / 2)
    assert resumes.by_key[agg.name] == 1  # (downstream may wake too)
    if case == "advancing-watermark":
        assert agg.current_watermark == 5.0
    elif case == "unblocked-data":
        job.run(until=0.05)
        assert agg.records_processed == 1
        assert agg.suspended_seconds == pytest.approx(0.005)
    elif case == "paused":
        assert ch0.queue and agg.wake._armed  # parked again, nothing polled
    elif case in ("inband", "interceptor"):
        assert ran
    elif case == "eos":
        assert agg.running  # one of two channels: not the end yet


def test_two_fires_before_the_dispatch_resume_once():
    job, agg = _idle_agg()
    with _resumes() as resumes:
        agg.input_channels[0].deliver(Record(key="k1", key_group=0, count=1))
        agg.input_channels[1].deliver(Record(key="k2", key_group=1, count=1))
        job.sim.run(until=job.sim.now + agg.service_time(1) / 2)
    assert resumes.by_key[agg.name] == 1
    job.run(until=0.05)
    assert agg.records_processed == 2


def test_stop_then_start_leaves_no_parked_state_behind():
    job, agg = _idle_agg()
    old = agg._process
    agg.stop()
    job.sim.run(until=0.02)  # not job.run(): that would start() it again
    assert not old.is_alive and not agg.wake._armed
    agg.input_channels[0].deliver(Record(key="k1", key_group=0, count=1))
    job.sim.run(until=0.03)
    assert agg.records_processed == 0  # a fire with nobody parked is dropped
    agg.start()
    job.run(until=0.05)
    assert agg.wake._owner is agg._process is not old
    assert agg.records_processed == 1 and agg.wake._armed


def _counting_run(steps, make_generator):
    """``make_generator``'s generator behind an adapter that adds one to
    ``steps[0]`` each time it is stepped (a send or a throw), however the
    kernel resumed it."""
    def run():
        gen = make_generator()
        step, arg = gen.send, None
        while True:
            steps[0] += 1
            try:
                target = step(arg)
            except StopIteration:
                return
            try:
                step, arg = gen.send, (yield target)
            except BaseException as exc:  # thrown in by the kernel
                step, arg = gen.throw, exc
    return run


def _twitch_counts(oracle):
    workload = TwitchWorkload(TwitchConfig(seed=7, duration=30.0))
    job = workload.build()
    steps = [0]
    for instance in job.all_instances():
        instance._run = _counting_run(steps, instance._run)
    if oracle:
        use_oracle_wake(job)
    with _Calls(Event, "__init__") as events:
        job.run(until=30.0)
    return steps[0], events.total, job.sim.events_processed


def test_parking_saves_event_allocations_not_kernel_events():
    steps, allocations, dispatched = _twitch_counts(oracle=False)
    o_steps, o_allocations, o_dispatched = _twitch_counts(oracle=True)
    assert dispatched == o_dispatched
    assert steps == o_steps  # every wake still resumes its generator
    assert allocations < o_allocations / 2
