"""Operator chains against the same graph with every hop a channel.

``StreamJob.build()`` fuses a co-located FORWARD hop of stateless operators
into its head's task; the same graph dealt over several nodes keeps every
hop a channel -- the only way a deployment reaches the unchained engine,
and therefore the oracle here.  One small job is built both ways (same
link spec for every hop in both) with one to four ``MapLogic`` /
``FilterLogic`` / splitting stages behind a source head or behind an
operator head, and hit at a random instant by everything that cuts into a
main loop.  A splitting stage emits no record, one or two, so a chain's
walk from member to member (one output) and its fall-back emit (none or
several) both run.

What must agree is everything but time: what reaches the sink, per key in
order; per-instance ``records_processed``, ``busy_seconds`` and final
watermark; keyed state; which instances snapshot for which checkpoint; the
exactly-once oracle.
Both runs are also held against a three-line model of the stages.

Time is where a chain differs, in both directions.  It has no wire between
its operators, so with zero-service members -- when it differs from the
pipeline *only* by that wire -- the k-th sink arrival of an element that
pays service, records and latency markers counted together, is never later
than its unchained twin.  Records alone carry no such bound: a marker the
chain brings to a shared operator one hop earlier can be polled there
ahead of a record, and the marker's service then delays the record by one
service time.  But a chain is one thread: members with a service
time drain a backlog at ``1 / sum(s)`` where the pipeline drains it at
``1 / max(s)``, and whatever stalls a member (``pause()``, an in-band
function) stalls the whole task.  So the bound is asserted exactly where it
is a theorem, and the stall itself is asserted where it is the point: no
member of a chain processes a record while an in-band function runs in it.
"""

import sys

import pytest
from hypothesis import assume, example, given, settings, strategies as st

sys.path.insert(0, "tests")
from helpers import (assert_assignment_consistent,  # noqa: E402
                     build_tie_job, run_outcome)

from repro.engine import (CheckpointBarrier, FilterLogic, LatencyMarker,
                          MapLogic, NoChannelError, OperatorLogic, Record,
                          RecoveryError, RecoveryManager, Watermark)
from repro.engine.cluster import GBIT
from repro.faults.invariants import check_exactly_once_state
from repro.scaling import OTFSController, ScaleSignalBarrier

TICK = 0.001
END = 0.3
#: A crash lands this long after the instant drawn for it, so that the
#: checkpoint injected at tick 3 has usually completed.
CRASH_AFTER = 10 * TICK
#: Offered to every source after the last action: the final watermark of
#: every instance, whatever a recovery rewound.
CLOSE = (60, 1.0)

class _SplitLogic(OperatorLogic):
    """No record for a value ≡ 0 (mod 4), two for ≡ 1, else the one in."""

    def on_record(self, record, instance):
        value = record.value
        if value % 4 == 0:
            return []
        if value % 4 == 1:
            return [record, record.copy_with(value=value + 1)]
        return [record]


#: kind -> (logic factory, the same stage on one value -> the values out)
_KINDS = {
    "map": (lambda: MapLogic(lambda r: r.copy_with(value=r.value + 1)),
            lambda v: [v + 1]),
    "filter": (lambda: FilterLogic(lambda r: r.value % 3 != 0),
               lambda v: [v] if v % 3 != 0 else []),
    # A chain walks on with a member's one output; none or two fall back
    # to the router's emit.
    "split": (_SplitLogic,
              lambda v: [] if v % 4 == 0 else
              [v, v + 1] if v % 4 == 1 else [v]),
}
ACTIONS = ["none", "pause", "inband", "checkpoint", "stop", "run-until",
           "crash"]
#: Actions that stall no task and discard no work.
_TIMED = ("none", "checkpoint", "run-until")


def _offered(script, sources):
    """``(tick, source, [records...] | watermark timestamp | None)`` to
    offer, None standing for a latency marker.

    A key names its source and its lane -- the parity of the record's
    position in that source's output, which is the ``pre`` instance a
    REBALANCE edge deals it to -- so all records of a key take one path
    and reach the sink in the order they were offered.
    """
    out = []
    emitted = [0] * sources
    for tick, source, what, arg in script:
        source %= sources
        if what == "burst":
            records = []
            for i in range(arg + 2):
                lane = emitted[source] % sources
                emitted[source] += 1
                records.append(dict(key=f"{source}:{lane}:{i % 3}",
                                    value=tick + i, event_time=tick * TICK))
            out.append((tick, source, records))
        elif what == "marker":
            out.append((tick, source, None))
        else:
            out.extend((tick, s, arg * TICK) for s in range(sources))
    out.extend((CLOSE[0], s, CLOSE[1]) for s in range(sources))
    return out


def _model(offered, kinds, keyed):
    """Per key, what the sink must see, and the keyed sum's final state."""
    arrivals, state = {}, {}
    for tick, _source, what in offered:
        for rec in what if isinstance(what, list) else ():
            values = [rec["value"]]
            for kind in kinds:
                values = [out for v in values for out in _KINDS[kind][1](v)]
            for value in values:
                state[rec["key"]] = state.get(rec["key"], 0) + 1
                arrivals.setdefault(rec["key"], []).append(
                    (rec["key"], state[rec["key"]] if keyed else value, 1,
                     rec["event_time"]))
    return arrivals, state


def _build(params, spread):
    job = build_tie_job(
        stages=params["stages"], sources=params["sources"],
        aggs=params["aggs"], latency=params["latency"],
        bandwidth=params["bandwidth"], services=(1e-5, params["agg"], 0.0),
        plane=params["plane"], op_head=params["op_head"], spread=spread,
        stateless=[(_KINDS[kind][0], service)
                   for kind, service in params["chain"]])
    head_op = "pre" if params["op_head"] else "src"
    members = [f"s{k}" for k in range(len(params["chain"]))]
    for name in members:
        for inst in job.instances(name):
            # The two jobs really are the chain and its unchained twin.
            head = None if spread else job.instances(head_op)[inst.index]
            assert inst.chain_head is head
            assert bool(inst.input_channels) == spread
    return job, head_op, members


def _outcome(params, offered, state, action, spread):
    job, head_op, members = _build(params, spread)
    sim = job.sim
    sources = job.sources()
    for tick, source, what in offered:
        if isinstance(what, list):
            def offer(src=sources[source], records=what):
                for rec in records:
                    src.offer(Record(count=1, size_bytes=200.0, **rec))
        elif what is None:
            def offer(src=sources[source], key=f"{source}:0:0"):
                src.offer(LatencyMarker(key=key))
        else:
            def offer(src=sources[source], ts=what):
                src.offer(Watermark(timestamp=ts))
        sim.call_at(tick * TICK, offer)

    what, at, which = action
    chain = [inst for name in [head_op] + members
             for inst in job.instances(name)]
    target = chain[which % len(chain)]
    if what == "inband":
        target = job.instances(members[which % len(members)])[target.index]
    # When each operator of the target's task worked on a record (a source
    # head has no logic to tap; its members show what it hands over).
    worked = {}
    for name in [head_op] + members:
        logic = job.instances(name)[target.index].logic
        times = worked[name] = []

        def on_record(record, instance, _times=times,
                      _original=logic.on_record):
            _times.append(sim.now)
            return _original(record, instance)

        logic.on_record = on_record
    ran, recovered = [], None
    if what == "pause":
        sim.call_at(at, target.pause)
        sim.call_at(at + 3 * TICK, target.resume)
    elif what == "inband":
        def fn(instance):
            assert instance is target
            start = sim.now
            yield TICK
            ran.append(start)

        sim.call_at(at, lambda: target.run_inband(fn))
    elif what == "checkpoint":
        for i, src in enumerate(sources):
            sim.call_at(at + 2 * i * TICK, lambda s=src: s.inject(
                CheckpointBarrier(checkpoint_id=1)))
    elif what == "stop":
        sim.call_at(at, target.stop)
    elif what == "run-until":
        job.run(until=at)
    elif what == "crash":
        recovery = RecoveryManager(job, restart_seconds=2 * TICK).install()
        for src in sources:
            sim.call_at(3 * TICK, lambda s=src: s.inject(
                CheckpointBarrier(checkpoint_id=1)))

        def crash():
            nonlocal recovered
            try:
                recovery.fail_and_recover()
                recovered = True
            except RecoveryError:  # the checkpoint had not completed yet
                recovered = False

        sim.call_at(CRASH_AFTER + at, crash)
    job.run(until=END)

    # A chain is one task: what stalls or stops one of its instances holds
    # all of them, but for the element the head has in hand -- which each
    # splitting stage on the way may have doubled.
    held = {"pause": (at, at + 3 * TICK), "stop": (at, END),
            "inband": (ran[0], ran[0] + TICK) if ran else None}.get(what)
    if held is not None and not spread:
        kinds = [kind for kind, _service in params["chain"]]
        for k, (name, times) in enumerate(worked.items()):
            in_hand = 2 ** kinds[:max(k - 1, 0)].count("split")
            during = sum(held[0] < t < held[1] for t in times)
            assert during <= in_hand * (what != "inband"), (
                name, held, times)

    out = run_outcome(job)
    per_key = {}
    for arrival in out["arrivals"]:
        per_key.setdefault(arrival[0], []).append(arrival)
    snapshots = {}
    for _time, name, cid in out["snapshots"]:
        snapshots.setdefault(cid, set()).add(name)
    return {
        "arrivals": out["arrivals"], "per_key": per_key,
        # Sink arrivals of everything that pays service on the way.
        "times": sorted([t for t, _count in out["sink_events"]]
                        + [t for t, _latency in out["latency"]]),
        "processed": {n: v[0] for n, v in out["instances"].items()},
        "busy": {n: v[2] for n, v in out["instances"].items()},
        "watermarks": {n: v[1] for n, v in out["instances"].items()},
        "state": out["trace"]["state"], "last": out["trace"]["sinks"],
        "snapshots": snapshots, "ran": len(ran), "recovered": recovered,
        "markers": len(out["latency"]),
        "violations": (check_exactly_once_state(job, "agg", state)
                       if params["stages"] == 3 else []),
    }


def _assert_chain_agrees(params, script, action):
    offered = _offered(script, params["sources"])
    model, state = _model(offered, [kind for kind, _ in params["chain"]],
                          keyed=params["stages"] == 3)
    chained = _outcome(params, offered, state, action, spread=False)
    spread = _outcome(params, offered, state, action, spread=True)
    what = action[0]

    if what == "stop":
        # Stopping any instance of a chain stops its task at the head's
        # next element; unchained, that one instance stops alone, wherever
        # the pipeline has got to.  Where the cut falls is timing; both
        # runs are cut short somewhere in the same per-key sequences.
        for run in (chained, spread):
            for key, seen in run["per_key"].items():
                assert seen == model[key][:len(seen)]
        return True
    if what == "crash":
        if not (chained["recovered"] and spread["recovered"]):
            return False  # no completed checkpoint yet: nothing to compare
        # At-least-once output: a replay repeats arrivals, identically.
        for run in (chained, spread):
            assert {k: set(v) for k, v in run["per_key"].items()} \
                == {k: set(v) for k, v in model.items()}
            assert run["violations"] == []
        for field in ("state", "last", "watermarks", "snapshots"):
            assert chained[field] == spread[field], field
        return True

    for field in ("per_key", "processed", "watermarks", "state", "last",
                  "snapshots", "ran", "violations", "markers"):
        assert chained[field] == spread[field], field
    # Each member pays its own service, chained or not (up to rounding:
    # a service yield is charged as the clock difference it spanned).
    assert chained["busy"] == pytest.approx(spread["busy"], rel=1e-9)
    if params["sources"] == params["aggs"] == 1:
        assert chained["arrivals"] == spread["arrivals"]
    assert chained["per_key"] == model
    assert chained["violations"] == []
    assert chained["ran"] == (what == "inband")
    assert chained["markers"] == sum(item[2] is None for item in offered)
    if what in _TIMED and not any(s for _kind, s in params["chain"]):
        assert len(chained["times"]) == len(spread["times"])
        assert all(c <= s + 1e-12 for c, s in
                   zip(chained["times"], spread["times"]))
    return True


_script = st.lists(
    st.tuples(st.integers(0, 8), st.integers(0, 1),
              st.sampled_from(["burst", "burst", "watermark", "marker"]),
              st.integers(0, 12)),
    min_size=2, max_size=12).map(sorted)
_params = st.fixed_dictionaries({
    "stages": st.sampled_from([2, 3]),
    "sources": st.integers(1, 2),
    "aggs": st.integers(1, 2),
    "agg": st.sampled_from([1e-4, 5e-4]),
    "op_head": st.booleans(),
    "chain": st.lists(st.tuples(st.sampled_from(sorted(_KINDS)),
                                st.sampled_from([0.0, 0.0, 2e-5])),
                      min_size=1, max_size=4),
    "latency": st.sampled_from([0.0, TICK]),
    "bandwidth": st.sampled_from([float("inf"), 1e6, GBIT]),
    "plane": st.sampled_from(["batched", "single"]),
})
_action = st.tuples(st.sampled_from(ACTIONS),
                    st.integers(0, 30000).map(lambda us: us * 1e-6),
                    st.integers(0, 7))


#: Source 1's marker reaches ``agg`` one hop earlier through the chain and
#: is polled ahead of source 0's second record: that record's sink arrival
#: is later than unchained, the marker's earlier.
_MARKER_FIRST = dict(
    params={"stages": 3, "sources": 2, "aggs": 1, "agg": 1e-4,
            "op_head": False, "chain": [("filter", 0.0)], "latency": 0.0,
            "bandwidth": float("inf")},
    script=[(0, 0, "burst", 0), (0, 0, "burst", 0), (0, 0, "watermark", 0),
            (2, 1, "marker", 0)],
    action=("checkpoint", 0.0, 0))


@settings(max_examples=200, deadline=None)
@given(params=_params, script=_script, action=_action)
@example(**dict(_MARKER_FIRST,
                params=dict(_MARKER_FIRST["params"], plane="batched")))
@example(**dict(_MARKER_FIRST,
                params=dict(_MARKER_FIRST["params"], plane="single")))
def test_chained_and_unchained_placements_agree(params, script, action):
    assume(_assert_chain_agrees(params, script, action))


_PINNED = {"stages": 3, "sources": 2, "aggs": 1, "agg": 1e-4,
           "op_head": False, "chain": [("map", 2e-5), ("filter", 0.0)],
           "latency": TICK, "bandwidth": 1e6, "plane": "batched"}
_BUSY = [(1, 0, "burst", 10), (1, 1, "burst", 10), (2, 0, "watermark", 1),
         (2, 1, "marker", 0), (4, 0, "marker", 0),
         (4, 0, "burst", 12), (4, 1, "burst", 12), (8, 0, "watermark", 7),
         (14, 0, "burst", 10), (14, 1, "burst", 10)]  # the crash's burst


@pytest.mark.parametrize("op_head", [False, True])
@pytest.mark.parametrize("what", ACTIONS)
def test_action_landing_on_a_busy_chain(what, op_head):
    """Pinned case of the above: the action lands on a member (``s0[1]``)
    while both chains are working through a burst."""
    assert _assert_chain_agrees(dict(_PINNED, op_head=op_head), _BUSY,
                                (what, 0.0042, 3))


@pytest.mark.parametrize("op_head", [False, True])
@pytest.mark.parametrize("what", ACTIONS)
def test_action_landing_on_a_busy_four_stage_chain(what, op_head):
    """As above through four stages that each pay service: the walk
    carries one output member to member, the split's none or two fall
    back to emit."""
    chain = [("map", 2e-5), ("split", 2e-5), ("filter", 2e-5), ("map", 2e-5)]
    assert _assert_chain_agrees(dict(_PINNED, op_head=op_head, chain=chain),
                                _BUSY, (what, 0.0042, 3))


# -- pinned cases ------------------------------------------------------------

def _chained_job(chain, sources=1):
    return _build(dict(_PINNED, chain=chain, sources=sources),
                  spread=False)[0]


def test_crash_inside_a_members_service_yield_neither_loses_nor_repeats():
    """The head sleeps inside ``s0``'s service when the failure hits: the
    element is discarded on wake-up (``abandon_work`` is re-checked after
    the member's service yield) and comes back by replay, exactly once."""
    job = _chained_job([("map", 1e-4), ("map", 0.0)])
    sim, source = job.sim, job.sources()[0]
    member = job.instances("s0")[0]
    recovery = RecoveryManager(job, restart_seconds=2 * TICK).install()

    def offer(key, value):
        source.offer(Record(key=key, value=value, count=1, size_bytes=200.0))

    sim.call_at(1 * TICK, lambda: offer("before", 1))
    sim.call_at(3 * TICK, lambda: source.inject(
        CheckpointBarrier(checkpoint_id=1)))
    sim.call_at(10 * TICK, lambda: offer("struck", 2))
    seen = []

    def crash():
        # 1e-5 of source service done, 1e-4 of s0's under way.
        seen.append((source.consumed_elements, member.records_processed))
        recovery.fail_and_recover()

    sim.call_at(10 * TICK + 5e-5, crash)
    job.run(until=END)
    assert seen == [(2, 1)]  # the head took "struck", s0 has not finished it
    assert len(recovery.recoveries) == 1
    arrivals = [(r.key, r.value) for r in job.sink_logic().collected]
    assert arrivals == [("before", 1), ("struck", 1)]
    assert check_exactly_once_state(
        job, "agg", {"before": 1, "struck": 1}) == []
    assert member.records_processed == 2  # not 3: the struck try is undone


def test_scale_signal_injected_at_a_source_crosses_a_chain():
    """OTFS with source injection: the coupled barrier must walk the chain
    to the scaling operator.  Dropped at the channel-less edge, the rescale
    never starts and nothing fails but the clock."""
    job = _chained_job([("map", 0.0), ("filter", 2e-5), ("map", 0.0)],
                       sources=2)
    controller = OTFSController(job, injection="source")
    seen = []
    sim = job.sim
    sources = job.sources()
    for tick in range(1, 40):
        sim.call_at(tick * TICK, lambda t=tick: [
            s.offer(Record(key=f"k{t % 7}", value=t, count=1)) for s in
            sources])

    on_signal = controller.on_signal

    def spy(instance, channel, signal):
        if isinstance(signal, ScaleSignalBarrier):
            seen.append((instance.name, channel is None))
        return on_signal(instance, channel, signal)

    controller.on_signal = spy  # each barrier is dispatched to its controller
    done = []
    sim.call_at(10 * TICK, lambda: done.append(
        controller.request_rescale("agg", 2)))
    job.run(until=2.0)
    assert done[0].triggered and controller.metrics.finished_at is not None
    assert len(job.instances("agg")) == 2
    assert_assignment_consistent(job, "agg")
    # Through every member by hand-off, into both agg instances by channel.
    for name in ("s0", "s1", "s2"):
        assert (f"{name}[0]", True) in seen and (f"{name}[1]", True) in seen
    assert ("agg[0]", False) in seen and ("agg[1]", False) in seen
    kept = [t for t in range(1, 40) if (t + 1) % 3 != 0]
    assert check_exactly_once_state(
        job, "agg", {f"k{k}": 2 * sum(1 for t in kept if t % 7 == k)
                     for k in range(7)}) == []


def test_channel_less_edge_names_itself():
    job = _chained_job([("map", 0.0)])
    edge = job.sources()[0].router.edges[0]
    assert edge.chained is job.instances("s0")[0] and not edge.channels
    with pytest.raises(NoChannelError, match=r"src->s0.*chained.*s0\[0\]"):
        edge.channel_for_record(Record(key="k"))
    with pytest.raises(NoChannelError):
        edge.channel_for_marker(LatencyMarker(key="k"))


def test_spread_placement_is_the_only_way_out_of_a_chain():
    """No config field, env var or spec flag: the same graph and config,
    placed on different nodes, keeps its channels."""
    for spread in (False, True):
        job = _build(dict(_PINNED), spread=spread)[0]
        for member in job.instances("s0") + job.instances("s1"):
            assert (member.chain_head is None) == spread
        # Keyed operators and sinks are never members.
        for name in ("agg", "sink"):
            assert all(i.chain_head is None and i.input_channels
                       for i in job.instances(name))


def test_chain_parallelism_is_fixed_at_build_time():
    job = _chained_job([("map", 0.0)], sources=2)
    for op in ("src", "s0"):
        with pytest.raises(ValueError, match="operator chain"):
            job.add_instance(op)
    assert len(job.add_instance("agg").input_channels) == 2


@pytest.mark.parametrize("op_head", [False, True])
def test_each_member_pays_its_own_service_for_a_walked_record(op_head):
    """One record down a three-member chain: every member, not only the
    one the head hands it to, is charged its own service and count, holds
    the record's key-group only while serving it, and lets go after."""
    services = [1e-4, 2e-4, 3e-4]
    job = _build(dict(_PINNED, op_head=op_head,
                      chain=[("map", s) for s in services]),
                 spread=False)[0]
    members = [job.instances(f"s{k}")[0] for k in range(len(services))]
    held = []
    for member in members:
        def on_record(record, instance, _original=member.logic.on_record):
            held.append([m.current_key_group for m in members])
            return _original(record, instance)

        member.logic.on_record = on_record
    job.sim.call_at(TICK, lambda: job.sources()[0].offer(
        Record(key="k", key_group=2, value=1, count=1, size_bytes=200.0)))
    job.run(until=END)
    assert held == [[2, None, None], [None, 2, None], [None, None, 2]]
    assert [m.records_processed for m in members] == [1, 1, 1]
    assert [m.busy_seconds for m in members] == pytest.approx(services)
    assert [m.current_key_group for m in members] == [None] * 3
    assert len(job.sink_logic().collected) == 1
