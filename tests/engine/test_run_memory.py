"""What a run keeps in memory follows its live state, not how long it ran.

Two structures used to grow with simulated time for no reason an operator
would recognise: the collector's source/sink logs (a tuple and a float per
record) and the pane engine's window-start memo (never evicted).  The logs
keep one 8-byte time an event, with the counts stored per run of equal
counts, and the memo is bounded by the window shape and shares one key
tuple per window start; these tests hold all three, on a real Q7 job and on
a bare logic.
"""

import copy
import gc
import math
import tracemalloc
import types

import pytest

from repro.engine.records import Record
from repro.engine.state import DictStateBackend
from repro.engine.windows import SlidingWindowAggregateLogic, _window_starts
from repro.experiments.scenarios import QUICK, make_workload

HORIZONS = (40.0, 160.0)
#: Bytes a run may keep per source/sink event: one 8-byte time column plus
#: the array's growth headroom (the counts are per run, not per event).
#: The two-column log cost ~18, the tuple-and-float log ~65.
PER_EVENT_B = 12
#: Everything else that legitimately grows over 120 simulated seconds:
#: latency samples, the generators' key caches, allocator rounding.
SLACK_B = 192 * 1024


def _events(metrics):
    return (sum(1 for _ in metrics.source_events())
            + sum(1 for _ in metrics.sink_events()))


@pytest.fixture(scope="module")
def q7_at_two_horizons():
    """One QUICK Q7 job read at 40 and at 160 simulated seconds:
    ``[(memo sizes, events logged, traced bytes, key tuples)]`` and the
    window shape.  ``key tuples`` is, per instance, the number of distinct
    key tuple objects and of distinct window starts across its memo."""
    workload = make_workload("q7", QUICK)
    job = workload.build()
    logics = [inst.logic for inst in job.instances(workload.scaling_operator)]
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        readings = []
        for until in HORIZONS:
            job.run(until=until)
            gc.collect()
            readings.append(([len(logic._starts_memo) for logic in logics],
                             _events(job.metrics),
                             tracemalloc.get_traced_memory()[0],
                             [_key_tuples(logic) for logic in logics]))
    finally:
        if started:
            tracemalloc.stop()
    return readings, (logics[0].size, logics[0].slide)


def _key_tuples(logic):
    keys = [key for pane_keys in logic._starts_memo.values()
            for key in pane_keys]
    return len({id(key) for key in keys}), len({key[1] for key in keys})


def test_memo_size_is_set_by_the_window_shape(q7_at_two_horizons):
    readings, (size, slide) = q7_at_two_horizons
    bound = math.ceil(size / slide) + 1
    (early, _, _, _), (late, _, _, _) = readings
    assert early == late                      # 4x the run, the same memo
    assert all(0 < n <= bound for n in late)


def test_memo_holds_one_key_tuple_per_window_start(q7_at_two_horizons):
    readings, _shape = q7_at_two_horizons
    for _, _, _, key_tuples in readings:
        for tuples, starts in key_tuples:
            # Each start is covered by size/slide buckets, and all of them
            # hold the same tuple.
            assert 0 < starts == tuples


def test_retained_growth_is_a_few_bytes_per_event(q7_at_two_horizons):
    (_, events_early, bytes_early, _), (_, events_late, bytes_late, _) = \
        q7_at_two_horizons[0]
    added = events_late - events_early
    assert added > 40_000
    assert bytes_late - bytes_early <= PER_EVENT_B * added + SLACK_B


def test_late_record_after_eviction_folds_into_a_fresh_logics_panes():
    def make():
        logic = SlidingWindowAggregateLogic(size=4.0, slide=1.0,
                                            bytes_per_record=8.0)
        inst = types.SimpleNamespace(
            state=DictStateBackend(), sim=types.SimpleNamespace(now=0.0))
        return logic, inst

    def record(event_time, value):
        return Record(key="k", key_group=0, event_time=event_time, count=3,
                      value=value)

    logic, inst = make()
    logic.on_record(record(2.5, 1), inst)
    assert 2 in logic._starts_memo
    assert len(logic.on_watermark(50.0, inst)) == 4       # fired and purged
    for step in range(100, 131):
        logic.on_record(record(float(step), 1), inst)
    assert 2 not in logic._starts_memo                    # left behind
    assert len(logic._starts_memo) <= logic._memo_span + 1

    group = inst.state.group(0)
    before = copy.deepcopy(group.entries)
    held = group.size_bytes
    late = record(2.5, 9)
    logic.on_record(late, inst)
    assert 2 not in logic._starts_memo      # recomputed, not re-remembered

    fresh_logic, fresh_inst = make()
    fresh_logic.on_record(late, fresh_inst)
    fresh = fresh_inst.state.group(0)
    assert set(fresh.entries) == {("pane", start) for start in
                                  _window_starts(2.5, 4.0, 1.0)}
    assert {k: v for k, v in group.entries.items()
            if k not in before} == fresh.entries
    assert {k: v for k, v in group.entries.items() if k in before} == before
    assert group.size_bytes - held == fresh.size_bytes
    # ...and they fire like any other late pane.
    assert sorted(r.event_time for r in logic.on_watermark(60.0, inst)) \
        == [start + 4.0 for start in _window_starts(2.5, 4.0, 1.0)]
