"""Metrics collection: latency stats, rate series, percentiles."""

import math
import pickle
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (MetricsCollector, Record, SinkLogic, percentile,
                          series_mean, series_peak)
from repro.simulation.sharded import collect_run_view


def test_latency_stats_window():
    m = MetricsCollector()
    for t, v in [(1.0, 0.1), (2.0, 0.2), (3.0, 0.3), (10.0, 9.9)]:
        m.record_latency(t, v)
    stats = m.latency_stats(start=0.0, end=5.0)
    assert stats["count"] == 3
    assert stats["peak"] == 0.3
    assert stats["mean"] == pytest.approx(0.2)


def test_latency_stats_empty():
    stats = MetricsCollector().latency_stats()
    assert stats == {"peak": 0.0, "mean": 0.0, "p50": 0.0, "p99": 0.0,
                     "count": 0}


def test_throughput_series_buckets():
    m = MetricsCollector()
    for t in (0.1, 0.2, 1.5, 1.6, 1.7):
        m.record_source_output(t, 10)
    series = m.throughput_series(window=1.0, start=0.0, end=3.0)
    assert len(series) == 3
    assert series[0] == (0.5, 20.0)
    assert series[1] == (1.5, 30.0)
    assert series[2] == (2.5, 0.0)


def test_sink_rate_series_and_totals():
    m = MetricsCollector()
    m.record_sink_input(1.0, 5)
    m.record_sink_input(2.0, 7)
    assert m.total_sink_input() == 12
    assert m.total_sink_input(start=1.5) == 7
    assert m.sink_rate_series(window=1.0, end=3.0)[1][1] == 5.0


def test_rate_series_rejects_bad_window():
    m = MetricsCollector()
    m.record_source_output(0.1, 1)
    with pytest.raises(ValueError):
        m.throughput_series(window=0)


def test_custom_series():
    m = MetricsCollector()
    m.record_custom("backlog", 1.0, 5.0)
    m.record_custom("backlog", 2.0, 7.0)
    assert m.custom["backlog"] == [(1.0, 5.0), (2.0, 7.0)]


def test_non_integer_count_fails_loudly_and_keeps_nothing():
    """A fractional ``Record.count`` must never be truncated into the
    packed counters: the record path raises and the log stays aligned."""
    m = MetricsCollector()
    sink = types.SimpleNamespace(metrics=m,
                                 sim=types.SimpleNamespace(_now=1.0))
    SinkLogic().on_record(Record(key="k", count=2), sink)
    with pytest.raises(TypeError):
        SinkLogic().on_record(Record(key="k", count=2.5), sink)
    with pytest.raises(TypeError):
        m.record_source_output(1.0, 2.5)
    assert list(m.sink_events()) == [(1.0, 2)] and m.total_sink_input() == 2
    assert list(m.source_events()) == [] and m.total_source_output() == 0


# -- the list-of-tuples implementation the packed logs replaced, kept as the
# -- reference the series and totals must equal bit for bit

def _ref_rate_series(events, window, start, end):
    if not events:
        return []
    if end is None:
        end = max(t for t, _c in events) + window
    buckets = {}
    for t, count in events:
        if t < start or t >= end:
            continue
        buckets[int((t - start) // window)] = (
            buckets.get(int((t - start) // window), 0) + count)
    return [(start + (i + 0.5) * window, buckets.get(i, 0) / window)
            for i in range(int(math.ceil((end - start) / window)))]


def _ref_total(events, start=0.0, end=math.inf):
    return sum(c for t, c in events if start <= t < end)


#: Streams whose counts come in runs, as every shipped workload's do (one
#: count per side), drawn as (count, times of the run's events).
_events = st.lists(
    st.tuples(st.one_of(st.sampled_from([0, 1, 100]), st.integers(0, 10**6)),
              st.lists(st.floats(0.0, 50.0), min_size=1, max_size=12)),
    max_size=8).map(lambda runs: [(t, c) for c, times in runs
                                  for t in times])
_bound = st.one_of(st.none(), st.floats(0.0, 60.0))


@given(source=_events, sink=_events,
       window=st.floats(0.01, 20.0), start=st.floats(0.0, 40.0),
       end=_bound, through_view=st.booleans())
@settings(max_examples=200, deadline=None)
def test_packed_logs_equal_the_list_of_tuples_reference(
        source, sink, window, start, end, through_view):
    m = MetricsCollector()
    for t, c in source:
        m.record_source_output(t, c)
    for t, c in sink:
        m.record_sink_input(t, c)
    m.record_latency(1.0, 0.5)
    m.record_custom("backlog", 2.0, 3.0)
    if through_view:
        # What a shard worker ships back to the parent.
        job = types.SimpleNamespace(
            metrics=m, graph=types.SimpleNamespace(sinks=lambda: []))
        view = pickle.loads(pickle.dumps(collect_run_view(job, ())))
        assert view["source_events"] == source
        assert view["sink_events"] == sink
        assert view["latency_samples"] == [(1.0, 0.5)]
        assert view["custom"] == {"backlog": [(2.0, 3.0)]}
    assert list(m.source_events()) == source
    assert list(m.sink_events()) == sink
    changes = sum(1 for i, (_t, c) in enumerate(source)
                  if i == 0 or c != source[i - 1][1])
    assert len(m._source_runs) == len(m._source_starts) == changes
    for series, total, events in (
            (m.throughput_series, m.total_source_output, source),
            (m.sink_rate_series, m.total_sink_input, sink)):
        assert series(window, start, end) == _ref_rate_series(
            events, window, start, end)
        assert series(window) == _ref_rate_series(events, window, 0.0, None)
        assert total() == _ref_total(events)
        assert total(start) == _ref_total(events, start)
        if end is not None:
            assert total(start, end) == _ref_total(events, start, end)
            assert total(end=end) == _ref_total(events, end=end)


# -- the run-length count column ------------------------------------------------

def _columns(m):
    return [list(column) for column in (
        m._source_times, m._source_runs, m._source_starts,
        m._sink_times, m._sink_runs, m._sink_starts)]


def test_count_runs_change_mid_stream():
    m = MetricsCollector()
    stream = [(0.1, 100), (0.2, 100), (0.3, 200), (0.4, 200), (0.5, 100),
              (0.6, 1)]
    for t, c in stream:
        m.record_source_output(t, c)
    assert list(m.source_events()) == stream
    assert list(m._source_runs) == [100, 200, 100, 1]
    assert list(m._source_starts) == [0, 2, 4, 5]
    assert m.total_source_output() == 701
    assert m.total_source_output(0.25, 0.55) == 500


def test_a_float_equal_to_the_current_run_raises_and_keeps_nothing():
    m = MetricsCollector()
    m.record_source_output(1.0, 100)
    m.record_sink_input(1.0, 1)
    before = _columns(m)
    with pytest.raises(TypeError):
        m.record_source_output(2.0, 100.0)
    with pytest.raises(TypeError):
        m.record_sink_input(2.0, 1.0)
    assert _columns(m) == before
    assert m.total_source_output() == 100 and m.total_sink_input() == 1
    m.record_source_output(3.0, 100)
    assert list(m.source_events()) == [(1.0, 100), (3.0, 100)]
    assert list(m._source_runs) == [100]


def test_counts_read_back_as_int():
    class Count(int):
        pass

    m = MetricsCollector()
    for t, c in ((1.0, True), (2.0, 1), (3.0, Count(1)), (4.0, 7)):
        m.record_sink_input(t, c)
    events = list(m.sink_events())
    assert events == [(1.0, 1), (2.0, 1), (3.0, 1), (4.0, 7)]
    assert all(type(c) is int for _t, c in events)


def test_series_peak_and_mean():
    series = [(1.0, 10.0), (2.0, 20.0), (3.0, 30.0)]
    assert series_peak(series) == 30.0
    assert series_mean(series) == 20.0
    assert series_peak(series, start=0.0, end=2.5) == 20.0
    assert series_mean([], 0, 1) == 0.0


class TestPercentile:
    def test_simple(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == pytest.approx(50.5)
        assert percentile(values, 0) == 1
        assert percentile(values, 100) == 100

    def test_single_value(self):
        assert percentile([42.0], 99) == 42.0

    def test_empty_returns_zero(self):
        # Empty-input contract (module docstring): all summary helpers are
        # total over empty inputs, so a window with no markers is 0.0
        # everywhere, never an exception.
        assert percentile([], 50) == 0.0
        assert percentile([], 0) == 0.0
        assert percentile([], 100) == 0.0

    def test_rejects_bad_pct(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)
        with pytest.raises(ValueError):
            percentile([1.0], -0.5)
        with pytest.raises(ValueError):
            percentile([], 101)  # argument errors win over empty input

    def test_empty_contract_is_uniform(self):
        # percentile / series_peak / series_mean / latency_stats agree.
        assert percentile([], 99) == series_peak([]) == series_mean([]) == 0.0
        stats = MetricsCollector().latency_stats()
        assert stats["p99"] == 0.0 and stats["peak"] == 0.0

    def test_single_sample_stats(self):
        m = MetricsCollector()
        m.record_latency(1.0, 0.25)
        stats = m.latency_stats()
        assert stats == {"peak": 0.25, "mean": 0.25, "p50": 0.25,
                         "p99": 0.25, "count": 1}

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200),
           st.floats(0, 100))
    @settings(max_examples=100, deadline=None)
    def test_bounded_by_min_max(self, values, pct):
        p = percentile(values, pct)
        assert min(values) - 1e-9 <= p <= max(values) + 1e-9

    @given(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_pct(self, values):
        assert (percentile(values, 25) <= percentile(values, 50)
                <= percentile(values, 90))
