"""Operator logic classes and the instance runtime loop."""

import sys

import pytest

sys.path.insert(0, "tests")
from helpers import build_keyed_job, drive  # noqa: E402

from repro.engine import (FilterLogic, JobGraph, KeyByLogic,
                          KeyedReduceLogic, MapLogic, OperatorSpec,
                          Partitioning, Record, StreamJob, Watermark)
from repro.engine.operators import PassThroughLogic, SinkLogic


class FakeInstance:
    """Minimal stand-in for logic unit tests."""

    class _State:
        def __init__(self):
            self.data = {}
            self.bytes = {}

        def get(self, kg, key, default=None):
            return self.data.get((kg, key), default)

        def put(self, kg, key, value):
            self.data[(kg, key)] = value

        def add_bytes(self, kg, delta):
            self.bytes[kg] = self.bytes.get(kg, 0) + delta

    def __init__(self):
        self.state = self._State()


def test_map_logic_transforms():
    logic = MapLogic(lambda r: r.copy_with(value=(r.value or 0) + 1))
    out = logic.on_record(Record(key="a", value=1), FakeInstance())
    assert len(out) == 1 and out[0].value == 2


def test_filter_logic_predicate():
    logic = FilterLogic(predicate=lambda r: r.key == "keep")
    inst = FakeInstance()
    assert logic.on_record(Record(key="keep"), inst)
    assert logic.on_record(Record(key="drop"), inst) == []


def test_filter_logic_pass_fraction_thins_batches():
    logic = FilterLogic(pass_fraction=0.5)
    out = logic.on_record(Record(key="a", count=100, size_bytes=1000),
                          FakeInstance())
    assert out[0].count == 50
    assert out[0].size_bytes == pytest.approx(500)


def test_keyby_logic_clears_key_group():
    logic = KeyByLogic(lambda r: r.value)
    out = logic.on_record(Record(key="old", key_group=3, value="new"),
                          FakeInstance())
    assert out[0].key == "new"
    assert out[0].key_group is None


def test_keyed_reduce_accumulates_per_key():
    logic = KeyedReduceLogic(lambda old, r: (old or 0) + r.count)
    inst = FakeInstance()
    logic.on_record(Record(key="a", key_group=0, count=2), inst)
    out = logic.on_record(Record(key="a", key_group=0, count=3), inst)
    assert out[0].value == 5
    out_b = logic.on_record(Record(key="b", key_group=0, count=1), inst)
    assert out_b[0].value == 1


def test_keyed_reduce_state_bytes_growth():
    logic = KeyedReduceLogic(lambda old, r: r.count,
                             state_bytes_per_record=10.0)
    inst = FakeInstance()
    logic.on_record(Record(key="a", key_group=2, count=4), inst)
    assert inst.state.bytes[2] == 40.0


def test_end_to_end_record_conservation():
    job = build_keyed_job(collect=True)
    drive(job, until=5.0, count=3, marker_every=0)
    job.run(until=8.0)
    sink = job.sink_logic()
    # 2 sources x 1000 ticks x 3 records
    assert sink.records_in == job.metrics.total_source_output()
    assert sink.records_in > 0


def test_markers_reach_sink_and_record_latency():
    job = build_keyed_job()
    drive(job, until=3.0, marker_every=2)
    job.run(until=6.0)
    stats = job.metrics.latency_stats()
    assert stats["count"] > 100
    assert 0 < stats["mean"] < 1.0


def test_watermark_propagates_min_across_channels():
    job = build_keyed_job()
    job.start()
    sources = job.sources()
    sources[0].offer(Watermark(timestamp=10.0))
    sources[1].offer(Watermark(timestamp=4.0))
    job.run(until=1.0)
    for inst in job.instances("agg"):
        # min of the two source watermarks
        assert inst.current_watermark == 4.0


def test_sink_collects_records():
    job = build_keyed_job(collect=True)
    drive(job, until=1.0, marker_every=0)
    job.run(until=2.0)
    sink = job.sink_logic()
    assert sink.collected
    assert all(isinstance(r, Record) for r in sink.collected)


def test_pause_resume_stops_processing():
    job = build_keyed_job()
    drive(job, until=4.0, marker_every=0)
    job.start()
    job.run(until=1.0)
    agg = job.instances("agg")
    for inst in agg:
        inst.pause()
    before = sum(i.records_processed for i in agg)
    job.run(until=2.0)
    assert sum(i.records_processed for i in agg) == before
    for inst in agg:
        inst.resume()
    job.run(until=4.5)
    assert sum(i.records_processed for i in agg) > before


def test_service_time_scales_with_count_and_node_speed():
    job = build_keyed_job()
    inst = job.instances("agg")[0]
    assert inst.service_time(10) == pytest.approx(
        10 * inst.spec.service_time / inst.node.speed)


def test_run_inband_executes_between_elements():
    job = build_keyed_job()
    drive(job, until=2.0, marker_every=0)
    job.start()
    job.run(until=1.0)
    ran = []
    inst = job.instances("agg")[0]

    def action(instance):
        ran.append(instance.sim.now)
        return
        yield  # pragma: no cover

    inst.run_inband(action)
    job.run(until=1.5)
    assert ran and ran[0] >= 1.0


def test_records_processed_counts_physical_records():
    job = build_keyed_job()
    drive(job, until=1.0, count=7, marker_every=0)
    job.run(until=2.0)
    total = sum(i.records_processed for i in job.instances("agg"))
    assert total == job.metrics.total_source_output()
    assert total % 7 == 0


def test_operator_instance_fits_cpython_inline_values():
    """``OperatorInstance.__init__`` sets exactly as many attributes as
    CPython (3.11+) keeps in an instance's inline value array; one more on
    every instance moves them all to a dict and every attribute load on
    the record path with them (measured 1-2 % of ``q8_steady``).  New
    per-instance state that most instances never set belongs behind a
    class-level default, as ``chain_head`` is."""
    job = build_keyed_job()
    for op in ("agg", "sink"):
        instance = job.instances(op)[0]
        assert len(vars(instance)) <= 30, sorted(vars(instance))
        assert "chain_head" not in vars(instance)
        assert instance.chain_head is None
