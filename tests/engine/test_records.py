"""Stream element types."""

import itertools
from types import SimpleNamespace

import pytest

from repro.engine import (CheckpointBarrier, EndOfStream, FilterLogic,
                          KeyedReduceLogic, LatencyMarker, Record, Watermark)
from repro.engine import records
from repro.engine.records import ControlSignal


def test_record_defaults():
    r = Record(key="a")
    assert r.is_record
    assert not r.is_time_signal
    assert r.count == 1


def test_record_ids_are_unique():
    assert Record(key="a").record_id != Record(key="a").record_id


def test_copy_with_overrides_selected_fields():
    r = Record(key="a", key_group=3, event_time=1.0, value=10, count=5,
               size_bytes=100.0, created_at=2.0)
    c = r.copy_with(key="b", key_group=None)
    assert c.key == "b" and c.key_group is None
    assert c.event_time == 1.0 and c.value == 10 and c.count == 5
    assert c.record_id != r.record_id


def test_time_signal_classification():
    assert Watermark(timestamp=1.0).is_time_signal
    assert CheckpointBarrier(checkpoint_id=1).is_time_signal
    assert not Record(key="a").is_time_signal
    assert not LatencyMarker().is_time_signal
    assert not EndOfStream().is_time_signal


def test_marker_ids_unique():
    assert LatencyMarker().marker_id != LatencyMarker().marker_id


def test_control_signal_is_not_record():
    assert not ControlSignal().is_record


def test_sizes_are_positive():
    for element in (Record(key="a"), Watermark(), LatencyMarker(),
                    CheckpointBarrier(), EndOfStream()):
        assert element.size_bytes > 0


def test_record_positional_parameter_order():
    """Hot-path callers build records positionally: the order is fixed."""
    r = Record("k", 3, 1.5, "v", 4, 256.0, 0.5, 99, "src", 7)
    assert (r.key, r.key_group, r.event_time, r.value, r.count,
            r.size_bytes, r.created_at, r.record_id, r.src_origin,
            r.src_seq) == ("k", 3, 1.5, "v", 4, 256.0, 0.5, 99, "src", 7)


_COPIED = ("key", "key_group", "event_time", "value", "count",
           "size_bytes", "created_at", "src_origin", "src_seq")


def _full_record():
    return Record(key="a", key_group=3, event_time=1.0, value=10, count=5,
                  size_bytes=100.0, created_at=2.0, src_origin="src",
                  src_seq=11)


def test_copy_with_copies_every_field_but_the_id():
    r = _full_record()
    c = r.copy_with()
    assert all(getattr(c, name) == getattr(r, name) for name in _COPIED)
    assert c.record_id != r.record_id


def test_copy_with_draws_a_fresh_id_exactly_once(monkeypatch):
    r = _full_record()
    monkeypatch.setattr(records, "_record_ids", itertools.count(1000))
    c = r.copy_with(value=20)
    assert c.record_id == 1000 and c.value == 20
    assert next(records._record_ids) == 1001


def test_copy_with_honours_a_given_id_without_drawing(monkeypatch):
    r = _full_record()
    monkeypatch.setattr(records, "_record_ids", itertools.count(1000))
    c = r.copy_with(record_id=r.record_id, count=1)
    assert c.record_id == r.record_id and c.count == 1
    assert next(records._record_ids) == 1000
    assert all(getattr(c, name) == getattr(r, name)
               for name in _COPIED if name != "count")


def test_copy_with_rejects_an_unknown_field():
    r = _full_record()
    for name in ("colour", "is_record"):
        with pytest.raises(AttributeError):
            r.copy_with(**{name: 1})


class _State:
    """The slice of a keyed state backend ``KeyedReduceLogic`` uses."""

    def __init__(self, value):
        self.value = value

    def get(self, key_group, key):
        return self.value

    def put(self, key_group, key, value):
        self.value = value

    def add_bytes(self, key_group, nbytes):
        pass


def _filtered(record):
    return FilterLogic(pass_fraction=0.4).on_record(record, None)


def _reduced(record):
    logic = KeyedReduceLogic(lambda old, r: old + r.count)
    return logic.on_record(record, SimpleNamespace(state=_State(7)))


@pytest.mark.parametrize("run, changed", [
    (_filtered, {"count": 2, "size_bytes": 40.0}),
    (_reduced, {"value": 12}),
], ids=["filter", "reduce"])
def test_logic_outputs_keep_every_field_and_draw_one_id(monkeypatch, run,
                                                         changed):
    """What ``copy_with`` guarantees, held by the two logics that build
    their output positionally.  Recovery's consistent cut reads
    ``src_origin``/``src_seq``, so a dropped lineage field fails here."""
    r = _full_record()
    monkeypatch.setattr(records, "_record_ids", itertools.count(1000))
    [out] = run(r)
    assert out is not r and out.record_id == 1000
    assert next(records._record_ids) == 1001
    for name in _COPIED:
        assert getattr(out, name) == changed.get(name, getattr(r, name)), \
            name
