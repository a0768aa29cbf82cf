"""Metrics registry semantics: instruments, labels, snapshots."""

import pytest

from repro.telemetry import MetricsRegistry


def test_counter_get_or_create_and_labels():
    reg = MetricsRegistry()
    a = reg.counter("records", operator="agg")
    b = reg.counter("records", operator="agg")
    c = reg.counter("records", operator="map")
    assert a is b
    assert a is not c
    a.inc()
    a.inc(4)
    assert a.value == 5.0
    assert c.value == 0.0


def test_counter_rejects_negative():
    reg = MetricsRegistry()
    with pytest.raises(ValueError):
        reg.counter("x").inc(-1)


def test_label_order_is_irrelevant():
    reg = MetricsRegistry()
    a = reg.counter("x", op="agg", channel="c0")
    b = reg.counter("x", channel="c0", op="agg")
    assert a is b


def test_gauge_set_and_add():
    reg = MetricsRegistry()
    g = reg.gauge("depth", instance="agg[0]")
    g.set(7)
    g.add(-2)
    assert g.value == 5


def test_snapshot_keys_and_shapes():
    reg = MetricsRegistry()
    reg.counter("records", operator="agg").inc(3)
    reg.gauge("depth").set(2)
    snap = reg.snapshot()
    assert snap == {"depth": 2.0, "records{operator=agg}": 3.0}


def test_snapshot_order_independent_of_creation_order():
    reg1, reg2 = MetricsRegistry(), MetricsRegistry()
    for op in ("b", "a", "c"):
        reg1.counter("records", operator=op).inc(2)
    for op in ("c", "b", "a"):
        reg2.counter("records", operator=op).inc(2)
    assert reg1.snapshot() == reg2.snapshot()
    assert list(reg1.snapshot()) == list(reg2.snapshot())

