"""Keyed state backend: lifecycle, sizes, snapshots."""

import pytest

from repro.engine import DictStateBackend, StateStatus
from repro.engine.state import StateTransferCostModel


def test_register_and_lookup():
    backend = DictStateBackend()
    group = backend.register_group(3, StateStatus.LOCAL, size_bytes=100.0)
    assert backend.group(3) is group
    assert backend.group(4) is None
    assert backend.require_group(3) is group
    with pytest.raises(KeyError):
        backend.require_group(4)


def test_put_get_delete_and_entry_sizing():
    backend = DictStateBackend(bytes_per_entry=10.0)
    backend.put(0, "a", 1)
    backend.put(0, "b", 2)
    backend.put(0, "a", 3)  # overwrite: no size growth
    assert backend.get(0, "a") == 3
    assert backend.group(0).size_bytes == 20.0
    backend.delete(0, "a")
    assert backend.get(0, "a") is None
    assert backend.group(0).size_bytes == 10.0
    backend.delete(0, "missing")  # no-op
    assert backend.group(0).size_bytes == 10.0


def test_get_default_for_absent_group():
    backend = DictStateBackend()
    assert backend.get(9, "x", default="d") == "d"


def test_add_bytes_never_negative():
    backend = DictStateBackend()
    backend.add_bytes(1, 50.0)
    backend.add_bytes(1, -500.0)
    assert backend.group(1).size_bytes == 0.0


def test_owned_groups_excludes_migrated():
    backend = DictStateBackend()
    backend.register_group(0, StateStatus.LOCAL)
    backend.register_group(1, StateStatus.PENDING_OUT)
    backend.register_group(2, StateStatus.MIGRATED_OUT)
    backend.register_group(3, StateStatus.INCOMING)
    backend.register_group(4, StateStatus.INACTIVE)
    assert backend.owned_groups() == [0, 1]


def test_processable_statuses():
    backend = DictStateBackend()
    for status, expected in [
            (StateStatus.LOCAL, True),
            (StateStatus.PENDING_OUT, True),
            (StateStatus.MIGRATED_OUT, False),
            (StateStatus.INCOMING, False),
            (StateStatus.INACTIVE, False)]:
        assert backend.register_group(0, status).processable is expected
        backend.drop_group(0)


def test_total_bytes():
    backend = DictStateBackend()
    backend.register_group(0, size_bytes=10.0)
    backend.register_group(1, size_bytes=30.0)
    assert backend.total_bytes() == 40.0


def test_snapshot_is_independent_copy():
    backend = DictStateBackend()
    backend.put(0, "k", 1)
    snap = backend.snapshot()
    backend.put(0, "k", 2)
    assert snap[0].entries["k"] == 1
    assert backend.get(0, "k") == 2


def test_transfer_cost_model():
    model = StateTransferCostModel(extract_seconds_per_group=0.0,
                                   bandwidth_fraction=0.5,
                                   handshake_seconds=0.001)
    # 1 MB at 2 MB/s effective (4 MB/s x 0.5) + 1 ms handshake + 1 ms latency
    cost = model.transfer_seconds(1e6, 4e6, 0.001)
    assert cost == pytest.approx(0.001 + 0.001 + 0.5)


def test_transfer_cost_handles_zero_bandwidth():
    model = StateTransferCostModel()
    assert model.transfer_seconds(100.0, 0.0, 0.0) > 0
