"""Columnar plane primitives: views, vectorized sums, burst partitioning.

Everything in :mod:`repro.engine.columnar` must be a bit-identical
re-expression of a scalar loop (or degrade to one without numpy); these
tests pin each helper against its scalar reference.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.columnar import (HAVE_NUMPY, cumulative_ship_times,
                                   partition_by_target)
from repro.engine.records import Record, RecordBatch
from repro.engine.routing import OutputEdge, Partitioning


def _records(n, seed=0):
    rng = random.Random(seed)
    return [Record(key=f"k{i}", key_group=rng.randrange(16),
                   event_time=rng.uniform(0, 100), count=rng.randrange(1, 5),
                   size_bytes=float(rng.randrange(16, 512)))
            for i in range(n)]


# -- cumulative_ship_times -------------------------------------------------------


@given(sizes=st.lists(st.floats(min_value=1.0, max_value=1e6,
                                allow_nan=False),
                      min_size=1, max_size=100),
       start=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
       bandwidth=st.sampled_from([1e6, 1e8, 400e6, 1e9]))
@settings(max_examples=200, deadline=None)
def test_cumulative_ship_times_bitwise_equals_scalar_loop(sizes, start,
                                                          bandwidth):
    """Both the numpy path (n >= 8) and the fallback must match exactly."""
    out = cumulative_ship_times(sizes, start, bandwidth)
    s = start
    expected = []
    for size in sizes:
        s += size / bandwidth
        expected.append(s)
    assert out == expected  # bitwise: == on floats, no tolerance


# -- partition_by_target ---------------------------------------------------------


@given(key_groups=st.lists(st.integers(0, 15), min_size=1, max_size=200),
       channels=st.integers(1, 6))
@settings(max_examples=200, deadline=None)
def test_partition_by_target_matches_sequential_loop(key_groups, channels):
    table = [kg % channels for kg in range(16)]
    out = partition_by_target(key_groups, table)
    expected = {}
    for i, kg in enumerate(key_groups):
        expected.setdefault(table[kg], []).append(i)
    assert out == expected


def test_partition_by_target_preserves_per_target_order():
    # Skewed input: one hot target, members must stay in arrival order.
    key_groups = [0, 1, 0, 0, 2, 0, 1, 0, 0, 0, 3, 0]
    table = [0, 1, 1, 0]
    out = partition_by_target(key_groups, table)
    assert out[0] == [0, 2, 3, 5, 7, 8, 9, 10, 11]
    assert out[1] == [1, 4, 6]


# -- OutputEdge.partition_burst ---------------------------------------------------


class _FakeChannel:
    def __init__(self, index):
        self.index = index


def _hash_edge(channels=4, num_key_groups=16):
    edge = OutputEdge("e", Partitioning.HASH, num_key_groups=num_key_groups)
    for i in range(channels):
        edge.add_channel(_FakeChannel(i))
    for kg in range(num_key_groups):
        edge.set_routing(kg, kg % channels)
    return edge


def test_partition_burst_matches_channel_for_record():
    edge = _hash_edge()
    records = _records(40, seed=3)
    split = edge.partition_burst(records)
    for target, indices in split.items():
        for i in indices:
            assert edge.channel_for_record(records[i]).index == target
    flat = sorted(i for indices in split.values() for i in indices)
    assert flat == list(range(len(records)))


def test_partition_burst_stamps_unkeyed_records():
    edge = _hash_edge()
    records = [Record(key=f"user-{i}") for i in range(20)]
    assert all(r.key_group is None for r in records)
    split = edge.partition_burst(records)
    assert all(r.key_group is not None for r in records)
    for target, indices in split.items():
        for i in indices:
            assert edge.routing_table[records[i].key_group] == target


def test_partition_burst_sees_routing_updates():
    """The dense-table cache must invalidate with the channel cache."""
    edge = _hash_edge(channels=2)
    records = _records(24, seed=5)
    before = edge.partition_burst(records)
    for kg in range(16):
        edge.set_routing(kg, 0)  # re-route everything to channel 0
    after = edge.partition_burst(records)
    assert set(after) == {0}
    assert after[0] == list(range(len(records)))
    assert before != after


def test_partition_burst_rejects_non_hash_edges():
    edge = OutputEdge("e", Partitioning.FORWARD)
    edge.add_channel(_FakeChannel(0))
    with pytest.raises(ValueError):
        edge.partition_burst(_records(4))


# -- RecordBatch.columns ----------------------------------------------------------


def test_batch_columns_view_matches_members():
    records = _records(12, seed=9)
    visible = [0.1 * i for i in range(12)]
    batch = RecordBatch(records, visible)
    cols = batch.columns()
    if not HAVE_NUMPY:
        assert cols is None
        return
    assert cols.n == 12
    assert cols.event_time.tolist() == [r.event_time for r in records]
    assert cols.count.tolist() == [r.count for r in records]
    assert cols.size_bytes.tolist() == [r.size_bytes for r in records]
    assert cols.key_group.tolist() == [r.key_group for r in records]
    assert cols.visible_time.tolist() == visible
    assert cols.total_count == sum(r.count for r in records)
    # The view is cached: same object on re-access.
    assert batch.columns() is cols


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy unavailable")
def test_batch_columns_unkeyed_members_marked():
    records = [Record(key=None, key_group=None, count=1)]
    cols = RecordBatch(records).columns()
    assert cols.key_group.tolist() == [-1]
    assert cols.visible_time is None


# -- lazy numpy --------------------------------------------------------------------


def _numpy_loaded_after_q7(record_plane):
    """In a fresh interpreter: is numpy imported after ``import repro``,
    and after building + running a short Q7 on ``record_plane``?"""
    import os
    import subprocess
    import sys
    script = (
        "import sys, repro\n"
        "after_import = 'numpy' in sys.modules\n"
        "from repro.experiments.golden import capture_q7_trace\n"
        f"capture_q7_trace(system=None, warmup=2.0, post=3.0,\n"
        f"                 record_plane={record_plane!r})\n"
        "print(after_import, 'numpy' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.split()


def test_default_plane_never_imports_numpy():
    assert _numpy_loaded_after_q7("batched") == ["False", "False"]


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy unavailable")
def test_columnar_plane_imports_numpy_on_first_use():
    assert _numpy_loaded_after_q7("columnar") == ["False", "True"]
