"""Key-group hashing and assignment diffing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (KeyGroupAssignment, LatencyMarker, Partitioning,
                          Record, key_to_key_group, uniform_ranges)
from repro.engine import keys
from repro.engine.keys import key_group_memo
from repro.engine.routing import OutputEdge


def test_key_to_key_group_stable():
    assert key_to_key_group("user-1", 128) == key_to_key_group("user-1", 128)


def test_key_to_key_group_in_range():
    for key in ("a", 42, ("tuple", 1), None):
        assert 0 <= key_to_key_group(key, 16) < 16


def test_key_to_key_group_rejects_zero_groups():
    with pytest.raises(ValueError):
        key_to_key_group("x", 0)


def test_uniform_ranges_flink_formula():
    # Flink: start = i * n / p, end = (i + 1) * n / p
    assert uniform_ranges(128, 8) == [
        (i * 16, (i + 1) * 16) for i in range(8)]
    assert uniform_ranges(10, 3) == [(0, 3), (3, 6), (6, 10)]


def test_uniform_ranges_cover_everything():
    ranges = uniform_ranges(128, 12)
    covered = []
    for start, end in ranges:
        covered.extend(range(start, end))
    assert covered == list(range(128))


def test_uniform_ranges_reject_bad_args():
    with pytest.raises(ValueError):
        uniform_ranges(4, 8)
    with pytest.raises(ValueError):
        uniform_ranges(8, 0)


def test_assignment_owner_and_groups():
    assignment = KeyGroupAssignment(16, 4)
    assert assignment.owner(0) == 0
    assert assignment.owner(15) == 3
    assert assignment.groups_of(1) == [4, 5, 6, 7]


def test_assignment_diff_counts_paper_scenario():
    """8→12 instances with 128 key-groups: the paper reports 111 migrating
    key-groups; Flink's contiguous-range formula gives 113 (the paper's
    partitioner evidently kept two more in place).  We pin our exact value
    and assert it is within the paper's ballpark."""
    current = KeyGroupAssignment(128, 8)
    target = current.rescaled_uniform(12)
    moves = current.diff(target)
    assert len(moves) == 113
    assert abs(len(moves) - 111) <= 2


def test_assignment_diff_sensitivity_scenario():
    """25→30 instances with 256 key-groups: paper reports 229 migrating;
    our contiguous ranges give 230 (off by one, same partitioning family)."""
    current = KeyGroupAssignment(256, 25)
    target = current.rescaled_uniform(30)
    moves = current.diff(target)
    assert len(moves) == 230
    assert abs(len(moves) - 229) <= 1


def test_assignment_apply_move():
    assignment = KeyGroupAssignment(8, 2)
    assignment.apply_move(0, 1)
    assert assignment.owner(0) == 1


def test_assignment_requires_complete_mapping():
    with pytest.raises(ValueError):
        KeyGroupAssignment(4, 2, mapping={0: 0, 1: 1})


def test_assignment_counts():
    assignment = KeyGroupAssignment(10, 3)
    counts = assignment.counts()
    assert sum(counts.values()) == 10


@given(n=st.integers(1, 512), p=st.integers(1, 64))
@settings(max_examples=80, deadline=None)
def test_uniform_assignment_is_contiguous_and_balanced(n, p):
    if n < p:
        return
    assignment = KeyGroupAssignment(n, p)
    counts = assignment.counts()
    assert max(counts.values()) - min(counts.values()) <= 1
    # contiguity: owners are non-decreasing over key-group index
    owners = [assignment.owner(kg) for kg in range(n)]
    assert owners == sorted(owners)


@given(n=st.integers(2, 256), p_old=st.integers(1, 16),
       p_new=st.integers(1, 16))
@settings(max_examples=80, deadline=None)
def test_diff_is_exactly_the_ownership_change(n, p_old, p_new):
    if n < max(p_old, p_new) or p_old == p_new:
        return
    current = KeyGroupAssignment(n, p_old)
    target = current.rescaled_uniform(p_new)
    moves = current.diff(target)
    moved = {kg for kg, _s, _d in moves}
    for kg in range(n):
        changed = current.owner(kg) != target.owner(kg)
        assert (kg in moved) == changed


# -- the str key -> key-group memo --------------------------------------------

#: Key shapes the shipped workloads generate (``drive_source`` prefixes and
#: Twitch's channels).
WORKLOAD_KEYS = [f"{prefix}{i}" for prefix in
                 ("k", "auction-", "seller-", "key-", "channel-")
                 for i in range(300)]


def _hash_edge(num_key_groups):
    edge = OutputEdge("e", Partitioning.HASH, num_key_groups=num_key_groups)
    edge.add_channel(object())
    for kg in range(num_key_groups):
        edge.set_routing(kg, 0)
    return edge


def _routed(edge, key):
    record = Record(key=key)
    edge.channel_for_record(record)
    marker = LatencyMarker(key=key)
    edge.channel_for_marker(marker)
    assert marker.key_group == record.key_group
    return record.key_group


def test_edges_share_one_memo_per_key_group_count():
    assert _hash_edge(128)._key_memo is _hash_edge(128)._key_memo
    assert _hash_edge(128)._key_memo is key_group_memo(128)
    assert key_group_memo(128) is not key_group_memo(256)


@pytest.mark.parametrize("num_key_groups", [128, 256])
def test_memo_equals_the_hash_for_workload_keys(num_key_groups):
    edge = _hash_edge(num_key_groups)
    for _ in range(2):  # misses, then hits
        for key in WORKLOAD_KEYS:
            assert _routed(edge, key) == key_to_key_group(key,
                                                          num_key_groups)
    memo = key_group_memo(num_key_groups)
    assert all(memo[key] == key_to_key_group(key, num_key_groups)
               for key in WORKLOAD_KEYS)


def test_non_str_keys_bypass_the_memo():
    """``1``, ``1.0`` and ``True`` are one dict key but three ``repr``s."""
    edge = _hash_edge(16)
    odd = [1, 1.0, True, ("a", 1), (1,), None, ["unhashable"]]
    for _ in range(2):
        groups = [_routed(edge, key) for key in odd]
        assert groups == [key_to_key_group(key, 16) for key in odd]
    assert len({groups[0], groups[1], groups[2]}) == 3
    assert all(type(key) is str for key in key_group_memo(16))
    # A str key equal in text to a non-str key keeps its own group.
    assert _routed(edge, "1") == key_to_key_group("1", 16) != groups[0]


def test_full_memo_clears_and_routing_is_unchanged(monkeypatch):
    monkeypatch.setattr(keys, "KEY_MEMO_LIMIT", 8)
    edge = _hash_edge(97)
    memo = key_group_memo(97)
    sizes = []
    for _ in range(2):
        for key in WORKLOAD_KEYS[:40]:
            assert _routed(edge, key) == key_to_key_group(key, 97)
            sizes.append(len(memo))
    assert max(sizes) == 8 and min(sizes) == 1
