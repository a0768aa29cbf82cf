"""Subscale division and greedy scheduling (C1, §III-C / §IV-A)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.planner import Subscale, SubscalePlanner
from repro.engine import KeyGroupAssignment
from repro.scaling import MigrationPlan


def plan(n=32, old=2, new=4):
    return MigrationPlan.uniform("op", KeyGroupAssignment(n, old), new)


def test_divide_covers_all_moves_once():
    p = plan()
    subscales = SubscalePlanner(num_subscales=6).divide(p)
    covered = [kg for s in subscales for kg in s.key_groups]
    assert sorted(covered) == p.migrating_groups


def test_divide_single_path_per_subscale():
    p = plan()
    for s in SubscalePlanner(num_subscales=6).divide(p):
        for kg in s.key_groups:
            move = p.move_for(kg)
            assert (move.src_index, move.dst_index) == (s.src_index,
                                                        s.dst_index)


def test_divide_lexicographic_within_path():
    p = plan()
    for s in SubscalePlanner(num_subscales=4).divide(p):
        assert s.key_groups == sorted(s.key_groups)


def test_divide_one_subscale_is_one_chunk_per_path():
    p = plan()
    subscales = SubscalePlanner(num_subscales=1).divide(p)
    assert len(subscales) == len(p.by_path())


def test_divide_empty_plan():
    p = MigrationPlan("op", 2, 4, [], KeyGroupAssignment(8, 4))
    assert SubscalePlanner().divide(p) == []


def test_planner_rejects_bad_args():
    with pytest.raises(ValueError):
        SubscalePlanner(num_subscales=0)
    with pytest.raises(ValueError):
        SubscalePlanner(max_concurrent_per_node=0)


def _subscale(sid, src, dst, kgs):
    return Subscale(subscale_id=sid, key_groups=list(kgs),
                    src_index=src, dst_index=dst)


def test_pick_next_prefers_fewest_held_keys():
    planner = SubscalePlanner(max_concurrent_per_node=2)
    pending = [_subscale(0, 0, 2, [1]), _subscale(1, 0, 3, [2])]
    node_of = {0: "n0", 2: "n2", 3: "n3"}
    held = {2: 10, 3: 0}
    pick = planner.pick_next(pending, {}, held, node_of)
    assert pick.subscale_id == 1  # instance 3 holds fewest keys


def test_pick_next_respects_concurrency_threshold():
    planner = SubscalePlanner(max_concurrent_per_node=2)
    pending = [_subscale(0, 0, 2, [1])]
    node_of = {0: "n0", 2: "n2"}
    assert planner.pick_next(pending, {"n0": 2}, {}, node_of) is None
    assert planner.pick_next(pending, {"n0": 1}, {}, node_of) is not None


def test_pick_next_same_node_counts_twice():
    planner = SubscalePlanner(max_concurrent_per_node=2)
    pending = [_subscale(0, 0, 1, [1])]
    node_of = {0: "shared", 1: "shared"}
    # src+dst on the same node consume two of the two slots
    assert planner.pick_next(pending, {}, {}, node_of) is not None
    assert planner.pick_next(pending, {"shared": 1}, {}, node_of) is None


def test_subscale_lifecycle_flags():
    s = _subscale(0, 0, 1, [1, 2])
    s.expected_predecessors = {10, 11}
    assert not s.aligned and not s.done
    s.arrived_predecessors = {10, 11}
    assert s.aligned and not s.done
    s.migrated_groups = {1, 2}
    assert s.migrated and s.done


@given(n=st.integers(4, 256), old=st.integers(1, 6), extra=st.integers(1, 6),
       k=st.integers(1, 32))
@settings(max_examples=60, deadline=None)
def test_divide_partition_property(n, old, extra, k):
    new = old + extra
    if n < new:
        return
    p = MigrationPlan.uniform("op", KeyGroupAssignment(n, old), new)
    subscales = SubscalePlanner(num_subscales=k).divide(p)
    seen = set()
    for s in subscales:
        assert s.key_groups, "no empty subscales"
        for kg in s.key_groups:
            assert kg not in seen
            seen.add(kg)
    assert seen == set(p.migrating_groups)
    ids = [s.subscale_id for s in subscales]
    assert ids == sorted(set(ids))
