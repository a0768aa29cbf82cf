"""Migration plans: uniform repartitioning and views."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import KeyGroupAssignment
from repro.scaling import MigrationPlan


def make_plan(n=16, old=2, new=4):
    return MigrationPlan.uniform("op", KeyGroupAssignment(n, old), new)


def test_uniform_plan_properties():
    plan = make_plan()
    assert plan.old_parallelism == 2
    assert plan.new_parallelism == 4
    assert plan.new_instance_indices == [2, 3]
    assert len(plan) == len(plan.moves)


def test_routing_updates_cover_exactly_moves():
    plan = make_plan()
    updates = plan.routing_updates()
    assert set(updates) == set(plan.migrating_groups)
    for move in plan.moves:
        assert updates[move.key_group] == move.dst_index


def test_by_path_partitions_moves():
    plan = make_plan()
    total = sum(len(kgs) for kgs in plan.by_path().values())
    assert total == len(plan.moves)
    for (src, dst), kgs in plan.by_path().items():
        assert kgs == sorted(kgs)
        for kg in kgs:
            move = plan.move_for(kg)
            assert (move.src_index, move.dst_index) == (src, dst)


def test_move_for_unknown_raises():
    plan = make_plan()
    stationary = set(range(16)) - set(plan.migrating_groups)
    if stationary:
        with pytest.raises(KeyError):
            plan.move_for(next(iter(stationary)))


@given(n=st.integers(4, 256), old=st.integers(1, 8), extra=st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_plan_target_consistency(n, old, extra):
    new = old + extra
    if n < new:
        return
    plan = MigrationPlan.uniform("op", KeyGroupAssignment(n, old), new)
    # applying all moves to the source assignment yields the target
    assignment = KeyGroupAssignment(n, old)
    mapping = assignment.as_dict()
    for move in plan.moves:
        assert mapping[move.key_group] == move.src_index
        mapping[move.key_group] = move.dst_index
    assert mapping == plan.target.as_dict()
    # every new instance receives at least one key-group
    for idx in plan.new_instance_indices:
        assert any(m.dst_index == idx for m in plan.moves)
