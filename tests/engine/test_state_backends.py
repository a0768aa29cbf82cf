"""Unit tests for the two keyed-state backends.

Covers the changelog backend's core mechanics in isolation: delta
logging and segment cuts, periodic materialization, the bounded-log
truncation trigger, chain replay at restore, rejection of incomplete
chains, the constant barrier-path manifest, version-break whole-group
images, and the migration tail fast path.
"""

import pytest

from repro.engine import (ChangelogChainError, ChangelogStateBackend,
                          DictStateBackend, JobConfig)
from repro.engine.runtime import StreamJob


def make_backend(**kwargs):
    kwargs.setdefault("materialize_interval", 10_000)
    return ChangelogStateBackend(bytes_per_entry=100.0, **kwargs)


class TestBackendSelection:
    def test_backend_names_and_incrementality(self):
        assert DictStateBackend.name == "dict"
        assert not DictStateBackend.is_incremental
        assert ChangelogStateBackend.name == "changelog"
        assert ChangelogStateBackend.is_incremental
        # The dict backend is the base; it needs no in-place notice.
        assert issubclass(ChangelogStateBackend, DictStateBackend)
        assert DictStateBackend().note_in_place is None
        assert make_backend().note_in_place is not None

    def test_config_validates_backend(self):
        with pytest.raises(ValueError, match="state_backend"):
            JobConfig(state_backend="rocksdb")

    def test_job_factory_builds_configured_backend(self):
        from repro.engine import (JobGraph, KeyedReduceLogic,
                                  OperatorSpec, Partitioning)
        graph = JobGraph("backends", num_key_groups=4)
        graph.add_source("src", parallelism=1)
        graph.add_operator(OperatorSpec(
            "agg",
            logic_factory=lambda: KeyedReduceLogic(
                lambda old, r: (old or 0) + r.count),
            parallelism=1, keyed=True))
        graph.add_sink("sink")
        graph.connect("src", "agg", Partitioning.HASH)
        graph.connect("agg", "sink", Partitioning.FORWARD)
        job = StreamJob(graph, config=JobConfig(
            state_backend="changelog",
            changelog_materialize_interval=123)).build()
        state = job.instances("agg")[0].state
        assert isinstance(state, ChangelogStateBackend)
        assert state.materialize_interval == 123
        assert state.max_log_entries == 8192


class TestSegmentsAndSync:
    def test_first_cut_is_a_full_anchor(self):
        backend = make_backend()
        backend.put(0, "a", 1)
        backend.put(1, "b", 2)
        seg = backend.cut_segment(1)
        assert seg.full_base and seg.anchors_chain
        assert {kg: payload[0] for kg, payload in seg.groups.items()} == \
            {0: "full", 1: "full"}

    def test_subsequent_cuts_carry_deltas_only(self):
        backend = make_backend()
        backend.put(0, "a", 1)
        backend.cut_segment(1)
        backend.put(0, "a", 2)
        backend.put(0, "c", 3)
        seg = backend.cut_segment(2)
        assert not seg.full_base
        kind, ops = seg.groups[0]
        assert kind == "deltas" and len(ops) == 2
        # Two ops at 100 bytes/entry — not the whole group.
        assert seg.delta_bytes == pytest.approx(200.0)

    def test_barrier_path_cost_is_constant_in_state_size(self):
        backend = make_backend()
        for i in range(50):
            backend.put(i % 4, f"k{i}", i)
        backend.add_bytes(0, 1e9)
        assert backend.checkpoint_sync_bytes() == \
            ChangelogStateBackend.MANIFEST_BYTES
        # The dict backend pays the full state on the barrier path.
        dict_backend = DictStateBackend()
        dict_backend.put(0, "a", 1)
        dict_backend.add_bytes(0, 1e9)
        assert dict_backend.checkpoint_sync_bytes() == \
            dict_backend.total_bytes()

    def test_version_break_forces_whole_group_image(self):
        backend = make_backend()
        backend.put(0, "a", 1)
        backend.cut_segment(1)
        # Bulk mutation bypassing the logging surface (what a scaling
        # controller's install does) bumps the version.
        group = backend.require_group(0)
        group.entries = {"x": 99}
        group.bump_version()
        seg = backend.cut_segment(2)
        assert seg.groups[0][0] == "full"
        assert seg.groups[0][1] == {"x": 99}


class TestMaterialization:
    def test_interval_triggers_materialization(self):
        backend = make_backend(materialize_interval=10)
        for i in range(25):
            backend.put(0, f"k{i}", i)
        assert backend.materializations == 2
        assert backend.log_length(0) < 10

    def test_materialize_clears_logs_and_re_anchors(self):
        backend = make_backend()
        backend.put(0, "a", 1)
        backend.cut_segment(1)
        backend.put(0, "b", 2)
        backend.materialize()
        assert backend.log_length(0) == 0
        seg = backend.cut_segment(2)
        assert seg.groups[0][0] == "full"
        assert seg.full_base

    def test_oversized_log_truncates_via_materialization(self):
        backend = make_backend(max_log_entries=16)
        for i in range(200):
            backend.put(0, "hot", i)
        assert backend.materializations >= 1
        assert backend.log_length(0) <= 16 + 1


class TestChainReplay:
    def test_delta_replay_rebuilds_exact_entries(self):
        backend = make_backend()
        backend.put(0, "a", 1)
        backend.put(1, "b", 2)
        chain = [backend.cut_segment(1)]
        backend.put(0, "a", 10)
        backend.delete(1, "b")
        backend.put(2, "c", 3)
        chain.append(backend.cut_segment(2))
        backend.put(2, "c", 30)
        chain.append(backend.cut_segment(3))
        restored = ChangelogStateBackend.replay_chain(chain)
        entries = {kg: dict(g.entries) for kg, g in restored.items()}
        assert entries == {0: {"a": 10}, 1: {}, 2: {"c": 30}}

    def test_drop_marker_removes_group(self):
        backend = make_backend()
        backend.put(0, "a", 1)
        backend.put(1, "b", 2)
        chain = [backend.cut_segment(1)]
        backend.drop_group(1)
        chain.append(backend.cut_segment(2))
        restored = ChangelogStateBackend.replay_chain(chain)
        assert set(restored) == {0}

    def test_unanchored_chain_is_rejected(self):
        backend = make_backend()
        backend.put(0, "a", 1)
        backend.cut_segment(1)
        backend.put(0, "a", 2)
        tail_only = [backend.cut_segment(2)]
        with pytest.raises(ChangelogChainError, match="anchor"):
            ChangelogStateBackend.replay_chain(tail_only)

    def test_gapped_chain_is_rejected(self):
        backend = make_backend()
        backend.put(0, "a", 1)
        first = backend.cut_segment(1)
        backend.put(0, "a", 2)
        backend.cut_segment(2)  # the missing middle
        backend.put(0, "a", 3)
        third = backend.cut_segment(3)
        with pytest.raises(ChangelogChainError, match="gap"):
            ChangelogStateBackend.replay_chain([first, third])

    def test_empty_chain_is_rejected(self):
        with pytest.raises(ChangelogChainError, match="empty"):
            ChangelogStateBackend.replay_chain([])


class TestMigrationFastPath:
    def test_tail_bytes_require_a_durable_base(self):
        backend = make_backend()
        backend.put(0, "a", 1)
        # No cut yet: nothing durable covers the group.
        assert backend.changelog_tail_bytes(0) is None
        backend.cut_segment(1)
        backend.put(0, "b", 2)
        tail = backend.changelog_tail_bytes(0)
        assert tail is not None
        assert tail < backend.require_group(0).size_bytes + 1

    def test_bulk_mutation_invalidates_the_tail(self):
        backend = make_backend()
        backend.put(0, "a", 1)
        backend.cut_segment(1)
        group = backend.require_group(0)
        group.entries = {"x": 1}
        group.bump_version()
        assert backend.changelog_tail_bytes(0) is None


# -- consistent cuts under in-place pane writes -------------------------------

def _window_logic(kind):
    from repro.engine import SlidingWindowAggregateLogic, WindowedJoinLogic
    if kind == "aggregate":
        return SlidingWindowAggregateLogic(size=4.0, slide=1.0,
                                           bytes_per_record=8.0)
    return WindowedJoinLogic(size=4.0, slide=1.0, bytes_per_record=8.0,
                             side_fn=lambda r: r.value[0])


def _feed(logic, state, kg, event_time, side="left"):
    import types
    from repro.engine import Record
    inst = types.SimpleNamespace(
        state=state, sim=types.SimpleNamespace(now=0.0))
    logic.on_record(Record(key=f"k{kg}", key_group=kg,
                           event_time=event_time, count=2,
                           value=(side, 7)), inst)
    return inst


def _frozen(groups):
    import copy
    return {kg: (g.size_bytes, copy.deepcopy(g.entries))
            for kg, g in groups.items()}


@pytest.mark.parametrize("kind", ["aggregate", "join"])
@pytest.mark.parametrize("backend", [DictStateBackend,
                                     ChangelogStateBackend])
class TestCutsDoNotAliasLivePanes:
    def test_snapshot_is_frozen(self, backend, kind):
        state, logic = backend(), _window_logic(kind)
        _feed(logic, state, 0, 5.0)
        snap = state.snapshot()
        before = _frozen(snap)
        _feed(logic, state, 0, 5.5, side="right")
        assert _frozen(snap) == before
        # ...and the live state did move on.
        assert _frozen(state.snapshot()) != before

    def test_restored_state_does_not_write_into_the_snapshot(self, backend,
                                                             kind):
        from repro.engine.state import cut_copy
        state, logic = backend(), _window_logic(kind)
        _feed(logic, state, 0, 5.0)
        snap = state.snapshot()
        before = _frozen(snap)
        # What RecoveryManager does at restore: a cut copy of the image.
        state.install_group(0, cut_copy(snap[0].entries),
                            snap[0].size_bytes)
        _feed(logic, state, 0, 5.5, side="right")
        assert _frozen(snap) == before


@pytest.mark.parametrize("kind", ["aggregate", "join"])
class TestChangelogSeesInPlaceWrites:
    def test_cut_feed_cut_covers_the_touched_groups(self, kind):
        state, logic = make_backend(), _window_logic(kind)
        _feed(logic, state, 0, 5.0)
        _feed(logic, state, 1, 5.0)
        chain = [state.cut_segment(1)]
        _feed(logic, state, 1, 5.5, side="right")
        segment = state.cut_segment(2)
        assert set(segment.groups) == {1}
        # 2 records x 8 bytes x 4 panes, nothing created: what was written.
        assert segment.delta_bytes == 64.0
        chain.append(segment)
        # An idle interval cuts an empty segment again.
        idle = state.cut_segment(3)
        assert not idle.groups and idle.delta_bytes == 0.0
        chain.append(idle)
        assert _frozen(ChangelogStateBackend.replay_chain(chain)) == \
            _frozen(state._groups)

    def test_fires_and_purges_are_cut_too(self, kind):
        state, logic = make_backend(), _window_logic(kind)
        inst = _feed(logic, state, 0, 5.0)
        _feed(logic, state, 0, 5.5, side="right")
        chain = [state.cut_segment(1)]
        assert logic.on_watermark(7.5, inst)   # fires the two oldest panes
        segment = state.cut_segment(2)
        assert set(segment.groups) == {0} and segment.delta_bytes > 0
        chain.append(segment)
        assert _frozen(ChangelogStateBackend.replay_chain(chain)) == \
            _frozen(state._groups)

    def test_earlier_segments_stay_frozen(self, kind):
        state, logic = make_backend(), _window_logic(kind)
        _feed(logic, state, 0, 5.0)
        first = state.cut_segment(1)
        before = _frozen(ChangelogStateBackend.replay_chain([first]))
        _feed(logic, state, 0, 5.5, side="right")
        assert _frozen(ChangelogStateBackend.replay_chain([first])) == before

    def test_migration_tail_counts_unlogged_writes(self, kind):
        state, logic = make_backend(), _window_logic(kind)
        _feed(logic, state, 0, 5.0)
        state.cut_segment(1)
        idle_tail = state.changelog_tail_bytes(0)
        _feed(logic, state, 0, 5.5, side="right")
        assert state.changelog_tail_bytes(0) == idle_tail + 64.0


def test_logged_put_values_are_frozen_at_the_cut():
    """A logic may ``put`` a mutable value and later write it in place."""
    state = make_backend()
    pane = {"n": 1}
    state.put(0, "a", 0)
    first = state.cut_segment(1)
    state.put(0, "p", pane)
    second = state.cut_segment(2)
    pane["n"] = 2
    state.note_in_place(0, 8.0)
    restored = ChangelogStateBackend.replay_chain([first, second])
    assert restored[0].entries["p"] == {"n": 1}
    third = state.cut_segment(3)
    restored = ChangelogStateBackend.replay_chain([first, second, third])
    assert restored[0].entries["p"] == {"n": 2}
