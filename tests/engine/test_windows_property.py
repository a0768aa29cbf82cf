"""Differential property test for the window pane engine.

A naive reference — written here against the *public* state surface
(``get``/``put``/``add_bytes``/``delete``, a full entry scan on every
watermark, no memo, no floor, no gate) — runs next to the real logics over
random records (both join sides, the default max and a custom running-sum
``agg_fn``, late records, ``count`` > 1, grid-exact and non-grid
size/slide), watermarks, and foreign mutations between them
(``install_group``, ``drop_group``, ``bump_version``, status flips through
every ``StateStatus``).  Outputs, ``entries`` and ``size_bytes`` must be
equal after every step: this is what stands between the ripe-time gate and
a silently unfired window.

Event times span 0-60 s, over ten times the pane-key memo's span for every
shape, so the memo evicts over and over with late records (whose keys
are recomputed), installs and status flips in between, and must stay within
its bound throughout.

Byte quantities are dyadic so the engine's one merged ``size_bytes`` update
per record is bit-equal to the reference's per-pane additions.
"""

import types

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.records import Record
from repro.engine.state import (ChangelogStateBackend, DictStateBackend,
                                StateStatus)
from repro.engine.windows import (SlidingWindowAggregateLogic,
                                  WindowedJoinLogic, _window_starts)

NOW = 1.5
KEY_GROUPS = 3
#: (size, slide): sliding grid-exact, tumbling, size not a multiple of the
#: slide, slide not a multiple of 1/8 (the last two take the scan path).
SHAPES = [(4.0, 1.0), (2.0, 2.0), (2.0, 0.75), (1.5, 0.3)]


def _running_sum(current, record):
    """A custom ``agg_fn``: it takes the general (non-max) fold path."""
    return (0 if current is None else current) + record.value * record.count


class Naive:
    """The reference: every pane through the public state surface.

    Aggregate panes (``agg``: the default max, ``sum``: a custom
    ``agg_fn``) are ``[bytes, value]``; join panes are side counts plus
    ``bytes``.  A missing pane starts blank and then takes the record.
    """

    def __init__(self, kind, size, slide, bpr, lateness):
        self.kind, self.size, self.slide = kind, size, slide
        self.bpr, self.lateness = bpr, lateness
        self.tag = "join" if kind == "join" else "pane"

    def on_record(self, rec, state):
        for start in _window_starts(rec.event_time, self.size, self.slide):
            pane = state.get(rec.key_group, (self.tag, start))
            if pane is None:
                pane = ({"left": 0, "right": 0, "bytes": 0.0}
                        if self.kind == "join" else [0.0, None])
                state.put(rec.key_group, (self.tag, start), pane)
            if self.kind == "agg":
                if pane[1] is None or rec.value > pane[1]:
                    pane[1] = rec.value
                pane[0] += self.bpr * rec.count
            elif self.kind == "sum":
                pane[1] = (pane[1] or 0) + rec.count * rec.value
                pane[0] += self.bpr * rec.count
            else:
                pane[rec.value[0]] = pane.get(rec.value[0], 0) + rec.count
                pane["bytes"] += self.bpr * rec.count
            state.add_bytes(rec.key_group, self.bpr * rec.count)

    def on_watermark(self, timestamp, state):
        out = []
        for group in state.groups():
            if not group.processable:
                continue
            for key, pane in list(group.entries.items()):
                if key[0] != self.tag \
                        or key[1] + self.size > timestamp - self.lateness:
                    continue
                if self.kind != "join":
                    out.append((("window", group.key_group, key[1]),
                                key[1] + self.size, pane[1]))
                    nbytes = pane[0]
                else:
                    if pane.get("left", 0) and pane.get("right", 0):
                        out.append((("join", group.key_group, key[1]),
                                    key[1] + self.size,
                                    (pane["left"], pane["right"])))
                    nbytes = pane["bytes"]
                state.add_bytes(group.key_group, -nbytes)
                state.delete(group.key_group, key)
        return sorted(out)


def _make(kind, size, slide, bpr, lateness):
    if kind != "join":
        return SlidingWindowAggregateLogic(
            size=size, slide=slide, bytes_per_record=bpr,
            allowed_lateness=lateness,
            agg_fn=_running_sum if kind == "sum" else None)
    return WindowedJoinLogic(size=size, slide=slide, bytes_per_record=bpr,
                             side_fn=lambda r: r.value[0])


def _record(kind, kg, event_time, count, value):
    if kind == "join":
        value = (("left", "right", "other")[value % 3], value)
    return Record(key=f"k{kg}", key_group=kg, event_time=event_time,
                  count=count, value=value)


def _image(state):
    return {g.key_group: (g.status, g.size_bytes, g.entries)
            for g in state.groups()}


class Harness:
    """Applies every step to the real logic and to the reference."""

    def __init__(self, kind, shape, bpr=8.0, lateness=0.0,
                 backend=DictStateBackend):
        size, slide = shape
        self.kind, self.slide = kind, slide
        self.logic = _make(kind, size, slide, bpr, lateness)
        self.naive = Naive(kind, size, slide, bpr, lateness)
        self.inst = types.SimpleNamespace(
            state=backend(), sim=types.SimpleNamespace(now=NOW))
        self.ref_state = DictStateBackend()
        self.fired = 0

    def _pane(self, count, value):
        if self.kind == "join":
            return {"left": count, "right": value % 3, "bytes": 8.0 * count}
        return [8.0 * count, value]

    def step(self, step):
        op = step[0]
        real, ref = self.inst.state, self.ref_state
        if op == "rec":
            rec = _record(self.kind, *step[1:])
            self.logic.on_record(rec, self.inst)
            self.naive.on_record(rec, ref)
        elif op == "batch":
            recs = [_record(self.kind, *r) for r in step[1]]
            for rec in recs:
                self.logic.on_record(rec, self.inst)
            for rec in recs:
                self.naive.on_record(rec, ref)
        elif op == "wm":
            got = sorted((r.key, r.event_time, r.value)
                         for r in self.logic.on_watermark(step[1], self.inst))
            assert got == self.naive.on_watermark(step[1], ref), step
            self.fired += len(got)
        elif op == "install":
            # Panes as another instance of this operator would ship them:
            # on the logic's own start grid.
            _, kg, slots, count, value, status = step
            for state in (real, ref):
                entries = {(self.naive.tag, k * self.slide):
                           self._pane(count, value) for k in slots}
                state.install_group(
                    kg, entries, (8.0 * count + 256.0) * len(entries),
                    status=status)
        elif op == "drop":
            for state in (real, ref):
                if state.group(step[1]) is not None:
                    state.drop_group(step[1])
        elif op == "bump":
            for state in (real, ref):
                if state.group(step[1]) is not None:
                    state.group(step[1]).bump_version()
        elif op == "status":
            for state in (real, ref):
                if state.group(step[1]) is not None:
                    state.group(step[1]).status = step[2]
        assert _image(real) == _image(ref), step
        assert len(self.logic._starts_memo) <= self.logic._memo_span + 1

    def run(self, steps):
        for step in steps:
            self.step(step)
        # Drain: with every group processable, a far watermark must leave
        # no pane behind on either side.
        for kg in range(KEY_GROUPS):
            self.step(("status", kg, StateStatus.LOCAL))
        self.step(("wm", 500.0))
        for group in self.inst.state.groups():
            assert not group.entries


_kg = st.integers(0, KEY_GROUPS - 1)
_time = st.integers(0, 240).map(lambda q: q * 0.25)
_rec = st.tuples(_kg, _time, st.integers(1, 4), st.integers(0, 9))
_step = st.one_of(
    st.tuples(st.just("rec"), _kg, _time, st.integers(1, 4),
              st.integers(0, 9)),
    st.tuples(st.just("batch"), st.lists(_rec, min_size=1, max_size=12)),
    st.tuples(st.just("wm"), _time),
    st.tuples(st.just("install"), _kg,
              st.lists(st.integers(0, 120), max_size=3, unique=True),
              st.integers(1, 3), st.integers(0, 9),
              st.sampled_from(list(StateStatus))),
    st.tuples(st.just("drop"), _kg),
    st.tuples(st.just("bump"), _kg),
    st.tuples(st.just("status"), _kg, st.sampled_from(list(StateStatus))),
)


@pytest.mark.parametrize("kind", ["agg", "sum", "join"])
@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(shape=st.sampled_from(SHAPES), bpr=st.sampled_from([0.5, 8.0, 400.0]),
       lateness=st.sampled_from([0.0, 1.0]),
       steps=st.lists(_step, max_size=40))
def test_pane_engine_equals_naive_reference(kind, shape, bpr, lateness,
                                            steps):
    if kind == "join":
        lateness = 0.0
    Harness(kind, shape, bpr, lateness).run(steps)


@pytest.mark.parametrize("kind", ["agg", "sum", "join"])
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(shape=st.sampled_from(SHAPES), steps=st.lists(_step, max_size=40))
def test_changelog_backend_sees_the_same_state(kind, shape, steps):
    """The in-place hook must not change what the logic computes."""
    Harness(kind, shape, backend=ChangelogStateBackend).run(steps)


@pytest.mark.parametrize("kind", ["agg", "join"])
@pytest.mark.parametrize("shape", SHAPES)
def test_group_installed_ripe_while_gate_closed(kind, shape):
    h = Harness(kind, shape)
    for step in [("rec", 0, 10.0, 2, 0), ("rec", 0, 10.0, 1, 1),
                 ("wm", 9.0)]:
        h.step(step)
    # The pass at 9.0 closed the gate: nothing can fire before 10.x.
    assert h.logic._ripe_at > 9.25
    assert h.logic.on_watermark(9.1, h.inst) == []
    # A migration lands a group whose panes are ripe already.
    h.step(("install", 1, [0, 1], 2, 4, StateStatus.LOCAL))
    before = h.fired
    h.step(("wm", 9.25))
    assert h.fired == before + 2
    h.run([])


@pytest.mark.parametrize("kind", ["agg", "join"])
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("status", [StateStatus.INACTIVE,
                                    StateStatus.INCOMING,
                                    StateStatus.MIGRATED_OUT])
def test_group_not_processable_during_closing_pass(kind, shape, status):
    h = Harness(kind, shape)
    for step in [("rec", 0, 1.0, 1, 0), ("rec", 0, 1.0, 1, 1),
                 ("rec", 1, 1.0, 2, 0), ("rec", 1, 1.0, 2, 1),
                 ("rec", 0, 30.0, 1, 1),
                 ("status", 1, status),
                 ("wm", 8.0)]:       # fires group 0, must skip group 1
        h.step(step)
    fired = h.fired
    h.step(("wm", 8.25))             # still skipped, gate must stay open
    assert h.fired == fired
    h.step(("status", 1, StateStatus.LOCAL))   # plain flip, no version bump
    h.step(("wm", 8.5))              # group 1's ripe panes fire now
    assert h.fired > fired
    h.run([])


def test_late_record_behind_a_closed_gate_fires():
    h = Harness("agg", (4.0, 1.0))
    for step in [("rec", 0, 20.0, 1, 1), ("wm", 15.0)]:
        h.step(step)
    assert h.logic._ripe_at > 15.0          # gate closed until ~17
    h.step(("rec", 1, 2.0, 3, 7))           # late: its windows are ripe
    fired = h.fired
    h.step(("wm", 15.25))
    assert h.fired == fired + 4
    h.run([])


def test_pane_created_in_a_non_processable_group_is_not_forgotten():
    """A pass that skipped a group must keep the creations it has not
    folded into that group's floor."""
    h = Harness("agg", (4.0, 1.0))
    for step in [("rec", 1, 20.0, 1, 1), ("wm", 15.0),
                 ("status", 1, StateStatus.INACTIVE),
                 ("rec", 1, 2.0, 3, 7),     # late, into the inactive group
                 ("wm", 15.25),             # skips group 1: must not close
                 ("status", 1, StateStatus.LOCAL)]:
        h.step(step)
    fired = h.fired
    h.step(("wm", 15.5))
    assert h.fired == fired + 4
    h.run([])
