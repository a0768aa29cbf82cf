"""Window operators: sliding-window aggregation and windowed joins.

Both operators keep their panes inside the instance's key-group state
backend, so window state migrates with the key-group — exactly what makes
window-heavy workloads (NEXMark Q7/Q8) expensive to rescale.

State-size accounting: each record contributes ``bytes_per_record`` to its
key-group (list-style window contents), released when the pane is purged.
This is how the benchmarks reach the paper's state-size targets (~800 MB for
Q7, ~3 GB for Q8, §V-B) without materialising gigabytes of Python objects.

**Granularity note**: panes aggregate at *key-group* granularity (one pane
per key-group per window start) rather than per key — the same batching
compromise that lets one simulated record stand for hundreds of physical
ones.  Key-groups are the atomic unit of state migration, so this does not
change any scaling behaviour; per-key state semantics are exercised by the
``KeyedReduceLogic`` operators instead.

Both operators are thin parameterisations of one pane engine,
:class:`_PaneLogic`; a subclass supplies only the pane tag and layout, the
per-record fold and the emit predicate.
"""

from __future__ import annotations

import math
from typing import Any, Callable, List, Optional

from .operators import OperatorLogic
from .records import Record, StreamElement
from .state import PROCESSABLE, mutation_clock

__all__ = ["SlidingWindowAggregateLogic", "WindowedJoinLogic"]

# One (key-group, window-start) aggregation pane, stored as a bare list for
# update speed: [bytes, value].  With ~size/slide panes touched per record
# this is the single hottest store in the engine; list indexing beats
# attribute access and the pane never leaves this module.  A missing pane
# is created already holding its first record.
_P_BYTES, _P_VALUE = 0, 1

#: ``_PaneLogic._emit`` result for a ripe pane that is purged silently.
_NO_EMIT = object()


def _window_starts(event_time: float, size: float, slide: float
                   ) -> List[float]:
    """Starts of all sliding windows containing ``event_time``."""
    last = math.floor(event_time / slide) * slide
    first = last - size + slide
    starts = []
    start = first
    while start <= last:
        if start + size > event_time >= start:
            starts.append(start)
        start += slide
    return starts


class _PaneLogic(OperatorLogic):
    """The pane engine under both window operators: the record path
    (pane-key memo, direct entry access, one merged ``size_bytes`` update),
    the fire-floor, the ripe-time gate and the only fire-and-purge loop.

    Panes live in the key-group's ``entries`` under ``(_TAG, start)`` and
    are mutated *in place*, bypassing ``state.get/put/add_bytes``; every
    such write is announced through ``state.note_in_place`` (None for
    backends that need no notice), which is what keeps checkpoint cuts
    consistent.  Subclasses set ``_TAG`` (entry-key tag), ``_OUT`` (tag of
    emitted record keys) and ``_BYTES`` (where a pane keeps its byte tally),
    and implement :meth:`_fold` and :meth:`_emit`.
    """

    _TAG = _OUT = _BYTES = None

    def __init__(self, size: float, slide: float, bytes_per_record: float,
                 allowed_lateness: float = 0.0):
        if size <= 0 or slide <= 0:
            raise ValueError("size and slide must be positive")
        if size < slide:
            raise ValueError("size must be >= slide for sliding windows")
        self.size = size
        self.slide = slide
        self.bytes_per_record = bytes_per_record
        self.allowed_lateness = allowed_lateness
        # Window starts depend on event_time only through its slide bucket;
        # records cluster in few buckets, so memoize per bucket — the
        # ``(_TAG, start)`` entry keys themselves, so the hot loop
        # allocates no tuples at all.  The memo follows event time: it
        # holds the newest bucket seen and the ``_memo_span`` buckets below
        # it, the only ones with a window still open (or within
        # ``allowed_lateness``) at the newest event time, so its size is set
        # by the window shape and never by how long the job has run.  The
        # buckets' key lists share one tuple per start through
        # ``_start_keys`` (start -> key), evicted with the memo, so a start
        # covered by ~size/slide buckets is still one tuple.
        self._starts_memo: dict = {}
        self._start_keys: dict = {}
        self._memo_span = math.ceil((size + allowed_lateness) / slide)
        self._memo_front = -math.inf
        # Fire-floor memo: key_group -> [state version, lower bound on the
        # start of any live pane].  ``on_watermark`` skips a group's entry
        # scan entirely while ``floor + size > cutoff`` — no pane can be
        # ripe.  ``on_watermark`` alone maintains the bound (purges raise
        # it, ``_new_low`` lowers it); any *foreign* bulk mutation of the
        # group's entries (migration install, rollback, recovery merge)
        # bumps ``KeyGroupState.version``, which invalidates the memo entry
        # and forces one full rescan.  A stale-low floor only costs a scan;
        # version invalidation prevents the dangerous stale-high case.
        self._fire_floor: dict = {}
        # Grid-exact windows additionally let ``on_watermark`` *probe* ripe
        # panes by key instead of scanning every entry: when the slide is a
        # multiple of 1/8 and the size an exact float multiple of the
        # slide, every start ``_window_starts`` ever computes is an exact
        # multiple of the slide, and stepping ``start += slide`` from a
        # live pane's start reproduces the exact float keys (all values are
        # multiples of 2^-3 far below 2^50, so the arithmetic is exact).
        # Non-grid windows (or an invalidated memo) take the scan path.
        eighth = slide * 8.0
        self._grid_exact = (eighth == math.floor(eighth)
                            and math.fmod(size, slide) == 0.0)
        # Ripe-time gate.  ``_ripe_at`` is a lower bound on ``start + size``
        # over every pane live at the last *closing* pass of ``on_watermark``
        # — one that saw every group processable and left every floor valid
        # (-inf = gate open) — and holds while the state module's mutation
        # clock still reads ``_gate_clock``; ``_new_low`` bounds the start
        # of every pane created since (late records included).  Until the
        # watermark reaches either bound ``on_watermark`` returns in O(1).
        # The clock ticks on every ``KeyGroupState`` creation and
        # ``bump_version()``, so no install, rollback or recovery merge can
        # hide a ripe pane behind a closed gate, and a group that is not
        # processable keeps the gate open until it is.
        self._ripe_at = -math.inf
        self._new_low = math.inf
        self._gate_clock = -1
        self._purged = 0  # panes fired and purged, emitted or not

    # -- subclass surface -----------------------------------------------------

    def _fold(self, entries: dict, pane_keys: list, record: Record,
              count: int, added: float) -> int:
        """Apply ``record`` to the pane under each of ``pane_keys``
        (``added`` bytes each), creating a pane that holds just this
        record where one is missing; returns how many were created.  Owns
        the loop so the fold runs inline, at ~size/slide panes per
        record."""
        raise NotImplementedError

    def _emit(self, pane) -> Any:
        """Value to emit for a ripe pane, or ``_NO_EMIT``."""
        raise NotImplementedError

    # -- record path ----------------------------------------------------------

    def _pane_keys(self, bucket: int, event_time: float) -> list:
        """Memo miss — once per slide bucket, never per record: compute the
        bucket's entry keys and remember them while event time is within
        ``_memo_span`` buckets.  A new front bucket evicts the buckets it
        leaves behind, and the starts no kept bucket can cover; a record
        later than that just recomputes its keys."""
        keys = self._start_keys
        tag = self._TAG
        pane_keys = []
        for start in _window_starts(event_time, self.size, self.slide):
            key = keys.get(start)
            if key is None:
                key = keys[start] = (tag, start)
            pane_keys.append(key)
        memo = self._starts_memo
        if bucket > self._memo_front:
            self._memo_front = bucket
            oldest = bucket - self._memo_span
            for stale in [b for b in memo if b < oldest]:
                del memo[stale]
            low = oldest * self.slide - self.size
            for stale in [s for s in keys if s < low]:
                del keys[stale]
        if bucket >= self._memo_front - self._memo_span:
            memo[bucket] = pane_keys
        return pane_keys

    def on_record(self, record, instance):
        event_time = record.event_time
        bucket = math.floor(event_time / self.slide)
        pane_keys = self._starts_memo.get(bucket)
        if pane_keys is None:
            pane_keys = self._pane_keys(bucket, event_time)
        if not pane_keys:
            return []
        # The naive loop's per-pane ``state.get``/``put``/``add_bytes`` calls
        # collapse into direct entry access (``_fold``) plus one merged
        # byte-count update: all deltas are positive, so merging cannot hit
        # the zero-clamp, and byte quantities are integer-valued in every
        # shipped workload, so the merged sum is exact.
        state = instance.state
        kg = record.key_group
        group = state._groups.get(kg)
        if group is None:
            group = state.register_group(kg)
        count = record.count
        added = self.bytes_per_record * count
        new_panes = self._fold(group.entries, pane_keys, record, count, added)
        if new_panes and pane_keys[0][1] < self._new_low:
            self._new_low = pane_keys[0][1]
        grown = added * len(pane_keys) + new_panes * state.bytes_per_entry
        group.size_bytes += grown
        note = state.note_in_place
        if note is not None:
            note(kg, grown)
        return []

    # -- fire path ------------------------------------------------------------

    def on_watermark(self, timestamp, instance):
        cutoff = timestamp - self.allowed_lateness
        clock = mutation_clock()
        size = self.size
        new_low = self._new_low
        if (cutoff < self._ripe_at and cutoff < new_low + size
                and clock == self._gate_clock):
            return []  # gate closed: provably nothing ripe anywhere
        outputs: List[StreamElement] = []
        slide = self.slide
        grid_exact = self._grid_exact
        tag, out_tag, bytes_at = self._TAG, self._OUT, self._BYTES
        emit = self._emit
        state = instance.state
        bytes_per_entry = state.bytes_per_entry
        note = state.note_in_place
        now = instance.sim.now
        fire_floor = self._fire_floor
        ripe_at = math.inf
        purged = 0
        for group in state.groups():
            if group.status not in PROCESSABLE:
                ripe_at = -math.inf  # keeps the gate open
                continue
            kg = group.key_group
            entries = group.entries
            floor = fire_floor.get(kg)
            ripe = []
            if floor is not None and new_low < floor[1]:
                floor[1] = new_low  # panes created since the last pass
            if (floor is not None and floor[0] == group.version
                    and (grid_exact or floor[1] + size > cutoff)):
                # Valid floor: either provably nothing is ripe (the loop
                # runs zero times), or probe the ripe stretch of the start
                # grid by key — no entry scan at all.  Ascending start
                # order; the floor advances to the first unripe grid point,
                # so probes are amortised O(fired + watermark delta).
                start = floor[1]
                while start + size <= cutoff:
                    ripe.append((tag, start))
                    start += slide
                floor[1] = start
            else:  # scan every entry once and (re)build the floor
                min_live = math.inf
                for entry_key in entries:
                    if type(entry_key) is tuple and entry_key[0] == tag:
                        start = entry_key[1]
                        if start + size <= cutoff:
                            ripe.append(entry_key)
                        elif start < min_live:
                            min_live = start
                floor = fire_floor[kg] = [group.version, min_live]
            if floor[1] + size < ripe_at:
                ripe_at = floor[1] + size
            if not ripe:
                continue
            live = len(entries)
            held = left = group.size_bytes
            for entry_key in ripe:
                pane = entries.pop(entry_key, None)
                if pane is None:
                    continue  # empty grid point
                value = emit(pane)
                if value is not _NO_EMIT:
                    start = entry_key[1]
                    # Positional: key, key_group, event_time, value,
                    # count, size_bytes, created_at.
                    outputs.append(Record((out_tag, kg, start), None,
                                          start + size, value, 1, 64.0,
                                          now))
                # Inlined state.add_bytes(kg, -pane bytes) followed by
                # state.delete(kg, entry_key): both zero-clamps
                # (``max(0.0, x)`` spelled as a comparison), same order.
                left -= pane[bytes_at]
                if not left > 0.0:
                    left = 0.0
                left -= bytes_per_entry
                if not left > 0.0:
                    left = 0.0
            if len(entries) != live:
                group.size_bytes = left
                purged += live - len(entries)
                if note is not None:
                    note(kg, held - left)
        self._purged += purged
        self._ripe_at = ripe_at
        if ripe_at != -math.inf:
            self._new_low = math.inf  # every floor now covers them
        self._gate_clock = clock
        return outputs


class SlidingWindowAggregateLogic(_PaneLogic):
    """Keyed sliding-window aggregate (NEXMark Q7 style: max over window).

    Per window fire, emits one record per key-group pane (value = aggregate),
    then purges the pane and releases its state bytes.
    """

    _TAG, _OUT, _BYTES = "pane", "window", _P_BYTES

    def __init__(self, size: float, slide: float,
                 agg_fn: Callable[[Any, Record], Any] = None,
                 bytes_per_record: float = 512.0,
                 allowed_lateness: float = 0.0):
        super().__init__(size, slide, bytes_per_record, allowed_lateness)
        self.agg_fn = agg_fn or self._default_agg
        self._fast_agg = self.agg_fn is SlidingWindowAggregateLogic._default_agg

    @staticmethod
    def _default_agg(current: Any, record: Record) -> Any:
        candidate = record.value if record.value is not None else record.count
        try:
            if current is None or candidate > current:
                return candidate
        except TypeError:
            return candidate
        return current

    def _fold(self, entries, pane_keys, record, count, added):
        new_panes = 0
        if not self._fast_agg:
            agg_fn = self.agg_fn
            for pane_key in pane_keys:
                pane = entries.get(pane_key)
                if pane is None:
                    entries[pane_key] = [added, agg_fn(None, record)]
                    new_panes += 1
                else:
                    pane[_P_VALUE] = agg_fn(pane[_P_VALUE], record)
                    pane[_P_BYTES] += added
            return new_panes
        candidate = record.value if record.value is not None else count
        for pane_key in pane_keys:
            pane = entries.get(pane_key)
            if pane is None:
                entries[pane_key] = [added, candidate]
                new_panes += 1
                continue
            current = pane[_P_VALUE]
            try:
                if current is None or candidate > current:
                    pane[_P_VALUE] = candidate
            except TypeError:
                pane[_P_VALUE] = candidate
            pane[_P_BYTES] += added
        return new_panes

    def _emit(self, pane):
        return pane[_P_VALUE]

    @property
    def windows_fired(self) -> int:
        return self._purged


class WindowedJoinLogic(_PaneLogic):
    """Keyed tumbling-window co-group join (NEXMark Q8 style).

    Records are tagged by side via ``side_fn(record) -> "left" | "right"``.
    On window fire, emits one record per key-group pane where both sides are
    present (value = (#left, #right)).
    """

    _TAG, _OUT, _BYTES = "join", "join", "bytes"

    def __init__(self, size: float, slide: Optional[float] = None,
                 side_fn: Callable[[Record], str] = None,
                 bytes_per_record: float = 512.0):
        super().__init__(size, slide or size, bytes_per_record)
        self.side_fn = side_fn or (
            lambda record: record.value[0] if isinstance(record.value, tuple)
            else "left")
        self.joins_emitted = 0

    def _fold(self, entries, pane_keys, record, count, added):
        side = self.side_fn(record)
        new_panes = 0
        for pane_key in pane_keys:
            pane = entries.get(pane_key)
            if pane is None:
                pane = entries[pane_key] = {"left": 0, "right": 0,
                                            "bytes": 0.0}
                new_panes += 1
            pane[side] = pane.get(side, 0) + count
            pane["bytes"] += added
        return new_panes

    def _emit(self, pane):
        left, right = pane.get("left", 0), pane.get("right", 0)
        if not (left and right):
            return _NO_EMIT
        self.joins_emitted += 1
        return (left, right)
