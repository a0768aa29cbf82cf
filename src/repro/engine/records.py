"""Stream elements: data records, watermarks, markers and barriers.

A :class:`Record` may represent a *batch* of physical records sharing one
key-group (``count`` > 1).  Batching is the knob that makes paper-scale input
rates (20 K tuples/s) tractable in a Python DES while preserving queueing
behaviour: service times, bytes on the wire and throughput accounting all
scale with ``count``, while control elements (watermarks, barriers, latency
markers) remain individual.

These classes are deliberately *not* dataclasses: they sit on the record
hot path, so they are plain ``__slots__`` classes with handwritten
constructors (no ``__dict__``, no descriptor-driven defaults; also required
for slots on Python 3.9, which lacks ``dataclass(slots=True)``).  Equality
is identity — distinct records are never field-equal anyway, since every
``Record``/``LatencyMarker`` carries a unique id.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

__all__ = [
    "StreamElement",
    "Record",
    "RecordBatch",
    "Watermark",
    "LatencyMarker",
    "CheckpointBarrier",
    "ControlSignal",
    "EndOfStream",
]

_marker_ids = itertools.count()
_record_ids = itertools.count()


class StreamElement:
    """Base class for everything that travels on a stream."""

    __slots__ = ()

    #: Nominal serialized size in bytes (used for bandwidth modelling).
    size_bytes: float = 64.0

    #: True for data records (class-level: cheaper than isinstance chains).
    is_record: bool = False

    #: True for elements intra-channel scheduling must never cross.
    is_time_signal: bool = False


class Record(StreamElement):
    """A keyed data record (or batch of ``count`` records of one key-group).

    Attributes:
        key: the logical key; ``None`` for non-keyed streams.
        key_group: precomputed key-group index (``None`` until keyed).
        event_time: event-time timestamp in seconds.
        value: operator-defined payload.
        count: number of physical records this entity stands for.
        size_bytes: total serialized bytes for the batch.
        created_at: simulated time the record entered the system (source
            admission queue), used for end-to-end latency accounting.

    Hot-path callers (sources, window fires, ``FilterLogic`` and
    ``KeyedReduceLogic`` outputs, :meth:`copy_with`) pass the
    constructor's arguments positionally -- keywords cost about twice as
    much per call -- so the parameter order is part of the interface.
    """

    __slots__ = ("key", "key_group", "event_time", "value", "count",
                 "size_bytes", "created_at", "record_id",
                 "src_origin", "src_seq")

    is_record = True

    def __init__(self, key: Any = None, key_group: Optional[int] = None,
                 event_time: float = 0.0, value: Any = None, count: int = 1,
                 size_bytes: float = 64.0, created_at: float = 0.0,
                 record_id: Optional[int] = None,
                 src_origin: Optional[str] = None,
                 src_seq: Optional[int] = None):
        self.key = key
        self.key_group = key_group
        self.event_time = event_time
        self.value = value
        self.count = count
        self.size_bytes = size_bytes
        self.created_at = created_at
        self.record_id = next(_record_ids) if record_id is None else record_id
        #: Consistent-cut lineage, stamped by sources only when replay
        #: history is on (failure recovery installed): the name of the
        #: source this record descends from and its consumption index
        #: there.  ``src_seq < checkpoint offset`` is exactly "on the
        #: pre-barrier side of that checkpoint's cut" — how recovery
        #: decides whether a record that bypassed barrier alignment
        #: (re-route lanes) belongs in a snapshot.
        self.src_origin = src_origin
        self.src_seq = src_seq

    def copy_with(self, **changes: Any) -> "Record":
        """A shallow copy with selected fields replaced (fresh record_id,
        unless ``record_id`` is one of the changes); an unknown field name
        raises ``AttributeError``.

        Built positionally, then only the changed fields are set.  The
        engine's filter and reduce outputs skip this keyword call and
        build their ``Record`` positionally.
        """
        copy = Record(self.key, self.key_group, self.event_time, self.value,
                      self.count, self.size_bytes, self.created_at,
                      changes.pop("record_id", None), self.src_origin,
                      self.src_seq)
        for name, value in changes.items():
            setattr(copy, name, value)
        return copy

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"Record(key={self.key!r}, key_group={self.key_group!r}, "
                f"event_time={self.event_time!r}, value={self.value!r}, "
                f"count={self.count!r}, size_bytes={self.size_bytes!r}, "
                f"created_at={self.created_at!r}, "
                f"record_id={self.record_id!r})")


class RecordBatch(StreamElement):
    """A micro-batch of :class:`Record` entities moving as one carrier.

    A transport/scheduling envelope, not a semantic unit: the records inside
    keep their individual identity (ids, lineage, per-record delivery times)
    and the batched plane must stay bit-identical to moving them one at a
    time.  Batches never cross a time signal (watermark/barrier) and are
    exploded back to individual records whenever a consumer or a rescale
    re-routing window needs per-record visibility.

    Attributes:
        records: the member records, in channel FIFO order.
        visible_times: per-record times at which each member *would* have
            been delivered by the per-record plane (monotone non-decreasing).
            A member is visible to consumers once ``sim.now >= visible_times[i]``.
        next_index: consumption cursor — members below it are already popped.
        size_bytes: total serialized bytes (sum of member sizes).
    """

    __slots__ = ("records", "visible_times", "next_index", "size_bytes",
                 "_columns")

    def __init__(self, records, visible_times=None, size_bytes=None):
        self.records = records
        self.visible_times = visible_times
        self.next_index = 0
        if size_bytes is None:
            size_bytes = 0.0
            for rec in records:
                size_bytes += rec.size_bytes
        self.size_bytes = size_bytes
        self._columns = None

    def columns(self):
        """Lazy columnar (numpy) view of the member records.

        Returns a cached :class:`~.columnar.BatchColumns` snapshot, or
        ``None`` when numpy is unavailable.  The view covers *all* members
        (consumers index it with ``next_index``); it is built once per
        carrier and never mutated — membership of a batch is fixed at
        formation, only the consumption cursor moves.
        """
        cols = self._columns
        if cols is None:
            from .columnar import HAVE_NUMPY, BatchColumns
            if not HAVE_NUMPY:
                return None
            cols = BatchColumns(self.records, self.visible_times)
            self._columns = cols
        return cols

    def __len__(self) -> int:
        return len(self.records) - self.next_index

    @property
    def count(self) -> int:
        """Total physical records across unconsumed members."""
        total = 0
        for rec in self.records[self.next_index:]:
            total += rec.count
        return total

    def keys(self):
        """Keys of unconsumed members (lineage/debug view)."""
        return [rec.key for rec in self.records[self.next_index:]]

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"RecordBatch(n={len(self.records)}, "
                f"next_index={self.next_index}, "
                f"size_bytes={self.size_bytes!r})")


class Watermark(StreamElement):
    """Event-time watermark: no later element carries event time < this."""

    __slots__ = ("timestamp", "size_bytes")

    is_time_signal = True

    def __init__(self, timestamp: float = 0.0, size_bytes: float = 16.0):
        self.timestamp = timestamp
        self.size_bytes = size_bytes

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Watermark(timestamp={self.timestamp!r})"


class LatencyMarker(StreamElement):
    """End-to-end latency probe.

    Markers flow through the dataflow like records (so they see real queueing
    and suspension delays) but bypass windowing operators, matching the
    measurement methodology of §V-A.  They are keyed so keyed edges route them
    deterministically.
    """

    __slots__ = ("emitted_at", "key", "key_group", "size_bytes", "marker_id")

    def __init__(self, emitted_at: float = 0.0, key: Any = None,
                 key_group: Optional[int] = None, size_bytes: float = 16.0,
                 marker_id: Optional[int] = None):
        self.emitted_at = emitted_at
        self.key = key
        self.key_group = key_group
        self.size_bytes = size_bytes
        self.marker_id = next(_marker_ids) if marker_id is None else marker_id

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"LatencyMarker(emitted_at={self.emitted_at!r}, "
                f"key={self.key!r}, marker_id={self.marker_id!r})")


class CheckpointBarrier(StreamElement):
    """Aligned-checkpoint barrier (Chandy-Lamport style, as in Flink)."""

    __slots__ = ("checkpoint_id", "size_bytes")

    # Intra-channel scheduling must never reorder across a checkpoint
    # barrier: it defines the snapshot's consistent cut.
    is_time_signal = True

    def __init__(self, checkpoint_id: int = 0, size_bytes: float = 16.0):
        self.checkpoint_id = checkpoint_id
        self.size_bytes = size_bytes

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"CheckpointBarrier(checkpoint_id={self.checkpoint_id!r})"


class ControlSignal(StreamElement):
    """Base for scaling-related signals (trigger/confirm barriers).

    ``controller`` is the scaling controller that created the signal.  On
    either lane the engine hands the signal to it while it has an operation
    in flight, and drops it otherwise (or when ``controller`` is None).
    """

    size_bytes: float = 16.0
    controller = None


class EndOfStream(StreamElement):
    """Marks the end of a finite stream (used by trace-driven workloads)."""

    __slots__ = ()

    size_bytes: float = 8.0
