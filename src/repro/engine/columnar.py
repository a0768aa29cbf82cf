"""Columnar (numpy-backed) views over the batched record plane.

The ``"columnar"`` record plane is the batched plane plus vectorized
bookkeeping: wire carriers (:class:`~.records.RecordBatch`) expose their
member fields as numpy column arrays, ship-batch formation computes its
cumulative serialize times with one ``np.add.accumulate`` instead of a
Python accumulation loop, and fan-out partitioning of keyed members uses a
stable ``np.argsort``/``np.bincount`` split.  Everything here is a *view* or
a bit-identical re-expression of the scalar arithmetic:

- ``np.add.accumulate`` on a float64 array performs the same left-to-right
  IEEE-754 additions as the scalar loop, so ship/visibility times match the
  per-record plane to the last bit;
- partitioning uses a stable sort, so per-target member order equals the
  order a sequential routing loop would produce;
- records keep their individual identity (ids, lineage, per-record delivery
  times): explode sites operate on ``batch.records`` and never consult the
  column cache.

numpy is an *optional* dependency (CI runs without it): when unavailable,
``HAVE_NUMPY`` is False, column views return None, and every helper falls
back to the scalar path.  The ``"columnar"`` plane then degrades to exactly
the ``"batched"`` plane — configurations stay portable.

numpy is also imported *lazily* (:func:`numpy_module`): every caller here
sits behind ``job.columnar_active`` or a column view, so the default
batched plane — and ``import repro`` — never pays for the import.
"""

from __future__ import annotations

import importlib.util
from typing import List, Optional, Sequence

HAVE_NUMPY = importlib.util.find_spec("numpy") is not None

__all__ = ["HAVE_NUMPY", "BatchColumns", "cumulative_ship_times",
           "partition_by_target", "numpy_module"]


def numpy_module():
    """The numpy module, imported on first use; None without numpy."""
    if not HAVE_NUMPY:
        return None
    import numpy
    return numpy


class BatchColumns:
    """Immutable column arrays over one carrier's member records.

    Built lazily by :meth:`~.records.RecordBatch.columns`; the arrays are a
    snapshot of per-member scalar fields (member identity and mutable
    payloads stay in the ``Record`` objects).  ``key_group`` uses -1 for
    not-yet-keyed members.
    """

    __slots__ = ("n", "event_time", "count", "size_bytes", "key_group",
                 "visible_time")

    def __init__(self, records, visible_times=None):
        _np = numpy_module()
        if _np is None:  # pragma: no cover - numpy-less fallback
            raise RuntimeError("BatchColumns requires numpy")
        n = len(records)
        self.n = n
        event_time = _np.empty(n, dtype=_np.float64)
        count = _np.empty(n, dtype=_np.int64)
        size_bytes = _np.empty(n, dtype=_np.float64)
        key_group = _np.empty(n, dtype=_np.int64)
        for i, rec in enumerate(records):
            event_time[i] = rec.event_time
            count[i] = rec.count
            size_bytes[i] = rec.size_bytes
            kg = rec.key_group
            key_group[i] = -1 if kg is None else kg
        self.event_time = event_time
        self.count = count
        self.size_bytes = size_bytes
        self.key_group = key_group
        if visible_times is not None:
            self.visible_time = _np.asarray(visible_times,
                                            dtype=_np.float64)
        else:
            self.visible_time = None

    @property
    def total_count(self) -> int:
        """Physical records across all members (int sums are exact)."""
        return int(self.count.sum())


def cumulative_ship_times(sizes: Sequence[float], start: float,
                          bandwidth: float) -> List[float]:
    """Per-member ship-completion times for a run of serialized sizes.

    Bit-identical to the scalar accumulation ``s += size / bandwidth`` the
    per-record drainer performs: the per-member serialize durations are
    computed element-wise first (same ``size / bandwidth`` division), then
    accumulated left-to-right.  Falls back to the scalar loop without
    numpy, or for runs too short to amortize array construction.
    """
    n = len(sizes)
    _np = numpy_module() if n >= 8 else None
    if _np is not None:
        ser = _np.asarray(sizes, dtype=_np.float64) / bandwidth
        ser[0] += start
        return _np.add.accumulate(ser).tolist()
    out = []
    s = start
    for size in sizes:
        s += size / bandwidth
        out.append(s)
    return out


def partition_by_target(key_groups: Sequence[int],
                        table: Sequence[int]) -> dict:
    """Split member indices by routing target, preserving member order.

    ``key_groups`` holds each member's key-group; ``table`` maps key-group
    -> target index (dense list or array).  Returns ``{target: [member
    indices...]}`` with per-target indices ascending — exactly the
    per-target arrival order a sequential ``for member: route(member)``
    loop produces, courtesy of the stable sort.
    """
    _np = numpy_module() if len(key_groups) >= 8 else None
    if _np is not None:
        kgs = _np.asarray(key_groups, dtype=_np.int64)
        targets = _np.asarray(table, dtype=_np.int64)[kgs]
        order = _np.argsort(targets, kind="stable")
        sorted_targets = targets[order]
        counts = _np.bincount(sorted_targets)
        out = {}
        pos = 0
        for target, c in enumerate(counts.tolist()):
            if c:
                out[target] = order[pos:pos + c].tolist()
                pos += c
        return out
    out: dict = {}
    for i, kg in enumerate(key_groups):
        target = table[kg]
        bucket = out.get(target)
        if bucket is None:
            out[target] = [i]
        else:
            bucket.append(i)
    return out


def columns_available() -> bool:
    """True when the columnar plane can actually vectorize (numpy found)."""
    return HAVE_NUMPY
