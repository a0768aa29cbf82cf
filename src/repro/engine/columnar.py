"""Lazy-numpy column views over wire carriers.

A wire carrier (:class:`~.records.RecordBatch`) can expose its member
fields as numpy column arrays (:class:`BatchColumns`, built by
``RecordBatch.columns()``); the shm shard transport
(:mod:`~.frames`) serializes those arrays with ``ndarray.tobytes`` instead
of packing member by member.  The arrays are a *view*: records keep their
individual identity (ids, lineage, per-record delivery times), and explode
sites operate on ``batch.records`` and never consult the column cache.

numpy is an *optional* dependency (CI runs without it): when unavailable,
``HAVE_NUMPY`` is False, column views return None and the frame codec
packs members one by one.

numpy is also imported *lazily* (:func:`numpy_module`): the only caller
is the first column view a sharded run builds, so single-process runs —
and ``import repro`` — never pay for the import.
"""

from __future__ import annotations

import importlib.util

HAVE_NUMPY = importlib.util.find_spec("numpy") is not None

__all__ = ["HAVE_NUMPY", "BatchColumns", "numpy_module"]


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
