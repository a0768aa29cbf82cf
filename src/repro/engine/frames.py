"""Columnar cut-edge frames for the sharded shared-memory transport.

One frame is one flush from an upstream shard to a downstream shard: a
struct-packed header carrying the piggybacked grant, then the staged
cut-edge messages.  ``RecordBatch`` payloads — the hot path at paper scale
— are shipped as *columns*: seven packed numeric arrays (visible/event/
created times, sizes, counts, record ids, key groups) plus one pickle for
the object-typed remainder (keys, values, lineage).  That single pickle
per frame replaces one pickle traversal per Record, which is where the
pipe transport burned its cross-shard budget (see docs/performance.md).

Watermarks — the bulk of cut-edge *messages* — are pure structs (no
pickle at all).  Anything else (latency markers, barriers, control
signals, and batches whose columnar encode fails) rides the trailing
pickle blob verbatim: the fallback keeps the codec total without
sacrificing the fast paths.

Bit-exactness contract: floats round-trip through ``<d`` (IEEE-754
binary64, the in-memory representation), ints through ``<q``, and object
payloads through pickle exactly as the pipe transport moved them — so a
decoded element is indistinguishable from its pipe-transported twin and
the sharded equivalence bar (byte-identical sink dumps, state digests,
watermark traces) is unaffected by transport choice.

With numpy present, ``RecordBatch.columns()`` views serialize via
``ndarray.tobytes`` (a memcpy) instead of per-field Python loops.
"""

from __future__ import annotations

import pickle
import struct
import sys
from typing import Any, Iterable, List, Tuple

from .columnar import HAVE_NUMPY
from .records import Record, RecordBatch, Watermark

__all__ = ["encode_frame", "decode_frame"]

#: numpy ``tobytes`` only matches the ``<d``/``<q`` wire format on
#: little-endian hosts; elsewhere the struct path is used for encode.
_NATIVE_LE = sys.byteorder == "little"
_PROTO = pickle.HIGHEST_PROTOCOL

#: Frame header: grant f64, flags u8 (bit0 = final), message count u32,
#: object-tail pickle length u32 (the tail is the frame's final bytes).
_FRAME_HDR = struct.Struct("<dBII")
FLAG_FINAL = 0x01

#: Per-message header: wire kind u8, channel id u32, delivery time f64.
_MSG_HDR = struct.Struct("<BId")
_MSG_BATCH = 0      # columnar RecordBatch ("b")
_MSG_ELEMENT = 1    # pickled element ("e")
_MSG_CONTROL = 2    # pickled control payload ("c")
_MSG_WATERMARK = 3  # struct-packed Watermark ("e")
_MSG_PICKLED_BATCH = 4  # whole-batch pickle fallback ("b")

#: Batch section header: nrec u32, next_index u32, column flags u8,
#: batch size_bytes f64.
_BATCH_HDR = struct.Struct("<IIBd")
_COL_LINEAGE = 0x01   # object tail carries (keys, values, origins, seqs)
_COL_VISIBLE = 0x02   # visible_times column present

_WM = struct.Struct("<dd")  # timestamp, size_bytes

_WIRE_KIND = {_MSG_BATCH: "b", _MSG_PICKLED_BATCH: "b",
              _MSG_ELEMENT: "e", _MSG_WATERMARK: "e",
              _MSG_CONTROL: "c"}


def _pack_f64(values: Iterable[float], n: int) -> bytes:
    return struct.pack(f"<{n}d", *values)


def _pack_i64(values: Iterable[int], n: int) -> bytes:
    return struct.pack(f"<{n}q", *values)


def _encode_batch(batch: RecordBatch, parts: List[bytes],
                  objtail: List[Any]) -> None:
    records = batch.records
    n = len(records)
    flags = 0
    vts = batch.visible_times
    if vts is not None:
        flags |= _COL_VISIBLE
    lineage = any(r.src_origin is not None for r in records)
    if lineage:
        flags |= _COL_LINEAGE
    parts.append(_BATCH_HDR.pack(n, batch.next_index, flags,
                                 batch.size_bytes))
    cols = batch.columns() if (_NATIVE_LE and HAVE_NUMPY) else None
    if vts is not None:
        if cols is not None and cols.visible_time is not None:
            parts.append(cols.visible_time.tobytes())
        else:
            parts.append(_pack_f64(vts, n))
    if cols is not None:
        parts.append(cols.event_time.tobytes())
    else:
        parts.append(_pack_f64((r.event_time for r in records), n))
    parts.append(_pack_f64((r.created_at for r in records), n))
    if cols is not None:
        parts.append(cols.size_bytes.tobytes())
        parts.append(cols.count.tobytes())
    else:
        parts.append(_pack_f64((r.size_bytes for r in records), n))
        parts.append(_pack_i64((r.count for r in records), n))
    parts.append(_pack_i64((r.record_id for r in records), n))
    # Key-group -1 encodes None (real key groups are always >= 0).
    if cols is not None:
        parts.append(cols.key_group.tobytes())
    else:
        parts.append(_pack_i64(
            (-1 if r.key_group is None else r.key_group for r in records),
            n))
    if lineage:
        objtail.append((tuple(r.key for r in records),
                        tuple(r.value for r in records),
                        tuple(r.src_origin for r in records),
                        tuple(r.src_seq for r in records)))
    else:
        objtail.append((tuple(r.key for r in records),
                        tuple(r.value for r in records)))


def encode_frame(msgs: Iterable[Tuple[str, int, float, Any]],
                 grant: float, final: bool = False,
                 stats: Any = None) -> bytes:
    """Encode staged cut-edge messages plus the piggybacked grant.

    ``msgs`` entries are ``(kind, cid, t, element)`` exactly as the
    egress endpoints stage them (kind "e"/"b"/"c").  The byte string is
    self-contained: safe to hand to any transport and decode later even
    if the caller clears/mutates ``msgs`` or the elements afterwards
    (object payloads are captured via pickle at encode time).

    ``stats``, when given, is an object with a ``batch_fallbacks``
    counter bumped for every batch that had to take the whole-pickle
    fallback path.
    """
    parts: List[bytes] = [b""]  # placeholder for the frame header
    objtail: List[Any] = []
    nmsg = 0
    for kind, cid, t, element in msgs:
        nmsg += 1
        if kind == "b":
            mark = len(parts)
            tail_mark = len(objtail)
            parts.append(_MSG_HDR.pack(_MSG_BATCH, cid, t))
            try:
                _encode_batch(element, parts, objtail)
            except (struct.error, TypeError, ValueError, OverflowError):
                # Non-columnar payload (exotic field types): fall back to
                # pickling the whole carrier, minus any cached numpy view.
                del parts[mark:]
                del objtail[tail_mark:]
                parts.append(_MSG_HDR.pack(_MSG_PICKLED_BATCH, cid, t))
                element._columns = None
                objtail.append(element)
                if stats is not None:
                    stats.batch_fallbacks += 1
        elif kind == "e":
            if type(element) is Watermark:
                parts.append(_MSG_HDR.pack(_MSG_WATERMARK, cid, t))
                parts.append(_WM.pack(element.timestamp,
                                      element.size_bytes))
            else:
                parts.append(_MSG_HDR.pack(_MSG_ELEMENT, cid, t))
                objtail.append(element)
        else:  # "c"
            parts.append(_MSG_HDR.pack(_MSG_CONTROL, cid, t))
            objtail.append(element)
    blob = pickle.dumps(objtail, _PROTO) if objtail else b""
    parts[0] = _FRAME_HDR.pack(grant, FLAG_FINAL if final else 0, nmsg,
                               len(blob))
    parts.append(blob)
    return b"".join(parts)


def _decode_batch(data: bytes, off: int, objtail: List[Any],
                  obj_idx: int) -> Tuple[RecordBatch, int, int]:
    n, next_index, flags, size_bytes = _BATCH_HDR.unpack_from(data, off)
    off += _BATCH_HDR.size
    f64 = struct.Struct(f"<{n}d")
    i64 = struct.Struct(f"<{n}q")
    if flags & _COL_VISIBLE:
        visible_times: Any = list(f64.unpack_from(data, off))
        off += f64.size
    else:
        visible_times = None
    event_time = f64.unpack_from(data, off); off += f64.size
    created_at = f64.unpack_from(data, off); off += f64.size
    sizes = f64.unpack_from(data, off); off += f64.size
    counts = i64.unpack_from(data, off); off += i64.size
    record_ids = i64.unpack_from(data, off); off += i64.size
    key_groups = i64.unpack_from(data, off); off += i64.size
    entry = objtail[obj_idx]
    if flags & _COL_LINEAGE:
        keys, values, origins, seqs = entry
    else:
        keys, values = entry
        origins = seqs = None
    records = []
    append = records.append
    for i in range(n):
        rec = Record.__new__(Record)
        rec.key = keys[i]
        kg = key_groups[i]
        rec.key_group = None if kg == -1 else kg
        rec.event_time = event_time[i]
        rec.value = values[i]
        rec.count = counts[i]
        rec.size_bytes = sizes[i]
        rec.created_at = created_at[i]
        rec.record_id = record_ids[i]
        if origins is not None:
            rec.src_origin = origins[i]
            rec.src_seq = seqs[i]
        else:
            rec.src_origin = None
            rec.src_seq = None
        append(rec)
    batch = RecordBatch.__new__(RecordBatch)
    batch.records = records
    batch.visible_times = visible_times
    batch.next_index = next_index
    batch.size_bytes = size_bytes
    batch._columns = None
    return batch, off, obj_idx + 1


def decode_frame(data: bytes) -> Tuple[float, bool,
                                       List[Tuple[str, int, float, Any]]]:
    """Inverse of :func:`encode_frame`: ``(grant, final, msgs)``."""
    grant, hflags, nmsg, blob_len = _FRAME_HDR.unpack_from(data, 0)
    off = _FRAME_HDR.size
    objtail: List[Any] = (
        pickle.loads(data[len(data) - blob_len:]) if blob_len else [])
    obj_idx = 0
    msgs: List[Tuple[str, int, float, Any]] = []
    for _ in range(nmsg):
        mkind, cid, t = _MSG_HDR.unpack_from(data, off)
        off += _MSG_HDR.size
        if mkind == _MSG_BATCH:
            element, off, obj_idx = _decode_batch(data, off, objtail,
                                                  obj_idx)
        elif mkind == _MSG_WATERMARK:
            ts, sb = _WM.unpack_from(data, off)
            off += _WM.size
            element = Watermark.__new__(Watermark)
            element.timestamp = ts
            element.size_bytes = sb
        else:
            element = objtail[obj_idx]
            obj_idx += 1
        msgs.append((_WIRE_KIND[mkind], cid, t, element))
    return grant, bool(hflags & FLAG_FINAL), msgs
