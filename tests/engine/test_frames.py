"""Columnar cut-edge frame codec: bit-exact roundtrips and fallbacks.

The codec's contract is that a decoded element is indistinguishable from
its pickled twin — these tests compare field-by-field
against the originals, including float bit patterns.
"""

import math
import pickle
import struct

import pytest

from repro.engine.frames import decode_frame, encode_frame
from repro.engine.records import (CheckpointBarrier, LatencyMarker, Record,
                                  RecordBatch, Watermark)


def _mkbatch(n=5, lineage=False, visible=False, key=lambda i: f"k{i}"):
    records = [
        Record(key=key(i), key_group=(i % 3 if i % 4 else None),
               event_time=0.1 * i + 1/3, value={"v": i}, count=i + 1,
               size_bytes=64.0 + i * 0.25, created_at=0.05 * i,
               record_id=1000 + i,
               src_origin=("src" if lineage and i % 2 else None),
               src_seq=(i if lineage and i % 2 else None))
        for i in range(n)]
    vts = [0.1 * i + 0.5 for i in range(n)] if visible else None
    batch = RecordBatch(records, visible_times=vts)
    batch.next_index = 2
    return batch


def _assert_batches_equal(a, b):
    assert type(b) is RecordBatch
    assert b.next_index == a.next_index
    assert b.size_bytes == a.size_bytes
    assert b.visible_times == a.visible_times
    assert len(b.records) == len(a.records)
    for ra, rb in zip(a.records, b.records):
        for slot in Record.__slots__:
            va, vb = getattr(ra, slot), getattr(rb, slot)
            assert va == vb, f"Record.{slot}: {va!r} != {vb!r}"
            if isinstance(va, float):
                # bit-exact, not just ==
                assert struct.pack("<d", va) == struct.pack("<d", vb)


class TestBatchRoundtrip:
    def test_plain_batch(self):
        batch = _mkbatch()
        grant, final, msgs = decode_frame(
            encode_frame([("b", 3, 1.25, batch)], grant=7.5))
        assert grant == 7.5 and final is False
        [(kind, cid, t, element)] = msgs
        assert (kind, cid, t) == ("b", 3, 1.25)
        _assert_batches_equal(batch, element)

    def test_lineage_and_visible_times(self):
        batch = _mkbatch(lineage=True, visible=True)
        _, _, [(_, _, _, decoded)] = decode_frame(
            encode_frame([("b", 1, 0.5, batch)], grant=0.0))
        _assert_batches_equal(batch, decoded)

    def test_mixed_lineage_batch_keeps_lineage(self):
        # only *some* records carry lineage: the column must still ship
        batch = _mkbatch(lineage=True)
        assert any(r.src_origin is not None for r in batch.records)
        assert any(r.src_origin is None for r in batch.records)
        _, _, [(_, _, _, decoded)] = decode_frame(
            encode_frame([("b", 1, 0.5, batch)], grant=0.0))
        _assert_batches_equal(batch, decoded)

    def test_columnar_cache_and_struct_paths_agree(self):
        # encoding with a warmed numpy column cache must produce a frame
        # that decodes identically to the cold (struct) path
        warmed = _mkbatch(visible=True)
        cold = _mkbatch(visible=True)
        warmed.columns()
        _, _, [(_, _, _, via_cols)] = decode_frame(
            encode_frame([("b", 1, 0.5, warmed)], grant=0.0))
        _assert_batches_equal(cold, via_cols)

    def test_float_bit_exactness(self):
        # values that don't survive repr round-trips still cross exactly
        rec = Record(key="k", event_time=math.pi, size_bytes=1e-17,
                     created_at=2.0 ** -1074, record_id=1)
        batch = RecordBatch([rec])
        _, _, [(_, _, _, decoded)] = decode_frame(
            encode_frame([("b", 1, 0.0, batch)], grant=0.0))
        _assert_batches_equal(batch, decoded)


class TestFallbacks:
    class _Stats:
        batch_fallbacks = 0

    def test_unpackable_key_group_falls_back_to_pickle(self):
        # a non-int key_group breaks the i64 column pack -> whole-pickle
        batch = _mkbatch(n=3)
        batch.records[1].key_group = "not-an-int"
        stats = self._Stats()
        frame = encode_frame([("b", 2, 1.0, batch)], grant=1.0,
                             stats=stats)
        assert stats.batch_fallbacks == 1
        _, _, [(kind, cid, t, decoded)] = decode_frame(frame)
        assert (kind, cid, t) == ("b", 2, 1.0)
        _assert_batches_equal(batch, decoded)

    def test_fallback_rolls_back_partial_sections(self):
        # good batch, bad batch, good batch: the bad one's partial
        # columns must not corrupt its neighbours
        good1, good2 = _mkbatch(n=2), _mkbatch(n=4, visible=True)
        bad = _mkbatch(n=3)
        bad.records[2].count = 2 ** 70  # overflows the i64 column
        msgs_in = [("b", 1, 0.1, good1), ("b", 2, 0.2, bad),
                   ("b", 3, 0.3, good2)]
        _, _, msgs = decode_frame(encode_frame(msgs_in, grant=0.0))
        assert [m[:3] for m in msgs] == [m[:3] for m in msgs_in]
        for (_, _, _, orig), (_, _, _, dec) in zip(msgs_in, msgs):
            _assert_batches_equal(orig, dec)


class TestOtherElements:
    def test_watermark_fast_path_no_pickle(self):
        wm = Watermark(timestamp=123.456, size_bytes=16.0)
        frame = encode_frame([("e", 5, 9.0, wm)], grant=9.5)
        # the watermark must not ride the pickle tail
        blob_len = struct.unpack_from("<I", frame, 13)[0]
        assert blob_len == 0
        grant, final, [(kind, cid, t, decoded)] = decode_frame(frame)
        assert grant == 9.5
        assert (kind, cid, t) == ("e", 5, 9.0)
        assert type(decoded) is Watermark
        assert decoded.timestamp == wm.timestamp
        assert decoded.size_bytes == wm.size_bytes

    def test_markers_and_controls_ride_the_tail(self):
        marker = LatencyMarker(emitted_at=1.5, key="m")
        barrier = CheckpointBarrier(checkpoint_id=7)
        _, _, msgs = decode_frame(encode_frame(
            [("e", 1, 0.1, marker), ("e", 2, 0.2, barrier),
             ("c", 3, 0.3, ("credit", 4))], grant=0.0))
        kinds = [m[0] for m in msgs]
        assert kinds == ["e", "e", "c"]
        assert msgs[0][3].emitted_at == 1.5
        assert msgs[1][3].checkpoint_id == 7
        assert msgs[2][3] == ("credit", 4)

    def test_empty_and_final_frames(self):
        grant, final, msgs = decode_frame(
            encode_frame([], grant=3.25, final=True))
        assert grant == 3.25 and final is True and msgs == []
        grant, final, msgs = decode_frame(encode_frame([], grant=0.125))
        assert grant == 0.125 and final is False and msgs == []

    def test_frame_is_self_contained_after_mutation(self):
        # clearing/mutating the staging list or the elements after encode
        # must not affect the already-encoded frame (the old in-place
        # `msgs.clear()` hazard)
        batch = _mkbatch(n=3)
        expected = pickle.loads(pickle.dumps(batch))
        staged = [("b", 1, 0.5, batch)]
        frame = encode_frame(staged, grant=1.0)
        staged.clear()
        batch.records[0].value = {"v": "CORRUPTED"}
        batch.records.pop()
        batch.next_index = 0
        _, _, [(_, _, _, decoded)] = decode_frame(frame)
        _assert_batches_equal(expected, decoded)

    def test_message_interleaving_preserved(self):
        batch = _mkbatch(n=2)
        wm = Watermark(timestamp=2.0)
        msgs_in = [("e", 1, 0.1, wm), ("b", 2, 0.2, batch),
                   ("e", 1, 0.3, Watermark(timestamp=3.0))]
        _, _, msgs = decode_frame(encode_frame(msgs_in, grant=0.0))
        assert [m[:3] for m in msgs] == [m[:3] for m in msgs_in]
        assert msgs[0][3].timestamp == 2.0
        assert msgs[2][3].timestamp == 3.0
