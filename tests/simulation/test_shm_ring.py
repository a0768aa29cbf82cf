"""SPSC shared-memory ring units: wraparound, backpressure, spill, flags.

Single-process tests — the ring's SPSC contract means one side at a time
is exercised here; the cross-process behaviour is covered by the
shard-vs-single equivalence runs in
``tests/experiments/test_shard_equivalence.py``.
"""

import pytest

from repro.simulation.shm_ring import DEFAULT_RING_BYTES, SPILL, ShmRing


@pytest.fixture
def ring():
    r = ShmRing(capacity=256)
    yield r
    r.close()
    r.unlink()


class TestRoundtrip:
    def test_push_pop_roundtrip(self, ring):
        assert ring.push(b"hello")
        assert ring.push(b"")
        assert ring.push(b"world!")
        assert ring.pop() == b"hello"
        assert ring.pop() == b""
        assert ring.pop() == b"world!"
        assert ring.pop() is None

    def test_default_capacity(self):
        r = ShmRing()
        try:
            assert r.capacity == DEFAULT_RING_BYTES
        finally:
            r.close()
            r.unlink()

    def test_rejects_tiny_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            ShmRing(capacity=8)


class TestWraparound:
    def test_frames_survive_many_wraps(self, ring):
        # 24-byte frames through a 256-byte ring: the payload region
        # wraps every ~10 frames; contents must survive the splits.
        for i in range(1000):
            payload = bytes([i % 251]) * 20
            assert ring.push(payload)
            assert ring.pop() == payload

    def test_split_frame_across_boundary(self, ring):
        # Position the cursor so the next frame straddles the physical
        # end of the buffer.
        filler = b"x" * 200
        assert ring.push(filler)
        assert ring.pop() == filler
        straddle = bytes(range(100))
        assert ring.push(straddle)
        assert ring.pop() == straddle


class TestBackpressure:
    def test_writer_full_returns_false(self, ring):
        big = b"a" * 120
        assert ring.push(big)
        assert ring.push(big)           # 2 x 124 bytes = 248 used
        assert ring.push(b"bbbb")       # 8 free, needs exactly 4 + 4
        assert not ring.push(b"")       # 0 free: even a header won't fit
        assert not ring.push(big)
        assert ring.pop() == big
        assert ring.pop() == big
        assert ring.pop() == b"bbbb"
        # draining freed space for the writer again
        assert ring.push(big)

    def test_reader_empty_returns_none(self, ring):
        assert ring.pop() is None
        ring.push(b"one")
        assert ring.pop() == b"one"
        assert ring.pop() is None

    def test_oversized_frame_never_fits(self, ring):
        # A frame larger than the ring returns False even when empty —
        # the caller must spill it through the side channel.
        assert not ring.push(b"z" * 300)
        assert ring.pop() is None


class TestSpill:
    def test_spill_marker_preserves_order(self, ring):
        assert ring.push(b"before")
        assert ring.push_spill_marker()
        assert ring.push(b"after")
        assert ring.pop() == b"before"
        assert ring.pop() is SPILL
        assert ring.pop() == b"after"

    def test_spill_marker_respects_capacity(self, ring):
        assert ring.push(b"f" * 249)  # 253 of 256 used, 3 free
        assert not ring.push_spill_marker()
        ring.pop()
        assert ring.push_spill_marker()


class TestBlockedFlag:
    def test_flag_roundtrip(self, ring):
        assert not ring.reader_blocked()
        ring.set_blocked(True)
        assert ring.reader_blocked()
        ring.set_blocked(False)
        assert not ring.reader_blocked()


class TestLifecycle:
    def test_close_and_unlink_are_idempotent(self):
        r = ShmRing(capacity=128)
        r.close()
        r.unlink()
        r.unlink()  # second unlink is a no-op, not an error

    def test_corrupt_length_raises(self):
        r = ShmRing(capacity=128)
        try:
            r.push(b"abcdef")
            # Corrupt the frame's length prefix beyond any valid value.
            r.buf[64:68] = (2 ** 31).to_bytes(4, "little")
            with pytest.raises(RuntimeError, match="corrupt"):
                r.pop()
        finally:
            r.close()
            r.unlink()
