"""Single-producer single-consumer shared-memory byte ring.

The cut-edge data plane of the sharded kernel
(:mod:`repro.simulation.sharded`): the parent process creates one ring per
directed cut shard pair *before* forking, both workers inherit the mapping,
and cut-edge frames move as length-prefixed byte blobs through shared
memory instead of being pickled through a pipe.

Concurrency model — and why it is safe in pure Python:

* Exactly one writer process and one reader process per ring (the shard
  topology guarantees it: one ring per ordered ``(upstream, downstream)``
  pair).
* The write cursor is only ever stored by the writer, the read cursor only
  by the reader; each side keeps its own cursor in a local attribute and
  reads the *other* side's from shared memory.  Cursors are 4-byte aligned
  ``u32`` values (byte counts mod 2**32), so a cursor store is a single
  aligned 32-bit memcpy — effectively atomic on every platform the fork
  start method exists on; a reader can observe a stale cursor, never a
  torn one.
* The writer copies the payload into the data region *first* and publishes
  the advanced write cursor *after*; the reader never touches bytes beyond
  the published cursor.  (CPython executes these as separate bytecode ops
  with the usual x86/ARM store ordering for same-location word stores.)
* The ``blocked`` word is reader-owned (0/1) and purely advisory: the
  writer consults it to decide whether a bare grant is worth sending.  A
  stale read only delays a null message by one round — never a correctness
  issue, because the reader's wait loop re-polls with a bounded backoff.

Frames larger than the ring can never fit; :meth:`push_spill_marker`
writes a 4-byte in-band marker that tells the reader to fetch the payload
from the side channel (the cut pair's pipe), preserving frame order
exactly.
"""

from __future__ import annotations

import struct
from typing import Optional, Union

__all__ = ["ShmRing", "SPILL", "DEFAULT_RING_BYTES"]

#: Default per-pair ring capacity.  Sized so several adaptive-quantum
#: bursts of paper-tier Twitch traffic fit without stalling the writer;
#: per-cut-edge ``ring_bytes`` hints in the partition plan override it.
DEFAULT_RING_BYTES = 1 << 22

_U32 = struct.Struct("<I")
#: Length sentinel marking an out-of-band (spilled) frame.
_SPILL_MARK = 0xFFFFFFFF
_MOD = 1 << 32

#: Header layout (64 bytes, data region follows):
#:   0  u32  write cursor (bytes ever pushed, mod 2**32) — writer-owned
#:   4  u32  read cursor (bytes ever consumed, mod 2**32) — reader-owned
#:   8  u32  blocked flag (reader sets 1 while waiting on this ring)
#:  12.. reserved
_HEADER = 64
_OFF_WRITE = 0
_OFF_READ = 4
_OFF_BLOCKED = 8


class _Spill:
    """Singleton sentinel returned by :meth:`ShmRing.pop` for spilled
    frames: the payload must be fetched from the side channel."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return "<SPILL>"


SPILL = _Spill()


class ShmRing:
    """A bounded SPSC byte ring over ``multiprocessing.shared_memory``.

    Created by the parent before forking; both sides use the inherited
    object directly (the fork start method shares the mapping — nothing is
    pickled or re-attached).  The parent owns cleanup: :meth:`close` then
    :meth:`unlink` after the workers have exited.
    """

    __slots__ = ("shm", "buf", "capacity", "_w_local", "_r_local")

    def __init__(self, capacity: int = DEFAULT_RING_BYTES,
                 name: Optional[str] = None):
        if capacity < 64:
            raise ValueError(f"ring capacity must be >= 64, got {capacity}")
        # Imported here, so single-process runs that import this module
        # never load ``multiprocessing``.
        from multiprocessing import shared_memory
        self.capacity = capacity
        self.shm = shared_memory.SharedMemory(
            name=name, create=True, size=_HEADER + capacity)
        self.buf = self.shm.buf
        self.buf[:_HEADER] = bytes(_HEADER)
        #: Each side caches its own cursor — the authoritative copy of the
        #: *other* side's cursor always comes from shared memory.
        self._w_local = 0
        self._r_local = 0

    # -- cursor helpers ------------------------------------------------------

    def _read_u32(self, off: int) -> int:
        return _U32.unpack_from(self.buf, off)[0]

    def _store_u32(self, off: int, value: int) -> None:
        _U32.pack_into(self.buf, off, value & 0xFFFFFFFF)

    def used(self) -> int:
        """Bytes currently in the ring, from the writer's perspective."""
        return (self._w_local - self._read_u32(_OFF_READ)) % _MOD

    def reader_used(self) -> int:
        """Bytes currently readable, from the reader's perspective."""
        return (self._read_u32(_OFF_WRITE) - self._r_local) % _MOD

    # -- data plane ----------------------------------------------------------

    def _write_bytes(self, pos: int, data) -> None:
        """Copy ``data`` into the data region at ring offset ``pos``."""
        cap = self.capacity
        start = pos % cap
        end = start + len(data)
        if end <= cap:
            self.buf[_HEADER + start:_HEADER + end] = data
        else:
            split = cap - start
            self.buf[_HEADER + start:_HEADER + cap] = data[:split]
            self.buf[_HEADER:_HEADER + end - cap] = data[split:]

    def _read_bytes(self, pos: int, n: int) -> bytes:
        cap = self.capacity
        start = pos % cap
        end = start + n
        if end <= cap:
            return bytes(self.buf[_HEADER + start:_HEADER + end])
        split = cap - start
        return (bytes(self.buf[_HEADER + start:_HEADER + cap])
                + bytes(self.buf[_HEADER:_HEADER + end - cap]))

    def push(self, data) -> bool:
        """Append one length-prefixed frame.  False when it does not fit
        *right now* (writer-full backpressure: retry after the reader
        drains) — or ever (``len(data) + 4 > capacity``: spill instead).
        """
        need = len(data) + 4
        if need > self.capacity - (self.used()):
            return False
        w = self._w_local
        self._write_bytes(w, _U32.pack(len(data)))
        self._write_bytes(w + 4, data)
        self._w_local = (w + need) % _MOD
        self._store_u32(_OFF_WRITE, self._w_local)
        return True

    def push_spill_marker(self) -> bool:
        """Append the 4-byte out-of-band marker (payload rides the side
        channel).  Same full/retry contract as :meth:`push`."""
        if 4 > self.capacity - self.used():
            return False
        w = self._w_local
        self._write_bytes(w, _U32.pack(_SPILL_MARK))
        self._w_local = (w + 4) % _MOD
        self._store_u32(_OFF_WRITE, self._w_local)
        return True

    def pop(self) -> Union[bytes, _Spill, None]:
        """Consume the next frame: its bytes, :data:`SPILL` for an
        out-of-band marker, or None when the ring is empty."""
        avail = self.reader_used()
        if avail == 0:
            return None
        r = self._r_local
        (length,) = _U32.unpack(self._read_bytes(r, 4))
        if length == _SPILL_MARK:
            self._r_local = (r + 4) % _MOD
            self._store_u32(_OFF_READ, self._r_local)
            return SPILL
        if length > self.capacity - 4 or length + 4 > avail:
            raise RuntimeError(
                f"corrupt ring frame: length {length}, {avail} available "
                f"(capacity {self.capacity})")
        data = self._read_bytes(r + 4, length)
        self._r_local = (r + 4 + length) % _MOD
        self._store_u32(_OFF_READ, self._r_local)
        return data

    # -- blocked flag (reader-owned, advisory) -------------------------------

    def set_blocked(self, flag: bool) -> None:
        self._store_u32(_OFF_BLOCKED, 1 if flag else 0)

    def reader_blocked(self) -> bool:
        return self._read_u32(_OFF_BLOCKED) != 0

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Release this process's mapping (parent-side cleanup)."""
        self.buf = None
        try:
            self.shm.close()
        except BufferError:  # pragma: no cover - exported views still alive
            pass

    def unlink(self) -> None:
        """Remove the backing segment (call once, from the creator)."""
        try:
            self.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass
