"""Single-producer/single-consumer rings over shared memory.

The PDES barrier protocol keeps its *control* plane on pipes (tiny
tuples: verbs, horizons, reports) but moves the *bulk* plane -- the
per-window columnar export batches -- through shared-memory rings, so a
batch crosses process boundaries as one ``memcpy`` in and one out
(:mod:`repro.pdes.wire` does the encoding; only a payload serde cannot
encode is pickled, inside the batch).

Layout: one :class:`multiprocessing.shared_memory.SharedMemory` segment
per engine, carved into ``2 * nworkers`` ring slots (driver->worker and
worker->driver per partition).  Each slot is::

    [ tail u64 | pad ... | head u64 | pad ... |  data[capacity] ]
      ^0                   ^64                  ^192

``tail``/``head`` are *monotonic* byte counters (they never wrap; the
data offset is ``counter % capacity``), each alone on its own cache
line: the producer writes only ``tail``, the consumer only ``head``, so
the single-producer/single-consumer discipline needs no locks.  The
pipe round-trip that announces every record doubles as the memory
fence: a consumer only reads a record after the producer's pipe message
about it arrives, which on CPython (single 8-byte aligned writes under
the buffer protocol) is sufficient ordering.

Records are framed ``[seq u64][len u64][payload]`` with modular
wrap-around copies.  ``seq`` is a per-ring monotonic sequence number
carried redundantly in the pipe descriptor; both sides fence on it
(:class:`RingError` on mismatch), so a desynchronised ring -- a lost
record, a double pop, a stray producer -- fails loudly instead of
silently mispairing batches with windows.

Lifecycle: the driver creates the segment *before* forking and workers
inherit the mapping (nothing is pickled, nothing re-attaches by name,
so only the driver's ``resource_tracker`` ever knows the segment and
the unlink happens exactly once, in the driver's ``finally``).  A batch
larger than the ring's free space takes the overflow spill: the encoded
blob rides the pipe message itself (bytes cross a pipe as one plain
buffer copy -- still no object pickling).
"""

from __future__ import annotations

import os
import secrets
from multiprocessing import shared_memory
from typing import List, Optional

from .wire import decode_batch, encode_batch

#: Default per-direction ring capacity (bytes); override with
#: ``PdesWorld(ring_bytes=...)``.
DEFAULT_RING_BYTES = 1 << 20

#: Slot header geometry: tail and head counters on separate cache lines.
_TAIL_OFF = 0
_HEAD_OFF = 64
_DATA_OFF = 192
_REC_HDR = 16  # [seq u64][len u64]


class RingError(RuntimeError):
    """A ring protocol violation (desync, truncation, bad descriptor)."""


class RingStats:
    """Cheap always-on counters of one ring endpoint (this process's side).

    Pure integer bumps on the *batch* path (once per window record, never
    per message), so they are always on and readable post-run -- e.g. a :class:`~repro.pdes.engine.
    PdesStallError` names the congested ring from these.  Producer-side
    fields (``pushes``/``bytes_pushed``/``high_water``/``spills``) are
    maintained by whichever process produces into the ring; consumer-side
    fields (``pops``/``bytes_popped``/``fence_errors``) by the consumer.
    ``high_water`` is the peak occupancy in bytes observed just after a
    push; ``spills`` counts pushes refused for lack of space (the caller
    then takes the pipe spill path -- this ring never blocks, so
    congestion shows up as spills, not waits).
    """

    __slots__ = (
        "pushes",
        "pops",
        "bytes_pushed",
        "bytes_popped",
        "high_water",
        "spills",
        "fence_errors",
    )

    def __init__(self) -> None:
        self.pushes = 0
        self.pops = 0
        self.bytes_pushed = 0
        self.bytes_popped = 0
        self.high_water = 0
        self.spills = 0
        self.fence_errors = 0

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"RingStats({body})"


class SpscRing:
    """One single-producer/single-consumer ring inside a shared slot.

    Either side of a ring pair uses the same class; roles are fixed by
    convention (the driver produces into ``to_worker`` rings and
    consumes ``from_worker`` rings, each worker the reverse), and the
    local ``_push_seq``/``_pop_seq`` counters -- process-private, both
    starting at the fork point's zero -- enforce it.
    """

    def __init__(self, buf: memoryview, capacity: int):
        self._buf = buf
        self._data = buf[_DATA_OFF:_DATA_OFF + capacity]
        self.capacity = capacity
        self._push_seq = 0
        self._pop_seq = 0
        self._consumed: Optional[int] = None
        #: Always-on endpoint counters (see :class:`RingStats`).  Updated
        #: with plain integer bumps only -- the push/pop fast path takes
        #: no clock reads and no recorder calls (enforced by
        #: ``tools/hotpath_lint.py``).
        self.stats = RingStats()

    # -- shared counters ---------------------------------------------------
    def _load(self, off: int) -> int:
        return int.from_bytes(self._buf[off:off + 8], "little")

    def _store(self, off: int, value: int) -> None:
        self._buf[off:off + 8] = value.to_bytes(8, "little")

    @property
    def used(self) -> int:
        return self._load(_TAIL_OFF) - self._load(_HEAD_OFF)

    # -- modular data copies -----------------------------------------------
    def _write(self, pos: int, data) -> None:
        cap = self.capacity
        off = pos % cap
        n = len(data)
        if off + n <= cap:
            self._data[off:off + n] = data
        else:
            first = cap - off
            self._data[off:] = data[:first]
            self._data[:n - first] = data[first:]

    def _read(self, pos: int, n: int) -> bytes:
        cap = self.capacity
        off = pos % cap
        first = min(n, cap - off)
        if first == n:
            return bytes(self._data[off:off + n])
        return bytes(self._data[off:off + first]) + bytes(
            self._data[:n - first]
        )

    # -- producer side -----------------------------------------------------
    def try_push(self, payload) -> Optional[int]:
        """Frame and write one record; returns its sequence number, or
        ``None`` when the ring lacks space (caller takes the spill
        path -- blocking here could deadlock against the barrier)."""
        stats = self.stats
        need = _REC_HDR + len(payload)
        tail = self._load(_TAIL_OFF)
        used = tail - self._load(_HEAD_OFF)
        if need > self.capacity - used:
            stats.spills += 1
            return None
        seq = self._push_seq
        self._write(
            tail,
            seq.to_bytes(8, "little") + len(payload).to_bytes(8, "little"),
        )
        self._write(tail + _REC_HDR, payload)
        self._store(_TAIL_OFF, tail + need)
        self._push_seq = seq + 1
        stats.pushes += 1
        stats.bytes_pushed += need
        if used + need > stats.high_water:
            stats.high_water = used + need
        return seq

    # -- consumer side -----------------------------------------------------
    def begin_pop(self):
        """Read the next record's payload without consuming it.

        Returns a zero-copy memoryview into the ring when the payload is
        contiguous, a bytes copy when it wraps; either way the bytes are
        only valid until :meth:`commit_pop`.
        """
        tail = self._load(_TAIL_OFF)
        head = self._load(_HEAD_OFF)
        if tail - head < _REC_HDR:
            raise RingError("ring empty: no record to pop")
        hdr = self._read(head, _REC_HDR)
        seq = int.from_bytes(hdr[:8], "little")
        length = int.from_bytes(hdr[8:], "little")
        if seq != self._pop_seq:
            self.stats.fence_errors += 1
            raise RingError(
                f"ring sequence fence broken: expected record "
                f"{self._pop_seq}, found {seq}"
            )
        if tail - head < _REC_HDR + length:
            self.stats.fence_errors += 1
            raise RingError(
                f"ring record {seq} truncated: framed {length} bytes, "
                f"only {tail - head - _REC_HDR} present"
            )
        cap = self.capacity
        off = (head + _REC_HDR) % cap
        self._consumed = _REC_HDR + length
        if off + length <= cap:
            return self._data[off:off + length]
        return self._read(head + _REC_HDR, length)

    def commit_pop(self) -> None:
        """Consume the record returned by the last :meth:`begin_pop`."""
        if self._consumed is None:
            raise RingError("commit_pop without begin_pop")
        self._store(_HEAD_OFF, self._load(_HEAD_OFF) + self._consumed)
        self._pop_seq += 1
        stats = self.stats
        stats.pops += 1
        stats.bytes_popped += self._consumed
        self._consumed = None

    def release(self) -> None:
        """Drop the memoryviews so the segment can be closed."""
        self._data.release()
        self._buf.release()


class ShmTransport:
    """The engine's shared segment: one ring pair per worker.

    Created by the driver before forking; every process holds its own
    :class:`SpscRing` objects over the one inherited mapping.  The
    driver (and only the driver) calls :meth:`unlink`; every process
    calls :meth:`close` on its way out.
    """

    def __init__(self, nworkers: int, ring_bytes: Optional[int] = None):
        if ring_bytes is None:
            ring_bytes = DEFAULT_RING_BYTES
        if ring_bytes < 4096:
            raise ValueError(f"ring_bytes too small: {ring_bytes}")
        self.ring_bytes = ring_bytes
        slot = _DATA_OFF + ring_bytes
        self.name = f"repro_pdes_{os.getpid()}_{secrets.token_hex(4)}"
        self._shm = shared_memory.SharedMemory(
            name=self.name, create=True, size=2 * nworkers * slot
        )
        buf = self._shm.buf
        #: Driver -> worker ``p`` (window imports).
        self.to_worker: List[SpscRing] = []
        #: Worker ``p`` -> driver (window exports).
        self.from_worker: List[SpscRing] = []
        for p in range(nworkers):
            lo = 2 * p * slot
            self.to_worker.append(SpscRing(buf[lo:lo + slot], ring_bytes))
            self.from_worker.append(
                SpscRing(buf[lo + slot:lo + 2 * slot], ring_bytes)
            )
        self._closed = False
        self._unlinked = False

    def close(self) -> None:
        """Unmap this process's view (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for ring in self.to_worker + self.from_worker:
            ring.release()
        self._shm.close()

    def unlink(self) -> None:
        """Remove the segment name (driver only, idempotent)."""
        if self._unlinked:
            return
        self._unlinked = True
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


# -- batch descriptors -------------------------------------------------------
#: Pipe-side descriptors naming where a batch's bytes live.
DESC_NONE = ("none",)


def send_batch(ring: SpscRing, exports: List[tuple], scratch: bytearray):
    """Encode ``exports`` into ``ring``; returns the pipe descriptor.

    ``("none",)`` for an empty batch (the ring is not touched),
    ``("ring", seq)`` for the fast path, ``("spill", blob)`` when the
    batch outgrows the ring's free space (the encoded bytes then ride
    the pipe message itself).
    """
    if not exports:
        return DESC_NONE
    del scratch[:]
    encode_batch(exports, scratch)
    seq = ring.try_push(scratch)
    if seq is None:
        return ("spill", bytes(scratch))
    return ("ring", seq)


def recv_batch(ring: SpscRing, desc) -> List[tuple]:
    """Decode the batch named by a :func:`send_batch` descriptor."""
    tag = desc[0]
    if tag == "none":
        return []
    if tag == "spill":
        return decode_batch(desc[1])
    if tag != "ring":
        raise RingError(f"unknown batch descriptor {desc!r}")
    data = ring.begin_pop()
    if desc[1] != ring._pop_seq:
        raise RingError(
            f"batch descriptor names record {desc[1]}, ring is at "
            f"{ring._pop_seq}"
        )
    try:
        exports = decode_batch(data)
    finally:
        if type(data) is memoryview:
            data.release()
    ring.commit_pop()
    return exports
