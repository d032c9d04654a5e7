"""SPSC ring mechanics: wrap-around, fencing, overflow spill, telemetry.

The rings move every export batch of a run, so the framing must
survive arbitrary interleavings of variable-sized records across the
wrap boundary, and every desync -- wrong sequence, truncated frame,
double pop -- must raise :class:`RingError` instead of mispairing a
batch with a window.  The always-on :class:`RingStats` counters must
stay readable after a run and name the congested ring in a stall.
"""

import random

import numpy as np
import pytest

from repro.core.coalescing import P2PColumns
from repro.mpi.envelope import Packet
from repro.pdes import PdesWorld, RingError, ShmTransport, SpscRing
from repro.pdes.rings import (
    _DATA_OFF,
    DESC_NONE,
    recv_batch,
    send_batch,
)


def make_ring(capacity=256):
    backing = bytearray(_DATA_OFF + capacity)
    return SpscRing(memoryview(backing), capacity)


def pop(ring):
    data = bytes(ring.begin_pop())
    ring.commit_pop()
    return data


def test_push_pop_roundtrip():
    ring = make_ring()
    assert ring.try_push(b"hello") == 0
    assert ring.try_push(b"world!") == 1
    assert pop(ring) == b"hello"
    assert pop(ring) == b"world!"
    assert ring.used == 0


def test_full_ring_refuses_then_recovers():
    ring = make_ring(capacity=64)
    assert ring.try_push(b"x" * 40) == 0  # 16-byte header + 40 payload
    assert ring.try_push(b"y" * 40) is None  # would overflow: spill path
    assert pop(ring) == b"x" * 40
    assert ring.try_push(b"y" * 40) == 1  # space freed, seq continues
    assert pop(ring) == b"y" * 40


def test_records_wrap_around_the_capacity_boundary():
    ring = make_ring(capacity=64)
    wrapped = 0
    for i in range(50):
        payload = bytes([i]) * (11 + (i * 7) % 23)
        assert ring.try_push(payload) == i
        # Did this record's bytes straddle the modular boundary?
        if (ring._load(0) % 64) < len(payload) + 16:
            wrapped += 1
        assert pop(ring) == payload
    assert wrapped > 5  # the loop genuinely exercised wrap-around


def test_interleaved_pushes_and_pops_preserve_fifo_order():
    rng = random.Random(42)
    ring = make_ring(capacity=128)
    sent, got, next_id = [], [], 0
    for _ in range(400):
        if rng.random() < 0.6:
            payload = bytes([next_id % 256]) * rng.randrange(1, 40)
            if ring.try_push(payload) is not None:
                sent.append(payload)
                next_id += 1
        elif sent[len(got):]:
            got.append(pop(ring))
    got.extend(pop(ring) for _ in sent[len(got):])
    assert got == sent


def test_sequence_fence_detects_desync():
    ring = make_ring()
    ring.try_push(b"a")
    ring._pop_seq = 5  # simulate a consumer that lost records
    with pytest.raises(RingError, match="sequence fence"):
        ring.begin_pop()


def test_empty_pop_and_double_commit_raise():
    ring = make_ring()
    with pytest.raises(RingError, match="empty"):
        ring.begin_pop()
    ring.try_push(b"a")
    ring.begin_pop()
    ring.commit_pop()
    with pytest.raises(RingError, match="without begin_pop"):
        ring.commit_pop()


def test_truncated_record_is_detected():
    ring = make_ring()
    ring.try_push(b"full payload here")
    # Simulate a producer that died mid-write: rewind the tail so only
    # part of the framed record is published.
    ring._store(0, ring._load(0) - 5)
    with pytest.raises(RingError, match="truncated"):
        ring.begin_pop()


# -- batch descriptors -------------------------------------------------------
def _exports(n=4, bulk=1):
    out = []
    for i in range(n):
        cols = P2PColumns(
            dests=np.arange(bulk, dtype=np.int64),
            payloads=np.array([i] * bulk, dtype=object),
            nbytes=np.full(bulk, 8, dtype=np.int64),
        )
        pkt = Packet(src=0, dst=1, ctx=0, kind=("ygm", 1, "app"), tag=0,
                     payload=[cols], nbytes=cols.wire_bytes)
        out.append((float(i), 0, 1, pkt.nbytes, pkt))
    return out


def test_empty_batch_sends_no_bytes():
    ring = make_ring()
    assert send_batch(ring, [], bytearray()) == DESC_NONE
    assert ring.used == 0
    assert recv_batch(ring, DESC_NONE) == []


def test_batch_rides_the_ring_and_decodes():
    ring = make_ring(capacity=4096)
    exports = _exports()
    desc = send_batch(ring, exports, bytearray())
    assert desc[0] == "ring"
    back = recv_batch(ring, desc)
    assert [b[4].payload[0].payloads[0] for b in back] == [0, 1, 2, 3]
    assert ring.used == 0  # consumed


def test_oversized_batch_takes_the_spill_path():
    ring = make_ring(capacity=4096)
    exports = _exports(n=2, bulk=2000)  # ~tens of KiB of columns
    desc = send_batch(ring, exports, bytearray())
    assert desc[0] == "spill"
    assert ring.used == 0  # nothing was half-written
    back = recv_batch(ring, desc)
    assert len(back) == 2
    assert back[0][4].payload[0].count == 2000
    # The ring stays usable (and in sequence) after a spill.
    desc2 = send_batch(ring, _exports(n=1), bytearray())
    assert desc2 == ("ring", 0)
    assert len(recv_batch(ring, desc2)) == 1


def test_spill_threshold_property_random_batch_sizes():
    rng = random.Random(7)
    ring = make_ring(capacity=2048)
    for _ in range(60):
        exports = _exports(n=rng.randrange(1, 4), bulk=rng.randrange(1, 120))
        desc = send_batch(ring, exports, bytearray())
        back = recv_batch(ring, desc)
        assert len(back) == len(exports)
        for (t, src, dst, nbytes, pkt), orig in zip(back, exports):
            assert (t, src, dst, nbytes) == orig[:4]
            np.testing.assert_array_equal(
                pkt.payload[0].payloads, orig[4].payload[0].payloads
            )
        assert ring.used == 0


def test_descriptor_record_mismatch_raises():
    ring = make_ring(capacity=4096)
    d0 = send_batch(ring, _exports(n=1), bytearray())
    send_batch(ring, _exports(n=1), bytearray())
    recv_batch(ring, d0)
    with pytest.raises(RingError, match="descriptor names record"):
        recv_batch(ring, ("ring", 0))  # already consumed


def test_unknown_descriptor_raises():
    with pytest.raises(RingError, match="unknown batch descriptor"):
        recv_batch(make_ring(), ("warp", 9))


# -- the shared segment ------------------------------------------------------
def test_shm_transport_carves_independent_ring_pairs():
    rings = ShmTransport(2, ring_bytes=4096)
    try:
        all_rings = rings.to_worker + rings.from_worker
        assert len(all_rings) == 4
        for i, ring in enumerate(all_rings):
            ring.try_push(bytes([i]) * 10)
        for i, ring in enumerate(all_rings):
            assert pop(ring) == bytes([i]) * 10  # no slot overlap
    finally:
        rings.close()
        rings.unlink()


def test_shm_transport_rejects_tiny_rings():
    with pytest.raises(ValueError, match="too small"):
        ShmTransport(1, ring_bytes=16)


def test_close_and_unlink_are_idempotent(tmp_path):
    rings = ShmTransport(1, ring_bytes=4096)
    name = rings.name
    import pathlib

    assert pathlib.Path("/dev/shm", name).exists()
    rings.close()
    rings.close()
    rings.unlink()
    rings.unlink()
    assert not pathlib.Path("/dev/shm", name).exists()


# -- ring telemetry -----------------------------------------------------------
def chatter(ctx):
    got = []
    mb = ctx.mailbox(recv=lambda m: got.append(m))
    n = ctx.nranks
    for i in range(25):
        yield from mb.send((ctx.rank * 5 + i * 3) % n, (ctx.rank, i))
    yield from mb.wait_empty()
    return sorted(got)


def test_ring_stats_count_pushes_pops_highwater_and_spills():
    shm = ShmTransport(1, ring_bytes=4096)
    ring = shm.to_worker[0]
    try:
        payload = b"x" * 100
        assert ring.try_push(payload) is not None
        st = ring.stats
        assert st.pushes == 1
        assert st.bytes_pushed == 116  # 16-byte record header + payload
        assert st.high_water == 116
        # A push that cannot fit is refused and counted as a spill.
        assert ring.try_push(b"y" * 8000) is None
        assert st.spills == 1
        assert st.pushes == 1
        view = ring.begin_pop()
        assert bytes(view) == payload
        view.release()
        ring.commit_pop()
        assert st.pops == 1
        assert st.bytes_popped == 116
        assert ring.used == 0
        assert st.high_water == 116  # peak, not current
    finally:
        shm.close()
        shm.unlink()


def test_ring_stats_survive_the_run():
    engine = PdesWorld(8, scheme="nlnr", seed=1, cores_per_node=2, workers=2)
    engine.run(chatter)
    stats = engine.ring_stats
    assert stats is not None
    assert len(stats["to_worker"]) == 2
    assert sum(s["pushes"] for s in stats["to_worker"]) > 0
    assert sum(s["pops"] for s in stats["from_worker"]) > 0


def test_stall_note_names_the_congested_ring():
    engine = PdesWorld(
        8, scheme="nlnr", seed=1, cores_per_node=2, workers=2
    )
    shm = ShmTransport(2, ring_bytes=4096)
    engine._rings = shm
    try:
        # Prime partition 1's import ring with an undrained record and a
        # recorded spill, as a mid-window stall would leave it.
        assert shm.to_worker[1].try_push(b"z" * 64) is not None
        shm.to_worker[1].stats.spills = 3
        note = engine._ring_stall_note([1])
        assert "partition 1 import ring" in note
        assert "3 spill(s)" in note
        assert "4096" in note
        # A quiet partition contributes nothing.
        assert engine._ring_stall_note([0]) == ""
    finally:
        engine._rings = None
        shm.close()
        shm.unlink()
