"""Transport and window-batching differentials (satellite: differential).

The shm-ring transport and the window-batch horizons are pure
mechanism: every (transport, K) combination must reproduce the serial
run bit for bit, window batching must actually collapse barrier rounds
on quiet workloads, and a worker that dies holding encoded exports in
its ring must have that traffic drained and named in the error -- not
silently dropped or misattributed as a stall.
"""

import os

import pytest

from repro.core.context import YgmWorld
from repro.pdes import (
    PdesError,
    PdesStallError,
    PdesWorld,
    ShmTransport,
    assert_equivalent,
)
from repro.pdes.rings import send_batch


def chatter(ctx):
    got = []
    mb = ctx.mailbox(recv=lambda m: got.append(m))
    n = ctx.nranks
    for i in range(25):
        yield from mb.send((ctx.rank * 5 + i * 3) % n, (ctx.rank, i))
    yield from mb.wait_empty()
    return sorted(got)


@pytest.mark.parametrize("window_batch", [1, 0, 4], ids=["k1", "adaptive", "k4"])
@pytest.mark.parametrize("transport", ["shm", "pipe"])
def test_every_transport_and_batching_mode_is_bit_identical(
    transport, window_batch
):
    serial = YgmWorld(8, scheme="nlnr", seed=1, cores_per_node=2).run(chatter)
    engine = PdesWorld(
        8, scheme="nlnr", seed=1, cores_per_node=2, workers=4,
        transport=transport, window_batch=window_batch,
    )
    parallel = engine.run(chatter)
    assert_equivalent(parallel, serial)
    assert engine.exported_packets > 0


def test_transport_env_variable_selects_the_default(monkeypatch):
    monkeypatch.setenv("PDES_TRANSPORT", "pipe")
    assert PdesWorld(4, workers=2).transport == "pipe"
    monkeypatch.setenv("PDES_TRANSPORT", "shm")
    assert PdesWorld(4, workers=2).transport == "shm"
    monkeypatch.setenv("PDES_TRANSPORT", "smoke-signals")
    with pytest.raises(PdesError, match="unknown PDES transport"):
        PdesWorld(4, workers=2)


def bursty(ctx):
    # Every rank fires a cross-partition burst of ~1.5 KiB payloads in
    # one window: far more than a 4 KiB ring can hold.
    got = []
    mb = ctx.mailbox(recv=lambda m: got.append(m))
    n = ctx.nranks
    for i in range(8):
        yield from mb.send((ctx.rank + n // 2) % n, bytes([i]) * 1500)
    yield from mb.wait_empty()
    return sorted(got)


def test_tiny_ring_spills_but_stays_bit_identical():
    serial = YgmWorld(8, scheme="nlnr", seed=1, cores_per_node=2).run(bursty)
    engine = PdesWorld(
        8, scheme="nlnr", seed=1, cores_per_node=2, workers=2,
        transport="shm", ring_bytes=4096,  # far below one window's traffic
    )
    parallel = engine.run(bursty)
    assert_equivalent(parallel, serial)
    assert engine.spilled_batches > 0  # the spill path truly ran


def make_quiet_tail(dt):
    # Rank 0 ticks through 60 pure-local timer events spaced just over
    # one lookahead apart; no rank ever sends.  Every window is
    # export-free, so under K = 1 each event needs its own barrier
    # round while batched horizons may legally cover K windows at once.
    def quiet_tail(ctx):
        if ctx.rank == 0:
            for _ in range(60):
                yield ctx.sim.timeout(dt)
        return ctx.rank

    return quiet_tail


@pytest.mark.parametrize("window_batch", [8, 0], ids=["k8", "adaptive"])
def test_window_batching_collapses_rounds_on_quiet_workloads(window_batch):
    lookahead = PdesWorld(4, cores_per_node=1, workers=2).lookahead
    quiet_tail = make_quiet_tail(1.01 * lookahead)
    serial = YgmWorld(4, scheme="nlnr", seed=0, cores_per_node=1).run(quiet_tail)

    def rounds(k):
        engine = PdesWorld(
            4, scheme="nlnr", seed=0, cores_per_node=1, workers=2,
            window_batch=k,
        )
        assert_equivalent(engine.run(quiet_tail), serial)
        return engine.rounds

    baseline = rounds(1)
    batched = rounds(window_batch)
    assert batched < baseline / 2  # same result, far fewer barriers


def test_adaptive_k_grows_on_quiet_workloads():
    engine = PdesWorld(4, cores_per_node=1, workers=2, window_batch=0)
    engine.run(make_quiet_tail(1.01 * engine.lookahead))
    assert engine.max_window_batch > 1


# -- death attribution -------------------------------------------------------
def _exports(n=3):
    import numpy as np

    from repro.core.coalescing import P2PColumns
    from repro.mpi.envelope import Packet

    out = []
    for i in range(n):
        cols = P2PColumns(
            dests=np.array([1], dtype=np.int64),
            payloads=np.array([i], dtype=object),
            nbytes=np.array([8], dtype=np.int64),
        )
        pkt = Packet(src=0, dst=1, ctx=0, kind=("ygm", 1, "app"), tag=0,
                     payload=[cols], nbytes=cols.wire_bytes)
        out.append((float(i), 0, 1, pkt.nbytes, pkt))
    return out


@pytest.fixture
def engine_with_rings():
    engine = PdesWorld(4, cores_per_node=1, workers=2)
    engine._rings = ShmTransport(2, ring_bytes=8192)
    try:
        yield engine
    finally:
        engine._teardown_rings()


def test_dead_worker_ring_batches_are_drained_and_counted(engine_with_rings):
    engine = engine_with_rings
    ring = engine._rings.from_worker[1]
    send_batch(ring, _exports(3), bytearray())
    send_batch(ring, _exports(2), bytearray())
    note = engine._ring_attribution([1])
    assert "partition 1 left 2 undelivered export batch(es)" in note
    assert "(5 message(s))" in note
    assert ring.used == 0  # drained, not left to leak into a reuse


def test_dead_worker_partial_frame_is_reported_as_partial(engine_with_rings):
    engine = engine_with_rings
    ring = engine._rings.from_worker[0]
    # A producer that died mid-write: bytes present, frame incomplete.
    ring._write(0, b"\x00" * 10)
    ring._store(0, 10)
    note = engine._ring_attribution([0])
    assert "partition 0 left 10 unread byte(s) (partial batch)" in note


def test_dead_worker_corrupt_batch_is_reported_as_corrupt(engine_with_rings):
    engine = engine_with_rings
    ring = engine._rings.from_worker[1]
    ring.try_push(b"\xff\xfe definitely not a batch")
    note = engine._ring_attribution([1])
    assert "partition 1 left a corrupt batch" in note


def test_clean_rings_add_no_attribution(engine_with_rings):
    assert engine_with_rings._ring_attribution([0, 1]) == ""


def test_mid_run_death_error_names_the_partition_not_a_stall():
    # Integration: a worker dying outright mid-window must produce the
    # EOF-death diagnosis (with any ring attribution appended), and
    # must NOT be misreported as a PdesStallError even with a long
    # timeout still pending.
    def rank_main(ctx):
        if ctx.rank == 3:
            os._exit(13)
        return ctx.rank
        yield

    engine = PdesWorld(4, cores_per_node=1, workers=2, window_timeout=300.0)
    with pytest.raises(PdesError) as ei:
        engine.run(rank_main)
    assert not isinstance(ei.value, PdesStallError)
    msg = str(ei.value)
    assert "exited without a report" in msg
    assert "partition(s) [1]" in msg
