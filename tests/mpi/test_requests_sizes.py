"""Tests for request handles, payload sizing, and matching-engine details."""

import numpy as np
import pytest

from repro.machine import small
from repro.mpi import ANY_SOURCE, ANY_TAG, HEADER_BYTES, World, payload_nbytes
from repro.serde import packed_size


# --------------------------------------------------------------- sizing
def test_payload_nbytes_explicit_wins():
    assert payload_nbytes("whatever", 123) == 123


def test_payload_nbytes_negative_rejected():
    with pytest.raises(ValueError):
        payload_nbytes("x", -1)


def test_payload_nbytes_ndarray_exact():
    arr = np.zeros((3, 4), dtype="f8")
    assert payload_nbytes(arr) == 96


def test_payload_nbytes_bytes_like():
    assert payload_nbytes(b"12345") == 5
    assert payload_nbytes(bytearray(7)) == 7
    assert payload_nbytes(memoryview(b"123")) == 3


def test_payload_nbytes_objects_use_serde():
    obj = {"k": [1, 2, 3]}
    assert payload_nbytes(obj) == packed_size(obj)


def test_payload_nbytes_subclasses_size_like_their_base():
    # Exact-type dispatch misses a subclass; the isinstance checks behind
    # it must still charge raw buffers their length, not a serde framing.
    class Blob(bytes):
        pass

    class Buf(bytearray):
        pass

    class Grid(np.ndarray):
        pass

    assert payload_nbytes(Blob(b"12345")) == 5
    assert payload_nbytes(Buf(7)) == 7
    assert payload_nbytes(np.zeros((3, 4), dtype="f8").view(Grid)) == 96
    assert payload_nbytes(np.zeros((4, 4), dtype="f8")[::2, ::2]) == 32


def test_payload_nbytes_bool_is_not_an_int():
    assert payload_nbytes(True) == payload_nbytes(False) == 1
    assert payload_nbytes(1) == 2


def test_payload_nbytes_explicit_zero_wins():
    assert payload_nbytes({"k": [1, 2, 3]}, 0) == 0
    assert payload_nbytes(np.zeros(8), nbytes=0) == 0


# -------------------------------------------------------------- requests
def test_irecv_cancel_releases_matching_slot():
    def main(ctx):
        if ctx.rank == 0:
            req = ctx.comm.irecv(source=1, tag="never")
            req.cancel()
            # A message with a different tag must go to the later recv,
            # not be stolen by the cancelled posting.
            msg = yield from ctx.comm.recv(source=1, tag="real")
            return msg.payload
        elif ctx.rank == 1:
            yield from ctx.comm.send(0, "hello", tag="real")
        return None

    res = World(small(nodes=2, cores_per_node=1)).run(main)
    assert res.values[0] == "hello"


def test_request_test_and_result():
    def main(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send(1, 42, tag=0)
        elif ctx.rank == 1:
            req = ctx.comm.irecv(source=0, tag=0)
            assert not req.test()
            msg = yield from req.wait()
            assert req.test()
            assert req.result().payload == 42
            return msg.payload
        return None

    res = World(small(nodes=1, cores_per_node=2)).run(main)
    assert res.values[1] == 42


def test_send_request_completes_before_delivery():
    def main(ctx):
        if ctx.rank == 0:
            req = ctx.comm.isend(1, b"x" * 65536)
            yield from req.wait()
            return ctx.sim.now
        elif ctx.rank == 1:
            msg = yield from ctx.comm.recv(source=0)
            return ctx.sim.now
        return None

    res = World(small(nodes=2, cores_per_node=1)).run(main)
    assert res.values[0] < res.values[1]


# -------------------------------------------------------- matching engine
def test_unexpected_queue_preserved_across_subscribe():
    """Packets arriving before an inbox subscription are re-steered: every
    subscribed kind, in arrival order, into the one store.  (A fast
    peer's termination packet can beat a slow rank's mailbox; leaving it
    unexpected deadlocks the termination protocol.)"""
    from repro.mpi.envelope import Packet
    from repro.mpi.matching import Inbox
    from repro.sim import Simulator

    app, term = ("ygm", 1, "app"), ("ygm", 1, "term")

    def packet(kind, payload, ctx=0):
        return Packet(src=1, dst=0, ctx=ctx, kind=kind, tag=0, payload=payload, nbytes=8)

    for first, second in ((app, term), (term, app)):
        sim = Simulator()
        inbox = Inbox(sim, rank=0)
        inbox.deliver(packet(first, "a"))
        inbox.deliver(packet("p2p", "q"))
        inbox.deliver(packet(second, "b"))
        inbox.deliver(packet(app, "other ctx", ctx=1))
        store = inbox.subscribe(0, app, term)
        assert len(store) == 2
        assert [store.try_get().kind for _ in range(2)] == [first, second]
        assert inbox.pending_unexpected == 2  # the p2p and other-ctx packets stay
        assert inbox.probe(0, "p2p").payload == "q"
        assert inbox.probe(1, app).payload == "other ctx"
        # Later arrivals of either kind join the same store.
        inbox.deliver(packet(term, "c"))
        inbox.deliver(packet(app, "d"))
        assert [store.try_get().payload for _ in range(2)] == ["c", "d"]
        assert inbox.pending_unexpected == 2


def test_posted_receive_fifo_when_both_match():
    from repro.mpi.envelope import ANY_SOURCE as ANY_S, ANY_TAG as ANY_T, Packet
    from repro.mpi.matching import Inbox
    from repro.sim import Simulator

    sim = Simulator()
    inbox = Inbox(sim, rank=0)
    first = inbox.post(0, "p2p", ANY_S, ANY_T)
    second = inbox.post(0, "p2p", ANY_S, ANY_T)
    inbox.deliver(Packet(src=1, dst=0, ctx=0, kind="p2p", tag=0, payload="a", nbytes=1))
    assert first.triggered and not second.triggered


def test_probe_does_not_consume():
    from repro.mpi.envelope import Packet
    from repro.mpi.matching import Inbox
    from repro.sim import Simulator

    sim = Simulator()
    inbox = Inbox(sim, rank=0)
    inbox.deliver(Packet(src=1, dst=0, ctx=0, kind="p2p", tag=9, payload="a", nbytes=1))
    assert inbox.probe(0, "p2p", tag=9) is not None
    assert inbox.probe(0, "p2p", tag=9) is not None  # still there
    got = inbox.post(0, "p2p", 1, 9)
    assert got.triggered
    assert inbox.probe(0, "p2p", tag=9) is None
