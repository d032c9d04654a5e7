"""One copy of each in-flight record.

``send*`` are plain functions: they post, then return what the caller
drives with ``yield from`` (the communication context at capacity, else
``()``), so no suspended frame of theirs keeps the caller's arrays.
Record batches carry their destinations in the route table's key dtype
from the range check to delivery.
"""

import gc
import weakref

import numpy as np
import pytest

from repro import RecordSpec, YgmWorld
from repro.core.mailbox import Mailbox
from repro.core.routing import SCHEMES
from repro.core.routing.combiner import Combiner
from repro.machine import small

SPEC = RecordSpec("one_copy", [("v", "u8"), ("w", "u8")])
MIN_W = Combiner("min_w", key_fields=("v",), reduce_fields={"w": "min"})


def make_world(nodes, cores, scheme="nlnr", capacity=2**14):
    return YgmWorld(
        small(nodes=nodes, cores_per_node=cores), scheme=scheme, seed=0,
        mailbox_capacity=capacity,
    )


# ------------------------------------------------------- the send contract
def test_send_below_capacity_has_posted_and_returns_empty():
    """A forgotten ``yield from`` no longer drops the message."""

    def rank_main(ctx):
        got = []
        mb = ctx.mailbox(recv=got.append, recv_batch=got.extend, capacity=100)
        if ctx.rank == 0:
            ret = mb.send(1, "scalar")
            assert mb.queued == 1 and tuple(ret) == ()
            ret = mb.send_many([1, 1], ["a", "b"])
            assert mb.queued == 3 and tuple(ret) == ()
            ret = mb.send_batch(np.array([1]), SPEC.zeros(1))
            assert mb.queued == 4 and tuple(ret) == ()
            ret = mb.send_bcast("all")
            assert mb.queued == 4 + ctx.nranks - 1 and tuple(ret) == ()
        yield from mb.wait_empty()
        return [g if isinstance(g, str) else int(g["v"]) for g in got]

    res = make_world(1, 2).run(rank_main)
    assert res.values == [[], ["scalar", "a", "b", 0, "all"]]


def test_send_at_capacity_returns_the_communication_context():
    def rank_main(ctx):
        got = []
        mb = ctx.mailbox(recv=got.append, capacity=2)
        if ctx.rank == 0:
            assert tuple(mb.send(1, "a")) == ()
            ret = mb.send(1, "b")
            assert ret != () and mb.queued == 2 and mb.stats.flushes == 0
            yield from ret
            assert mb.queued == 0 and mb.stats.flushes == 1
        yield from mb.wait_empty()
        return got

    res = make_world(1, 2).run(rank_main)
    assert res.values == [[], ["a", "b"]]


@pytest.mark.parametrize("scheme", ["noroute", "nlnr"])
def test_caller_arrays_are_collectable_once_send_returns(scheme):
    """At capacity ``send_batch``/``send_many`` return the communication
    context, and it does not keep the caller's arrays: the mailbox holds
    its own copy of every record."""

    def rank_main(ctx):
        got = []
        mb = ctx.mailbox(recv=got.append, recv_batch=got.extend, capacity=4)
        dests = np.arange(16) % ctx.nranks
        batch = SPEC.build(v=np.arange(16, dtype="u8"), w=np.ones(16, dtype="u8"))
        alive = [weakref.ref(dests), weakref.ref(batch)]
        sent = mb.send_batch(dests, batch, spec=SPEC)
        del dests, batch
        gc.collect()
        assert [ref() for ref in alive] == [None, None]
        yield from sent

        dests = np.arange(8) % ctx.nranks
        sizes = np.full(8, 16)
        alive = [weakref.ref(dests), weakref.ref(sizes)]
        sent = mb.send_many(dests, list(range(8)), nbytes=sizes)
        del dests, sizes
        gc.collect()
        assert [ref() for ref in alive] == [None, None]
        yield from sent
        yield from mb.wait_empty()
        return len(got)

    res = make_world(2, 2, scheme).run(rank_main)
    assert sum(res.values) == 4 * (16 + 8)


# ------------------------------------------------ the destination column
@pytest.mark.parametrize("combiner", [None, MIN_W])
@pytest.mark.parametrize("scheme", list(SCHEMES))
@pytest.mark.parametrize("nodes,cores,key", [(2, 4, np.uint8), (65, 4, np.uint16)])
def test_in_flight_batch_dests_have_the_key_dtype(
    monkeypatch, scheme, combiner, nodes, cores, key
):
    """Every record batch on the wire -- injected or re-binned at an
    intermediary, combined or not -- carries ``uint8`` destinations up to
    256 ranks and ``uint16`` beyond."""
    seen = []
    send_packet = Mailbox._send_packet

    def spy(self, hop, entries, *args, **kwargs):
        seen.extend(e.dests.dtype for e in entries if e.kind == "batch")
        return send_packet(self, hop, entries, *args, **kwargs)

    monkeypatch.setattr(Mailbox, "_send_packet", spy)

    def rank_main(ctx):
        got = []
        mb = ctx.mailbox(recv_batch=got.extend, combiner=combiner)
        if ctx.rank in (0, 5):
            n = 3 * ctx.nranks
            dests = (np.arange(n) * 7 + ctx.rank) % ctx.nranks
            batch = SPEC.build(v=dests.astype("u8"), w=np.arange(n, dtype="u8"))
            yield from mb.send_batch(dests, batch, spec=SPEC)
        yield from mb.wait_empty()
        assert all(int(r["v"]) == ctx.rank for r in got)
        return len(got)

    res = make_world(nodes, cores, scheme).run(rank_main)
    assert sum(res.values) > 0
    assert seen and set(seen) == {np.dtype(key)}


@pytest.mark.parametrize("method", ["post_batch", "send_batch"])
def test_out_of_range_batch_dests_raise_and_never_wrap(method):
    """The range check runs before the narrowing: on 128 ranks the key
    dtype is ``uint8``, where 256 would wrap to rank 0 and -1 to 255."""

    def rank_main(ctx):
        mb = ctx.mailbox(recv_batch=lambda b: None)
        if ctx.rank == 0:
            for bad in (ctx.nranks, 255, 256, -1):
                with pytest.raises(ValueError, match="out of range"):
                    getattr(mb, method)(np.array([1, bad]), SPEC.zeros(2))
            assert mb.stats.app_messages_sent == 0 and mb.queued == 0
        yield from mb.wait_empty()
        return True

    res = make_world(32, 4, "noroute").run(rank_main)
    assert all(res.values)
