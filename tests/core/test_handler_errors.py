"""A receive callback that raises: the error is not lost, no state leaks.

The exception escapes the rank's process, which the kernel records as
that rank's value (the contract ``tests/pdes/test_engine.py`` pins for
serial and partitioned runs alike).  An entry delivers what ends here
before it queues its forwards, so the entry whose callback raises queues
none of its forwards, and a later ``post*`` queues only its own message.

In the first three tests the sender only flushes and the receiver only
polls: no rank waits in ``wait_empty`` on the one that dies, so
``world.run`` returns.  When a survivor does wait on it, the run ends in
a deadlock chained to the failure (the fourth test).

A delivery the mailbox has no callback for raises before it leaves any
trace: no delivered count, no handler cost, no profiler row (the last
test, one case per delivery site).
"""

import numpy as np
import pytest

from repro import YgmWorld
from repro.machine import small
from repro.sim import DeadlockError
from repro.trace import Tracer

#: The handler raises on its K-th message.
K = 3


class Boom(Exception):
    pass


def _raise_on_kth(got):
    def on_recv(v):
        got.append(v)
        if len(got) == K:
            raise Boom(v)

    return on_recv


def _receive_one_packet(ctx, mb):
    while not mb.has_incoming:
        yield ctx.sim.timeout(1e-6)
    yield from mb.progress()


def _run(scheme, rank_main, nodes, cores):
    world = YgmWorld(small(nodes=nodes, cores_per_node=cores), scheme=scheme)
    return world.run(rank_main)


def test_error_in_all_terminal_run_surfaces():
    got = []

    def rank_main(ctx):
        mb = ctx.mailbox(recv=_raise_on_kth(got))
        if ctx.rank == 0:
            for i in range(2 * K):
                yield from mb.send(1, ("m", i))
            yield from mb.flush()
        else:
            yield from _receive_one_packet(ctx, mb)

    res = _run("noroute", rank_main, nodes=2, cores=1)
    assert isinstance(res.values[1], Boom)
    assert got == [("m", i) for i in range(K)]  # one run, cut at message K


def test_error_in_mixed_run_surfaces_and_drops_deferred_forwards():
    """node_remote on 2x2 relays 0 -> 3 through rank 2, so a packet that
    interleaves messages for 2 and for 3 is a mixed run at rank 2.  The
    run's forwards would be queued after its deliveries: none are."""
    got = []
    boxes = {}

    def rank_main(ctx):
        mb = boxes[ctx.rank] = ctx.mailbox(recv=_raise_on_kth(got))
        if ctx.rank == 0:
            for i in range(2 * K):
                yield from mb.send(3, ("fwd", i))
                yield from mb.send(2, ("here", i))
            yield from mb.flush()
        elif ctx.rank == 2:
            yield from _receive_one_packet(ctx, mb)

    res = _run("node_remote", rank_main, nodes=2, cores=2)
    assert isinstance(res.values[2], Boom)
    assert got == [("here", i) for i in range(K)]
    relay = boxes[2]
    assert relay.stats.entries_received == 4 * K  # it really was one mixed run
    assert relay.stats.entries_forwarded == 0
    assert relay.queued == 0
    # A later post must not resurrect the dead packet's forwards.
    relay.post(3, "after")
    assert relay.queued == 1
    entries, _, count = relay._buffers[3].take()
    assert count == 1 and [e.payloads.tolist() for e in entries] == [["after"]]


def test_error_in_recv_batch_surfaces():
    def on_batch(batch):
        raise Boom(len(batch))

    def rank_main(ctx):
        mb = ctx.mailbox(recv_batch=on_batch)
        if ctx.rank == 0:
            batch = np.zeros(2 * K, dtype=[("v", np.int64)])
            yield from mb.send_batch(np.ones(2 * K, dtype=np.int64), batch)
            yield from mb.flush()
        else:
            yield from _receive_one_packet(ctx, mb)

    res = _run("noroute", rank_main, nodes=2, cores=1)
    assert isinstance(res.values[1], Boom)
    assert res.values[1].args == (2 * K,)


def test_error_in_recv_batch_of_a_multi_entry_packet_keeps_earlier_forwards():
    """Rank 0's four ``post_batch`` calls each mix records for ranks 2 and
    3, and node_remote on 2x2 relays both through rank 2: one packet of
    four mixed batch entries.  ``recv_batch`` raises on the third entry.
    The forwards of the first two entries are queued, the third's and
    the fourth's are not, and a later post queues only its own message."""
    entries = 4
    dests = np.array([2, 3, 3, 2, 3])
    boxes = {}
    calls = []

    def on_batch(batch):
        calls.append(batch["i"].tolist())
        if len(calls) == 3:
            raise Boom(len(calls))

    def rank_main(ctx):
        mb = boxes[ctx.rank] = ctx.mailbox(recv=lambda v: None, recv_batch=on_batch)
        if ctx.rank == 0:
            assert [ctx.scheme.hop_list(0)[d] for d in (2, 3)] == [2, 2]
            for e in range(entries):
                batch = np.zeros(len(dests), dtype=[("i", np.int64)])
                batch["i"] = 100 * e + np.arange(len(dests))
                mb.post_batch(dests, batch)
            yield from mb.flush()
        elif ctx.rank == 2:
            try:
                yield from _receive_one_packet(ctx, mb)
            except Boom:
                boxes["error"] = True

    _run("node_remote", rank_main, nodes=2, cores=2)
    assert boxes["error"]
    assert calls == [[100 * e + 0, 100 * e + 3] for e in range(3)]
    relay = boxes[2]
    assert relay.stats.entries_forwarded == 2 * 3
    forwarded = [e.batch["i"].tolist() for e in relay._buffers[3].entries]
    assert forwarded == [[1, 2, 4], [101, 102, 104]]
    assert relay.queued == 6
    relay.post(3, "after")  # one message, nothing re-binned with it
    assert relay.queued == 7
    entries, _, count = relay._buffers[3].take()
    assert count == 7
    assert [e.kind for e in entries] == ["batch", "batch", "p2p_cols"]
    assert entries[-1].payloads.tolist() == ["after"]


def test_error_while_peers_wait_empty_chains_the_deadlock():
    """Rank 1 dies inside ``wait_empty``; rank 0, still in the termination
    protocol, waits for it forever.  The deadlock must name rank 1 and
    carry its exception as the cause instead of losing it."""
    got = []

    def rank_main(ctx):
        mb = ctx.mailbox(recv=_raise_on_kth(got))
        if ctx.rank == 0:
            for i in range(2 * K):
                yield from mb.send(1, ("m", i))
        yield from mb.wait_empty()

    with pytest.raises(DeadlockError) as ei:
        _run("noroute", rank_main, nodes=2, cores=1)
    err = ei.value
    assert isinstance(err.__cause__, Boom)
    assert err.__cause__.args == (("m", K - 1),)
    assert "rank 1 failed at t=" in str(err)
    assert f"deadlocked at t={err.now!r}" in str(err)


# ------------------------------------------- a delivery with no callback
def _no_callback_main(case, boxes):
    """Rank 2 receives something its mailbox has no callback for."""

    def ignore(_msg):
        pass

    callbacks = {
        "self_scalar": dict(recv_batch=ignore),
        "self_many": dict(recv_batch=ignore),
        "self_batch": dict(recv_bcast=ignore),
        "p2p_run": dict(recv_batch=ignore),
        "mixed_run": dict(recv_batch=ignore),
        "batch": dict(recv_bcast=ignore),
        "bcast": dict(recv_batch=ignore),
    }[case]

    def rank_main(ctx):
        mb = boxes[ctx.rank] = ctx.mailbox(**callbacks)
        if case.startswith("self_") and ctx.rank != 2:
            return
        if case == "self_scalar":
            mb.post(2, "x")
        elif case == "self_many":
            mb.post_many([2, 2], ["x", "y"])
        elif case == "self_batch":
            mb.post_batch(np.full(2, 2), np.zeros(2, dtype="u8"))
        elif ctx.rank == 0:
            if case == "p2p_run":
                mb.post(2, "x")
            elif case == "mixed_run":
                mb.post(3, "fwd")  # relayed through rank 2
                mb.post(2, "here")
            elif case == "batch":
                mb.post_batch(np.full(2, 2), np.zeros(2, dtype="u8"))
            else:
                mb.post_bcast("b")
            yield from mb.flush()
        elif ctx.rank == 2:
            yield from _receive_one_packet(ctx, mb)

    return rank_main


@pytest.mark.parametrize(
    "case",
    ["self_scalar", "self_many", "self_batch", "p2p_run", "mixed_run",
     "batch", "bcast"],
)
def test_delivery_without_a_callback_leaves_no_trace(case):
    """The missing callback raises before the delivery is counted, its
    handler cost accrues or the profiler logs it."""
    boxes = {}
    tracer = Tracer(categories=(), profile=True)
    # node_remote on 2x2 relays 0 -> 3 through rank 2 (the mixed run).
    world = YgmWorld(
        small(nodes=2, cores_per_node=2), scheme="node_remote", tracer=tracer
    )
    res = world.run(_no_callback_main(case, boxes))
    err = res.values[2]
    assert isinstance(err, RuntimeError), err
    assert "has no" in str(err)
    mb = boxes[2]
    if case == "mixed_run":
        assert mb.stats.entries_received == 2  # one run: "fwd" and "here"
    assert mb.stats.app_messages_delivered == 0
    assert mb.stats.bcast_deliveries == 0
    assert mb._pending_handle_cost == 0
    assert tracer.lineage.deliveries == []
    assert tracer.lineage.batch_deliveries == []
