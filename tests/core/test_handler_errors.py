"""A receive callback that raises: the error is not lost, no state leaks.

The exception escapes the rank's process, which the kernel records as
that rank's value (the contract ``tests/pdes/test_engine.py`` pins for
serial and partitioned runs alike).  A mixed run -- deliveries
interleaved with forwards -- must not leave its deferred forwards
behind for a later ``post*`` to re-bin from the dead packet.

The sender only flushes and the receiver only polls: no rank waits in
``wait_empty`` on the one that dies, so ``world.run`` returns.
"""

import numpy as np

from repro import YgmWorld
from repro.machine import small

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
    interleaves messages for 2 and for 3 is a mixed run at rank 2."""
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
    assert relay._deferred_idx == []
    assert relay._deferred_cols is None
    # A later post must not resurrect the dead packet's forwards.
    relay.post(3, "after")
    assert relay.queued == 1


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
