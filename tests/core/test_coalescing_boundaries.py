"""Coalescing boundary behaviour and exact entries_forwarded accounting.

Regression guard for the PR 1 stats fixes: flush triggering exactly at
the capacity boundary, reentrant posts from delivery callbacks during a
flush, and the transport-entry accounting identity

    entries_sent = injected_remote_messages + entries_forwarded
    entries_received = entries_sent

where the expected values are derived independently by walking each
message's routing path hop by hop.
"""

import numpy as np
import pytest

from repro import RecordSpec, YgmWorld
from repro.machine import small

SPEC = RecordSpec("cb", [("src", "u8"), ("val", "i8")])
CAP = 8


def _observe_batch_flush(n_records):
    """Send one batch of ``n_records`` and report (queued, flushes) right
    after the send returns (before wait_empty flushes the remainder)."""

    def rank_main(ctx):
        mb = ctx.mailbox(recv_batch=lambda b: None, capacity=CAP)
        observed = {}
        if ctx.rank == 0:
            vals = np.arange(n_records, dtype=np.int64)
            batch = SPEC.build(
                src=np.zeros(n_records, dtype=np.uint64), val=vals
            )
            # Spread over every other rank; capacity counts the *total*
            # queued across per-hop buffers, not any single buffer.
            dests = 1 + vals % (ctx.nranks - 1)
            yield from mb.send_batch(dests, batch, spec=SPEC)
            observed = {"queued": mb.queued, "flushes": mb.stats.flushes}
        yield from mb.wait_empty()
        return observed

    res = YgmWorld(small(), scheme="noroute", mailbox_capacity=CAP).run(
        rank_main
    )
    return res.values[0], res


def test_batch_one_under_capacity_does_not_flush():
    obs, res = _observe_batch_flush(CAP - 1)
    assert obs == {"queued": CAP - 1, "flushes": 0}
    assert res.mailbox_stats.app_messages_delivered == CAP - 1


def test_batch_exactly_at_capacity_flushes():
    obs, res = _observe_batch_flush(CAP)
    assert obs == {"queued": 0, "flushes": 1}
    assert res.mailbox_stats.app_messages_delivered == CAP


def test_batch_one_over_capacity_flushes_everything():
    obs, res = _observe_batch_flush(CAP + 1)
    assert obs == {"queued": 0, "flushes": 1}
    assert res.mailbox_stats.app_messages_delivered == CAP + 1


def _path_len(scheme, src: int, dest: int) -> int:
    hops, cur = 0, src
    while cur != dest:
        cur = int(scheme.hop_table(cur)[dest])
        hops += 1
        assert hops <= 8, "routing loop"
    return hops


@pytest.mark.parametrize(
    "scheme", ["noroute", "node_local", "node_remote", "nlnr"]
)
def test_reentrant_echo_keeps_entry_accounting_exact(scheme):
    """Pings answered by echoes posted from the delivery callback (i.e.
    while the receiving rank may be mid-flush/progress); the hop-exact
    accounting identity must survive the reentrancy."""
    n_pings = 6

    def rank_main(ctx):
        got = []

        def on_recv(msg):
            kind, src, i = msg
            got.append((kind, src, i))
            if kind == "ping":
                mb.post(src, ("echo", ctx.rank, i))  # reentrant post

        mb = ctx.mailbox(recv=on_recv, capacity=3)
        for i in range(n_pings):
            dest = (ctx.rank + 1 + i) % ctx.nranks
            yield from mb.send(dest, ("ping", ctx.rank, i))
        yield from mb.wait_empty()
        return sorted(got)

    world = YgmWorld(small(), scheme=scheme, mailbox_capacity=3)
    res = world.run(rank_main)
    nranks = world.nranks

    # Independently derive every posted message and walk its route.
    messages = []  # (src, dest)
    for rank in range(nranks):
        for i in range(n_pings):
            dest = (rank + 1 + i) % nranks
            messages.append((rank, dest))
            messages.append((dest, rank))  # the echo
    remote = [(s, d) for s, d in messages if s != d]
    expected_sent = sum(_path_len(world.scheme, s, d) for s, d in remote)
    expected_forwarded = expected_sent - len(remote)

    stats = res.mailbox_stats
    assert stats.app_messages_sent == len(messages)
    assert stats.app_messages_delivered == len(messages)
    assert stats.entries_received == stats.entries_sent
    assert stats.entries_sent == expected_sent
    assert stats.entries_forwarded == expected_forwarded

    # And every rank saw exactly its pings + echoes.
    for rank, got in enumerate(res.values):
        expected = sorted(
            [("ping", s, i)
             for s in range(nranks)
             for i in range(n_pings) if (s + 1 + i) % nranks == rank]
            + [("echo", (rank + 1 + i) % nranks, i) for i in range(n_pings)]
        )
        assert got == expected


def test_reentrant_batch_post_from_batch_callback():
    """recv_batch callbacks that immediately post_batch replies, sized to
    land exactly on the capacity boundary at the replier."""
    def rank_main(ctx):
        received = []

        def on_batch(batch):
            srcs = batch["src"].astype(np.int64)
            vals = batch["val"]
            replies = vals < 0  # only first-generation records get replies
            received.extend(np.abs(vals).tolist())
            if replies.any():
                out = SPEC.build(
                    src=np.full(int(replies.sum()), ctx.rank, dtype=np.uint64),
                    val=np.abs(vals[replies]),
                )
                mb.post_batch(srcs[replies], out, spec=SPEC)

        mb = ctx.mailbox(recv_batch=on_batch, capacity=CAP)
        vals = -np.arange(1, CAP + 1, dtype=np.int64)  # exactly capacity
        dests = np.full(CAP, (ctx.rank + 1) % ctx.nranks, dtype=np.int64)
        batch = SPEC.build(src=np.full(CAP, ctx.rank, dtype=np.uint64), val=vals)
        yield from mb.send_batch(dests, batch, spec=SPEC)
        yield from mb.wait_empty()
        return sorted(received)

    world = YgmWorld(small(), scheme="nlnr", mailbox_capacity=CAP)
    res = world.run(rank_main)
    expected = sorted(list(range(1, CAP + 1)) * 2)  # originals + replies
    assert res.values == [expected] * world.nranks
    stats = res.mailbox_stats
    assert stats.app_messages_sent == stats.app_messages_delivered
    assert stats.entries_sent == stats.entries_received
