"""Integration tests for the YGM mailbox across all routing schemes."""

import re

import numpy as np
import pytest

from repro import RecordSpec, YgmWorld
from repro.core.coalescing import P2PColumns
from repro.core.routing import SCHEMES
from repro.machine import small
from repro.mpi.envelope import Packet

ALL_SCHEMES = list(SCHEMES)


def make_world(nodes=2, cores=2, scheme="nlnr", capacity=2**14, seed=0):
    return YgmWorld(
        small(nodes=nodes, cores_per_node=cores),
        scheme=scheme,
        seed=seed,
        mailbox_capacity=capacity,
    )


# --------------------------------------------------------------- delivery
@pytest.mark.parametrize("scheme", ALL_SCHEMES)
@pytest.mark.parametrize("nodes,cores", [(2, 2), (3, 2), (4, 4), (5, 3)])
def test_all_to_all_delivery(scheme, nodes, cores):
    """Every rank sends one tagged message to every rank (self included);
    every message arrives exactly once."""

    def rank_main(ctx):
        got = []
        mb = ctx.mailbox(recv=got.append)
        for dest in range(ctx.nranks):
            yield from mb.send(dest, (ctx.rank, dest))
        yield from mb.wait_empty()
        return sorted(got)

    res = make_world(nodes, cores, scheme).run(rank_main)
    nranks = nodes * cores
    for rank, got in enumerate(res.values):
        assert got == [(src, rank) for src in range(nranks)]


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_capacity_triggers_flush(scheme):
    """With a tiny capacity, messages flow before wait_empty."""

    def rank_main(ctx):
        got = []
        mb = ctx.mailbox(recv=got.append, capacity=4)
        if ctx.rank == 0:
            for i in range(32):
                yield from mb.send(ctx.nranks - 1, i)
            assert mb.stats.flushes >= 32 // 4 - 1
        yield from mb.wait_empty()
        return got

    res = make_world(2, 2, scheme).run(rank_main)
    assert sorted(res.values[-1]) == list(range(32))


@pytest.mark.parametrize("scheme", ["node_local", "node_remote", "nlnr"])
def test_intermediaries_forward(scheme):
    """Cross-node traffic between non-intermediary cores must be routed
    through intermediaries (entries_forwarded > 0 somewhere)."""

    def rank_main(ctx):
        got = []
        mb = ctx.mailbox(recv=got.append)
        if ctx.rank == 1:  # (node 0, core 1)
            # Destination (node 2, core 2): requires forwarding under all
            # three routing schemes.
            yield from mb.send(2 * 4 + 2, "x")
        yield from mb.wait_empty()
        return got

    res = make_world(3, 4, scheme).run(rank_main)
    assert res.values[10] == ["x"]
    assert res.mailbox_stats.entries_forwarded > 0


def test_noroute_never_forwards():
    def rank_main(ctx):
        got = []
        mb = ctx.mailbox(recv=got.append)
        for dest in range(ctx.nranks):
            yield from mb.send(dest, ctx.rank)
        yield from mb.wait_empty()
        return got

    res = make_world(3, 2, "noroute").run(rank_main)
    assert res.mailbox_stats.entries_forwarded == 0


def test_self_send_immediate_and_not_transported():
    def rank_main(ctx):
        got = []
        mb = ctx.mailbox(recv=got.append)
        yield from mb.send(ctx.rank, "self")
        assert got == ["self"]  # delivered synchronously
        yield from mb.wait_empty()
        return got

    res = make_world(2, 2, "nlnr").run(rank_main)
    assert res.mailbox_stats.entries_sent == 0
    assert all(v == ["self"] for v in res.values)


def test_callbacks_can_post_replies():
    """A receive callback spawning messages (data-dependent traffic)."""

    def rank_main(ctx):
        log = []

        def on_recv(msg):  # closes over mb, bound below before any arrival
            kind, src = msg
            log.append(msg)
            if kind == "ping":
                mb.post(src, ("pong", ctx.rank))

        mb = ctx.mailbox(recv=on_recv)
        if ctx.rank == 0:
            for dest in range(1, ctx.nranks):
                yield from mb.send(dest, ("ping", 0))
        yield from mb.wait_empty()
        return sorted(log)

    world = make_world(2, 2, "nlnr")
    res = world.run(rank_main)
    assert res.values[0] == [("pong", r) for r in range(1, 4)]
    for r in range(1, 4):
        assert res.values[r] == [("ping", 0)]


def test_mailbox_requires_callback():
    def rank_main(ctx):
        with pytest.raises(ValueError):
            ctx.mailbox()
        yield ctx.compute(0)
        return True

    res = make_world(1, 1).run(rank_main)
    assert res.values == [True]


def test_bad_destination_rejected():
    def rank_main(ctx):
        mb = ctx.mailbox(recv=lambda m: None)
        with pytest.raises(ValueError):
            mb.post(ctx.nranks, "x")
        with pytest.raises(ValueError):
            mb.post(-1, "x")
        yield from mb.wait_empty()
        return True

    res = make_world(1, 2).run(rank_main)
    assert all(res.values)


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_non_integer_destination_rejected_by_post(scheme):
    """A float rank is a TypeError naming it, raised at the call before
    any counter moves -- self-sends included -- not a deadlock later."""

    def rank_main(ctx):
        got = []
        mb = ctx.mailbox(recv=got.append)
        if ctx.rank == 0:
            for dest in (1.0, 1.5, np.float64(2.0), 0.0):  # 0.0: this rank
                with pytest.raises(TypeError, match=re.escape(repr(dest))):
                    mb.post(dest, "x")
            assert mb.stats.app_messages_sent == 0 and mb.queued == 0 and got == []
        yield from mb.wait_empty()
        return got

    res = make_world(2, 2, scheme).run(rank_main)
    assert res.values == [[]] * 4


REC = np.dtype([("v", "<i8")])


def _post_column(mb, method, dests):
    if method == "post_many":
        mb.post_many(dests, ["x"] * len(dests))
    else:
        mb.post_batch(dests, np.zeros(len(dests), dtype=REC))


@pytest.mark.parametrize("method", ["post_many", "post_batch"])
def test_non_integer_destinations_rejected_by_columns(method):
    """A float in a destination column is a TypeError naming it, not a
    silent truncation to a rank the caller never named."""

    def rank_main(ctx):
        got = []
        mb = ctx.mailbox(recv=got.append, recv_batch=got.extend)
        if ctx.rank == 0:
            for dests, bad in (([1.5], 1.5), (np.array([2.7]), 2.7), ([1, 2.0], 2.0)):
                msg = f"destination {bad!r} is not an integer rank"
                with pytest.raises(TypeError, match=re.escape(msg)):
                    _post_column(mb, method, dests)
            assert mb.stats.app_messages_sent == 0 and mb.queued == 0
        yield from mb.wait_empty()
        return got

    res = make_world(2, 2, "node_remote").run(rank_main)
    assert res.values == [[]] * 4


def test_integer_destinations_of_every_kind_accepted():
    def rank_main(ctx):
        got = []
        mb = ctx.mailbox(recv=got.append, recv_batch=lambda b: got.extend(b["v"]))
        if ctx.rank == 0:
            mb.post(True, "bool")
            mb.post(np.int32(2), "int32")
            mb.post_many(np.array([3], dtype=np.uint8), ["uint8"])
            mb.post_batch(np.array([1], dtype=np.int16), np.ones(1, dtype=REC))
            for method in ("post_many", "post_batch"):  # empty: float64, no-op
                _post_column(mb, method, [])
        yield from mb.wait_empty()
        return got

    res = make_world(2, 2, "node_remote").run(rank_main)
    assert res.values == [[], ["bool", 1], ["int32"], ["uint8"]]
    assert res.mailbox_stats.app_messages_sent == 4


# -------------------------------------------------------------- broadcasts
@pytest.mark.parametrize("scheme", ALL_SCHEMES)
@pytest.mark.parametrize("nodes,cores", [(2, 2), (4, 4), (3, 2)])
def test_bcast_reaches_all_other_ranks(scheme, nodes, cores):
    def rank_main(ctx):
        got = []
        mb = ctx.mailbox(recv=got.append)
        if ctx.rank == 1:
            yield from mb.send_bcast(("hello", ctx.rank))
        yield from mb.wait_empty()
        return got

    res = make_world(nodes, cores, scheme).run(rank_main)
    for rank, got in enumerate(res.values):
        if rank == 1:
            assert got == []
        else:
            assert got == [("hello", 1)]


@pytest.mark.parametrize(
    "scheme,expected_remote",
    [("node_local", "C*(N-1)"), ("node_remote", "N-1"), ("nlnr", "N-1")],
)
def test_bcast_remote_entry_counts(scheme, expected_remote):
    """Section III-C: a broadcast costs C(N-1) remote messages under
    NodeLocal but only N-1 under NodeRemote/NLNR."""
    nodes, cores = 4, 4

    def rank_main(ctx):
        mb = ctx.mailbox(recv=lambda m: None)
        if ctx.rank == 0:
            yield from mb.send_bcast("b")
        yield from mb.wait_empty()
        return None

    res = make_world(nodes, cores, scheme).run(rank_main)
    # Count remote transport entries: every entry sent in a remote packet.
    # We can't see per-entry locality directly, so use packet stats: each
    # bcast entry is alone in its buffer here (single broadcast).
    remote = res.mailbox_stats.remote_packets_sent
    if expected_remote == "C*(N-1)":
        assert remote == cores * (nodes - 1)
    else:
        assert remote == nodes - 1


def test_separate_bcast_callback():
    def rank_main(ctx):
        p2p, bc = [], []
        mb = ctx.mailbox(recv=p2p.append, recv_bcast=bc.append)
        if ctx.rank == 0:
            yield from mb.send_bcast("broadcast")
            yield from mb.send(1, "direct")
        yield from mb.wait_empty()
        return (p2p, bc)

    res = make_world(2, 2, "nlnr").run(rank_main)
    assert res.values[1] == (["direct"], ["broadcast"])
    assert res.values[2] == ([], ["broadcast"])


def test_bcast_counted_in_stats():
    def rank_main(ctx):
        mb = ctx.mailbox(recv=lambda m: None)
        if ctx.rank < 2:
            yield from mb.send_bcast(ctx.rank)
        yield from mb.wait_empty()
        return None

    res = make_world(2, 2, "node_remote").run(rank_main)
    assert res.mailbox_stats.bcasts_initiated == 2
    assert res.mailbox_stats.bcast_deliveries == 2 * 3


# -------------------------------------------------------------- batch path
SPEC = RecordSpec("test", [("dest", "u8"), ("val", "u8")])


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
@pytest.mark.parametrize("nodes,cores", [(2, 2), (4, 4), (3, 2)])
def test_send_batch_all_to_all(scheme, nodes, cores):
    """Vectorized batches: each rank sends k records to every rank."""
    k = 5

    def rank_main(ctx):
        received = []
        mb = ctx.mailbox(recv_batch=lambda batch: received.append(batch.copy()))
        dests = np.repeat(np.arange(ctx.nranks, dtype=np.int64), k)
        batch = SPEC.build(
            dest=dests.astype("u8"),
            val=np.full(len(dests), ctx.rank, dtype="u8"),
        )
        yield from mb.send_batch(dests, batch, spec=SPEC)
        yield from mb.wait_empty()
        if received:
            allrec = np.concatenate(received)
        else:
            allrec = SPEC.empty(0)
        return allrec

    res = make_world(nodes, cores, scheme).run(rank_main)
    nranks = nodes * cores
    for rank, allrec in enumerate(res.values):
        assert len(allrec) == k * nranks
        assert np.all(allrec["dest"] == rank)
        assert sorted(np.bincount(allrec["val"].astype(int), minlength=nranks)) == [k] * nranks


def test_send_batch_validates():
    def rank_main(ctx):
        mb = ctx.mailbox(recv_batch=lambda b: None)
        with pytest.raises(ValueError):
            mb.post_batch(np.array([0, 1]), SPEC.zeros(3))
        with pytest.raises(ValueError):
            mb.post_batch(np.array([99]), SPEC.zeros(1))
        with pytest.raises(TypeError):
            mb.post_batch(np.array([0]), np.zeros(1), spec=SPEC)
        mb.post_batch(np.array([], dtype=np.int64), SPEC.empty(0))  # no-op
        yield from mb.wait_empty()
        return True

    res = make_world(2, 2).run(rank_main)
    assert all(res.values)


def test_batch_without_recv_batch_falls_back_to_scalar():
    def rank_main(ctx):
        got = []
        mb = ctx.mailbox(recv=lambda rec: got.append(int(rec["val"])))
        if ctx.rank == 0:
            dests = np.array([1, 1, 1], dtype=np.int64)
            batch = SPEC.build(dest=dests.astype("u8"), val=np.arange(3, dtype="u8"))
            yield from mb.send_batch(dests, batch)
        yield from mb.wait_empty()
        return sorted(got)

    res = make_world(2, 2, "nlnr").run(rank_main)
    assert res.values[1] == [0, 1, 2]


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
@pytest.mark.parametrize("dests", [[1, 1, 1, 1], [1, 2, 1, 2]])
def test_send_batch_owns_its_columns(scheme, dests):
    """The caller may overwrite its arrays once ``send_batch`` returns.

    When every record shares one next hop no permutation gathers the
    columns, and the mailbox used to queue views of the caller's arrays:
    the records went wherever ``dests`` pointed at flush time, carrying
    whatever ``batch`` held then.
    """

    def rank_main(ctx):
        received = []
        mb = ctx.mailbox(
            recv_batch=lambda batch: received.extend(batch["val"].tolist()),
            capacity=2**20,
        )
        if ctx.rank == 0:
            d = np.array(dests, dtype=np.int64)
            batch = SPEC.build(dest=d.astype("u8"), val=np.arange(4, dtype="u8"))
            yield from mb.send_batch(d, batch)
            batch["val"][:] = 99
            d[:] = 3
        yield from mb.wait_empty()
        return sorted(received)

    res = make_world(2, 2, scheme, capacity=2**20).run(rank_main)
    want = {r: [] for r in range(4)}
    for i, d in enumerate(dests):
        want[d].append(i)
    assert res.values == [want[r] for r in range(4)]


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_send_many_owns_its_columns(scheme):
    """Same contract for ``send_many``: dests and nbytes are the caller's."""

    def rank_main(ctx):
        got = []
        mb = ctx.mailbox(recv=got.append, capacity=2**20)
        if ctx.rank == 0:
            dests = np.array([1, 1], dtype=np.int64)
            sizes = np.array([8, 8], dtype=np.int64)
            yield from mb.send_many(dests, ["a", "b"], nbytes=sizes)
            dests[:] = 3
            sizes[:] = 1 << 20
        yield from mb.wait_empty()
        return got

    res = make_world(2, 2, scheme, capacity=2**20).run(rank_main)
    assert res.values == [[], ["a", "b"], [], []]
    assert res.mailbox_stats.local_bytes_sent < 1 << 20


# ----------------------------------------------------------- wait/test empty
@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_wait_empty_with_no_traffic(scheme):
    def rank_main(ctx):
        mb = ctx.mailbox(recv=lambda m: None)
        yield from mb.wait_empty()
        return True

    res = make_world(2, 2, scheme).run(rank_main)
    assert all(res.values)


def test_wait_empty_straggler():
    """One rank keeps computing long after the others reach wait_empty;
    nobody terminates early and the straggler's messages still arrive."""

    def rank_main(ctx):
        got = []
        mb = ctx.mailbox(recv=got.append)
        if ctx.rank == 0:
            yield ctx.compute(0.5)  # huge in simulated terms
            for dest in range(1, ctx.nranks):
                yield from mb.send(dest, "late")
        yield from mb.wait_empty()
        return (got, ctx.sim.now)

    res = make_world(2, 2, "nlnr").run(rank_main)
    for rank in range(1, 4):
        got, t = res.values[rank]
        assert got == ["late"]
        assert t >= 0.5  # could not exit before the straggler sent


def test_test_empty_polling():
    """TEST_EMPTY-style completion loop (external work queue pattern)."""

    def rank_main(ctx):
        got = []
        mb = ctx.mailbox(recv=got.append)
        if ctx.rank == 0:
            for dest in range(ctx.nranks):
                yield from mb.send(dest, "m")
        polls = 0
        while True:
            done = yield from mb.test_empty()
            if done:
                break
            polls += 1
            yield ctx.compute(1e-6)
        return (got, polls)

    res = make_world(2, 2, "node_remote").run(rank_main)
    for rank in range(4):
        got, _ = res.values[rank]
        assert got == ["m"]


def test_two_wait_empty_epochs():
    """wait_empty must be reusable: two communication phases in one run."""

    def rank_main(ctx):
        got = []
        mb = ctx.mailbox(recv=got.append)
        yield from mb.send((ctx.rank + 1) % ctx.nranks, "first")
        yield from mb.wait_empty()
        first = list(got)
        yield from mb.send((ctx.rank + 2) % ctx.nranks, "second")
        yield from mb.wait_empty()
        return (first, got)

    res = make_world(2, 2, "nlnr").run(rank_main)
    for first, final in res.values:
        assert first == ["first"]
        assert final == ["first", "second"]


def test_test_empty_rearms_for_second_epoch():
    """Regression: test_empty left the detector 'done' forever, so a
    second quiescence epoch returned True immediately and the epoch's
    messages were silently lost."""

    def rank_main(ctx):
        got = []
        mb = ctx.mailbox(recv=got.append)
        for payload in ("first", "second"):
            yield from mb.send((ctx.rank + 1) % ctx.nranks, payload)
            while not (yield from mb.test_empty()):
                yield ctx.compute(1e-6)
        return got

    res = make_world(2, 2, "nlnr").run(rank_main)
    for got in res.values:
        assert got == ["first", "second"]


def test_test_empty_sees_new_traffic_after_quiescence():
    """After a completed epoch, the next test_empty must re-arm and
    report False while fresh traffic is still in flight."""

    def rank_main(ctx):
        got = []
        mb = ctx.mailbox(recv=got.append)
        while not (yield from mb.test_empty()):
            yield ctx.compute(1e-6)
        # Fresh traffic: the very next poll must NOT claim quiescence.
        yield from mb.send((ctx.rank + 1) % ctx.nranks, "late")
        first_poll = yield from mb.test_empty()
        while not (yield from mb.test_empty()):
            yield ctx.compute(1e-6)
        return (first_poll, got)

    res = make_world(2, 2, "node_remote").run(rank_main)
    for first_poll, got in res.values:
        assert first_poll is False
        assert got == ["late"]


# ------------------------------------------------------- forward accounting
def _batch_all_to_all(reentrant):
    """Each rank batch-sends 4 records to every rank; optionally every
    batch delivery posts reentrant self-addressed scalar messages."""

    def rank_main(ctx):
        noise = []

        def on_batch(batch):  # closes over mb, bound below
            if reentrant:
                for _ in range(len(batch)):
                    mb.post(ctx.rank, "echo")

        mb = ctx.mailbox(recv=noise.append, recv_batch=on_batch)
        dests = np.repeat(np.arange(ctx.nranks, dtype=np.int64), 4)
        batch = SPEC.build(dest=dests.astype("u8"), val=dests.astype("u8"))
        yield from mb.send_batch(dests, batch)
        yield from mb.wait_empty()
        return None

    return rank_main


def test_batch_forward_accounting_immune_to_reentrant_posts():
    """Regression: batch-path entries_forwarded was inferred from the
    app_messages_delivered delta, so a receive callback posting
    self-addressed messages made intermediaries under-count forwards."""
    plain = make_world(3, 2, "nlnr").run(_batch_all_to_all(False))
    reent = make_world(3, 2, "nlnr").run(_batch_all_to_all(True))
    forwarded = plain.mailbox_stats.entries_forwarded
    assert forwarded > 0
    assert reent.mailbox_stats.entries_forwarded == forwarded


def test_batch_forwarding_matches_scalar_accounting():
    """Forwarding is a property of the routes, not the send path: the
    same destinations must yield the same entries_forwarded whether sent
    record-at-a-time or as one batch."""

    def scalar_main(ctx):
        mb = ctx.mailbox(recv=lambda m: None)
        for dest in range(ctx.nranks):
            for _ in range(4):
                yield from mb.send(dest, dest)
        yield from mb.wait_empty()
        return None

    for scheme in ("node_local", "node_remote", "nlnr"):
        batch = make_world(3, 2, scheme).run(_batch_all_to_all(False))
        scalar = make_world(3, 2, scheme).run(scalar_main)
        assert (
            batch.mailbox_stats.entries_forwarded
            == scalar.mailbox_stats.entries_forwarded
            > 0
        )


def test_conservation_of_entries():
    """Global transport invariant: entries sent == entries received."""

    def rank_main(ctx):
        mb = ctx.mailbox(recv=lambda m: None)
        rng = ctx.rng
        for _ in range(50):
            dest = int(rng.integers(ctx.nranks))
            yield from mb.send(dest, "x")
        yield from mb.wait_empty()
        return None

    for scheme in ALL_SCHEMES:
        res = make_world(3, 2, scheme).run(rank_main)
        s = res.mailbox_stats
        assert s.entries_sent == s.entries_received
        # Every app message reaches exactly one callback.
        assert s.app_messages_delivered == s.app_messages_sent == 300


def test_stats_avg_remote_packet_size_orders_by_scheme():
    """Coalescing quality: NLNR produces larger remote packets than
    NodeLocal, which beats NoRoute (Section III-E), under uniform traffic."""

    def rank_main(ctx):
        mb = ctx.mailbox(recv_batch=lambda b: None, capacity=512)
        rng = ctx.rng
        dests = rng.integers(0, ctx.nranks, size=2048).astype(np.int64)
        batch = SPEC.build(dest=dests.astype("u8"), val=dests.astype("u8"))
        yield from mb.send_batch(dests, batch)
        yield from mb.wait_empty()
        return None

    sizes = {}
    for scheme in ("noroute", "node_local", "nlnr"):
        res = YgmWorld(
            small(nodes=8, cores_per_node=4), scheme=scheme, mailbox_capacity=512
        ).run(rank_main)
        sizes[scheme] = res.mailbox_stats.avg_remote_packet_bytes
    assert sizes["noroute"] < sizes["node_local"] < sizes["nlnr"]


def test_hybrid_nlnr_faster_than_nlnr():
    """Free local hops (Section VII hybrid) must not change delivery and
    should reduce elapsed time."""

    def rank_main(ctx):
        got = []
        mb = ctx.mailbox(recv=got.append, capacity=64)
        rng = ctx.rng
        for _ in range(256):
            yield from mb.send(int(rng.integers(ctx.nranks)), ctx.rank)
        yield from mb.wait_empty()
        return len(got)

    res_nlnr = make_world(4, 4, "nlnr", capacity=64).run(rank_main)
    res_hybrid = make_world(4, 4, "nlnr_hybrid", capacity=64).run(rank_main)
    assert sum(res_nlnr.values) == sum(res_hybrid.values) == 16 * 256
    assert res_hybrid.elapsed < res_nlnr.elapsed


# ------------------------------------------------------ wait_any_traffic races
def _app_packet(mb, payload):
    run = P2PColumns(
        np.array([0], dtype=np.int64),
        np.fromiter([payload], dtype=object, count=1),
        np.array([8], dtype=np.int64),
    )
    return Packet(
        src=0, dst=0, ctx=mb.comm.ctx, kind=mb._app_kind, tag=0,
        payload=[run], nbytes=8,
    )


def _term_packet(mb, tag, payload):
    return Packet(
        src=0, dst=0, ctx=mb.comm.ctx, kind=mb._term_kind, tag=tag,
        payload=payload, nbytes=8,
    )


def _deliver(mb, pkt):
    """Hand ``pkt`` to the mailbox's rank the way the machine does."""
    mb.ctx.world.inboxes[mb.ctx.world_rank].deliver(pkt)


@pytest.mark.parametrize("order", ["app_first", "term_first"])
def test_wait_any_traffic_same_timestamp_race(order):
    """An app packet and a term packet arriving at the same simulated
    instant: the idle wait takes the first, the next progress pass the
    second -- whichever order they arrive in, neither is dropped."""

    def rank_main(ctx):
        got = []
        mb = ctx.mailbox(recv=got.append)
        tag = ("r", 0, 0)

        def injector():
            yield ctx.sim.timeout(1.0)
            pkts = [_app_packet(mb, "hello"), _term_packet(mb, tag, (1, 2))]
            if order == "term_first":
                pkts.reverse()
            for pkt in pkts:
                _deliver(mb, pkt)

        ctx.sim.process(injector())
        yield from mb._wait_any_traffic()
        handled = yield from mb.progress()  # the packet that arrived second
        assert handled == (1 if order == "term_first" else 0)
        assert got == ["hello"]
        assert mb._term._cache.get(tag) == (1, 2)
        assert not mb.has_incoming
        return True

    res = make_world(1, 1).run(rank_main)
    assert all(res.values)


def test_wait_any_traffic_cancelled_app_get_keeps_later_packet():
    """A term-only wake-up (which once cancelled a pending app get) must
    leave an app packet arriving later for the next wait."""

    def rank_main(ctx):
        got = []
        mb = ctx.mailbox(recv=got.append)
        tag = ("r", 0, 0)

        def injector():
            yield ctx.sim.timeout(1.0)
            _deliver(mb, _term_packet(mb, tag, (3, 4)))
            yield ctx.sim.timeout(1.0)
            _deliver(mb, _app_packet(mb, "later"))

        ctx.sim.process(injector())
        yield from mb._wait_any_traffic()  # term-only wake-up
        assert got == []
        assert mb._term._cache.get(tag) == (3, 4)
        yield from mb._wait_any_traffic()  # must receive the app packet
        assert got == ["later"]
        assert not mb.has_incoming
        return True

    res = make_world(1, 1).run(rank_main)
    assert all(res.values)


def test_determinism_same_seed_same_elapsed():
    def rank_main(ctx):
        mb = ctx.mailbox(recv=lambda m: None, capacity=32)
        rng = ctx.rng
        for _ in range(100):
            yield from mb.send(int(rng.integers(ctx.nranks)), "d")
        yield from mb.wait_empty()
        return None

    r1 = make_world(2, 4, "nlnr", capacity=32, seed=7).run(rank_main)
    r2 = make_world(2, 4, "nlnr", capacity=32, seed=7).run(rank_main)
    assert r1.elapsed == r2.elapsed
    assert r1.mailbox_stats.as_dict() == r2.mailbox_stats.as_dict()
