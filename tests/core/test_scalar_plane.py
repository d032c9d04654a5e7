"""The scalar data plane: struct-of-arrays runs, pinned by recorded goldens.

A scalar ``send``/``post``/``send_many`` travels as a
:class:`~repro.core.coalescing.P2PColumns` run and materialises as a
Python value only at the receive callback.  Until PR 14 a second,
one-object-per-message implementation existed beside it and these tests
diffed the two; the reference's *answers* are kept here as SHA-256
digests (:data:`GOLDEN`) -- delivered values in delivery order, stats,
simulated time, transport totals -- recorded from that object path at
commit d104aea, where the columnar path produced the same 28 digests.
Per-message wire sizes stay byte-identical to the frozen reference
packer.
"""

import hashlib
import json
import pickle

import numpy as np
import pytest

from repro import YgmWorld
from repro.core.coalescing import (
    ENTRY_HEADER_BYTES,
    BcastEntry,
    CoalescingBuffer,
    P2PColumns,
)
from repro.core.routing import SCHEMES
from repro.machine import small
from repro.mpi.sizes import payload_nbytes_many
from repro.serde import packed_size_many
from tests.serde import reference_packer

ALL_SCHEMES = list(SCHEMES)

#: A deterministic mixed-payload stream: ints (the vectorized-size fast
#: path), plus strings/tuples/floats/None (the per-element fallback).
def _payloads(n, salt=0):
    out = []
    for i in range(n):
        k = (i + salt) % 6
        if k in (0, 1, 2):
            out.append((i * 2654435761 + salt) % (1 << 40) - (i % 3) * 7)
        elif k == 3:
            out.append(f"m{i}")
        elif k == 4:
            out.append((i, float(i) / 3.0))
        else:
            out.append(None)
    return out


# ------------------------------------------------------------ unit: columns
def test_p2p_columns_accounting():
    dests = np.array([3, 1, 2], dtype=np.int64)
    payloads = np.empty(3, dtype=object)
    payloads[:] = [10, "x", None]
    sizes = np.array([2, 3, 1], dtype=np.int64)
    cols = P2PColumns(dests, payloads, sizes)
    assert cols.kind == "p2p_cols"
    assert cols.count == 3
    assert cols.wire_bytes == 6 + 3 * ENTRY_HEADER_BYTES
    assert cols.lins is None
    with pytest.raises(ValueError, match="lengths differ"):
        P2PColumns(dests, payloads[:2], sizes)


def test_columns_pickle_as_contiguous_buffers():
    """The column layout is what a PDES engine would ship cross-process."""
    buf = CoalescingBuffer(hop=0)
    for i in range(5):
        buf.add_p2p(dest=i % 3, payload=i * 7, nbytes=2)
    entries, nbytes, count = buf.take()
    (cols,) = entries
    assert cols.dests.flags["C_CONTIGUOUS"]
    assert cols.nbytes.flags["C_CONTIGUOUS"]
    clone = pickle.loads(pickle.dumps(cols))
    assert clone.dests.tolist() == cols.dests.tolist()
    assert clone.payloads.tolist() == cols.payloads.tolist()
    assert clone.nbytes.tolist() == cols.nbytes.tolist()


def test_buffer_closes_runs_in_call_order():
    """Scalar runs and whole entries interleave in exact add order."""
    buf = CoalescingBuffer(hop=1)
    buf.add_p2p(0, "a", 2)
    buf.add_p2p(2, "b", 3)
    bc = BcastEntry(origin=0, payload="B", nbytes=4)
    buf.add(bc)
    buf.add_p2p(1, "c", 5)
    entries, nbytes, count = buf.take()
    assert [e.kind for e in entries] == ["p2p_cols", "bcast", "p2p_cols"]
    assert entries[0].payloads.tolist() == ["a", "b"]
    assert entries[2].payloads.tolist() == ["c"]
    assert count == 4
    assert nbytes == (2 + 3 + 4 + 5) + 4 * ENTRY_HEADER_BYTES
    # The drained buffer starts a fresh run.
    buf.add_p2p(0, "d", 1)
    entries2, _, count2 = buf.take()
    assert count2 == 1 and entries2[0].payloads.tolist() == ["d"]


# ------------------------------------------------- wire-byte equivalence
def test_message_sizes_match_frozen_reference_packer():
    payloads = _payloads(64) + [
        0, -1, 2**63 - 1, -(2**63), 2**200, -(2**200), True, False, 127, 128,
    ]
    sizes = payload_nbytes_many(payloads)
    expected = [len(reference_packer.pack(p)) for p in payloads]
    assert sizes.tolist() == expected
    ints = [p for p in payloads if type(p) is int]
    assert packed_size_many(ints).tolist() == [
        len(reference_packer.pack(p)) for p in ints
    ]


# ----------------------------------------------- end-to-end equivalence
def _scalar_workload(msgs, capacity, with_self, with_chain, with_bcast):
    """Scalar sends with optional callback-posted children and bcasts."""

    def rank_main(ctx):
        got = []
        mb_box = []

        def on_recv(v):
            got.append(v)
            if with_chain and isinstance(v, tuple) and v[0] == "ping":
                # Children posted from inside a delivery callback.
                mb_box[0].post((v[1] + 1) % ctx.nranks, ("pong", v[1]))

        mb = ctx.mailbox(recv=on_recv, capacity=capacity)
        mb_box.append(mb)
        n = ctx.nranks
        rank = ctx.rank
        payloads = _payloads(msgs, salt=rank)
        for i, p in enumerate(payloads):
            lo = 0 if with_self else 1
            dest = (rank + lo + i % (n - lo)) % n
            yield from mb.send(dest, p)
        if with_chain and rank == 0:
            yield from mb.send((rank + 1) % n, ("ping", rank))
        if with_bcast:
            yield from mb.send_bcast(("news", rank))
        yield from mb.wait_empty()
        return got

    return rank_main


def _run(scheme, rank_main, nodes=3, cores=2, seed=0):
    world = YgmWorld(
        small(nodes=nodes, cores_per_node=cores),
        scheme=scheme,
        seed=seed,
        mailbox_capacity=2**14,
    )
    return world.run(rank_main)


def _digest(result) -> str:
    """SHA-256 over the run's whole observable outcome, floats via repr."""

    def stats(s):
        return {k: repr(v) for k, v in sorted(s.as_dict().items())}

    payload = {
        "values": [repr(v) for v in result.values],  # exact per-rank order
        "elapsed": repr(result.elapsed),
        "finish_times": [repr(t) for t in result.finish_times],
        "aggregate": stats(result.mailbox_stats),
        "per_rank": [stats(s) for s in result.per_rank_stats],
        "transport": {k: repr(v) for k, v in sorted(result.transport.items())},
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


BOUNDARY_SIZES = {"empty": 0, "singleton": 1, "max_capacity": 16}


def _boundary_main(size):
    def rank_main(ctx):
        got = []
        mb = ctx.mailbox(recv=got.append, capacity=BOUNDARY_SIZES["max_capacity"])
        n = BOUNDARY_SIZES[size]
        payloads = _payloads(n, salt=ctx.rank)
        dests = [(ctx.rank + 1 + i) % ctx.nranks for i in range(n)]
        yield from mb.send_many(dests, payloads)
        yield from mb.wait_empty()
        return got

    return rank_main


#: ``(workload, scheme) -> digest``, produced by the deleted object path
#: (``columnar=False``) at commit d104aea.  Never regenerate from the
#: surviving path to make a failure go away: a mismatch means the data
#: plane's observable behaviour changed.
GOLDEN = {
    ("mixed", "noroute"): "ebe12b295a6de30d197ce26bf0cf1588417f47b0259d1d7db3c792c7dca19c38",
    ("mixed", "node_local"): "042d805e170aaa745f497a5f5863e761da34c28dc64b4a91cea518cd36a5a154",
    ("mixed", "node_remote"): "fda0adae066a8d31cf4312ed2397ea898344caa02af4f077abdb326912d09254",
    ("mixed", "nlnr"): "b2ea9ecad9f0223dd3ad03dcc6ec38d1f59f540cb0d8787dbe5fbb643f6aa725",
    ("mixed", "nlnr_hybrid"): "22c4fae766c60353c70aa0a9a3823014170e8937d5a011d20660d6e25d673800",
    ("mixed", "node_aware"): "9eed81c8d56a9eda49ce7e074e253dbe57edbb9950cf3affadbea5f39e2e19fb",
    ("mixed", "adaptive"): "9fd7c2b0e538d7a664367961596cb20efccde16c2de0cfba88e6e0f4cd8d90a9",
    ("empty", "noroute"): "e7d4d8412581ac0fb03c78b15c810607112b035c13fa7f51561ca87cb335ebb0",
    ("empty", "node_local"): "e7d4d8412581ac0fb03c78b15c810607112b035c13fa7f51561ca87cb335ebb0",
    ("empty", "node_remote"): "e7d4d8412581ac0fb03c78b15c810607112b035c13fa7f51561ca87cb335ebb0",
    ("empty", "nlnr"): "e7d4d8412581ac0fb03c78b15c810607112b035c13fa7f51561ca87cb335ebb0",
    ("empty", "nlnr_hybrid"): "e7d4d8412581ac0fb03c78b15c810607112b035c13fa7f51561ca87cb335ebb0",
    ("empty", "node_aware"): "e7d4d8412581ac0fb03c78b15c810607112b035c13fa7f51561ca87cb335ebb0",
    ("empty", "adaptive"): "e7d4d8412581ac0fb03c78b15c810607112b035c13fa7f51561ca87cb335ebb0",
    ("singleton", "noroute"): "d7797f5a0e0ad623fa48b08fc86754719ae4e3a8b4fb48db96e85ac5ab37e1d4",
    ("singleton", "node_local"): "225f88f907f57023fc0eed83444ad42a62da96be109e7c51ae7507b22166fff0",
    ("singleton", "node_remote"): "3394b8ae6b97a14bec2225fc735125e57085b29c0d5d70559e48060965314df7",
    ("singleton", "nlnr"): "93aefd83c8770eb6cf3888f0a0ce9c517e00d78475c16f8e4f39b9d3906f7b09",
    ("singleton", "nlnr_hybrid"): "fe9ad9593df659e3bf9e43ae3ca7f8edbb6b571b4f6539ce135c0ea24a17e1d8",
    ("singleton", "node_aware"): "0c0c86bfbacef982c934ce505ea1f28a5c011bc1d9041c93beaf13a2df00d51d",
    ("singleton", "adaptive"): "d7797f5a0e0ad623fa48b08fc86754719ae4e3a8b4fb48db96e85ac5ab37e1d4",
    ("max_capacity", "noroute"): "7cb761b61d195dd411ed86886e71d651f93f9c1e749965d90da6f10338545be9",
    ("max_capacity", "node_local"): "e40b98ade634acfd12a173bf2396dc6f129d0de48cc4ae49debf4e5dbc4c3eac",
    ("max_capacity", "node_remote"): "5d0abd97af6e5b2a710f97c69dcff2b1b334e9a64f8ee4adac7e955d3f0fdaf2",
    ("max_capacity", "nlnr"): "c04c7f9be4a4fb31a4d1c57570e5d8a1f3bf007bf6cf31df420eae59920080f9",
    ("max_capacity", "nlnr_hybrid"): "82dada464b0ded5a5cb77c527b4ab7d7585dcbff40cb78a7255f9ae67e2deea2",
    ("max_capacity", "node_aware"): "e62f1ddab7596e89d2fc116805d6e05d4d3388324c5863905a2bc9947b0298f9",
    ("max_capacity", "adaptive"): "7cb761b61d195dd411ed86886e71d651f93f9c1e749965d90da6f10338545be9",
}


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_scalar_plane_matches_recorded_reference(scheme):
    """Same values, same delivery order, same stats, same simulated time."""
    rank_main = _scalar_workload(
        msgs=40, capacity=8, with_self=True, with_chain=True, with_bcast=True
    )
    assert _digest(_run(scheme, rank_main)) == GOLDEN["mixed", scheme]


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
@pytest.mark.parametrize("size", list(BOUNDARY_SIZES))
def test_post_many_boundary_batches(scheme, size):
    """post_many at the boundary shapes, vs the recorded reference."""
    res = _run(scheme, _boundary_main(size))
    assert _digest(res) == GOLDEN[size, scheme]
    assert sum(len(v) for v in res.values) == BOUNDARY_SIZES[size] * 6


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_post_many_agrees_with_scalar_post_loop(scheme):
    """send_many and a loop of send produce the same deliveries.

    Without self-addressed destinations the order is exact; the columnar
    injection bins stably, so each hop's column holds the same message
    sequence the scalar loop would have appended.
    """
    msgs = 30

    def many_main(ctx):
        got = []
        mb = ctx.mailbox(recv=got.append, capacity=2**14)
        payloads = _payloads(msgs, salt=ctx.rank)
        dests = [(ctx.rank + 1 + i % (ctx.nranks - 1)) % ctx.nranks for i in range(msgs)]
        yield from mb.send_many(dests, payloads)
        yield from mb.wait_empty()
        return got

    def loop_main(ctx):
        got = []
        mb = ctx.mailbox(recv=got.append, capacity=2**14)
        payloads = _payloads(msgs, salt=ctx.rank)
        for i, p in enumerate(payloads):
            dest = (ctx.rank + 1 + i % (ctx.nranks - 1)) % ctx.nranks
            yield from mb.send(dest, p)
        yield from mb.wait_empty()
        return got

    a = _run(scheme, many_main)
    b = _run(scheme, loop_main)
    assert a.values == b.values


def test_post_many_delivers_self_messages_in_index_order():
    def rank_main(ctx):
        got = []
        mb = ctx.mailbox(recv=got.append, capacity=2**14)
        if ctx.rank == 0:
            yield from mb.send_many([0, 1, 0, 0], ["s0", "r", "s1", "s2"])
        yield from mb.wait_empty()
        return got

    res = _run("noroute", rank_main, nodes=2, cores=1)
    assert res.values[0] == ["s0", "s1", "s2"]
    assert res.values[1] == ["r"]


def test_post_many_validates_input():
    def rank_main(ctx):
        mb = ctx.mailbox(recv=lambda v: None)
        with pytest.raises(ValueError, match="out of range"):
            mb.post_many([ctx.nranks + 1], ["x"])
        with pytest.raises(ValueError, match="lengths differ"):
            mb.post_many([0, 1], ["x"])
        yield from mb.wait_empty()
        return True

    assert all(_run("nlnr", rank_main).values)


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_columnar_runs_under_debug_pool(scheme, monkeypatch):
    """End-to-end aliasing audit: the whole pipeline under a poisoning
    ListPool (REPRO_DEBUG_POOL) -- any entry list recycled while still
    referenced would raise at the first touch."""
    monkeypatch.setenv("REPRO_DEBUG_POOL", "1")
    rank_main = _scalar_workload(
        msgs=24, capacity=6, with_self=True, with_chain=True, with_bcast=True
    )
    res = _run(scheme, rank_main, nodes=2, cores=2)
    assert sum(len(v) for v in res.values) > 0


def test_columnar_lineage_stays_aligned():
    """With the causal profiler on, every injected message's lineage id
    is delivered exactly once and packet membership covers the columns."""
    from repro.trace import Tracer

    tracer = Tracer(categories=(), profile=True)
    rank_main = _scalar_workload(
        msgs=20, capacity=8, with_self=True, with_chain=True, with_bcast=False
    )
    world = YgmWorld(
        small(nodes=2, cores_per_node=2),
        scheme="nlnr",
        seed=0,
        mailbox_capacity=2**14,
        tracer=tracer,
    )
    world.run(rank_main)
    prof = tracer.lineage
    injected = {lid for lid, *_ in prof.msgs}
    injected.update(
        lid0 + i
        for lid0, _src, dests, _t, _parent in prof.batch_msgs
        for i in range(len(dests))
    )
    delivered = [lid for lid, _rank, _t in prof.deliveries]
    for lids, _rank, _t in prof.batch_deliveries:
        delivered.extend(np.asarray(lids).tolist())
    assert sorted(delivered) == sorted(injected)  # each exactly once
    # Every non-self message appears in at least one packet's membership.
    member_lids = set()
    for members in prof.pkt_members:
        for m in members:
            if isinstance(m, (int, np.integer)):
                member_lids.add(int(m))
            else:
                member_lids.update(np.asarray(m).tolist())
    assert member_lids <= injected


def test_profiled_columnar_run_is_unperturbed():
    """Profiling must not change results or timing of the columnar path."""
    rank_main = _scalar_workload(
        msgs=24, capacity=8, with_self=True, with_chain=True, with_bcast=True
    )

    def run(tracer):
        world = YgmWorld(
            small(nodes=2, cores_per_node=2),
            scheme="node_remote",
            seed=0,
            mailbox_capacity=2**14,
            tracer=tracer,
        )
        return world.run(rank_main)

    from repro.trace import Tracer

    plain = run(None)
    profiled = run(Tracer(categories=(), profile=True))
    assert plain.values == profiled.values
    assert plain.elapsed == profiled.elapsed
