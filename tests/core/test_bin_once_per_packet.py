"""One routing pass per received packet, held to the per-entry reference.

``Mailbox._handle_packet`` routes each run of consecutive entries of one
kind -- record batches or scalar runs -- in one pass (``Mailbox._route``):
one destination concat, one route-table read, one sort.
``reference_bin_batch`` is the pass per entry it replaced; a scalar
entry's reference delivers its terminal messages in index order, then
queues the rest with the frozen ``bin_by_hop``.  Random multi-entry
packets -- all-terminal, mixed and pure-forward entries of both kinds,
interleaved -- go through both on every static scheme, at 8 ranks
(``uint8`` keys) and 260 ranks (``uint16``), with and without a
combiner, profiled and not.  Both receive callbacks post, so a post's
place among the forwards is held too.  Buffers (every segment's columns
and dtypes, in order), deliveries, counters and profiler rows must be
equal.
"""

import numpy as np
import pytest

from repro import YgmWorld
from repro.core.coalescing import BatchEntry, P2PColumns
from repro.core.routing import SCHEMES
from repro.core.routing.combiner import Combiner
from repro.machine import small
from repro.mpi.envelope import Packet
from repro.trace import Tracer

from . import reference_bin_batch as reference

STATIC = [name for name in SCHEMES if name != "adaptive"]
SHAPES = [(2, 4), (65, 4)]  # 8 and 260 ranks
REC = np.dtype([("v", "<u8"), ("w", "<i8")])
WIDE = np.dtype([("v", "<u8"), ("w", "<i8"), ("x", "<f8")])
SUM_W = Combiner("sum_w", key_fields=("v",), reduce_fields={"w": "sum"})
STATS = (
    "entries_received", "entries_forwarded", "entries_combined",
    "app_messages_delivered", "app_messages_sent",
)
#: Profiler logs held equal on both sides.
LOGS = ("msgs", "enq", "enq_batch", "deliveries", "batch_deliveries")


def _dests(rng, nranks, cur, mix, n):
    others = np.setdiff1d(np.arange(nranks), [cur])
    if mix == "terminal":
        return np.full(n, cur)
    dests = rng.choice(others, size=n)
    if mix == "mixed":
        dests[rng.random(n) < 0.4] = cur
        dests[0] = cur
    return dests


def _entry(rng, nranks, cur, mix, n, dtype, key_dtype, profiled):
    dests = _dests(rng, nranks, cur, mix, n)
    batch = np.zeros(n, dtype=dtype)
    batch["v"] = rng.integers(0, 6, size=n)  # repeats: combining merges
    batch["w"] = rng.integers(0, 100, size=n)
    lins = rng.integers(0, 2**40, size=n) if profiled else None
    return BatchEntry(dests.astype(key_dtype), batch, lins)


def _scalar(rng, nranks, cur, mix, n, profiled):
    dests = _dests(rng, nranks, cur, mix, n).astype(np.int64)
    payloads = np.fromiter(rng.integers(0, 1000, size=n).tolist(), object, n)
    sizes = rng.integers(1, 9, size=n)
    lins = rng.integers(0, 2**40, size=n) if profiled else None
    return P2PColumns(dests, payloads, sizes, lins)


def _packets(rng, nranks, cur, key_dtype, profiled, combining):
    """Packets that reach every branch of the pass, then random ones."""
    def entry(mix, dtype=REC):
        n = int(rng.integers(1, 40))
        return _entry(rng, nranks, cur, mix, n, dtype, key_dtype, profiled)

    def scalar(mix):
        return _scalar(rng, nranks, cur, mix, int(rng.integers(1, 40)), profiled)

    yield [entry("terminal") for _ in range(3)]
    yield [entry("mixed") for _ in range(3)]
    yield [entry("forward") for _ in range(3)]
    yield [entry("terminal"), entry("mixed"), entry("forward"), entry("mixed")]
    if not combining:  # record dtypes may differ within one run
        yield [entry("mixed"), entry("forward", WIDE), entry("mixed", WIDE)]
    yield [scalar("terminal") for _ in range(3)]
    yield [scalar("mixed") for _ in range(3)]
    yield [scalar("forward") for _ in range(3)]
    # a scalar run between two batch runs splits them, and vice versa
    yield [entry("mixed"), entry("terminal"), scalar("forward"), entry("forward")]
    yield [scalar("mixed"), scalar("terminal"), entry("mixed"), scalar("mixed")]
    for _ in range(8):
        mixes = rng.choice(["terminal", "mixed", "forward"], size=rng.integers(1, 7))
        yield [(entry if rng.random() < 0.5 else scalar)(str(m)) for m in mixes]


def _reference_packet(mb, entries):
    for entry in entries:
        mb.stats.entries_received += entry.count
        if entry.kind == "batch":
            reference.bin_batch(mb, entry, at_injection=False)
            continue
        # A scalar entry: its terminal messages in index order, then the
        # rest, queued by the frozen binning.
        here = entry.dests == mb.rank
        if here.any():
            mb._deliver_p2p_run(entry.take(here))
        if not here.all():
            reference.bin_by_hop(mb, entry.take(~here), at_injection=False)


def _side(use_reference, scheme, nodes, cores, combiner, profiled, seed):
    """Feed one rank the same packets and injections; return what it did."""
    tracer = Tracer(categories=(), profile=True) if profiled else None
    world = YgmWorld(
        small(nodes=nodes, cores_per_node=cores), scheme=scheme, tracer=tracer
    )
    nranks = nodes * cores
    cur = nranks // 2 + 1
    out = {}

    def rank_main(ctx):
        if ctx.rank != cur:
            return
        delivered = []
        scalars = []

        def on_batch(batch):
            # A post from the callback lands between the forwards of the
            # entries before this one and this entry's own.
            delivered.append(batch)
            mb.post((cur + 1) % nranks, len(delivered))

        def on_recv(payload):  # the same rule for a scalar entry
            scalars.append(payload)
            mb.post((cur + 1) % nranks, -len(scalars))

        mb = ctx.mailbox(
            recv=on_recv, recv_batch=on_batch,
            capacity=2**30, combiner=combiner,
        )
        rng = np.random.default_rng(seed)
        key_dtype = mb.scheme._key_dtype
        for entries in _packets(
            rng, nranks, cur, key_dtype, profiled, combiner is not None
        ):
            if use_reference:  # then charge handlers as _handle_packet does
                _reference_packet(mb, entries)
                if mb._pending_handle_cost > 0:
                    yield from mb._charge_pending_handles()
            else:
                pkt = Packet(
                    src=0, dst=cur, ctx=mb.comm.ctx, kind=mb._app_kind, tag=0,
                    payload=list(entries), nbytes=0,
                )
                yield from mb._handle_packet(pkt)
        # Injection: the one-entry pass, with self-addressed records.
        for mix in ("mixed", "forward", "terminal"):
            posted = _entry(rng, nranks, cur, mix, 30, REC, key_dtype, profiled)
            if use_reference:
                reference.bin_batch(mb, posted, at_injection=True)
            else:
                mb._route([posted], at_injection=True)
            for buf in mb._buffers.values():  # the caller's arrays are free
                for seg in buf.entries:
                    if seg.kind == "batch":
                        assert not np.shares_memory(seg.batch, posted.batch)
            assert not any(np.shares_memory(b, posted.batch) for b in delivered)
        out["buffers"] = {
            hop: [
                (e.kind, e.dests, e.payloads if e.kind == "p2p_cols" else e.batch,
                 e.lins)
                for e in mb._buffers[hop].entries
            ]
            for hop in sorted(mb._buffers)
        }
        out["counts"] = {hop: b.count for hop, b in mb._buffers.items()}
        out["queued"] = mb.queued
        out["delivered"] = delivered
        out["scalars"] = scalars
        out["stats"] = {k: getattr(mb.stats, k) for k in STATS}

    err = world.run(rank_main).values[cur]
    if isinstance(err, BaseException):
        raise err
    if profiled:
        for name in LOGS:
            out[name] = getattr(tracer.lineage, name)
    return out


def _same_array(a, b):
    if a is None or b is None:
        return a is None and b is None
    return a.dtype == b.dtype and np.array_equal(a, b)


def _same_rows(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert len(g) == len(w)
        assert _same_array(g[0], w[0])
        assert g[1:] == w[1:]


@pytest.mark.parametrize("profiled", [False, True], ids=["plain", "profiled"])
@pytest.mark.parametrize("combining", [False, True], ids=["raw", "combined"])
@pytest.mark.parametrize("nodes,cores", SHAPES, ids=["8r", "260r"])
@pytest.mark.parametrize("scheme", STATIC)
def test_one_pass_per_packet_matches_per_entry_reference(
    scheme, nodes, cores, combining, profiled
):
    combiner = SUM_W if combining else None
    seed = nodes * 1000 + len(scheme)
    got = _side(False, scheme, nodes, cores, combiner, profiled, seed)
    want = _side(True, scheme, nodes, cores, combiner, profiled, seed)
    assert got["stats"] == want["stats"]
    assert got["stats"]["entries_forwarded"] > 0
    assert got["queued"] == want["queued"]
    assert got["counts"] == want["counts"]
    assert list(got["buffers"]) == list(want["buffers"])
    for hop in want["buffers"]:
        assert len(got["buffers"][hop]) == len(want["buffers"][hop]), hop
        for g, w in zip(got["buffers"][hop], want["buffers"][hop]):
            assert g[0] == w[0]
            assert all(_same_array(a, b) for a, b in zip(g[1:], w[1:])), hop
    assert len(got["delivered"]) == len(want["delivered"]) > 0
    for g, w in zip(got["delivered"], want["delivered"]):
        assert _same_array(g, w)
    assert got["scalars"] == want["scalars"] and want["scalars"]
    if profiled:
        _same_rows(got["enq_batch"], want["enq_batch"])
        _same_rows(got["batch_deliveries"], want["batch_deliveries"])
        for name in ("msgs", "enq", "deliveries"):
            assert got[name] == want[name], name
        assert all(want[name] for name in LOGS)
