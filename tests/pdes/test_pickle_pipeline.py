"""Coalesced batches survive the worker rings (satellite: serialization).

Cross-partition packets are shipped between processes as serde-encoded
batches through shared-memory rings.  Three layers of proof: the three
entry types round-trip through pickle field-for-field (including the
columnar struct-of-arrays runs), a mixed-traffic workload (scalar p2p +
reentrant echo + broadcast + fixed-width record batches) is
bit-identical to serial -- i.e. the process crossing preserved every
entry -- and so is a payload serde has no tag for, which crosses in the
codec's pickle envelope.  (The ring codec itself is exercised in depth
by test_wire.py.)
"""

import pickle
from dataclasses import dataclass

import numpy as np

from repro.check.fuzz import quiescence_rank_main
from repro.core.coalescing import BatchEntry, BcastEntry, P2PColumns
from repro.core.context import YgmWorld
from repro.pdes import PdesWorld, assert_equivalent


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


def test_bcast_entry_roundtrips():
    e = roundtrip(BcastEntry(origin=2, payload=b"abc", nbytes=3))
    assert (e.kind, e.origin, e.payload, e.nbytes, e.lin) == (
        "bcast", 2, b"abc", 3, None,
    )


def test_batch_entry_roundtrips():
    dtype = np.dtype([("u", np.int64), ("v", np.int64)])
    batch = np.array([(1, 2), (3, 4)], dtype=dtype)
    dests = np.array([6, 7], dtype=np.int64)
    e = roundtrip(BatchEntry(dests, batch))
    assert e.kind == "batch"
    np.testing.assert_array_equal(e.dests, dests)
    np.testing.assert_array_equal(e.batch, batch)
    assert e.batch.dtype == dtype
    assert e.lins is None


def test_p2p_columns_roundtrip_preserves_all_columns_and_derived_fields():
    cols = P2PColumns(
        dests=np.array([1, 2, 3], dtype=np.int64),
        payloads=np.array([("a", 1), None, 42], dtype=object),
        nbytes=np.array([4, 1, 9], dtype=np.int64),
        lins=np.array([10, 11, 12], dtype=np.int64),
    )
    back = roundtrip(cols)
    assert back.kind == "p2p_cols"
    np.testing.assert_array_equal(back.dests, cols.dests)
    assert list(back.payloads) == list(cols.payloads)
    np.testing.assert_array_equal(back.nbytes, cols.nbytes)
    np.testing.assert_array_equal(back.lins, cols.lins)
    assert back.count == 3
    assert back.wire_bytes == cols.wire_bytes


def test_mixed_traffic_crosses_the_rings_bit_identically():
    rank_main = quiescence_rank_main()
    serial = YgmWorld(4, scheme="nlnr", seed=3, cores_per_node=2).run(rank_main)
    engine = PdesWorld(4, scheme="nlnr", seed=3, cores_per_node=2, workers=2)
    parallel = engine.run(rank_main)
    assert_equivalent(parallel, serial)
    # Real batches crossed the rings; the equivalence was not vacuous.
    assert engine.exported_packets > 0


@dataclass(frozen=True)
class Point:
    """A payload class serde has no tag for (sized by explicit nbytes)."""

    x: int
    y: float


def opaque_rank_main(ctx):
    got = []
    mb = ctx.mailbox(recv=got.append)
    n = ctx.nranks
    for i in range(6):
        yield from mb.send((ctx.rank + 1 + i) % n, Point(ctx.rank, i / 3), 16)
    yield from mb.wait_empty()
    return sorted(got, key=lambda p: (p.x, p.y))


def test_non_serde_payload_crosses_two_workers_bit_identically():
    serial = YgmWorld(4, scheme="nlnr", seed=3, cores_per_node=2).run(
        opaque_rank_main
    )
    engine = PdesWorld(4, scheme="nlnr", seed=3, cores_per_node=2, workers=2)
    parallel = engine.run(opaque_rank_main)
    assert_equivalent(parallel, serial)
    assert engine.exported_packets > 0
    assert all(type(p) is Point for v in parallel.values for p in v)
