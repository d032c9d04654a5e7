"""The pickle-free wire codec round-trips export batches exactly.

Every payload shape the mailbox can put on a packet -- columnar runs
(int, float and object payload columns), mixed coalescing-entry lists,
scalar objects, bytearrays -- must survive ``encode_batch`` ->
``decode_batch`` with exact types and values, because the decoded
packets re-enter the serial kernel and any drift breaks bit-identity.
The corruption checks at the bottom prove a mispaired or truncated
batch fails loudly instead of delivering wrong traffic.
"""

import numpy as np
import pytest

from repro.core.coalescing import BatchEntry, BcastEntry, P2PColumns
from repro.mpi.envelope import Packet
from repro.pdes import WireError, decode_batch, encode_batch


def roundtrip(exports):
    out = bytearray()
    encode_batch(exports, out)
    return decode_batch(bytes(out))


def cols_packet(payloads, lins=None, src=1, dst=2, t=3.5):
    payloads = np.array(payloads, dtype=object)
    n = len(payloads)
    cols = P2PColumns(
        dests=np.arange(n, dtype=np.int64),
        payloads=payloads,
        nbytes=np.full(n, 8, dtype=np.int64),
        lins=None if lins is None else np.asarray(lins, dtype=np.int64),
    )
    pkt = Packet(
        src=src, dst=dst, ctx=0, kind=("ygm", 1, "app"), tag=0,
        payload=[cols], nbytes=cols.wire_bytes,
    )
    return (t, src, dst, pkt.nbytes, pkt)


def assert_cols_equal(a: P2PColumns, b: P2PColumns):
    np.testing.assert_array_equal(a.dests, b.dests)
    np.testing.assert_array_equal(a.nbytes, b.nbytes)
    if a.lins is None:
        assert b.lins is None
    else:
        np.testing.assert_array_equal(a.lins, b.lins)
    assert a.count == b.count
    assert a.wire_bytes == b.wire_bytes
    assert list(a.payloads) == list(b.payloads)
    # Exact element types: bool is an int subclass and np scalars
    # compare equal to Python ints, so equality alone is not enough.
    assert [type(x) for x in a.payloads] == [type(x) for x in b.payloads]


def test_empty_batch():
    assert roundtrip([]) == []


def test_int_column_fast_path_roundtrips_exactly():
    exp = cols_packet([1, -2, 3 * 10**17, 0])
    ((t, src, dst, nbytes, pkt),) = roundtrip([exp])
    assert (t, src, dst, nbytes) == exp[:4]
    assert (pkt.src, pkt.dst, pkt.ctx, pkt.kind, pkt.tag, pkt.nbytes) == (
        exp[4].src, exp[4].dst, exp[4].ctx, exp[4].kind, exp[4].tag,
        exp[4].nbytes,
    )
    (back,) = pkt.payload
    assert_cols_equal(exp[4].payload[0], back)
    assert back.dests.dtype == np.int64 and back.nbytes.dtype == np.int64


def test_float_column_roundtrips_exactly():
    exp = cols_packet([1.5, -0.0, float("inf"), 2.0**-1074])
    ((*_, pkt),) = roundtrip([exp])
    assert_cols_equal(exp[4].payload[0], pkt.payload[0])


def test_lins_column_roundtrips():
    exp = cols_packet([5, 6], lins=[100, 200])
    ((*_, pkt),) = roundtrip([exp])
    assert_cols_equal(exp[4].payload[0], pkt.payload[0])


@pytest.mark.parametrize(
    "payloads",
    [
        [True, False, True],           # bool: int subclass, must survive
        [1, 2.5, 3],                   # mixed int/float
        [np.int64(1), np.int64(2)],    # numpy scalars compare == python
        [1, None, ("x", 3)],           # arbitrary objects
        [2**70, 1],                    # overflows int64
    ],
    ids=["bools", "mixed", "np-scalars", "objects", "bigint"],
)
def test_non_i64_payloads_take_object_fallback_and_keep_exact_types(payloads):
    exp = cols_packet(payloads)
    ((*_, pkt),) = roundtrip([exp])
    assert_cols_equal(exp[4].payload[0], pkt.payload[0])


def test_generic_form_handles_odd_dest_dtype():
    cols = P2PColumns(
        dests=np.array([1, 2], dtype=np.int32),  # not the fast-path i64
        payloads=np.array([10, 20], dtype=object),
        nbytes=np.array([8, 8], dtype=np.int64),
    )
    pkt = Packet(src=0, dst=1, ctx=0, kind="k", tag=0,
                 payload=[cols], nbytes=cols.wire_bytes)
    ((*_, back),) = roundtrip([(0.5, 0, 1, pkt.nbytes, pkt)])
    np.testing.assert_array_equal(back.payload[0].dests, cols.dests)
    assert list(back.payload[0].payloads) == [10, 20]


def test_decoded_column_slices_are_independently_mutable():
    a, b = cols_packet([1, 2], t=1.0), cols_packet([3, 4], t=2.0)
    (_, _, _, _, pa), (_, _, _, _, pb) = roundtrip([a, b])
    ca, cb = pa.payload[0], pb.payload[0]
    snapshot = cb.dests.copy()
    ca.dests[:] = -1  # disjoint slices of one stream: no cross-talk
    np.testing.assert_array_equal(cb.dests, snapshot)
    assert ca.dests.flags.writeable and cb.dests.flags.writeable


def test_mixed_entry_list_roundtrips():
    dtype = np.dtype([("u", np.int64), ("v", np.int64)])
    entries = [
        P2PColumns(
            dests=np.array([5], dtype=np.int64),
            payloads=np.fromiter([("x", 3)], dtype=object, count=1),
            nbytes=np.array([17], dtype=np.int64),
            lins=np.array([9], dtype=np.int64),
        ),
        BcastEntry(origin=2, payload=b"abc", nbytes=3),
        BatchEntry(
            np.array([6, 7], dtype=np.int64),
            np.array([(1, 2), (3, 4)], dtype=dtype),
        ),
        P2PColumns(
            dests=np.array([1], dtype=np.int64),
            payloads=np.array([42], dtype=object),
            nbytes=np.array([8], dtype=np.int64),
        ),
    ]
    pkt = Packet(src=0, dst=1, ctx=3, kind="k", tag=7,
                 payload=entries, nbytes=99)
    ((*_, back),) = roundtrip([(1.0, 0, 1, 99, pkt)])
    objs, bcast, batch, cols = back.payload
    assert_cols_equal(entries[0], objs)
    assert (bcast.origin, bcast.payload, bcast.nbytes) == (2, b"abc", 3)
    np.testing.assert_array_equal(batch.batch, entries[2].batch)
    assert batch.batch.dtype == dtype
    assert_cols_equal(entries[3], cols)


@pytest.mark.parametrize(
    "payload",
    [None, 42, ("tuple", [1, 2]), b"bytes", bytearray(b"mutable")],
    ids=["none", "int", "tuple", "bytes", "bytearray"],
)
def test_scalar_payloads_roundtrip_with_exact_type(payload):
    pkt = Packet(src=0, dst=1, ctx=0, kind="k", tag=0,
                 payload=payload, nbytes=4)
    ((*_, back),) = roundtrip([(1.0, 0, 1, 4, pkt)])
    assert back.payload == payload
    assert type(back.payload) is type(payload)


def test_envelope_metadata_and_lineage_survive():
    pkt = Packet(src=3, dst=4, ctx=2, kind=("ygm", 9, "term"), tag=5,
                 payload=None, nbytes=0, lin=12345)
    ((t, src, dst, nbytes, back),) = roundtrip([(7.25, 3, 4, 0, pkt)])
    assert back == pkt
    assert (back.ctx, back.kind, back.tag, back.lin) == (
        2, ("ygm", 9, "term"), 5, 12345,
    )


def test_meta_dictionary_shares_repeated_headers():
    # 100 packets sharing one (ctx, kind, tag) spend one uvarint each on
    # the header; the same traffic with all-distinct kinds cannot share
    # and must encode much larger.  (The payload/column bytes are equal
    # between the two, so the delta is pure meta encoding.)
    def batch(kind_of):
        pkts = [
            (float(i), 0, 1, 4,
             Packet(src=0, dst=1, ctx=0, kind=kind_of(i), tag=0,
                    payload=i, nbytes=4))
            for i in range(100)
        ]
        out = bytearray()
        encode_batch(pkts, out)
        return out

    shared = batch(lambda i: ("ygm", 1, "app"))
    distinct = batch(lambda i: ("ygm", i, "app"))
    assert len(distinct) - len(shared) > 100 * 5
    back = decode_batch(bytes(shared))
    assert [b[4].payload for b in back] == list(range(100))
    assert all(b[4].kind == ("ygm", 1, "app") for b in back)


def test_divergent_envelope_takes_the_seven_tuple_fallback():
    # A hand-built export whose packet fields disagree with its batch
    # row: the packet's own envelope must win on decode.
    pkt = Packet(src=9, dst=8, ctx=1, kind="k", tag=2, payload=None, nbytes=7)
    ((t, src, dst, nbytes, back),) = roundtrip([(1.0, 0, 1, 4, pkt)])
    assert (t, src, dst, nbytes) == (1.0, 0, 1, 4)  # the routing row
    assert (back.src, back.dst, back.nbytes) == (9, 8, 7)  # the packet


def test_unpackable_payload_raises_wire_error_naming_the_escape_hatch():
    class Opaque:
        pass

    pkt = Packet(src=0, dst=1, ctx=0, kind="k", tag=0,
                 payload=Opaque(), nbytes=4)
    with pytest.raises(WireError, match="PDES_TRANSPORT=pipe"):
        encode_batch([(1.0, 0, 1, 4, pkt)], bytearray())


def test_mispaired_side_stream_is_detected():
    # Flip the lins-present flag of the only record: the decoder then
    # leaves the lins run unconsumed and must refuse the batch rather
    # than hand back silently-shifted columns.
    out = bytearray()
    encode_batch([cols_packet([1, 2, 3], lins=[7, 8, 9])], out)
    assert out[-2] == 1  # ... lflag, mode=COL_INT64 is the final byte
    out[-2] = 0
    with pytest.raises(WireError, match="not fully consumed"):
        decode_batch(bytes(out))


def test_truncated_batch_fails_loudly():
    out = bytearray()
    encode_batch([cols_packet([1, 2, 3])], out)
    with pytest.raises(Exception):  # serde/Wire/ValueError, never silence
        decode_batch(bytes(out[: len(out) // 2]))
