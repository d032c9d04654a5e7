"""The pickle-free wire codec for cross-partition export batches.

One export batch is every packet a partition put on the wire during one
window round: a list of ``(t_wire, src, dst, nbytes, Packet)`` tuples.
:func:`encode_batch` lays a batch out columnar-first so the ring
transport (:mod:`repro.pdes.rings`) can ship it as one contiguous
blob and the decoder touches NumPy once per *batch*, not once per
packet::

    batch   := count
               t_wire: f8[count]  src: i8[count]       -- serde ndarrays
               dst:    i8[count]  nbytes: i8[count]
               metas   -- serde list of distinct (ctx, kind, tag)
               ilen istream[ilen]   -- fused int64 column stream
               flen fstream[flen]   -- fused float64 column stream
               record[count]
    record  := midx payload
               midx > 0: metas[midx-1] + serde lin; envelope src/dst/
                         nbytes come from the batch columns
               midx = 0: serde (ctx,kind,tag,lin,src,dst,nbytes)
                         -- defensive fallback for hand-built packets
                         whose envelope diverges from the export row
    payload := M_COLS1 cols           -- exactly [one P2PColumns]
             | M_ENTRIES n entry[n]   -- mixed coalescing-entry list
             | M_OBJ serde-object | M_BYTEARRAY serde-bytes
    cols    := 1 n lflag mode         -- fast form: dests, nbytes,
                                      [lins], and an all-int/all-float
                                      payload column live in the side
                                      streams as raw 8-byte runs
             | 0 serde-arrays ...     -- generic form (odd dtypes)

Scalars and objects go through serde ``pack_into``/``unpack_from``; the
*bulk* -- every int64/float64 column of every entry in the batch -- is
appended raw to one of two side streams and recovered with a single
``np.frombuffer`` + copy per stream, then sliced per entry.  Slices of
one writable base are handed to :class:`P2PColumns` directly (disjoint
ranges, so entry columns stay independently mutable).  There is no
``pickle`` anywhere on this path (``tools/hotpath_lint.py`` enforces
that).

Packet meta is dictionary-encoded: batches repeat a handful of
``(ctx, kind, tag)`` combinations thousands of times, so each record
spends one uvarint on them.  ``lin`` (the causal-profiler lineage id)
stays per-record -- it is distinct per packet when profiling is on.

The P2PColumns object-payload column takes the all-int or all-float
raw-stream path only when a cheap exact-type scan proves it safe --
``bool`` is an ``int`` subclass and NumPy scalars compare equal to
Python ints, so anything but exact ``int``/``float`` elements falls
back to per-element serde, preserving bit-identical payload objects.
"""

from __future__ import annotations

from array import array
from typing import List

import numpy as np

from ..core.coalescing import BatchEntry, BcastEntry, P2PColumns
from ..mpi.envelope import Packet
from ..serde.packer import (
    SerdeError,
    _read_uvarint,
    _write_uvarint,
    pack_into,
    unpack_from,
)

#: Payload markers (what a packet carries), raw single bytes.
PAYLOAD_OBJ = 0
PAYLOAD_BYTEARRAY = 1
PAYLOAD_ENTRIES = 2
PAYLOAD_COLS1 = 3  # the common case: exactly [one P2PColumns]

#: Coalescing-entry tags inside a PAYLOAD_ENTRIES list.
E_OBJ = 0  # not an entry object: generic serde element
E_BCAST = 1
E_BATCH = 2
E_COLS = 3

#: P2PColumns object-payload column encodings.
COL_INT64 = 0
COL_FLOAT64 = 1
COL_OBJECTS = 2

_ENTRY_TAGS = {
    BcastEntry: E_BCAST,
    BatchEntry: E_BATCH,
    P2PColumns: E_COLS,
}

_INT_ONLY = frozenset((int,))
_FLOAT_ONLY = frozenset((float,))

_I8 = np.dtype(np.int64)
_F8 = np.dtype(np.float64)

_NEW_COLS = P2PColumns.__new__
_NEW_PKT = Packet.__new__


class WireError(RuntimeError):
    """An export batch failed to encode or decode."""


# -- payload objects ---------------------------------------------------------
def _pack_obj(out: bytearray, obj) -> None:
    """One payload value: generic serde, with a bytearray escape.

    The serde packer deliberately has no bytearray tag (it would be
    ambiguous with bytes on the unpack side); app payloads may still be
    bytearrays, so flag them explicitly and restore the type on decode.
    """
    if type(obj) is bytearray:
        out.append(PAYLOAD_BYTEARRAY)
        pack_into(out, bytes(obj))
    else:
        out.append(PAYLOAD_OBJ)
        try:
            pack_into(out, obj)
        except SerdeError as exc:
            raise WireError(
                f"payload {type(obj).__name__!r} is not serde-packable; "
                "register the type (repro.serde.register) or run with "
                "PDES_TRANSPORT=pipe"
            ) from exc


def _unpack_obj(buf, pos):
    marker = buf[pos]
    obj, pos = unpack_from(buf, pos + 1)
    if marker == PAYLOAD_BYTEARRAY:
        obj = bytearray(obj)
    return obj, pos


# -- P2PColumns --------------------------------------------------------------
def _cols_fast(arr) -> bool:
    return (
        type(arr) is np.ndarray
        and (arr.dtype is _I8 or arr.dtype == _I8)
        and arr.flags.c_contiguous
    )


def _pack_cols(
    rec: bytearray, ibuf: bytearray, fbuf: bytearray, e: P2PColumns
) -> None:
    """One P2PColumns entry: columns into the side streams when the
    dtypes allow (they always do for runs built by the mailbox), the
    generic serde form otherwise."""
    dests, nbytes, lins, pay = e.dests, e.nbytes, e.lins, e.payloads
    n = e.count
    if (
        type(dests) is np.ndarray
        and (dests.dtype is _I8 or dests.dtype == _I8)
        and dests.flags.c_contiguous
        and type(nbytes) is np.ndarray
        and (nbytes.dtype is _I8 or nbytes.dtype == _I8)
        and nbytes.flags.c_contiguous
        and (lins is None or (_cols_fast(lins) and len(lins) == n))
    ):
        rec.append(1)
        if n < 0x80:
            rec.append(n)
        else:
            _write_uvarint(rec, n)
        _write_uvarint(rec, e.wire_bytes)
        ibuf += dests.data
        ibuf += nbytes.data
        if lins is None:
            rec.append(0)
        else:
            rec.append(1)
            ibuf += lins.data
        lst = pay.tolist()
        kinds = set(map(type, lst))
        if kinds == _INT_ONLY:
            try:
                col = array("q", lst)
            except OverflowError:
                col = None
            if col is not None:
                rec.append(COL_INT64)
                ibuf += col
                return
        elif kinds == _FLOAT_ONLY:
            rec.append(COL_FLOAT64)
            fbuf += array("d", lst)
            return
        rec.append(COL_OBJECTS)
        for obj in lst:
            _pack_obj(rec, obj)
        return
    # Generic form: any dtype, any layout, via serde arrays.
    rec.append(0)
    pack_into(rec, dests)
    pack_into(rec, nbytes)
    pack_into(rec, None if lins is None else lins)
    kinds = set(map(type, pay))
    if kinds == _INT_ONLY:
        try:
            col = np.fromiter(pay, np.int64, n)
        except OverflowError:
            col = None
        if col is not None:
            rec.append(COL_INT64)
            pack_into(rec, col)
            return
    elif kinds == _FLOAT_ONLY:
        rec.append(COL_FLOAT64)
        pack_into(rec, np.fromiter(pay, np.float64, n))
        return
    rec.append(COL_OBJECTS)
    for obj in pay:
        _pack_obj(rec, obj)


def _unpack_cols(buf, pos, istream, fstream, io, fo):
    """Mirror of :func:`_pack_cols`; returns (entry, pos, io, fo)."""
    form = buf[pos]
    pos += 1
    if form == 1:
        n, pos = _read_uvarint(buf, pos)
        wire_bytes, pos = _read_uvarint(buf, pos)
        dests = istream[io:io + n]
        nbytes = istream[io + n:io + 2 * n]
        io += 2 * n
        if buf[pos]:
            lins = istream[io:io + n]
            io += n
        else:
            lins = None
        mode = buf[pos + 1]
        pos += 2
        if mode == COL_INT64:
            # astype(object) boxes to exact Python ints in one pass.
            pay = istream[io:io + n].astype(object)
            io += n
        elif mode == COL_FLOAT64:
            pay = fstream[fo:fo + n].astype(object)
            fo += n
        elif mode == COL_OBJECTS:
            pay = np.empty(n, dtype=object)
            for j in range(n):
                pay[j], pos = _unpack_obj(buf, pos)
        else:
            raise WireError(f"unknown payload-column mode {mode}")
        # Bypass __init__: lengths are consistent by construction and
        # wire_bytes rides the wire instead of being re-summed.
        e = _NEW_COLS(P2PColumns)
        e.dests = dests
        e.payloads = pay
        e.nbytes = nbytes
        e.lins = lins
        e.count = n
        e.wire_bytes = wire_bytes
        return e, pos, io, fo
    dests, pos = unpack_from(buf, pos)
    nbytes, pos = unpack_from(buf, pos)
    lins, pos = unpack_from(buf, pos)
    n = len(dests)
    mode = buf[pos]
    pos += 1
    if mode == COL_INT64 or mode == COL_FLOAT64:
        col, pos = unpack_from(buf, pos)
        # astype(object) boxes to exact Python ints/floats, restoring
        # the original object column element types bit-for-bit.
        pay = col.astype(object)
    elif mode == COL_OBJECTS:
        pay = np.empty(n, dtype=object)
        for j in range(n):
            pay[j], pos = _unpack_obj(buf, pos)
    else:
        raise WireError(f"unknown payload-column mode {mode}")
    return P2PColumns(dests, pay, nbytes, lins), pos, io, fo


# -- coalescing entries ------------------------------------------------------
def _pack_entry(rec: bytearray, ibuf: bytearray, fbuf: bytearray, entry):
    tag = _ENTRY_TAGS.get(type(entry), E_OBJ)
    rec.append(tag)
    if tag == E_COLS:
        _pack_cols(rec, ibuf, fbuf, entry)
    elif tag == E_BCAST:
        pack_into(rec, (entry.origin, entry.nbytes, entry.lin))
        _pack_obj(rec, entry.payload)
    elif tag == E_BATCH:
        pack_into(rec, entry.dests)
        pack_into(rec, entry.batch)
        pack_into(rec, None if entry.lins is None else entry.lins)
    else:
        _pack_obj(rec, entry)


def _unpack_entry(buf, pos, istream, fstream, io, fo):
    tag = buf[pos]
    pos += 1
    if tag == E_COLS:
        return _unpack_cols(buf, pos, istream, fstream, io, fo)
    if tag == E_BCAST:
        (origin, nbytes, lin), pos = unpack_from(buf, pos)
        payload, pos = _unpack_obj(buf, pos)
        return BcastEntry(origin, payload, nbytes, lin), pos, io, fo
    if tag == E_BATCH:
        dests, pos = unpack_from(buf, pos)
        batch, pos = unpack_from(buf, pos)
        lins, pos = unpack_from(buf, pos)
        return BatchEntry(dests, batch, lins), pos, io, fo
    if tag == E_OBJ:
        obj, pos = _unpack_obj(buf, pos)
        return obj, pos, io, fo
    raise WireError(f"unknown entry tag {tag}")


# -- whole batches -----------------------------------------------------------
def encode_batch(exports: List[tuple], out: bytearray) -> None:
    """Append the encoding of one export batch to ``out``."""
    n = len(exports)
    pack_into(out, n)
    if n == 0:
        return
    t_wire, src, dst, nbytes, packets = zip(*exports)
    pack_into(out, np.fromiter(t_wire, np.float64, n))
    pack_into(out, np.fromiter(src, np.int64, n))
    pack_into(out, np.fromiter(dst, np.int64, n))
    pack_into(out, np.fromiter(nbytes, np.int64, n))
    metas: List[tuple] = []
    midx: dict = {}
    rec = bytearray()
    ibuf = bytearray()
    fbuf = bytearray()
    for i, pkt in enumerate(packets):
        if (
            pkt.src == src[i]
            and pkt.dst == dst[i]
            and pkt.nbytes == nbytes[i]
        ):
            key = (pkt.ctx, pkt.kind, pkt.tag)
            m = midx.get(key)
            if m is None:
                m = midx[key] = len(metas) + 1
                metas.append(key)
            if m < 0x80:
                rec.append(m)
            else:
                _write_uvarint(rec, m)
            if pkt.lin is None:  # the overwhelmingly common case
                rec.append(0)  # serde T_NONE
            else:
                pack_into(rec, pkt.lin)
        else:
            rec.append(0)
            pack_into(
                rec,
                (pkt.ctx, pkt.kind, pkt.tag, pkt.lin,
                 pkt.src, pkt.dst, pkt.nbytes),
            )
        payload = pkt.payload
        if (
            type(payload) is list
            and payload
            and type(payload[0]) in _ENTRY_TAGS
        ):
            if len(payload) == 1 and type(payload[0]) is P2PColumns:
                rec.append(PAYLOAD_COLS1)
                _pack_cols(rec, ibuf, fbuf, payload[0])
            else:
                rec.append(PAYLOAD_ENTRIES)
                _write_uvarint(rec, len(payload))
                for entry in payload:
                    _pack_entry(rec, ibuf, fbuf, entry)
        else:
            _pack_obj(rec, payload)
    pack_into(out, metas)
    _write_uvarint(out, len(ibuf))
    out += ibuf
    _write_uvarint(out, len(fbuf))
    out += fbuf
    out += rec


def decode_batch(buf) -> List[tuple]:
    """Decode one export batch encoded by :func:`encode_batch`.

    ``buf`` may be any buffer -- including a memoryview straight into a
    shared-memory ring; everything is copied out before returning.
    """
    if type(buf) is not memoryview:
        buf = memoryview(buf)
    n, pos = unpack_from(buf, 0)
    if n == 0:
        return []
    t_wire, pos = unpack_from(buf, pos)
    src, pos = unpack_from(buf, pos)
    dst, pos = unpack_from(buf, pos)
    nbytes, pos = unpack_from(buf, pos)
    t_wire = t_wire.tolist()
    src = src.tolist()
    dst = dst.tolist()
    nbytes = nbytes.tolist()
    metas, pos = unpack_from(buf, pos)
    ilen, pos = _read_uvarint(buf, pos)
    istream = None
    if ilen:
        istream = np.frombuffer(buf[pos:pos + ilen], _I8).copy()
        pos += ilen
    flen, pos = _read_uvarint(buf, pos)
    fstream = None
    if flen:
        fstream = np.frombuffer(buf[pos:pos + flen], _F8).copy()
        pos += flen
    io = 0
    fo = 0
    exports: List[tuple] = []
    append = exports.append
    for i in range(n):
        m = buf[pos]
        if m < 0x80:
            pos += 1
        else:
            m, pos = _read_uvarint(buf, pos)
        if m:
            ctx, kind, tag = metas[m - 1]
            if buf[pos] == 0:  # serde T_NONE: profiling off
                lin = None
                pos += 1
            else:
                lin, pos = unpack_from(buf, pos)
            p_src = src[i]
            p_dst = dst[i]
            p_nbytes = nbytes[i]
        else:
            meta, pos = unpack_from(buf, pos)
            ctx, kind, tag, lin, p_src, p_dst, p_nbytes = meta
        marker = buf[pos]
        pos += 1
        if marker == PAYLOAD_COLS1 and buf[pos] == 1:
            # Inlined fast form of :func:`_unpack_cols` -- the loop body
            # the engine runs once per exported packet.
            cnt = buf[pos + 1]
            if cnt < 0x80:
                pos += 2
            else:
                cnt, pos = _read_uvarint(buf, pos + 1)
            wire_b = buf[pos]
            if wire_b < 0x80:
                pos += 1
            elif buf[pos + 1] < 0x80:
                # Two-byte uvarint: typical wire_bytes of a short run.
                wire_b = (wire_b & 0x7F) | (buf[pos + 1] << 7)
                pos += 2
            else:
                wire_b, pos = _read_uvarint(buf, pos)
            cdests = istream[io:io + cnt]
            cnbytes = istream[io + cnt:io + 2 * cnt]
            io += 2 * cnt
            if buf[pos]:
                clins = istream[io:io + cnt]
                io += cnt
            else:
                clins = None
            mode = buf[pos + 1]
            pos += 2
            if mode == COL_INT64:
                # astype(object) boxes to exact Python ints in one pass.
                pay = istream[io:io + cnt].astype(object)
                io += cnt
            elif mode == COL_FLOAT64:
                pay = fstream[fo:fo + cnt].astype(object)
                fo += cnt
            elif mode == COL_OBJECTS:
                pay = np.empty(cnt, dtype=object)
                for j in range(cnt):
                    pay[j], pos = _unpack_obj(buf, pos)
            else:
                raise WireError(f"unknown payload-column mode {mode}")
            e = _NEW_COLS(P2PColumns)
            e.dests = cdests
            e.payloads = pay
            e.nbytes = cnbytes
            e.lins = clins
            e.count = cnt
            e.wire_bytes = wire_b
            payload = [e]
        elif marker == PAYLOAD_COLS1:
            entry, pos, io, fo = _unpack_cols(
                buf, pos, istream, fstream, io, fo
            )
            payload = [entry]
        elif marker == PAYLOAD_ENTRIES:
            cnt, pos = _read_uvarint(buf, pos)
            payload = []
            for _ in range(cnt):
                entry, pos, io, fo = _unpack_entry(
                    buf, pos, istream, fstream, io, fo
                )
                payload.append(entry)
        elif marker == PAYLOAD_OBJ:
            payload, pos = unpack_from(buf, pos)
        elif marker == PAYLOAD_BYTEARRAY:
            payload, pos = unpack_from(buf, pos)
            payload = bytearray(payload)
        else:
            raise WireError(f"unknown payload marker {marker}")
        # Bypass the dataclass __init__ (it's ~2x the cost of a dict
        # literal and this runs once per packet); field order matches
        # the dataclass declaration so repr/eq behave identically.
        pkt = _NEW_PKT(Packet)
        pkt.__dict__ = {
            "src": p_src, "dst": p_dst, "ctx": ctx, "kind": kind,
            "tag": tag, "payload": payload, "nbytes": p_nbytes, "lin": lin,
        }
        append((t_wire[i], src[i], dst[i], nbytes[i], pkt))
    if (istream is not None and 8 * io != ilen) or (
        fstream is not None and 8 * fo != flen
    ):
        raise WireError(
            f"side streams not fully consumed (int {8 * io}/{ilen} bytes, "
            f"float {8 * fo}/{flen}): corrupt or mispaired batch"
        )
    return exports
