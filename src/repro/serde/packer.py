"""A compact binary serializer for variable-length messages.

This is the reproduction's substitute for *cereal*, the C++ serialization
library YGM uses (paper Section IV-C).  Like cereal it provides:

* support for the common container types out of the box (here: ``None``,
  ``bool``, ``int``, ``float``, ``bytes``, ``str``, ``list``, ``tuple``,
  ``dict``, ``set`` and NumPy arrays), so users rarely write their own
  packing code,
* an extension point for user types (:mod:`repro.serde.registry`),
* deterministic, byte-accurate encoded sizes -- which is what the network
  model consumes to time packets.

The format is a type-tag byte followed by a payload.  Integers use
zigzag varint encoding; containers are length-prefixed.  ``pickle`` is
deliberately not used: its output size is noisy (memoisation, protocol
framing) and the whole point here is faithful message-size accounting.

Packing dispatches on exact type through one type table rather than an
``elif`` chain, and unpacking through a 256-entry tag table; both produce
the same bytes as the original chain for every input (pinned by the
reference-encoding property tests).  Each table row pairs the writer of an
encoding with a function that computes its length without writing it.
:func:`pack_many`/:func:`unpack_many` batch a stream through one buffer.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Dict, Iterable, List, Tuple

import numpy as np

from .registry import lookup_by_id, lookup_by_type

# --------------------------------------------------------------------- tags
T_NONE = 0x00
T_FALSE = 0x01
T_TRUE = 0x02
T_INT = 0x03
T_FLOAT = 0x04
T_BYTES = 0x05
T_STR = 0x06
T_LIST = 0x07
T_TUPLE = 0x08
T_DICT = 0x09
T_SET = 0x0A
T_NDARRAY = 0x0B
T_CUSTOM = 0x0C
T_NPSCALAR = 0x0D

_F64 = struct.Struct("<d")
_F64_PACK = _F64.pack
_F64_UNPACK_FROM = _F64.unpack_from


class SerdeError(ValueError):
    """Raised on unserialisable input or corrupt encoded data."""


# ------------------------------------------------------------------ varints
def _write_uvarint(out: bytearray, value: int) -> None:
    while True:
        b = value & 0x7F
        value >>= 7
        if value:
            out.append(b | 0x80)
        else:
            out.append(b)
            return


def _read_uvarint(buf: memoryview, pos: int) -> Tuple[int, int]:
    shift = 0
    value = 0
    while True:
        if pos >= len(buf):
            raise SerdeError("truncated varint")
        b = buf[pos]
        pos += 1
        value |= (b & 0x7F) << shift
        if not (b & 0x80):
            return value, pos
        shift += 7


def _uvarint_len(value: int) -> int:
    """Bytes :func:`_write_uvarint` emits for ``value``."""
    return (value.bit_length() + 6) // 7 or 1


# ------------------------------------------------------------------ packing
#
# The pack column: one handler per exact type, dispatched through a dict
# keyed on ``type(obj)``.  Anything not in the table (NumPy scalars, array
# subclasses, registered user types, unknown types) falls through to
# :func:`_pack_other`, which keeps the original chain's check order.

def _pack_none(out: bytearray, obj: Any) -> None:
    out.append(T_NONE)


def _pack_bool(out: bytearray, obj: Any) -> None:
    out.append(T_TRUE if obj else T_FALSE)


def _pack_int(out: bytearray, obj: Any) -> None:
    out.append(T_INT)
    zz = obj * 2 if obj >= 0 else -obj * 2 - 1
    if zz < 0x80:
        out.append(zz)
    else:
        _write_uvarint(out, zz)


def _pack_float(out: bytearray, obj: Any) -> None:
    out.append(T_FLOAT)
    out += _F64_PACK(obj)


def _pack_bytes(out: bytearray, obj: Any) -> None:
    out.append(T_BYTES)
    n = len(obj)
    if n < 0x80:
        out.append(n)
    else:
        _write_uvarint(out, n)
    out += obj


def _pack_str(out: bytearray, obj: Any) -> None:
    raw = obj.encode("utf-8")
    out.append(T_STR)
    n = len(raw)
    if n < 0x80:
        out.append(n)
    else:
        _write_uvarint(out, n)
    out += raw


def _pack_seq(out: bytearray, obj: Any) -> None:
    out.append(T_LIST if type(obj) is list else T_TUPLE)
    n = len(obj)
    if n < 0x80:
        out.append(n)
    else:
        _write_uvarint(out, n)
    handlers = _PACK_HANDLERS
    other = _pack_other
    for item in obj:
        handlers.get(type(item), other)(out, item)


def _pack_dict(out: bytearray, obj: Any) -> None:
    out.append(T_DICT)
    n = len(obj)
    if n < 0x80:
        out.append(n)
    else:
        _write_uvarint(out, n)
    handlers = _PACK_HANDLERS
    other = _pack_other
    for key, val in obj.items():
        handlers.get(type(key), other)(out, key)
        handlers.get(type(val), other)(out, val)


def _pack_set(out: bytearray, obj: Any) -> None:
    out.append(T_SET)
    _write_uvarint(out, len(obj))
    # Sort by encoding for deterministic output.
    encoded = sorted(pack(item) for item in obj)
    for enc in encoded:
        out += enc


def _custom_entry(obj: Any):
    entry = lookup_by_type(type(obj))
    if entry is None:
        raise SerdeError(
            f"cannot serialize {type(obj).__name__}; register it with "
            "repro.serde.register()"
        )
    return entry


def _pack_other(out: bytearray, obj: Any) -> None:
    """Fallback for types outside the dispatch table (original chain tail)."""
    if isinstance(obj, np.ndarray):
        _pack_ndarray(out, obj)
    elif isinstance(obj, np.generic):
        out.append(T_NPSCALAR)
        descr = obj.dtype.str.encode("ascii")
        _write_uvarint(out, len(descr))
        out += descr
        out += obj.tobytes()
    else:
        entry = _custom_entry(obj)
        out.append(T_CUSTOM)
        _write_uvarint(out, entry.type_id)
        pack_into(out, entry.to_state(obj))


# Hot-path caches: a run ships the same handful of dtypes millions of
# times, and both ``np.dtype(str)`` construction and ``dtype.str`` are
# surprisingly expensive NumPy calls.  dtype objects are immutable and
# the set seen per process is tiny, so unbounded dicts are safe.
_DTYPE_PACK_CACHE: Dict[np.dtype, bytes] = {}
_DTYPE_UNPACK_CACHE: Dict[bytes, np.dtype] = {}


def _pack_dtype(out: bytearray, dtype: np.dtype) -> None:
    """Encode a dtype: flag 0 + string form, or flag 1 + structured descr."""
    if dtype.names:
        out.append(1)
        # descr is a nested list/tuple/str structure; reuse the packer.
        pack_into(out, _descr_to_plain(dtype.descr))
    else:
        enc = _DTYPE_PACK_CACHE.get(dtype)
        if enc is None:
            descr = dtype.str.encode("ascii")
            hdr = bytearray((0,))
            _write_uvarint(hdr, len(descr))
            enc = _DTYPE_PACK_CACHE[dtype] = bytes(hdr) + descr
        out += enc


def _descr_to_plain(descr):
    """Normalise np.dtype.descr into pure lists/tuples/str/int."""
    plain = []
    for entry in descr:
        plain.append(tuple(_descr_to_plain(e) if isinstance(e, list) else e for e in entry))
    return plain


def _unpack_dtype(buf: memoryview, pos: int) -> Tuple[np.dtype, int]:
    flag = buf[pos]
    pos += 1
    if flag == 1:
        descr, pos = _unpack_from(buf, pos)
        return np.dtype([tuple(e) for e in descr]), pos
    n, pos = _read_uvarint(buf, pos)
    key = bytes(buf[pos : pos + n])
    dtype = _DTYPE_UNPACK_CACHE.get(key)
    if dtype is None:
        dtype = _DTYPE_UNPACK_CACHE[key] = np.dtype(key.decode("ascii"))
    return dtype, pos + n


def _pack_ndarray(out: bytearray, arr: np.ndarray) -> None:
    if arr.dtype.hasobject:
        raise SerdeError("object-dtype arrays are not serialisable")
    out.append(T_NDARRAY)
    _pack_dtype(out, arr.dtype)
    _write_uvarint(out, arr.ndim)
    for dim in arr.shape:
        _write_uvarint(out, dim)
    if arr.flags.c_contiguous:
        # Append straight from the array's buffer: one copy instead of the
        # two that tobytes() + append would make.  Same bytes either way.
        try:
            out += arr.data
            return
        except (BufferError, ValueError, TypeError):
            pass  # dtype can't export a buffer (e.g. datetime64)
    out += np.ascontiguousarray(arr).tobytes()


# ------------------------------------------------------------------- sizing
#
# The size column: ``size_fn(obj) == len(pack_fn(obj))`` by arithmetic on
# what the pack column would write (tools/hotpath_lint.py, rule 6).

def _size_tag(obj: Any) -> int:
    return 1


def _size_int(obj: Any) -> int:
    zz = obj * 2 if obj >= 0 else -obj * 2 - 1
    return 2 if zz < 0x80 else 1 + (zz.bit_length() + 6) // 7


def _size_float(obj: Any) -> int:
    return 9


def _size_bytes(obj: Any) -> int:
    n = len(obj)  # tag, uvarint length, that many bytes
    return n + 2 if n < 0x80 else n + 1 + _uvarint_len(n)


def _size_str(obj: Any) -> int:
    n = len(obj) if obj.isascii() else len(obj.encode("utf-8"))
    return n + 2 if n < 0x80 else n + 1 + _uvarint_len(n)


def _size_items(obj: Any) -> int:
    """list, tuple, set, frozenset: tag + count + items, in any order."""
    total = 2 if len(obj) < 0x80 else 1 + _uvarint_len(len(obj))
    sizes = _SIZE_HANDLERS
    other = _size_other
    for item in obj:
        total += sizes.get(type(item), other)(item)
    return total


def _size_dict(obj: Any) -> int:
    total = 2 if len(obj) < 0x80 else 1 + _uvarint_len(len(obj))
    sizes = _SIZE_HANDLERS
    other = _size_other
    for key, val in obj.items():
        total += sizes.get(type(key), other)(key) + sizes.get(type(val), other)(val)
    return total


def _size_ndarray(arr: np.ndarray) -> int:
    dtype = arr.dtype
    if dtype.hasobject:
        raise SerdeError("object-dtype arrays are not serialisable")
    if dtype.names:  # flag byte + the packed plain descr
        descr = 1 + _size_items(_descr_to_plain(dtype.descr))
    else:  # flag byte standing where the string's own tag would
        descr = _size_bytes(dtype.str)
    return 1 + descr + sum(map(_uvarint_len, (arr.ndim, *arr.shape))) + arr.nbytes


def _size_other(obj: Any) -> int:
    if isinstance(obj, np.ndarray):
        return _size_ndarray(obj)
    if isinstance(obj, np.generic):
        # tobytes() widens a zero-width str_/bytes_ to one character.
        body = obj.dtype.itemsize or np.asarray(obj).nbytes
        return _size_bytes(obj.dtype.str) + body
    entry = _custom_entry(obj)
    return 1 + _uvarint_len(entry.type_id) + packed_size(entry.to_state(obj))


# One row per exact type: (pack column, size column).  The two dispatch
# dicts are derived from this literal, so a hot lookup stays one dict.get;
# everything else goes through _pack_other / _size_other.
_TYPE_TABLE: Dict[type, Tuple[Callable[[bytearray, Any], None], Callable[[Any], int]]] = {
    type(None): (_pack_none, _size_tag),
    bool: (_pack_bool, _size_tag),
    int: (_pack_int, _size_int),
    float: (_pack_float, _size_float),
    bytes: (_pack_bytes, _size_bytes),
    str: (_pack_str, _size_str),
    list: (_pack_seq, _size_items),
    tuple: (_pack_seq, _size_items),
    dict: (_pack_dict, _size_dict),
    set: (_pack_set, _size_items),
    frozenset: (_pack_set, _size_items),
    np.ndarray: (_pack_ndarray, _size_ndarray),
}
_PACK_HANDLERS = {tp: row[0] for tp, row in _TYPE_TABLE.items()}
_SIZE_HANDLERS = {tp: row[1] for tp, row in _TYPE_TABLE.items()}


def pack(obj: Any) -> bytes:
    """Serialize ``obj`` to bytes."""
    out = bytearray()
    _PACK_HANDLERS.get(type(obj), _pack_other)(out, obj)
    return bytes(out)


def pack_into(out: bytearray, obj: Any) -> None:
    """Append the encoding of ``obj`` to ``out`` (caller-owned buffer)."""
    _PACK_HANDLERS.get(type(obj), _pack_other)(out, obj)


def pack_many(objs: Iterable[Any], out: "bytearray | None" = None) -> bytes:
    """Serialize a stream of objects into one concatenated blob.

    Byte-identical to ``b"".join(pack(o) for o in objs)`` but builds the
    whole stream in a single buffer (``out`` if supplied, so callers can
    recycle one bytearray across batches).
    """
    buf = bytearray() if out is None else out
    handlers = _PACK_HANDLERS
    other = _pack_other
    for obj in objs:
        handlers.get(type(obj), other)(buf, obj)
    return bytes(buf)


def packed_size(obj: Any) -> int:
    """The encoded size of ``obj`` in bytes (== ``len(pack(obj))``)."""
    return _SIZE_HANDLERS.get(type(obj), _size_other)(obj)


def int64_packed_sizes(objs) -> "np.ndarray | None":
    """Encoded sizes of a column of plain ``int`` objects, or ``None``.

    ``None`` sends the caller to its per-element loop: for an empty column,
    a value beyond int64, or an element whose ``type`` is not exactly
    ``int`` (bool packs as a tag byte, NumPy scalars through their own
    handler -- hence the exact-type scan, run in C by ``set(map(...))``).
    """
    n = len(objs)
    if not n or set(map(type, objs)) != {int}:
        return None
    try:
        v = np.fromiter(objs, dtype=np.int64, count=n)
    except OverflowError:
        return None  # some value exceeds int64; the loop handles big ints
    # Zigzag with int64 wrap semantics: ``(v << 1) ^ (v >> 63)`` viewed
    # as uint64 matches Python's arbitrary-precision ``v*2`` / ``-v*2-1``
    # for the whole int64 range (including -2**63 -> 2**64 - 1).
    zz = ((v << 1) ^ (v >> 63)).view(np.uint64)
    # Tag byte + 1 payload byte, plus one byte per additional 7-bit
    # group of the zigzag value (uvarint length).
    sizes = np.full(n, 2, dtype=np.int64)
    for k in range(1, 10):
        sizes += zz >= np.uint64(1 << (7 * k))
    return sizes


def packed_size_many(objs) -> np.ndarray:
    """Vectorized :func:`packed_size` over a sequence (int64 array).

    Element-for-element equal to ``[packed_size(o) for o in objs]``.  The
    all-``int`` case -- the dominant payload shape of scalar mailbox
    traffic -- is computed with NumPy zigzag/varint arithmetic instead of
    one size walk per element; anything else (mixed types, ints
    beyond int64) falls back to :func:`packed_size` per element.
    """
    sizes = int64_packed_sizes(objs)
    if sizes is None:
        sizes = np.fromiter(map(packed_size, objs), dtype=np.int64, count=len(objs))
    return sizes


# ---------------------------------------------------------------- unpacking
#
# One handler per tag, indexed by the tag byte; handlers receive the
# position *after* the tag.  A handler reading past the end raises
# IndexError, which the public entry points convert to SerdeError.

def _unpack_none(buf: memoryview, pos: int) -> Tuple[Any, int]:
    return None, pos


def _unpack_false(buf: memoryview, pos: int) -> Tuple[Any, int]:
    return False, pos


def _unpack_true(buf: memoryview, pos: int) -> Tuple[Any, int]:
    return True, pos


def _unpack_int(buf: memoryview, pos: int) -> Tuple[Any, int]:
    b = buf[pos]
    if b < 0x80:
        return (b >> 1) ^ -(b & 1), pos + 1
    zz, pos = _read_uvarint(buf, pos)
    return (zz >> 1) ^ -(zz & 1), pos


def _unpack_float(buf: memoryview, pos: int) -> Tuple[Any, int]:
    return _F64_UNPACK_FROM(buf, pos)[0], pos + 8


def _unpack_bytes(buf: memoryview, pos: int) -> Tuple[Any, int]:
    n, pos = _read_uvarint(buf, pos)
    return bytes(buf[pos : pos + n]), pos + n


def _unpack_str(buf: memoryview, pos: int) -> Tuple[Any, int]:
    n, pos = _read_uvarint(buf, pos)
    return bytes(buf[pos : pos + n]).decode("utf-8"), pos + n


def _unpack_list(buf: memoryview, pos: int) -> Tuple[Any, int]:
    n, pos = _read_uvarint(buf, pos)
    handlers = _UNPACK_HANDLERS
    items = []
    append = items.append
    for _ in range(n):
        item, pos = handlers[buf[pos]](buf, pos + 1)
        append(item)
    return items, pos


def _unpack_tuple(buf: memoryview, pos: int) -> Tuple[Any, int]:
    items, pos = _unpack_list(buf, pos)
    return tuple(items), pos


def _unpack_dict(buf: memoryview, pos: int) -> Tuple[Any, int]:
    n, pos = _read_uvarint(buf, pos)
    handlers = _UNPACK_HANDLERS
    d = {}
    for _ in range(n):
        key, pos = handlers[buf[pos]](buf, pos + 1)
        val, pos = handlers[buf[pos]](buf, pos + 1)
        d[key] = val
    return d, pos


def _unpack_set(buf: memoryview, pos: int) -> Tuple[Any, int]:
    n, pos = _read_uvarint(buf, pos)
    handlers = _UNPACK_HANDLERS
    items = set()
    add = items.add
    for _ in range(n):
        item, pos = handlers[buf[pos]](buf, pos + 1)
        add(item)
    return items, pos


def _unpack_npscalar(buf: memoryview, pos: int) -> Tuple[Any, int]:
    n, pos = _read_uvarint(buf, pos)
    dtype = np.dtype(bytes(buf[pos : pos + n]).decode("ascii"))
    pos += n
    value = np.frombuffer(buf[pos : pos + dtype.itemsize], dtype=dtype)[0]
    return value, pos + dtype.itemsize


def _unpack_custom(buf: memoryview, pos: int) -> Tuple[Any, int]:
    type_id, pos = _read_uvarint(buf, pos)
    entry = lookup_by_id(type_id)
    if entry is None:
        raise SerdeError(f"unknown custom type id {type_id}")
    state, pos = _unpack_from(buf, pos)
    return entry.from_state(state), pos


def _unpack_ndarray(buf: memoryview, pos: int) -> Tuple[np.ndarray, int]:
    dtype, pos = _unpack_dtype(buf, pos)
    ndim, pos = _read_uvarint(buf, pos)
    if ndim == 1:
        # Hot path: the 1-D columns the PDES wire codec ships by the
        # million.  No reshape, no np.prod -- frombuffer + copy only.
        count, pos = _read_uvarint(buf, pos)
        nbytes = count * dtype.itemsize
        arr = np.frombuffer(buf[pos : pos + nbytes], dtype=dtype).copy()
        return arr, pos + nbytes
    shape = []
    count = 1
    for _ in range(ndim):
        dim, pos = _read_uvarint(buf, pos)
        shape.append(dim)
        count *= dim
    nbytes = count * dtype.itemsize
    arr = np.frombuffer(buf[pos : pos + nbytes], dtype=dtype).reshape(shape).copy()
    return arr, pos + nbytes


def _unpack_badtag_factory(tag: int) -> Callable[[memoryview, int], Tuple[Any, int]]:
    def _unpack_badtag(buf: memoryview, pos: int) -> Tuple[Any, int]:
        raise SerdeError(f"unknown type tag 0x{tag:02x}")

    return _unpack_badtag


_UNPACK_HANDLERS: List[Callable[[memoryview, int], Tuple[Any, int]]] = [
    _unpack_badtag_factory(tag) for tag in range(256)
]
_UNPACK_HANDLERS[T_NONE] = _unpack_none
_UNPACK_HANDLERS[T_FALSE] = _unpack_false
_UNPACK_HANDLERS[T_TRUE] = _unpack_true
_UNPACK_HANDLERS[T_INT] = _unpack_int
_UNPACK_HANDLERS[T_FLOAT] = _unpack_float
_UNPACK_HANDLERS[T_BYTES] = _unpack_bytes
_UNPACK_HANDLERS[T_STR] = _unpack_str
_UNPACK_HANDLERS[T_LIST] = _unpack_list
_UNPACK_HANDLERS[T_TUPLE] = _unpack_tuple
_UNPACK_HANDLERS[T_DICT] = _unpack_dict
_UNPACK_HANDLERS[T_SET] = _unpack_set
_UNPACK_HANDLERS[T_NDARRAY] = _unpack_ndarray
_UNPACK_HANDLERS[T_NPSCALAR] = _unpack_npscalar
_UNPACK_HANDLERS[T_CUSTOM] = _unpack_custom


def _unpack_from(buf: memoryview, pos: int) -> Tuple[Any, int]:
    if pos >= len(buf):
        raise SerdeError("truncated data")
    return _UNPACK_HANDLERS[buf[pos]](buf, pos + 1)


def unpack_from(data, pos: int = 0) -> Tuple[Any, int]:
    """Deserialize one object from ``data`` at ``pos``; returns
    ``(obj, next_pos)``.

    The incremental entry point for stream decoders: the PDES ring
    transport (:mod:`repro.pdes.wire`) writes concatenated encodings
    with :func:`pack_into` and reads them back object by object straight
    out of shared memory, without slicing per-object blobs first.
    ``data`` may be any buffer (bytes, bytearray, memoryview).
    """
    buf = data if type(data) is memoryview else memoryview(data)
    if pos >= len(buf):
        raise SerdeError("truncated data")
    try:
        return _UNPACK_HANDLERS[buf[pos]](buf, pos + 1)
    except (IndexError, struct.error):
        raise SerdeError("truncated data") from None


def unpack(data: bytes) -> Any:
    """Deserialize bytes produced by :func:`pack`."""
    buf = memoryview(data)
    if not buf:
        raise SerdeError("truncated data")
    try:
        obj, pos = _UNPACK_HANDLERS[buf[0]](buf, 1)
    except (IndexError, struct.error):
        raise SerdeError("truncated data") from None
    if pos != len(data):
        raise SerdeError(f"{len(data) - pos} trailing bytes after object")
    return obj


def unpack_many(data: bytes) -> List[Any]:
    """Deserialize a concatenated blob produced by :func:`pack_many`."""
    buf = memoryview(data)
    end = len(buf)
    handlers = _UNPACK_HANDLERS
    out: List[Any] = []
    append = out.append
    pos = 0
    try:
        while pos < end:
            obj, pos = handlers[buf[pos]](buf, pos + 1)
            append(obj)
    except (IndexError, struct.error):
        raise SerdeError("truncated data") from None
    if pos != end:
        raise SerdeError(f"object ran {pos - end} bytes past the blob")
    return out
