"""Byte-accurate encoded sizes of variable-length messages.

This is the reproduction's substitute for *cereal*, the C++ serialization
library YGM uses (paper Section IV-C).  The simulation times packets by
their encoded *length* only, so this module sizes the encoding without
writing it: ``None``, ``bool``, ``int``, ``float``, ``bytes``, ``str``,
``list``, ``tuple``, ``dict``, ``set``, NumPy arrays and scalars out of
the box, user types through :mod:`repro.serde.registry`.

The format is a type-tag byte followed by a payload: zigzag varint
integers, length-prefixed containers.  ``pickle`` is deliberately not
used: its output size is noisy (memoisation, protocol framing) and the
whole point here is faithful message-size accounting.  The encoder and
decoder live with the parallel engine's wire codec, the only code that
ships bytes; ``tests/serde/reference_packer.py`` freezes the format.

Sizing dispatches on exact type through one table, :data:`_SIZE_HANDLERS`;
anything else falls through to :func:`_size_other`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

import numpy as np

from .registry import lookup_by_type


class SerdeError(ValueError):
    """Raised on unserialisable input or corrupt encoded data."""


def _uvarint_len(value: int) -> int:
    """Bytes a uvarint encoding of ``value`` takes (7 bits per byte)."""
    return (value.bit_length() + 6) // 7 or 1


def _custom_entry(obj: Any):
    entry = lookup_by_type(type(obj))
    if entry is None:
        raise SerdeError(
            f"cannot serialize {type(obj).__name__}; register it with "
            "repro.serde.register()"
        )
    return entry


def _descr_to_plain(descr):
    """Normalise np.dtype.descr into pure lists/tuples/str/int."""
    plain = []
    for entry in descr:
        plain.append(tuple(_descr_to_plain(e) if isinstance(e, list) else e for e in entry))
    return plain


# ------------------------------------------------------------------- sizing
#
# The size column: ``size_fn(obj)`` is the length of the encoding of
# ``obj``, by arithmetic on what the encoder would write
# (tools/hotpath_lint.py, rule 6).

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


# One row per exact type, so a hot lookup stays one dict.get; everything
# else goes through _size_other.
_SIZE_HANDLERS: Dict[type, Callable[[Any], int]] = {
    type(None): _size_tag,
    bool: _size_tag,
    int: _size_int,
    float: _size_float,
    bytes: _size_bytes,
    str: _size_str,
    list: _size_items,
    tuple: _size_items,
    dict: _size_dict,
    set: _size_items,
    frozenset: _size_items,
    np.ndarray: _size_ndarray,
}


def packed_size(obj: Any) -> int:
    """The encoded size of ``obj`` in bytes."""
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
