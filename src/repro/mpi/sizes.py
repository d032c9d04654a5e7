"""Payload size measurement for the simulated transport.

The network model times packets by their wire size.  For NumPy arrays the
size is exact (``nbytes``); for generic Python objects we use the serde
encoding size -- the same bytes a real YGM would put on the wire through
cereal.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Optional

import numpy as np

from ..serde import packed_size
from ..serde.sizing import _SIZE_HANDLERS, int64_packed_sizes

# Exact-type dispatch: serde's size column, except that raw buffers are
# charged their own length (they travel without serde framing).
_SIZERS = {**_SIZE_HANDLERS, np.ndarray: attrgetter("nbytes"),
           bytes: len, bytearray: len, memoryview: len}


def payload_nbytes(payload: Any, nbytes: Optional[int] = None) -> int:
    """Wire size of ``payload`` (excluding the packet header).

    An explicit ``nbytes`` always wins (callers that already know the
    encoded size, e.g. coalesced YGM buffers, avoid re-measuring).
    """
    if nbytes is not None:
        if nbytes < 0:
            raise ValueError(f"negative payload size: {nbytes}")
        return nbytes
    sizer = _SIZERS.get(type(payload))
    if sizer is not None:
        return sizer(payload)
    if isinstance(payload, np.ndarray):
        return payload.nbytes
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    return packed_size(payload)


def payload_nbytes_many(payloads, nbytes=None) -> np.ndarray:
    """Vectorized :func:`payload_nbytes` for a payload column (int64).

    ``nbytes`` may be ``None`` (measure every payload), one int (all
    payloads share the size) or a parallel array of per-payload sizes.
    Element-for-element equal to calling :func:`payload_nbytes` in a
    loop; an all-``int`` payload column is measured in bulk.
    """
    n = len(payloads)
    if nbytes is not None:
        sizes = np.asarray(nbytes, dtype=np.int64)
        if sizes.ndim == 0:
            if sizes < 0:
                raise ValueError(f"negative payload size: {int(sizes)}")
            return np.full(n, int(sizes), dtype=np.int64)
        if sizes.shape != (n,):
            raise ValueError(
                f"nbytes shape {sizes.shape} does not match {n} payloads"
            )
        if n and sizes.min() < 0:
            raise ValueError(f"negative payload size: {int(sizes.min())}")
        return sizes
    sizes = int64_packed_sizes(payloads)
    if sizes is None:  # mixed types or beyond int64: one payload at a time
        sizes = np.fromiter(map(payload_nbytes, payloads), dtype=np.int64, count=n)
    return sizes
