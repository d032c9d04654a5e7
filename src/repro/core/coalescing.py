"""Message coalescing: per-next-hop aggregation buffers (Section IV-A).

When sending many small messages, per-message metadata would dominate the
wire; YGM therefore bundles all messages sharing a next hop into one
packet.  Each buffered *entry* is a run of scalar messages
(:class:`P2PColumns`), one broadcast copy (:class:`BcastEntry`) or a
batch of fixed-width records (:class:`BatchEntry`); a flush turns a
buffer into a single transport packet.

Every message is charged :data:`ENTRY_HEADER_BYTES` of wire overhead on
top of its payload -- identical for the scalar and the batch path, so
routing schemes are compared on equal terms.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

import numpy as np

#: Per-message wire overhead inside a coalesced packet (destination rank,
#: length/type word).
ENTRY_HEADER_BYTES = 8


class BcastEntry:
    """One buffered broadcast copy (still fanning out).

    ``lin`` is the copy's lineage id when the causal profiler is enabled
    (:mod:`repro.trace.profile`), ``None`` otherwise; it rides along
    through forwarding hops at no simulated cost.
    """

    __slots__ = ("origin", "payload", "nbytes", "lin")
    kind = "bcast"

    def __init__(self, origin: int, payload: Any, nbytes: int, lin=None):
        self.origin = origin
        self.payload = payload
        self.nbytes = nbytes
        self.lin = lin

    @property
    def count(self) -> int:
        return 1

    @property
    def wire_bytes(self) -> int:
        return self.nbytes + ENTRY_HEADER_BYTES


class BatchEntry:
    """A batch of fixed-width record messages sharing a next hop.

    A set of parallel columns, moved together by :meth:`take`: ``dests``
    carries the final destination rank of each record, in the route
    table's unsigned key dtype -- intermediaries re-bin on it, and it
    stays that narrow to delivery; ``batch`` is the structured payload
    array (same length).  ``lins`` is the parallel lineage-id column when
    the causal profiler is enabled, ``None`` otherwise.
    """

    __slots__ = ("dests", "batch", "lins", "count")
    kind = "batch"

    def __init__(self, dests: np.ndarray, batch: np.ndarray, lins=None):
        n = len(batch)
        if len(dests) != n:
            raise ValueError(
                f"dests ({len(dests)}) and batch ({n}) lengths differ"
            )
        self.dests = dests
        self.batch = batch
        self.lins = lins
        self.count = n

    def take(self, idx) -> "BatchEntry":
        """The records at ``idx`` (index array, mask or slice), every
        column alike."""
        lins = self.lins
        return BatchEntry(
            self.dests[idx], self.batch[idx], None if lins is None else lins[idx]
        )

    @staticmethod
    def concat(entries: List["BatchEntry"]) -> "BatchEntry":
        """The records of ``entries`` end to end, every column alike
        (a mailbox profiles all of its records or none)."""
        lins = None
        if entries[0].lins is not None:
            lins = np.concatenate([e.lins for e in entries])
        return BatchEntry(
            np.concatenate([e.dests for e in entries]),
            np.concatenate([e.batch for e in entries]),
            lins,
        )

    @property
    def wire_bytes(self) -> int:
        return self.count * (self.batch.dtype.itemsize + ENTRY_HEADER_BYTES)


class P2PColumns:
    """A run of point-to-point messages in struct-of-arrays layout.

    The only representation of a scalar ``send``/``post`` between the
    send call and the receive callback: one NumPy array per field, never
    one Python object per message, moved together by :meth:`take`.
    ``dests[i]`` is the final destination rank of message ``i``,
    ``payloads[i]`` its payload (an object column -- payloads stay
    arbitrary Python values until a handler boundary), ``nbytes[i]`` its
    wire size, and ``lins`` the parallel lineage-id column when the
    causal profiler is enabled (``None`` otherwise).

    All columns are plain contiguous ndarrays, so a whole run pickles as
    four buffers, and the PDES wire codec (:mod:`repro.pdes.wire`) ships
    it between worker processes without touching individual messages.

    This and :class:`BatchEntry` are two payload formats under one
    routing rule (``Mailbox._route``): an entry delivers what ends here,
    then queues its forwards, hop ascending.
    """

    __slots__ = ("dests", "payloads", "nbytes", "lins", "count", "wire_bytes")
    kind = "p2p_cols"

    def __init__(
        self,
        dests: np.ndarray,
        payloads: np.ndarray,
        nbytes: np.ndarray,
        lins: Optional[np.ndarray] = None,
    ):
        n = len(dests)
        if not (n == len(payloads) == len(nbytes)):
            raise ValueError(
                f"column lengths differ: dests {n}, "
                f"payloads {len(payloads)}, nbytes {len(nbytes)}"
            )
        self.dests = dests
        self.payloads = payloads
        self.nbytes = nbytes
        self.lins = lins
        self.count = n
        # Precomputed: the flush path reads it once per run, and columns
        # are immutable after construction.
        self.wire_bytes = int(nbytes.sum()) + n * ENTRY_HEADER_BYTES

    def take(self, idx) -> "P2PColumns":
        """The messages at ``idx`` (index array, mask or slice), every
        column alike."""
        lins = self.lins
        return P2PColumns(
            self.dests[idx], self.payloads[idx], self.nbytes[idx],
            None if lins is None else lins[idx],
        )


class CoalescingBuffer:
    """Aggregation buffer for one next hop.

    Two ways in.  :meth:`add` appends a whole entry (a broadcast copy, a
    record batch, or a pre-built :class:`P2PColumns` run re-binned at an
    intermediary).  :meth:`add_p2p` appends one scalar message to the
    open *columnar run*: plain per-field Python lists, materialised as
    one :class:`P2PColumns` entry only when the run is interrupted (an
    :meth:`add`) or the buffer is drained.  Entry order -- and therefore
    packet content order -- is exactly the order of the calls.  The run's
    lists are made on the first :meth:`add_p2p`, so a buffer that only
    ever carries batches or broadcasts holds none.
    """

    __slots__ = (
        "hop", "entries", "nbytes", "count",
        "_run_dests", "_run_payloads", "_run_nbytes", "_run_lins",
    )

    def __init__(self, hop: int):
        self.hop = hop
        self.entries: List[Any] = []
        self.nbytes = 0  # wire bytes including per-entry headers
        self.count = 0  # messages
        self._run_dests: Optional[List[int]] = None
        self._run_payloads: Optional[List[Any]] = None
        self._run_nbytes: Optional[List[int]] = None
        self._run_lins: Optional[List[Any]] = None

    def add(self, entry) -> None:
        """Append a whole entry, closing the open scalar run first."""
        if self._run_dests:
            self._close_run()
        self.entries.append(entry)
        self.nbytes += entry.wire_bytes
        self.count += entry.count

    def add_p2p(self, dest: int, payload: Any, nbytes: int, lin=None) -> None:
        """Append one scalar message to the open columnar run."""
        if self._run_dests is None:
            self._run_dests, self._run_payloads = [], []
            self._run_nbytes, self._run_lins = [], []
        self._run_dests.append(dest)
        self._run_payloads.append(payload)
        self._run_nbytes.append(nbytes)
        self._run_lins.append(lin)
        self.nbytes += nbytes + ENTRY_HEADER_BYTES
        self.count += 1

    def _close_run(self) -> None:
        n = len(self._run_dests)
        dests = np.array(self._run_dests, dtype=np.int64)
        payloads = np.fromiter(self._run_payloads, dtype=object, count=n)
        sizes = np.array(self._run_nbytes, dtype=np.int64)
        # A mailbox either profiles every message or none, so the run's
        # lineage column is all-ints or all-None.
        lins = None
        if self._run_lins[0] is not None:
            lins = np.array(self._run_lins, dtype=np.int64)
        self.entries.append(P2PColumns(dests, payloads, sizes, lins))
        self._run_dests.clear()
        self._run_payloads.clear()
        self._run_nbytes.clear()
        self._run_lins.clear()

    def take(self) -> Tuple[List[Any], int, int]:
        """Drain the buffer; returns ``(entries, wire_bytes, messages)``.

        Ownership of the entries list transfers to the caller; the
        buffer starts a fresh list.
        """
        if self._run_dests:
            self._close_run()
        out = (self.entries, self.nbytes, self.count)
        self.entries = []
        self.nbytes = 0
        self.count = 0
        return out

    def __len__(self) -> int:
        return self.count

    def __bool__(self) -> bool:
        return self.count > 0
