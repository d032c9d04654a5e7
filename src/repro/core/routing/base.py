"""The routing-scheme interface (paper Section III).

A routing scheme decides, for a message currently held by rank ``cur``
with final destination ``dest``, which rank it should be forwarded to
next, and for broadcasts, the fan-out a holder performs
(``bcast_targets``).

All schemes are pure functions of the machine shape ``(N nodes, C cores)``
-- the paper's point versus NAPSpMV is precisely that the routing depends
only on topology, not on the application (Section II).  So a scheme *is*
its table: :meth:`RoutingScheme.next_hop_vec` is the one route
definition, and the route from a rank is tabulated once (Traeff et al.'s
"precompute the permutation input for an isomorphic pattern") in the
narrowest unsigned dtype that holds a rank id.  Everything else is read
from that table: re-binning keys (one ``take``, which NumPy's stable
``argsort`` radix-sorts up to 16 bits), the scalar ``post`` hop (one list
index) and the remote partner sets of the Section III-E channel analysis.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ...machine import address


class RoutingScheme(ABC):
    """Base class for YGM message-routing schemes."""

    #: Registry name (e.g. ``"nlnr"``).
    name: str = "base"
    #: Whether local hops are free (models the hybrid MPI+threads YGM of
    #: Section VII, where on-node copies are eliminated).
    free_local_hops: bool = False

    def __init__(self, nodes: int, cores_per_node: int):
        address.validate_shape(nodes, cores_per_node)
        self.nodes = nodes
        self.cores = cores_per_node
        self.nranks = nodes * cores_per_node
        #: Hop-key dtype: ``uint8`` up to 256 ranks, ``uint16`` up to 65,536.
        self._key_dtype = np.min_scalar_type(self.nranks - 1)
        #: ``cur`` -> hop table (nranks * itemsize bytes), built on first use.
        self._hop_tables: Dict[int, np.ndarray] = {}
        #: ``cur`` -> the same table as a Python list, for scalar posts.
        self._hop_lists: Dict[int, List[int]] = {}
        #: ``(cur, origin)`` -> broadcast targets, built on first use.
        self._bcast_trees: Dict[Tuple[int, int], Tuple[int, ...]] = {}

    def bind_machine(self, machine) -> None:
        """Attach the simulated machine this scheme routes on.

        Called once per :class:`~repro.core.context.YgmWorld` (and once
        per partition by ``repro.pdes.worker.PartitionRuntime``, on the
        partition's own machine) before any traffic flows.  Static
        schemes ignore it; :class:`~.adaptive.Adaptive` stores the NIC
        resources so routing can consult live occupancy.
        """

    # -- point-to-point routing ------------------------------------------------
    @abstractmethod
    def next_hop_vec(self, cur: int, dests: np.ndarray) -> np.ndarray:
        """The rank ``cur`` forwards each ``dests``-bound message to.

        The scheme's one route definition, as NumPy arithmetic over a
        destination column.  An entry is the destination itself on the
        final hop, and at ``cur == dest``.
        """

    def hop_table(self, cur: int) -> np.ndarray:
        """The route from ``cur`` over every rank: ``table[dest]`` is the
        next hop, in ``_key_dtype``.  Built by :meth:`next_hop_vec` once
        per rank, then read back."""
        table = self._hop_tables.get(cur)
        if table is None:
            table = self.next_hop_vec(cur, np.arange(self.nranks))
            table = self._hop_tables[cur] = table.astype(self._key_dtype)
        return table

    def hop_list(self, cur: int) -> Sequence[int]:
        """:meth:`hop_table` as a Python list: the scalar ``post`` hop is
        ``hop_list(cur)[dest]``, one list index and no NumPy scalar."""
        hops = self._hop_lists.get(cur)
        if hops is None:
            hops = self._hop_lists[cur] = self.hop_table(cur).tolist()
        return hops

    def _hop_keys(self, cur: int, dests: np.ndarray) -> np.ndarray:
        """The next hop of every entry of ``dests``, as ``_key_dtype`` keys."""
        table = self._hop_tables.get(cur)  # on a hit: no method call
        return (self.hop_table(cur) if table is None else table).take(dests)

    def bin_by_hop(self, cur: int, dests: np.ndarray, counts=None):
        """Group a destination column by next hop (batch re-binning kernel).

        Returns ``(hops, order, starts, ends)``: ``order`` is the stable
        permutation that groups ``dests`` by hop (``None`` when every
        destination already shares one hop -- the permutation would be the
        identity, so callers skip the gather), and ``hops[starts[k]]`` is
        the hop of segment ``k`` = ``[starts[k], ends[k])`` *after*
        applying ``order``.  Stability keeps per-hop message order equal
        to input order, which is what makes ``send_many`` deliver exactly
        what a loop of ``send`` would.  ``hops`` has the unsigned
        ``_key_dtype``, so up to 65,536 ranks the sort is a radix sort:
        O(n) per re-bin.

        ``counts`` (two or more) cuts ``dests`` into consecutive runs, a
        packet's entries end to end.  Then the grouping is by run first
        and hop second, and a segment never spans two runs: each run is
        binned exactly as alone, in one sort.  The sort key stays a
        radix-sorted ``uint16`` while ``len(counts) * nranks`` fits.
        """
        hops = self._hop_keys(cur, dests)
        n = len(hops)
        one = np.ones(1, dtype=np.int64)
        if n == 0:
            return hops, None, np.empty(0, np.int64), np.empty(0, np.int64)
        if hops[0] == hops[n - 1] and (hops == hops[0]).all():
            if counts is None:
                return hops, None, 0 * one, n * one
            ends = np.cumsum(counts)
            return hops, None, ends - counts, ends
        key = hops
        if counts is not None:
            span = self.nranks * len(counts)
            base = np.arange(0, span, self.nranks, np.min_scalar_type(span - 1))
            key = np.repeat(base, counts) + hops
        order = np.argsort(key, kind="stable")
        key = key[order]
        boundaries = np.flatnonzero(key[1:] != key[:-1]) + 1
        starts = np.concatenate((0 * one, boundaries))
        ends = np.concatenate((boundaries, n * one))
        return (key if counts is None else hops[order]), order, starts, ends

    @abstractmethod
    def max_hops(self) -> int:
        """Upper bound on transmissions per point-to-point message."""

    # -- broadcast routing ---------------------------------------------------
    def bcast_targets(self, cur: int, origin: int) -> Tuple[int, ...]:
        """Ranks that ``cur`` forwards a broadcast from ``origin`` to.

        Called once at the origin (``cur == origin``) when the broadcast
        is injected, and once at every rank that receives a copy.  The
        union of the induced forwarding tree must reach every rank except
        ``origin`` exactly once.  Built by :meth:`_bcast_tree` once per
        ``(cur, origin)``, then read back.
        """
        key = (cur, origin)
        tree = self._bcast_trees.get(key)
        if tree is None:
            tree = self._bcast_trees[key] = tuple(self._bcast_tree(cur, origin))
        return tree

    @abstractmethod
    def _bcast_tree(self, cur: int, origin: int) -> List[int]:
        """:meth:`bcast_targets`, computed.  The order of the targets is
        the order their coalescing buffers are created in, so it is part
        of the scheme's behaviour."""

    # -- channel structure (Section III-E analysis) ------------------------------
    def remote_partners(self, rank: int) -> List[int]:
        """Ranks that ``rank`` sends remote packets to, ascending: the
        off-node entries of its hop table."""
        node = rank // self.cores
        hops = np.unique(self.hop_table(rank)).tolist()
        return [h for h in hops if h // self.cores != node]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} N={self.nodes} C={self.cores}>"
