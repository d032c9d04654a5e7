"""The routing-scheme interface (paper Section III).

A routing scheme decides, for a message currently held by rank ``cur``
with final destination ``dest``, which rank it should be forwarded to
next (``next_hop``), and for broadcasts, the fan-out a holder performs
(``bcast_targets``).  Schemes also expose their channel structure for the
bandwidth analysis of Section III-E.

All schemes are pure functions of the machine shape ``(N nodes, C cores)``
-- the paper's point versus NAPSpMV is precisely that the routing depends
only on topology, not on the application (Section II).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List

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

    # -- shape helpers (hot path: inline arithmetic, no Addr objects) --------
    def _node(self, rank: int) -> int:
        return rank // self.cores

    def _core(self, rank: int) -> int:
        return rank % self.cores

    def _rank(self, node: int, core: int) -> int:
        return node * self.cores + core

    def bind_machine(self, machine) -> None:
        """Attach the simulated machine this scheme routes on.

        Called once per :class:`~repro.core.context.YgmWorld` (and once
        per PDES worker, on the worker's own machine) before any traffic
        flows.  Static schemes ignore it; :class:`~.adaptive.Adaptive`
        stores the NIC resources so routing can consult live occupancy.
        """

    # -- point-to-point routing ------------------------------------------------
    @abstractmethod
    def next_hop(self, cur: int, dest: int) -> int:
        """The rank ``cur`` forwards a ``dest``-bound message to.

        Returns ``dest`` itself on the final hop.  ``cur == dest`` is a
        caller error (deliver instead of routing).
        """

    def next_hop_vec(self, cur: int, dests: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`next_hop` for a destination array.

        Default implementation loops; concrete schemes override with
        NumPy arithmetic (this is on the fast path of ``send_batch``).
        """
        return np.fromiter(
            (self.next_hop(cur, int(d)) for d in dests),
            dtype=np.int64,
            count=len(dests),
        )

    def bin_by_hop(self, cur: int, dests: np.ndarray):
        """Group a destination column by next hop (batch re-binning kernel).

        Returns ``(hops, order, starts, ends)``: ``order`` is the stable
        permutation that groups ``dests`` by hop (``None`` when every
        destination already shares one hop -- the permutation would be the
        identity, so callers skip the gather), and ``hops[starts[k]]`` is
        the hop of segment ``k`` = ``[starts[k], ends[k])`` *after*
        applying ``order``.  Stability keeps per-hop message order equal
        to input order, which is what makes ``send_many`` deliver exactly
        what a loop of ``send`` would.
        """
        hops = self.next_hop_vec(cur, dests)
        n = len(hops)
        one = np.ones(1, dtype=np.int64)
        if n == 0:
            return hops, None, np.empty(0, np.int64), np.empty(0, np.int64)
        if hops[0] == hops[n - 1] and (hops == hops[0]).all():
            return hops, None, 0 * one, n * one
        order = np.argsort(hops, kind="stable")
        hops = hops[order]
        boundaries = np.flatnonzero(hops[1:] != hops[:-1]) + 1
        starts = np.concatenate((0 * one, boundaries))
        ends = np.concatenate((boundaries, n * one))
        return hops, order, starts, ends

    @abstractmethod
    def max_hops(self) -> int:
        """Upper bound on transmissions per point-to-point message."""

    # -- broadcast routing ---------------------------------------------------
    @abstractmethod
    def bcast_targets(self, cur: int, origin: int) -> List[int]:
        """Ranks that ``cur`` forwards a broadcast from ``origin`` to.

        Called once at the origin (``cur == origin``) when the broadcast
        is injected, and once at every rank that receives a copy.  The
        union of the induced forwarding tree must reach every rank except
        ``origin`` exactly once.
        """

    # -- channel structure (Section III-E analysis) ------------------------------
    @abstractmethod
    def remote_partners(self, rank: int) -> List[int]:
        """Ranks that ``rank`` may exchange *remote* packets with."""

    def remote_partner_count(self, rank: int) -> int:
        return len(self.remote_partners(rank))

    @abstractmethod
    def channel_count(self) -> int:
        """Number of remote communication channels (Section III-E)."""

    def expected_avg_message_fraction(self) -> float:
        """Of a rank's total send volume V (uniform traffic), the average
        fraction per remote partner -- the paper's O(V/NC), O(V/N),
        O(VC/N) analysis.  Returns 1/partner_count for a generic rank."""
        count = max(1, self.remote_partner_count(0))
        return 1.0 / count

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} N={self.nodes} C={self.cores}>"
