"""Node-granularity partitioning of one simulated machine.

The parallel engine splits the machine's *nodes* -- never individual
cores -- across worker processes.  Node granularity is what makes
conservative synchronisation cheap and exact:

* same-node traffic (:meth:`~repro.machine.topology.Machine.
  transmit_local` and the mailbox's free local hops) never crosses a
  partition, so the shared-memory fast paths run untouched;
* the per-node NIC resources live wholly inside one partition, so all
  NIC queueing/contention is simulated by a single kernel, in the same
  event order as the serial run;
* the only cross-partition interaction is a packet on the wire, which is
  bounded below by :func:`min_wire_latency` of the network model -- the
  engine's lookahead.

Nodes are assigned in contiguous blocks (the same split as
``numpy.array_split``): partition sizes differ by at most one node and
the mapping is a pure function of ``(nodes, nparts)``, so every worker
derives it independently.
"""

from __future__ import annotations

from typing import List, Tuple


def min_wire_latency(net) -> float:
    """Smallest ``remote_delay`` any remote packet can experience on ``net``.

    This is the *lookahead* of the conservative engine: a packet put on
    the wire at ``t`` cannot be observed by another node before
    ``t + min_wire_latency(net)``, for any packet size and any inter-node
    pair (the :class:`~repro.machine.netmodel.NetworkModel` is distance-
    uniform).  Computed fresh on every call -- deliberately not memoised,
    so mutating a model in place (ablation helpers, tests) can never
    leave a stale bound behind (the ``packet_costs`` memo-staleness bug
    class).
    """
    return min(
        # eager branch of remote_delay
        net.latency,
        # rendezvous branch of remote_delay
        net.latency + 2.0 * (net.handshake_latency + net.nic_gap),
    )


class NodePartition:
    """Deterministic contiguous mapping of nodes (and ranks) to partitions."""

    def __init__(self, nodes: int, cores_per_node: int, nparts: int):
        if nparts < 1:
            raise ValueError(f"need at least one partition, got {nparts}")
        if nparts > nodes:
            raise ValueError(
                f"cannot split {nodes} node(s) across {nparts} partitions: "
                "partitioning is per node (cores of one node share NIC "
                "resources and shared-memory paths)"
            )
        self.nodes = nodes
        self.cores_per_node = cores_per_node
        self.nparts = nparts
        # numpy.array_split semantics: the first ``nodes % nparts``
        # blocks get one extra node.
        base, extra = divmod(nodes, nparts)
        bounds = [0]
        for p in range(nparts):
            bounds.append(bounds[-1] + base + (1 if p < extra else 0))
        self._bounds = bounds
        self._owner_of_node: List[int] = []
        for p in range(nparts):
            self._owner_of_node.extend([p] * (bounds[p + 1] - bounds[p]))

    # -- node side ---------------------------------------------------------
    def node_range(self, part: int) -> Tuple[int, int]:
        """Half-open ``[first, last)`` node range owned by ``part``."""
        return self._bounds[part], self._bounds[part + 1]

    def nodes_of(self, part: int) -> range:
        lo, hi = self.node_range(part)
        return range(lo, hi)

    def owner_of_node(self, node: int) -> int:
        return self._owner_of_node[node]

    # -- rank side ---------------------------------------------------------
    def ranks_of(self, part: int) -> range:
        """World ranks owned by ``part`` (contiguous: ranks are node-major)."""
        lo, hi = self.node_range(part)
        c = self.cores_per_node
        return range(lo * c, hi * c)

    def owner_of_rank(self, rank: int) -> int:
        return self._owner_of_node[rank // self.cores_per_node]

    def __repr__(self) -> str:
        blocks = ", ".join(
            f"p{p}:nodes[{self._bounds[p]}:{self._bounds[p + 1]}]"
            for p in range(self.nparts)
        )
        return f"NodePartition({blocks})"
