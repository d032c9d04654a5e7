"""The node-aware aggregation routing scheme (NAPSpMV-style).

Node-aware communication (Bienz, Gropp & Olson -- NAPSpMV, PAPERS.md)
funnels *all* off-node traffic from a node through one designated
node-local **aggregator** rank before it crosses the wire, and delivers
incoming traffic through the receiving node's aggregator.  We pick core
``a(n) = n mod C`` as node ``n``'s aggregator (the node's layer offset,
like NLNR's self-column intermediary) so aggregators are spread across
cores rather than all landing on core 0.  A point-to-point message takes
up to three hops::

    (n, c) --local--> (n, a(n)) --remote--> (n', a(n')) --local--> (n', c')

Compared to the paper's static schemes this is the *most* concentrated
policy: exactly one remote channel per node pair, so for a fixed send
volume V the aggregator's average remote message is O(V C / N) -- like
NLNR -- but every record for a given remote node meets every other such
record from the whole source node at the aggregator.  That maximal
meeting point is what makes node_aware the natural carrier for
in-network combining (:mod:`.combiner`): duplicate keys from all C
on-node cores collapse before transmission.  The cost is aggregator
serialization -- one core per node handles all remote traffic -- which is
why the paper's topology-only analysis prefers NLNR when records do not
combine.

Broadcasts cost ``N - 1`` remote messages: the origin fans out locally
and hands the broadcast to its node's aggregator, which sends one copy
to every other node's aggregator; those distribute locally.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .base import RoutingScheme


class NodeAware(RoutingScheme):
    """All off-node traffic routes via per-node aggregator ranks."""

    name = "node_aware"

    def _aggregator(self, node: int) -> int:
        return node * self.cores + node % self.cores

    def next_hop_vec(self, cur: int, dests: np.ndarray) -> np.ndarray:
        dests = np.asarray(dests, dtype=np.int64)
        cores = self.cores
        cur_node = cur // cores
        dnode = dests // cores
        if cur == self._aggregator(cur_node):
            # We are this node's aggregator: remote hop to each
            # destination node's aggregator.
            hops = dnode * cores + dnode % cores
        else:
            # First local hop to our own node's aggregator.
            hops = np.full(len(dests), self._aggregator(cur_node), dtype=np.int64)
        np.copyto(hops, dests, where=dnode == cur_node)
        return hops

    def max_hops(self) -> int:
        return 3

    def _bcast_tree(self, cur: int, origin: int) -> List[int]:
        cores = self.cores
        origin_node = origin // cores
        cur_node, _cur_core = divmod(cur, cores)
        targets: List[int] = []
        if cur_node == origin_node:
            if cur == origin:
                # Stage 1: local fan-out to every other core on the node.
                base = origin_node * cores
                targets.extend(base + c for c in range(cores) if base + c != origin)
            if cur == self._aggregator(origin_node):
                # Stage 2: origin node's aggregator (possibly the origin
                # itself) sends one copy to every other node's aggregator.
                targets.extend(
                    self._aggregator(n) for n in range(self.nodes) if n != origin_node
                )
        elif cur == self._aggregator(cur_node):
            # Stage 3: remote aggregator distributes on its own node.
            base = cur_node * cores
            targets.extend(base + c for c in range(cores) if base + c != cur)
        return targets
