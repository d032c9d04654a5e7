"""The Node Local Node Remote (NLNR) routing scheme (paper Section III-D).

NLNR reduces the number of remote channels to the theoretical minimum by
organising nodes into *layers* (layer offset ``l = n mod C``) and making
core ``(n, c)`` the unique intermediary for all traffic from node ``n`` to
the nodes ``n'`` with ``n' mod C == c``.  A point-to-point message takes
up to three hops::

    (n, c)  --local-->  (n, n' mod C)  --remote-->  (n', n mod C)  --local-->  (n', c')

Each core communicates remotely with only ~N/C nodes, so for a fixed
total send volume V the average remote message size is O(V C / N) -- a
factor C larger than Node Local / Node Remote, which is what keeps
coalescing effective at large node counts (Section III-E, Figs 6-8).

Broadcasts cost ``N - 1`` remote messages, like Node Remote: the origin
fans out locally, each on-node core forwards over its own remote partner
set (the nodes in its "column"), and remote receivers distribute locally.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .base import RoutingScheme


class NLNR(RoutingScheme):
    """Local, remote, local: minimal remote channels via node layers."""

    name = "nlnr"

    def next_hop_vec(self, cur: int, dests: np.ndarray) -> np.ndarray:
        dests = np.asarray(dests, dtype=np.int64)
        cores = self.cores
        cur_node, cur_core = divmod(cur, cores)
        dnode = dests // cores
        layer = dnode % cores  # destination node's layer offset
        # First local hop to this node's intermediary for the destination's
        # layer.  Where we are that intermediary: the remote hop to the
        # destination node's core matching *our* node offset.  Same-node
        # positions: the final local hop.
        hops = layer + cur_node * cores
        np.copyto(hops, dnode * cores + cur_node % cores, where=layer == cur_core)
        np.copyto(hops, dests, where=dnode == cur_node)
        return hops

    def max_hops(self) -> int:
        return 3

    def _bcast_tree(self, cur: int, origin: int) -> List[int]:
        cores = self.cores
        origin_node, _origin_core = divmod(origin, cores)
        cur_node, cur_core = divmod(cur, cores)
        targets: List[int] = []
        if cur_node == origin_node:
            if cur == origin:
                # Stage 1: local fan-out to every other core on the node.
                base = origin_node * cores
                targets.extend(base + c for c in range(cores) if base + c != origin)
            # Stage 2 (origin included, for its own column): remote
            # fan-out to the nodes this core is intermediary for.
            targets.extend(
                n * cores + origin_node % cores
                for n in range(self.nodes)
                if n != origin_node and n % cores == cur_core
            )
        elif cur_core == origin_node % cores:
            # Stage 3: remote receiver distributes on its own node.
            base = cur_node * cores
            targets.extend(base + c for c in range(cores) if base + c != cur)
        return targets


class HybridNLNR(NLNR):
    """NLNR with zero-cost local hops.

    Models the hybrid MPI+threads YGM of Section VII (ongoing work): all
    cores of a node share an address space, so the local exchange steps
    are pointer hand-offs rather than copies.  Routing is identical to
    NLNR; only the local-hop transport cost is waived by the mailbox.
    """

    name = "nlnr_hybrid"
    free_local_hops = True
