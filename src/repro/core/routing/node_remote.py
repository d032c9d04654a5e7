"""The Node Remote routing scheme (paper Section III-C).

The mirror image of Node Local: a message from ``(n, c)`` to ``(n', c')``
first travels *remotely* to ``(n', c)`` -- the destination node's core
with the sender's offset -- then *locally* to ``(n', c')``.  All messages
from a particular process destined for the same node are bundled, and
broadcasts cost only ``N - 1`` remote messages (versus ``C (N-1)`` for
Node Local) because the local fan-out happens after the wire.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .base import RoutingScheme


class NodeRemote(RoutingScheme):
    """Remote exchange first, then a local exchange on each node."""

    name = "node_remote"

    def next_hop_vec(self, cur: int, dests: np.ndarray) -> np.ndarray:
        dests = np.asarray(dests, dtype=np.int64)
        cores = self.cores
        dnode = dests // cores
        # Remote hop to the destination node, keeping our core offset;
        # same-node positions take the final local hop.
        hops = dnode * cores + cur % cores
        np.copyto(hops, dests, where=dnode == cur // cores)
        return hops

    def max_hops(self) -> int:
        return 2

    def _bcast_tree(self, cur: int, origin: int) -> List[int]:
        cores = self.cores
        origin_node = origin // cores
        cur_node = cur // cores
        targets: List[int] = []
        if cur == origin:
            # One remote message per other node (the paper's N - 1), plus
            # the local fan-out on the origin's own node.
            my_core = cur % cores
            targets.extend(
                n * cores + my_core for n in range(self.nodes) if n != origin_node
            )
            base = origin_node * cores
            targets.extend(base + c for c in range(cores) if base + c != origin)
        elif cur_node != origin_node and cur % cores == origin % cores:
            # Remote recipient with the origin's core offset: distribute
            # locally on this node.
            base = cur_node * cores
            targets.extend(base + c for c in range(cores) if base + c != cur)
        return targets
