"""The Node Local routing scheme (paper Section III-B).

A message from ``(n, c)`` to ``(n', c')`` is first forwarded *locally* to
``(n, c')`` -- the on-node core matching the destination's core offset --
and then *remotely* to ``(n', c')`` along the remote channel of core
offset ``c'``.  All messages destined for a particular remote process are
thus accumulated at a single intermediary per node before remote
transmission.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .base import RoutingScheme


class NodeLocal(RoutingScheme):
    """Local exchange first, then C per-core-offset remote exchanges."""

    name = "node_local"

    def next_hop_vec(self, cur: int, dests: np.ndarray) -> np.ndarray:
        dests = np.asarray(dests, dtype=np.int64)
        cores = self.cores
        cur_node = cur // cores
        dcore = dests % cores
        # Local hop to the on-node core with the destination's offset;
        # where the offsets already match, the remote (or final local) hop.
        hops = dcore + cur_node * cores
        np.copyto(hops, dests, where=dcore == cur % cores)
        return hops

    def max_hops(self) -> int:
        return 2

    def _bcast_tree(self, cur: int, origin: int) -> List[int]:
        cores = self.cores
        if cur // cores != origin // cores:
            return []  # remote recipients only deliver
        targets: List[int] = []
        if cur == origin:
            # Fan out to every other core on the origin node.
            base = (origin // cores) * cores
            targets.extend(base + c for c in range(cores) if base + c != origin)
        # Every origin-node holder (origin included) fans out over its own
        # per-core-offset remote channel: C * (N - 1) remote messages total.
        my_core = cur % cores
        origin_node = origin // cores
        targets.extend(
            n * cores + my_core for n in range(self.nodes) if n != origin_node
        )
        return targets
