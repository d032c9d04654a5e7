"""The NoRoute baseline: every message goes directly to its destination.

This is the paper's comparison baseline ("NoRoute" in Figs 6-8).  With
uniform traffic each core talks to all ``(N-1)C`` remote cores, so the
average remote message size is O(V / NC) -- the worst coalescing of all
schemes (Section III-E).
"""

from __future__ import annotations

from typing import List

import numpy as np

from .base import RoutingScheme


class NoRoute(RoutingScheme):
    """Direct delivery; coalescing only at the core-core level."""

    name = "noroute"

    def next_hop_vec(self, cur: int, dests: np.ndarray) -> np.ndarray:
        # Direct delivery: the hop column *is* the destination column
        # (returned uncopied; callers only read it).
        return np.asarray(dests, dtype=np.int64)

    def max_hops(self) -> int:
        return 1

    def _bcast_tree(self, cur: int, origin: int) -> List[int]:
        if cur != origin:
            return []
        return [r for r in range(self.nranks) if r != origin]
