"""1D vertex partitioning: the paper's round-robin ("cyclic") assignment.

Algorithm 1 assigns vertex ``v`` to rank ``v % num_ranks`` with local id
``v / num_ranks``; this module provides that mapping in scalar and
vectorized form, plus a block partition used by the baselines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CyclicPartition:
    """Round-robin assignment of ``num_vertices`` ids to ``nranks`` ranks."""

    num_vertices: int
    nranks: int

    def owner(self, v: int) -> int:
        return v % self.nranks

    def local_id(self, v: int) -> int:
        return v // self.nranks

    def owner_vec(self, v: np.ndarray) -> np.ndarray:
        return (np.asarray(v) % self.nranks).astype(np.int64, copy=False)

    def local_id_vec(self, v: np.ndarray) -> np.ndarray:
        return (np.asarray(v) // self.nranks).astype(np.int64, copy=False)

    def global_id(self, rank: int, local: int) -> int:
        return local * self.nranks + rank

    def global_id_vec(self, rank: int, local: np.ndarray) -> np.ndarray:
        return np.asarray(local) * self.nranks + rank

    def local_count(self, rank: int) -> int:
        """Vertices owned by ``rank``."""
        base, extra = divmod(self.num_vertices, self.nranks)
        return base + (1 if rank < extra else 0)

    def local_vertices(self, rank: int) -> np.ndarray:
        """Global ids of the vertices owned by ``rank``, ascending."""
        return np.arange(rank, self.num_vertices, self.nranks, dtype=np.int64)


@dataclass(frozen=True)
class BlockPartition:
    """Contiguous block assignment (used by the CombBLAS-style baseline)."""

    num_vertices: int
    nparts: int

    def bounds(self, part: int) -> tuple:
        """Half-open ``[lo, hi)`` range of part ``part``."""
        base, extra = divmod(self.num_vertices, self.nparts)
        lo = part * base + min(part, extra)
        hi = lo + base + (1 if part < extra else 0)
        return lo, hi

    def owner(self, v: int) -> int:
        base, extra = divmod(self.num_vertices, self.nparts)
        pivot = extra * (base + 1)
        if v < pivot:
            return v // (base + 1)
        return extra + (v - pivot) // base if base else self.nparts - 1

    def owner_vec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=np.int64)
        base, extra = divmod(self.num_vertices, self.nparts)
        pivot = extra * (base + 1)
        if base == 0:
            return v.copy()
        low = v // (base + 1)
        high = extra + (v - pivot) // base
        return np.where(v < pivot, low, high).astype(np.int64)

    def local_count(self, part: int) -> int:
        lo, hi = self.bounds(part)
        return hi - lo
