"""Graph generators: Erdős–Rényi edge streams and RMAT (Graph500 style).

Both generators are vectorized (one NumPy pass per recursion level for
RMAT) and deterministic given a seed.  Edges are produced in *batches*, as
in the paper's experiments ("edges were produced and counted in batches to
isolate the time of degree counting from that of edge generation").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

#: Graph500 RMAT parameters (paper Fig 8a: 0.57, 0.19, 0.19, 0.05).
GRAPH500_PARAMS = (0.57, 0.19, 0.19, 0.05)
#: Uniform parameters -- gives an Erdős–Rényi-like graph (paper Fig 8c).
UNIFORM_PARAMS = (0.25, 0.25, 0.25, 0.25)


def erdos_renyi_edges(
    num_vertices: int, num_edges: int, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """Uniformly sampled edge endpoints (with replacement), as used in the
    degree-counting experiments (Fig 6)."""
    u = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    v = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    return u, v


def rmat_edges(
    scale: int,
    num_edges: int,
    rng: np.random.Generator,
    params: Tuple[float, float, float, float] = GRAPH500_PARAMS,
    noise: float = 0.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """RMAT edge sample: ``num_edges`` edges over ``2**scale`` vertices.

    Vectorized over edges: each of the ``scale`` recursion levels draws
    one uniform array of ``2 * num_edges`` doubles -- the row draws, then
    the column draws -- and picks the quadrant per edge.  The level's
    bit is shifted in at the bottom of ``u`` and ``v``, so the first
    level ends up the most significant.  ``noise`` (aka "smoothing")
    perturbs the quadrant probabilities per level, drawn before the
    level's uniforms, as suggested by Seshadhri et al. to avoid
    degenerate Kronecker artifacts; 0 reproduces classic RMAT.
    """
    a, b, c, d = params
    if not np.isclose(a + b + c + d, 1.0):
        raise ValueError(f"RMAT parameters must sum to 1, got {a + b + c + d}")
    if scale < 1:
        raise ValueError("scale must be >= 1")
    # Column choice conditioned on the row half:
    #   P(right | up) = b/(a+b),  P(right | down) = d/(c+d);
    # an edge goes right when its column draw reaches its half's threshold.
    up_threshold, down_threshold = a / (a + b), c / (c + d)
    u = np.zeros(num_edges, dtype=np.int64)
    v = np.zeros(num_edges, dtype=np.int64)
    for _ in range(scale):
        ab = a + b  # P(upper row half)
        if noise > 0.0:
            ab *= 1.0 + rng.uniform(-noise, noise)
            ab = min(max(ab, 1e-9), 1.0 - 1e-9)
        r = rng.random(2 * num_edges)
        go_down = r[:num_edges] >= ab
        go_right = r[num_edges:] >= np.where(go_down, down_threshold, up_threshold)
        u <<= 1
        u |= go_down
        v <<= 1
        v |= go_right
    return u, v


def permute_vertices(
    edges: Tuple[np.ndarray, np.ndarray],
    num_vertices: int,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """Relabel vertices with a random permutation (Graph500 requires this
    so that vertex id correlates with nothing)."""
    perm = rng.permutation(num_vertices)
    u, v = edges
    return perm[u], perm[v]


def _split_off(pending: list, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The first ``n`` edges of the ``(u, v)`` pieces in ``pending``; the
    rest stay there as one piece."""
    if len(pending) == 1:
        u, v = pending[0]
    else:
        u = np.concatenate([piece[0] for piece in pending])
        v = np.concatenate([piece[1] for piece in pending])
    pending[:] = [(u[n:], v[n:])] if n < len(u) else []
    return u[:n], v[:n]


@dataclass(frozen=True)
class EdgeStream:
    """A deterministic, batched, per-rank edge stream.

    Each rank of a distributed run generates its share of the global edge
    list locally (the standard Graph500 setup).  Batches are independent
    of the batch size in *content*: the stream is seeded per (seed, rank).
    """

    kind: str  # "er" | "rmat" | "rmat_uniform"
    num_vertices: int
    edges_per_rank: int
    seed: int
    scale: int = 0
    params: Tuple[float, float, float, float] = GRAPH500_PARAMS

    #: Internal generation granularity.  Edges are always produced in
    #: fixed chunks seeded by (seed, rank, chunk index), then re-sliced to
    #: the requested batch size -- so the stream *content* is independent
    #: of how callers batch it.
    CHUNK = 4096

    def _chunk(self, rank: int, index: int, n: int) -> Tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=(rank, 0xED6E, index))
        )
        if self.kind == "er":
            return erdos_renyi_edges(self.num_vertices, n, rng)
        if self.kind == "rmat":
            return rmat_edges(self.scale, n, rng, params=self.params)
        raise ValueError(f"unknown edge stream kind {self.kind!r}")

    def batches(self, rank: int, batch_size: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """The rank's edges as ``(u, v)`` pairs of up to ``batch_size``.

        Between yields the frame holds only the edges not yet yielded:
        a yielded batch is kept alive by its consumer alone.
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        total = self.edges_per_rank
        pending: list = []  # (u, v) pieces not yet yielded, in stream order
        pending_n = 0
        produced = 0
        chunk_index = 0
        while produced < total:
            take = min(self.CHUNK, total - produced)
            pending.append(self._chunk(rank, chunk_index, take))
            chunk_index += 1
            produced += take
            pending_n += take
            while pending_n >= batch_size or (produced >= total and pending_n > 0):
                n = min(batch_size, pending_n)
                pending_n -= n
                yield _split_off(pending, n)

    def all_edges(self, rank: int) -> Tuple[np.ndarray, np.ndarray]:
        """The rank's whole edge share as one pair of arrays."""
        us, vs = [], []
        for u, v in self.batches(rank, max(1, self.edges_per_rank)):
            us.append(u)
            vs.append(v)
        if not us:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        return np.concatenate(us), np.concatenate(vs)


def er_stream(num_vertices: int, edges_per_rank: int, seed: int = 0) -> EdgeStream:
    """An Erdős–Rényi (uniform-endpoint) per-rank edge stream."""
    return EdgeStream(
        kind="er", num_vertices=num_vertices, edges_per_rank=edges_per_rank, seed=seed
    )


def rmat_stream(
    scale: int,
    edges_per_rank: int,
    seed: int = 0,
    params: Tuple[float, float, float, float] = GRAPH500_PARAMS,
) -> EdgeStream:
    """An RMAT per-rank edge stream over ``2**scale`` vertices."""
    return EdgeStream(
        kind="rmat",
        num_vertices=1 << scale,
        edges_per_rank=edges_per_rank,
        seed=seed,
        scale=scale,
        params=params,
    )
