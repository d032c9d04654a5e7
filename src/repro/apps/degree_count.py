"""Degree counting (paper Algorithm 1, Section V-A).

Streams the edges of a graph and counts the degree of every vertex.
Vertices are assigned to ranks round-robin; every edge spawns exactly two
messages, each of which is a single increment at the destination.  Edges
are generated and counted in batches, isolating counting time from
generation time, exactly as in the paper's experiments.

Two implementations are provided:

* :func:`make_degree_counting` -- the production version using the
  vectorized ``send_batch`` fast path (fixed-width vertex records),
* :func:`make_degree_counting_scalar` -- a line-by-line transcription of
  Algorithm 1 using scalar sends (used in the docs and as a correctness
  cross-check; much slower to simulate).
"""

from __future__ import annotations

from typing import Callable, Generator, Iterator, Optional

import numpy as np

from ..core.context import YgmContext
from ..core.routing.combiner import Combiner
from ..graph.generators import EdgeStream
from ..graph.partition import CyclicPartition
from ..serde import RecordSpec

#: The single-field message of Algorithm 1: a vertex id to increment.
DEGREE_SPEC = RecordSpec("degree", [("vertex", "u8")])

#: Count-carrying variant for in-network combining: an increment of
#: ``count`` (1 at injection; intermediaries sum equal-vertex records).
DEGREE_COUNT_SPEC = RecordSpec("degree_count", [("vertex", "u8"), ("count", "u8")])

#: The degree-count combining algebra: counts for one vertex sum.
#: Integer addition is exact, so combined runs stay bit-identical.
DEGREE_COMBINER = Combiner(
    "degree_count", key_fields=("vertex",), reduce_fields={"count": "sum"}
)


def make_degree_counting(
    stream: EdgeStream,
    batch_size: int = 4096,
    capacity: Optional[int] = None,
    combining: bool = False,
) -> Callable[[YgmContext], Generator]:
    """Build the degree-counting rank program for ``stream``.

    Each rank generates its share of the edge stream, sends both endpoint
    vertices to their owners, and waits for global quiescence.  Returns
    the rank's local degree array (indexed by local id).

    With ``combining=True`` records carry an explicit increment count
    (:data:`DEGREE_COUNT_SPEC`) and the mailbox merges equal-vertex
    records in-network (:data:`DEGREE_COMBINER`): duplicate endpoints
    collapse into one weighted record per hop window.  Results are
    bit-identical either way -- integer sums commute exactly.
    """

    def rank_main(ctx: YgmContext) -> Generator:
        part = CyclicPartition(stream.num_vertices, ctx.nranks)
        degrees = np.zeros(part.local_count(ctx.rank), dtype=np.int64)
        nlocal = len(degrees)

        if combining:

            def on_batch(batch: np.ndarray) -> None:
                ids = part.local_id_vec(batch["vertex"].astype(np.int64))
                # Weighted scatter-add stays integer-exact (bincount's
                # weights= would round-trip through float64).
                np.add.at(degrees, ids, batch["count"].astype(np.int64))

            mb = ctx.mailbox(
                recv_batch=on_batch, capacity=capacity, combiner=DEGREE_COMBINER
            )
        else:

            def on_batch(batch: np.ndarray) -> None:
                ids = part.local_id_vec(batch["vertex"].astype(np.int64))
                degrees[:] += np.bincount(ids, minlength=nlocal)

            mb = ctx.mailbox(recv_batch=on_batch, capacity=capacity)
        spec = DEGREE_COUNT_SPEC if combining else DEGREE_SPEC
        gen_cost = ctx.machine.config.compute.per_edge_gen

        def generate_and_send(batches: Iterator) -> Generator:
            """Charge the generation of the next edge batch, then send both
            endpoints of every edge to their owners.

            Returns what the send returned (the caller drives it), or
            ``None`` at the end of the stream.  The edges and their
            records die with this frame, so the caller enters the
            mailbox holding none of them: the mailbox has the one copy.
            """
            edges = next(batches, None)
            if edges is None:
                return None
            # Charge edge generation (isolated from counting in the paper;
            # we charge it so computation/communication overlap is real).
            yield ctx.compute(len(edges[0]) * gen_cost)
            verts = np.concatenate(edges)
            if combining:
                batch = spec.build(
                    vertex=verts.astype("u8"),
                    count=np.ones(len(verts), dtype="u8"),
                )
            else:
                batch = spec.build(vertex=verts.astype("u8"))
            return mb.send_batch(part.owner_vec(verts), batch, spec=spec)

        batches = stream.batches(ctx.rank, batch_size)
        while (sent := (yield from generate_and_send(batches))) is not None:
            yield from sent
        yield from mb.wait_empty()
        return degrees

    return rank_main


def make_degree_counting_scalar(
    stream: EdgeStream,
    batch_size: int = 1024,
    capacity: Optional[int] = None,
) -> Callable[[YgmContext], Generator]:
    """Algorithm 1 verbatim: one scalar ``Send`` per edge endpoint."""

    def rank_main(ctx: YgmContext) -> Generator:
        num_ranks = ctx.nranks
        part = CyclicPartition(stream.num_vertices, num_ranks)
        degrees = np.zeros(part.local_count(ctx.rank), dtype=np.int64)

        def recv_func(v: int) -> None:  # Algorithm 1 lines 4-6
            local_id = v // num_ranks
            degrees[local_id] += 1

        mb = ctx.mailbox(recv=recv_func, capacity=capacity)  # line 7
        gen_cost = ctx.machine.config.compute.per_edge_gen
        for u_arr, v_arr in stream.batches(ctx.rank, batch_size):
            yield ctx.compute(len(u_arr) * gen_cost)
            for u, v in zip(u_arr.tolist(), v_arr.tolist()):  # lines 8-12
                yield from mb.send(u % num_ranks, u, nbytes=8)
                yield from mb.send(v % num_ranks, v, nbytes=8)
        yield from mb.wait_empty()  # line 13
        return degrees

    return rank_main


def gather_global_degrees(values, num_vertices: int, nranks: int) -> np.ndarray:
    """Reassemble the global degree array from per-rank results."""
    part = CyclicPartition(num_vertices, nranks)
    out = np.zeros(num_vertices, dtype=np.int64)
    for rank, local in enumerate(values):
        out[part.local_vertices(rank)] = local
    return out
