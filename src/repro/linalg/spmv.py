"""Distributed sparse matrix-dense vector product with delegates
(paper Section V-C, Algorithm 2).

Each rank stores its nonzeros as COO triples, assigned by a 1D cyclic
partitioning of columns across ranks; ``x`` and ``y`` are partitioned
the same way.  For a nonzero ``a_ij``:

* neither column delegated: stored at ``p(j)``; ``p(j)`` computes
  ``a_ij * x_j`` and **sends** the product to ``p(i)`` -- one multiply,
  one add, one message per edge;
* column ``j`` delegated: stored at ``p(i)``, which holds a replica of
  ``x_j`` -- multiply + add, **no message**;
* row ``i`` delegated (only): stored at ``p(j)``, which accumulates into
  its local replica of ``y_i`` -- **no message**;
* both delegated: stays wherever it was generated; handled through the
  replicas.

After quiescence, the replicated ``y`` entries are combined with an
ALLREDUCE, exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, List, Optional

import numpy as np

from ..core.context import YgmContext
from ..core.routing.combiner import Combiner
from ..graph.delegates import DelegateSet
from ..graph.partition import CyclicPartition
from ..serde import RecordSpec

#: Algorithm 2's message: accumulate ``val`` into ``y[row]``.
SPMV_SPEC = RecordSpec("spmv", [("row", "u8"), ("val", "f8")])

#: Partial-sum combining: products bound for one row add in-network.
#: ``exact=False``: float addition is associative only up to rounding,
#: and combining replaces the receiver's canonical post-quiescence
#: reduction order with window-dependent partial sums -- combined SpMV
#: is therefore verified to tolerance (and excluded from the oracle's
#: cross-scheme bit-identity digests), never bit-exactly.
SPMV_COMBINER = Combiner(
    "spmv_partial_sum",
    key_fields=("row",),
    reduce_fields={"val": "sum"},
    exact=False,
)


@dataclass
class SpmvProblem:
    """One rank's share of a distributed SpMV.

    ``rows``/``cols``/``vals`` are the COO triples *stored at this rank*
    after delegate colocation:

    * triples with a non-delegated column owned by this rank,
    * triples with a delegated column whose row is owned by this rank,
    * (both-delegated triples may be assigned to any one rank.)

    ``x_local`` is the owned slice of x (by local id); ``x_delegate`` the
    replicated delegated entries (by delegate slot).
    """

    n: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    x_local: np.ndarray
    x_delegate: np.ndarray
    delegates: DelegateSet


def partition_spmv_problem(
    rank: int,
    nranks: int,
    n: int,
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    x: np.ndarray,
    delegates: Optional[DelegateSet] = None,
) -> SpmvProblem:
    """Slice the global problem for ``rank`` (bench/test setup helper).

    Assignment rules follow Section V-C; both-delegated triples go to the
    rank owning the row (an arbitrary but deterministic choice).
    """
    part = CyclicPartition(n, nranks)
    if delegates is None:
        delegates = DelegateSet(np.empty(0, dtype=np.int64))
    col_delegated = delegates.is_delegate_vec(cols)
    owner = np.where(
        col_delegated, part.owner_vec(rows), part.owner_vec(cols)
    )
    mine = owner == rank
    x_local = x[part.local_vertices(rank)]
    x_delegate = (
        x[delegates.vertices] if delegates.count else np.empty(0, dtype=x.dtype)
    )
    return SpmvProblem(
        n=n,
        rows=rows[mine],
        cols=cols[mine],
        vals=vals[mine],
        x_local=x_local.astype(np.float64),
        x_delegate=x_delegate.astype(np.float64),
        delegates=delegates,
    )


@dataclass
class SpmvRankResult:
    """Per-rank output: the owned slice of y plus message diagnostics."""

    y_local: np.ndarray
    messages_sent: int
    local_accumulations: int


def make_spmv(
    problems: List[SpmvProblem],
    batch_size: int = 8192,
    capacity: Optional[int] = None,
    combining: bool = False,
) -> Callable[[YgmContext], Generator]:
    """Build the SpMV rank program; ``problems[rank]`` is that rank's share.

    ``combining=True`` sums equal-row partial products in-network
    (:data:`SPMV_COMBINER`).  The receiver's canonical-order reduction
    still runs over whatever records arrive, so results are deterministic
    for a fixed configuration, but they differ from the uncombined run
    (and across schemes) by float-rounding only -- compare with a
    tolerance.
    """

    def rank_main(ctx: YgmContext) -> Generator:
        rank, nranks = ctx.rank, ctx.nranks
        prob = problems[rank]
        part = CyclicPartition(prob.n, nranks)
        delegates = prob.delegates
        flop = ctx.machine.config.compute.per_flop

        y_local = np.zeros(part.local_count(rank), dtype=np.float64)
        y_delegate = np.zeros(delegates.count, dtype=np.float64)

        # Arriving partial products are buffered and reduced *after*
        # quiescence in a canonical order (row, then value bit pattern):
        # float addition is not associative, so accumulating in arrival
        # order would make y depend on the routing scheme and on message
        # interleaving.  The canonical reduction makes the result
        # bit-identical across all four schemes and any schedule, which
        # is what repro.check's differential oracle asserts.
        recv_rows: List[np.ndarray] = []
        recv_vals: List[np.ndarray] = []

        def on_batch(batch: np.ndarray) -> None:
            recv_rows.append(batch["row"].astype(np.int64))
            recv_vals.append(batch["val"].astype(np.float64))

        mb = ctx.mailbox(
            recv_batch=on_batch,
            capacity=capacity,
            combiner=SPMV_COMBINER if combining else None,
        )

        rows, cols, vals = prob.rows, prob.cols, prob.vals
        row_delegated = delegates.is_delegate_vec(rows)
        col_delegated = delegates.is_delegate_vec(cols)

        # x value per stored triple: replicated for delegated columns,
        # owned otherwise (colocation guarantees we have whichever we need).
        xj = np.empty(len(cols), dtype=np.float64)
        if col_delegated.any():
            xj[col_delegated] = prob.x_delegate[
                delegates.slots_vec(cols[col_delegated])
            ]
        own_col = ~col_delegated
        xj[own_col] = prob.x_local[part.local_id_vec(cols[own_col])]
        prods = vals * xj
        yield ctx.compute(2.0 * len(prods) * flop)

        # Local accumulations: delegated rows (replica) and rows we own.
        row_owner = part.owner_vec(rows)
        local_rows = ~row_delegated & (row_owner == rank)
        if local_rows.any():
            ids = part.local_id_vec(rows[local_rows])
            np.add.at(y_local, ids, prods[local_rows])
        if row_delegated.any():
            slots = delegates.slots_vec(rows[row_delegated])
            np.add.at(y_delegate, slots, prods[row_delegated])

        # Remote accumulations: one message per remaining nonzero.
        remote = ~row_delegated & (row_owner != rank)
        r_rows, r_prods, r_owner = rows[remote], prods[remote], row_owner[remote]
        for lo in range(0, len(r_rows), batch_size):
            hi = lo + batch_size
            yield from mb.send_batch(
                r_owner[lo:hi],
                SPMV_SPEC.build(row=r_rows[lo:hi].astype("u8"), val=r_prods[lo:hi]),
                spec=SPMV_SPEC,
            )
        yield from mb.wait_empty()

        # Canonical-order reduction of the buffered remote products.
        if recv_rows:
            in_rows = np.concatenate(recv_rows)
            in_vals = np.concatenate(recv_vals)
            ids = part.local_id_vec(in_rows)
            order = np.lexsort((in_vals.view(np.uint64), ids))
            np.add.at(y_local, ids[order], in_vals[order])

        # Combine replicated y entries (paper: "all delegated entries in y
        # are combined using an ALLREDUCE operation").
        if delegates.count:
            y_delegate_sum = yield from ctx.comm.allreduce(
                y_delegate, lambda a, b: a + b
            )
            owned = part.owner_vec(delegates.vertices) == rank
            if owned.any():
                ids = part.local_id_vec(delegates.vertices[owned])
                y_local[ids] += y_delegate_sum[owned]

        return SpmvRankResult(
            y_local=y_local,
            messages_sent=int(remote.sum()),
            local_accumulations=int(local_rows.sum() + row_delegated.sum()),
        )

    return rank_main


def gather_global_y(values: List[SpmvRankResult], n: int, nranks: int) -> np.ndarray:
    """Reassemble the global y vector from per-rank results."""
    part = CyclicPartition(n, nranks)
    out = np.zeros(n, dtype=np.float64)
    for rank, res in enumerate(values):
        out[part.local_vertices(rank)] = res.y_local
    return out
