"""A CombBLAS-style 2D SpMV baseline (paper Section VI-C comparator).

CombBLAS distributes matrices over a ``pr x pc`` processor grid; its
sparse-matrix/dense-vector product is the textbook 2D algorithm:

1. **allgather** the x segments within each processor *column*, so every
   rank holds the full x slice matching its column block,
2. local ``y_part = A_block @ x_block`` (scipy CSR locally, with flops
   charged to the compute model),
3. **reduce-scatter** the y partials within each processor *row*, leaving
   y distributed like x.

The communication pattern is collective and synchronous -- all ranks of a
row/column must arrive before anyone proceeds -- which is exactly the
contrast the paper draws against YGM's pseudo-asynchronous mailboxes.
This is deliberately a faithful *algorithmic* stand-in, not a feature
port of CombBLAS (the paper likewise uses only its SpMV).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Generator, List, Tuple

import numpy as np

from ..graph.partition import BlockPartition
from ..mpi import RankContext

if TYPE_CHECKING:
    import scipy.sparse as sp


def choose_grid(nranks: int) -> Tuple[int, int]:
    """The most square ``pr x pc`` factorisation of ``nranks``
    (CombBLAS requires a grid; perfect squares are ideal)."""
    pr = int(np.sqrt(nranks))
    while pr > 1 and nranks % pr != 0:
        pr -= 1
    return pr, nranks // pr


@dataclass
class Combblas2DProblem:
    """One rank's block of the 2D-distributed problem."""

    n: int
    pr: int
    pc: int
    block: sp.csr_matrix  # A[row-block pi, col-block pj]
    x_piece: np.ndarray  # the owned piece of x (sub-block pi of col-block pj)


def partition_combblas_problem(
    nranks: int,
    n: int,
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    x: np.ndarray,
) -> List[Combblas2DProblem]:
    """Carve the global COO triples into the 2D grid blocks.

    The only function in :mod:`repro` that needs scipy, so it imports it
    here rather than on every rank program's import path.
    """
    import scipy.sparse as sp

    pr, pc = choose_grid(nranks)
    row_part = BlockPartition(n, pr)
    col_part = BlockPartition(n, pc)
    problems = []
    row_owner = row_part.owner_vec(rows)
    col_owner = col_part.owner_vec(cols)
    for rank in range(nranks):
        pi, pj = divmod(rank, pc)
        mine = (row_owner == pi) & (col_owner == pj)
        rlo, rhi = row_part.bounds(pi)
        clo, chi = col_part.bounds(pj)
        block = sp.coo_matrix(
            (vals[mine], (rows[mine] - rlo, cols[mine] - clo)),
            shape=(rhi - rlo, chi - clo),
        ).tocsr()
        block.sum_duplicates()
        # x owned piece: sub-block pi (within the column block pj).
        sub = BlockPartition(chi - clo, pr)
        slo, shi = sub.bounds(pi)
        problems.append(
            Combblas2DProblem(
                n=n, pr=pr, pc=pc, block=block, x_piece=x[clo + slo : clo + shi].copy()
            )
        )
    return problems


@dataclass
class CombblasRankResult:
    y_piece: np.ndarray  # owned y piece (sub-block pj of row-block pi)
    nnz: int


def make_combblas_spmv(
    problems: List[Combblas2DProblem],
    iterations: int = 1,
) -> Callable[[RankContext], Generator]:
    """Build the 2D SpMV rank program (runs on the plain MPI context)."""

    def rank_main(ctx: RankContext) -> Generator:
        rank = ctx.comm.rank
        prob = problems[rank]
        pr, pc = prob.pr, prob.pc
        pi, pj = divmod(rank, pc)
        flop = ctx.machine.config.compute.per_flop

        col_comm = yield from ctx.comm.split(color=pj, key=pi)
        row_comm = yield from ctx.comm.split(color=pi, key=pj)

        y_piece = None
        for _ in range(iterations):
            # 1. Allgather x within the processor column.
            pieces = yield from col_comm.allgather(prob.x_piece)
            x_block = np.concatenate(pieces)
            # 2. Local SpMV over the block.
            yield ctx.compute(2.0 * prob.block.nnz * flop)
            y_part = prob.block @ x_block
            # 3. Reduce-scatter within the processor row.
            sub = BlockPartition(len(y_part), pc)
            chunks = [y_part[slice(*sub.bounds(j))] for j in range(pc)]
            y_piece = yield from row_comm.reduce_scatter(
                chunks, lambda a, b: a + b
            )
        return CombblasRankResult(y_piece=y_piece, nnz=prob.block.nnz)

    return rank_main


def gather_combblas_y(
    values: List[CombblasRankResult], n: int, pr: int, pc: int
) -> np.ndarray:
    """Reassemble the global y from the grid-distributed pieces."""
    row_part = BlockPartition(n, pr)
    out = np.zeros(n, dtype=np.float64)
    for rank, res in enumerate(values):
        pi, pj = divmod(rank, pc)
        rlo, rhi = row_part.bounds(pi)
        sub = BlockPartition(rhi - rlo, pc)
        slo, shi = sub.bounds(pj)
        out[rlo + slo : rlo + shi] = res.y_piece
    return out
