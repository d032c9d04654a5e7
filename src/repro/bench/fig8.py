"""Fig 8: SpMV scaling -- YGM (with/without delegates) vs CombBLAS-style 2D.

Paper setup (scaled down):

* 8a: weak scaling on skewed RMAT (0.57/0.19/0.19/0.05), 2^24 verts/node,
  edge factor 16, YGM uses delegates; CombBLAS comparator.
* 8b: delegate-count growth across the 8a sweep.
* 8c: same but uniform RMAT (0.25^4) and *no* delegates.
* 8d: strong scaling on the WDC 2012 webgraph (3.5B vertices).  The real
  trace is unavailable, so we substitute a synthetic scale-free
  "webgraph-like" RMAT at reduced scale (see DESIGN.md); the paper's key
  observation -- the mailbox size must scale with N or coalescing starves
  -- is reproduced by sweeping both fixed and N-scaled mailboxes.

All three tables run one grid, nodes x impl (:func:`_spmv_table`, a
:func:`~repro.bench.harness.run_grid` call): a :func:`ygm_cell` row per
valid routing scheme and a :func:`combblas_cell` row per node count.
Each cell regenerates the sparse problem from its seeded RNG parameters
inside the worker -- problems are pure functions of ``(scale,
edge_factor, params, seed)`` -- and returns scalar stats, so cells
parallelize and cache through :mod:`repro.exec` with byte-identical
aggregation.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..baselines import make_combblas_spmv, partition_combblas_problem
from ..core.routing import PAPER_SCHEMES
from ..exec import Pool
from ..graph import (
    GRAPH500_PARAMS,
    UNIFORM_PARAMS,
    build_delegates,
    rmat_edges,
    scaled_delegate_threshold,
)
from ..graph.delegates import DelegateSet
from ..linalg import make_spmv, partition_spmv_problem
from ..machine import bench_machine
from .harness import SweepConfig, run_grid, run_mpi, run_ygm, schemes_for
from .report import Table


def _make_problem(scale: int, edge_factor: int, params, seed: int):
    n = 1 << scale
    nnz = edge_factor * n
    rng = np.random.default_rng(seed)
    rows, cols = rmat_edges(scale, nnz, rng, params=tuple(params))
    vals = rng.standard_normal(nnz)
    x = rng.standard_normal(n)
    return n, rows, cols, vals, x


def _build_problem_delegates(
    scale: int,
    edge_factor: int,
    params: Sequence[float],
    seed: int,
    delegate_mode: str,
    delegate_fraction: float,
):
    """Problem + delegate set from scalars (shared by the YGM cells).

    ``delegate_mode``: ``"scaled"`` uses the Section VI-B threshold,
    ``"none"`` runs without delegates (Fig 8c).
    """
    n, rows, cols, vals, x = _make_problem(scale, edge_factor, params, seed)
    if delegate_mode == "scaled":
        threshold = scaled_delegate_threshold(
            scale, len(rows), params[0], params[1], fraction=delegate_fraction
        )
        delegates = build_delegates(rows, cols, n, threshold)
    else:
        delegates = DelegateSet(np.empty(0, dtype=np.int64))
    return n, rows, cols, vals, x, delegates


def ygm_cell(
    *,
    nodes: int,
    scheme: str,
    cores_per_node: int,
    capacity: int,
    scale: int,
    edge_factor: int,
    params: Sequence[float],
    delegate_mode: str,
    delegate_fraction: float,
    seed: int,
) -> dict:
    """One YGM SpMV cell (all three panels)."""
    nranks = nodes * cores_per_node
    n, rows, cols, vals, x, delegates = _build_problem_delegates(
        scale, edge_factor, params, seed, delegate_mode, delegate_fraction
    )
    problems = [
        partition_spmv_problem(r, nranks, n, rows, cols, vals, x, delegates)
        for r in range(nranks)
    ]
    res = run_ygm(
        make_spmv(problems),
        bench_machine(nodes, cores_per_node=cores_per_node),
        scheme,
        capacity,
        seed=seed,
    )
    return {
        "seconds": res.elapsed,
        "delegates": delegates.count,
        "ygm_messages": res.mailbox_stats.app_messages_sent,
    }


def combblas_cell(
    *,
    nodes: int,
    cores_per_node: int,
    scale: int,
    edge_factor: int,
    params: Sequence[float],
    seed: int,
) -> dict:
    """One CombBLAS-2D comparator cell."""
    nranks = nodes * cores_per_node
    n, rows, cols, vals, x = _make_problem(scale, edge_factor, params, seed)
    problems = partition_combblas_problem(nranks, n, rows, cols, vals, x)
    res = run_mpi(
        make_combblas_spmv(problems),
        bench_machine(nodes, cores_per_node=cores_per_node),
        seed=seed,
    )
    return {"seconds": res.elapsed}


def _spmv_table(
    title: str, columns: List[str], sweep: SweepConfig, fig: str,
    schemes: Sequence[str], scale_of: Callable[[int], int],
    capacity_of: Callable[[int], int], pool: Optional[Pool],
    *, edge_factor: int, params: Sequence[float], **ygm,
) -> Table:
    """Fig 8's one grid, nodes x impl: per node count a :func:`ygm_cell`
    row per valid scheme (``ygm`` is their delegate kwargs), then a
    :func:`combblas_cell` row on the same problem.  ``columns`` after
    ``nodes, impl`` are cell stats or ``mailbox`` (the YGM capacity)."""
    rows = [
        (nodes, impl)
        for nodes in sweep.node_counts
        for impl in [
            *(f"ygm/{s}" for s in schemes_for(nodes, sweep.cores_per_node, schemes)),
            "combblas2d",
        ]
    ]

    def cell_of(nodes: int, impl: str):
        problem = dict(
            nodes=nodes, cores_per_node=sweep.cores_per_node, scale=scale_of(nodes),
            edge_factor=edge_factor, params=list(params), seed=sweep.seed,
        )
        if impl == "combblas2d":
            return combblas_cell, problem
        return ygm_cell, dict(
            problem, scheme=impl[len("ygm/"):], capacity=capacity_of(nodes), **ygm
        )

    table = Table(title=title, columns=columns)
    for (nodes, impl), cell in zip(rows, run_grid(rows, cell_of, f"fig{fig}", pool)):
        if impl != "combblas2d":
            cell = dict(cell, mailbox=capacity_of(nodes))
        table.add(nodes=nodes, impl=impl, **{c: cell.get(c) for c in columns[2:]})
    return table


def run_weak(
    sweep: Optional[SweepConfig] = None,
    verts_per_node_log2: int = 9,
    edge_factor: int = 16,
    skewed: bool = True,
    delegate_fraction: float = 0.05,
    pool: Optional[Pool] = None,
) -> Table:
    """Fig 8a (skewed=True, delegates on) / Fig 8c (skewed=False, none).

    The delegate column doubles as the Fig 8b series when skewed.
    """
    sweep = sweep or SweepConfig.quick()
    label = "8a/8b (RMAT skewed, delegates)" if skewed else "8c (uniform, no delegates)"
    table = _spmv_table(
        f"Fig {label}: SpMV weak scaling "
        f"(2^{verts_per_node_log2} verts/node, edge factor {edge_factor}, "
        f"C={sweep.cores_per_node})",
        ["nodes", "impl", "seconds", "delegates", "ygm_messages"],
        sweep,
        label.split()[0],
        PAPER_SCHEMES,
        lambda nodes: verts_per_node_log2 + max(0, int(math.log2(nodes))),
        lambda nodes: sweep.mailbox_capacity,
        pool,
        edge_factor=edge_factor,
        params=GRAPH500_PARAMS if skewed else UNIFORM_PARAMS,
        delegate_mode="scaled" if skewed else "none",
        delegate_fraction=delegate_fraction,
    )
    if skewed:
        table.note("the 'delegates' column is the Fig 8b series")
    return table


def run_strong_webgraph(
    sweep: Optional[SweepConfig] = None,
    scale: int = 14,
    edge_factor: int = 16,
    mailbox_base: int = 2**8,
    scale_mailbox_with_nodes: bool = True,
    pool: Optional[Pool] = None,
) -> Table:
    """Fig 8d: strong scaling on the webgraph substitute.

    The paper scales mailbox size as 2^10 x N; we mirror that with
    ``mailbox_base * N`` (and can disable it to show why it is needed).
    """
    sweep = sweep or SweepConfig.quick()
    return _spmv_table(
        f"Fig 8d: SpMV strong scaling, webgraph-like RMAT "
        f"(2^{scale} vertices, edge factor {edge_factor}, "
        f"mailbox {'%d*N' % mailbox_base if scale_mailbox_with_nodes else mailbox_base}, "
        f"C={sweep.cores_per_node})",
        ["nodes", "impl", "seconds", "mailbox"],
        sweep,
        "8d",
        ["node_remote", "nlnr"],
        lambda nodes: scale,
        lambda nodes: mailbox_base * nodes if scale_mailbox_with_nodes else mailbox_base,
        pool,
        edge_factor=edge_factor,
        # Heavy-tailed webgraph substitute: slightly more skewed than Graph500.
        params=(0.60, 0.18, 0.18, 0.04),
        delegate_mode="scaled",
        delegate_fraction=0.05,
    )
