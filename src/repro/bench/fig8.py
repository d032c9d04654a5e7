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

Each cell (:func:`ygm_cell` / :func:`combblas_cell`) regenerates the
sparse problem from its seeded RNG parameters inside the worker --
problems are pure functions of ``(scale, edge_factor, params, seed)``
-- and returns scalar stats, so cells parallelize and cache through
:mod:`repro.exec` with byte-identical aggregation.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..baselines import make_combblas_spmv, partition_combblas_problem
from ..exec import Job, Pool, run_jobs
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
from .harness import SweepConfig, run_mpi, run_ygm, schemes_for
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
    params = GRAPH500_PARAMS if skewed else UNIFORM_PARAMS
    label = "8a/8b (RMAT skewed, delegates)" if skewed else "8c (uniform, no delegates)"
    table = Table(
        title=f"Fig {label}: SpMV weak scaling "
        f"(2^{verts_per_node_log2} verts/node, edge factor {edge_factor}, "
        f"C={sweep.cores_per_node})",
        columns=["nodes", "impl", "seconds", "delegates", "ygm_messages"],
    )
    grid: List[Tuple[int, str]] = []
    jobs: List[Job] = []
    for nodes in sweep.node_counts:
        scale = verts_per_node_log2 + max(0, int(math.log2(nodes)))
        for scheme in schemes_for(nodes, sweep.cores_per_node):
            grid.append((nodes, f"ygm/{scheme}"))
            jobs.append(
                Job(
                    fn="repro.bench.fig8:ygm_cell",
                    kwargs=dict(
                        nodes=nodes,
                        scheme=scheme,
                        cores_per_node=sweep.cores_per_node,
                        capacity=sweep.mailbox_capacity,
                        scale=scale,
                        edge_factor=edge_factor,
                        params=list(params),
                        delegate_mode="scaled" if skewed else "none",
                        delegate_fraction=delegate_fraction,
                        seed=sweep.seed,
                    ),
                    label=f"fig{label.split()[0]} N={nodes} {scheme}",
                )
            )
        grid.append((nodes, "combblas2d"))
        jobs.append(
            Job(
                fn="repro.bench.fig8:combblas_cell",
                kwargs=dict(
                    nodes=nodes,
                    cores_per_node=sweep.cores_per_node,
                    scale=scale,
                    edge_factor=edge_factor,
                    params=list(params),
                    seed=sweep.seed,
                ),
                label=f"fig{label.split()[0]} N={nodes} combblas2d",
            )
        )
    cells = run_jobs(jobs, pool)
    for (nodes, impl), cell in zip(grid, cells):
        table.add(
            nodes=nodes,
            impl=impl,
            seconds=cell["seconds"],
            delegates=cell.get("delegates"),
            ygm_messages=cell.get("ygm_messages"),
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
    table = Table(
        title=f"Fig 8d: SpMV strong scaling, webgraph-like RMAT "
        f"(2^{scale} vertices, edge factor {edge_factor}, "
        f"mailbox {'%d*N' % mailbox_base if scale_mailbox_with_nodes else mailbox_base}, "
        f"C={sweep.cores_per_node})",
        columns=["nodes", "impl", "seconds", "mailbox"],
    )
    # Heavy-tailed webgraph substitute: slightly more skewed than Graph500.
    params = (0.60, 0.18, 0.18, 0.04)
    grid: List[Tuple[int, str, Optional[int]]] = []
    jobs: List[Job] = []
    for nodes in sweep.node_counts:
        capacity = mailbox_base * nodes if scale_mailbox_with_nodes else mailbox_base
        for scheme in schemes_for(nodes, sweep.cores_per_node, ["node_remote", "nlnr"]):
            grid.append((nodes, f"ygm/{scheme}", capacity))
            jobs.append(
                Job(
                    fn="repro.bench.fig8:ygm_cell",
                    kwargs=dict(
                        nodes=nodes,
                        scheme=scheme,
                        cores_per_node=sweep.cores_per_node,
                        capacity=capacity,
                        scale=scale,
                        edge_factor=edge_factor,
                        params=list(params),
                        delegate_mode="scaled",
                        delegate_fraction=0.05,
                        seed=sweep.seed,
                    ),
                    label=f"fig8d N={nodes} {scheme}",
                )
            )
        grid.append((nodes, "combblas2d", None))
        jobs.append(
            Job(
                fn="repro.bench.fig8:combblas_cell",
                kwargs=dict(
                    nodes=nodes,
                    cores_per_node=sweep.cores_per_node,
                    scale=scale,
                    edge_factor=edge_factor,
                    params=list(params),
                    seed=sweep.seed,
                ),
                label=f"fig8d N={nodes} combblas2d",
            )
        )
    cells = run_jobs(jobs, pool)
    for (nodes, impl, capacity), cell in zip(grid, cells):
        table.add(
            nodes=nodes, impl=impl, seconds=cell["seconds"], mailbox=capacity
        )
    return table
