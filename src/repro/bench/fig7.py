"""Fig 7: connected-components scaling on RMAT graphs with delegates.

Paper setup (scaled down):

* weak scaling (7a): 2^26 vertices and 2^30 edges per node, RMAT
  (Graph500), delegate threshold scaled with the expected largest degree;
  also reports the growth in broadcast operations.
* strong scaling (7b): 2^30 vertices, 2^34 edges total.

Expected shape: NoRoute worst; NodeLocal/NodeRemote best at small N;
NLNR wins at scale; broadcast count grows with weak-scaled graph size.

Cells (:func:`weak_cell` / :func:`strong_cell`) are independent
simulations rebuilt from scalar kwargs and submitted through
:mod:`repro.exec`; aggregation order is the sweep order, so parallel
tables match serial ones byte for byte.
"""

from __future__ import annotations

import math
from typing import Optional

from ..apps import make_connected_components
from ..exec import Job, Pool, run_jobs
from ..graph import GRAPH500_PARAMS, rmat_stream, scaled_delegate_threshold
from ..machine import bench_machine
from .harness import SweepConfig, efficiency, run_ygm, schemes_for
from .report import Table


def _threshold(scale: int, total_edges: int, fraction: float) -> float:
    a, b = GRAPH500_PARAMS[0], GRAPH500_PARAMS[1]
    return scaled_delegate_threshold(scale, total_edges, a, b, fraction=fraction)


def cc_cell(
    *,
    nodes: int,
    scheme: str,
    cores_per_node: int,
    mailbox_capacity: int,
    scale: int,
    edges_per_rank: int,
    threshold: float,
    batch_size: int,
    seed: int,
) -> dict:
    """One (nodes, scheme) connected-components cell (both panels)."""
    stream = rmat_stream(scale, edges_per_rank, seed=seed)
    res = run_ygm(
        make_connected_components(
            stream, delegate_threshold=threshold, batch_size=batch_size
        ),
        bench_machine(nodes, cores_per_node=cores_per_node),
        scheme,
        mailbox_capacity,
        seed=seed,
    )
    return {
        "seconds": res.elapsed,
        "passes": res.values[0].passes,
        "delegates": res.values[0].delegate_count,
        "broadcasts": res.mailbox_stats.bcasts_initiated,
    }


def run_weak(
    sweep: Optional[SweepConfig] = None,
    verts_per_node_log2: int = 9,
    edges_per_node_log2: int = 12,
    delegate_fraction: float = 0.05,
    batch_size: int = 2**12,
    pool: Optional[Pool] = None,
) -> Table:
    sweep = sweep or SweepConfig.quick()
    table = Table(
        title="Fig 7a: connected components, weak scaling "
        f"(2^{verts_per_node_log2} verts/node, 2^{edges_per_node_log2} edges/node, "
        f"RMAT {GRAPH500_PARAMS}, C={sweep.cores_per_node})",
        columns=[
            "nodes", "scheme", "seconds", "efficiency",
            "passes", "delegates", "broadcasts",
        ],
    )
    grid = []
    jobs = []
    for nodes in sweep.node_counts:
        scale = verts_per_node_log2 + max(0, int(math.log2(nodes)))
        total_edges = (1 << edges_per_node_log2) * nodes
        edges_per_rank = max(1, total_edges // (nodes * sweep.cores_per_node))
        threshold = _threshold(scale, total_edges, delegate_fraction)
        for scheme in schemes_for(nodes, sweep.cores_per_node):
            grid.append((nodes, scheme))
            jobs.append(
                Job(
                    fn="repro.bench.fig7:cc_cell",
                    kwargs=dict(
                        nodes=nodes,
                        scheme=scheme,
                        cores_per_node=sweep.cores_per_node,
                        mailbox_capacity=sweep.mailbox_capacity,
                        scale=scale,
                        edges_per_rank=edges_per_rank,
                        threshold=threshold,
                        batch_size=batch_size,
                        seed=sweep.seed,
                    ),
                    label=f"fig7a N={nodes} {scheme}",
                )
            )
    cells = run_jobs(jobs, pool)
    base: dict = {}
    for (nodes, scheme), cell in zip(grid, cells):
        base.setdefault(scheme, (cell["seconds"], nodes))
        b_el, b_n = base[scheme]
        table.add(
            nodes=nodes,
            scheme=scheme,
            seconds=cell["seconds"],
            efficiency=efficiency(b_el, b_n, cell["seconds"], nodes, weak=True),
            passes=cell["passes"],
            delegates=cell["delegates"],
            broadcasts=cell["broadcasts"],
        )
    table.note(
        "delegate threshold scaled with the expected largest RMAT degree "
        "(Section VI-B); broadcasts grow with graph size as in the paper"
    )
    return table


def run_strong(
    sweep: Optional[SweepConfig] = None,
    total_verts_log2: int = 12,
    total_edges_log2: int = 15,
    delegate_fraction: float = 0.05,
    batch_size: int = 2**12,
    pool: Optional[Pool] = None,
) -> Table:
    sweep = sweep or SweepConfig.quick()
    table = Table(
        title="Fig 7b: connected components, strong scaling "
        f"(2^{total_verts_log2} vertices, 2^{total_edges_log2} edges total, "
        f"C={sweep.cores_per_node})",
        columns=["nodes", "scheme", "seconds", "efficiency", "passes", "broadcasts"],
    )
    scale = total_verts_log2
    total_edges = 1 << total_edges_log2
    threshold = _threshold(scale, total_edges, delegate_fraction)
    grid = []
    jobs = []
    for nodes in sweep.node_counts:
        nranks = nodes * sweep.cores_per_node
        for scheme in schemes_for(nodes, sweep.cores_per_node):
            grid.append((nodes, scheme))
            jobs.append(
                Job(
                    fn="repro.bench.fig7:cc_cell",
                    kwargs=dict(
                        nodes=nodes,
                        scheme=scheme,
                        cores_per_node=sweep.cores_per_node,
                        mailbox_capacity=sweep.mailbox_capacity,
                        scale=scale,
                        edges_per_rank=max(1, total_edges // nranks),
                        threshold=threshold,
                        batch_size=batch_size,
                        seed=sweep.seed,
                    ),
                    label=f"fig7b N={nodes} {scheme}",
                )
            )
    cells = run_jobs(jobs, pool)
    base: dict = {}
    for (nodes, scheme), cell in zip(grid, cells):
        base.setdefault(scheme, (cell["seconds"], nodes))
        b_el, b_n = base[scheme]
        table.add(
            nodes=nodes,
            scheme=scheme,
            seconds=cell["seconds"],
            efficiency=efficiency(b_el, b_n, cell["seconds"], nodes, weak=False),
            passes=cell["passes"],
            broadcasts=cell["broadcasts"],
        )
    return table
