"""Fig 7: connected-components scaling on RMAT graphs with delegates.

Paper setup (scaled down):

* weak scaling (7a): 2^26 vertices and 2^30 edges per node, RMAT
  (Graph500), delegate threshold scaled with the expected largest degree;
  also reports the growth in broadcast operations.
* strong scaling (7b): 2^30 vertices, 2^34 edges total.

Expected shape: NoRoute worst; NodeLocal/NodeRemote best at small N;
NLNR wins at scale; broadcast count grows with weak-scaled graph size.

Both panels run :func:`cc_cell` over the sweep's ``(nodes, scheme)``
grid, through the one grid runner
(:func:`~repro.bench.harness.run_grid`); each panel is one
:class:`~repro.bench.harness.Panel`, which the figure table and the
instrumented runs (``--trace`` / ``--profile``) share.
"""

from __future__ import annotations

import math
from typing import Optional

from ..apps import make_connected_components
from ..core import YgmResult
from ..exec import Pool
from ..graph import GRAPH500_PARAMS, rmat_stream, scaled_delegate_threshold
from ..machine import bench_machine
from .harness import Panel, SweepConfig, run_ygm
from .report import Table


def _threshold(scale: int, total_edges: int, fraction: float) -> float:
    a, b = GRAPH500_PARAMS[0], GRAPH500_PARAMS[1]
    return scaled_delegate_threshold(scale, total_edges, a, b, fraction=fraction)


def cc_run(
    *,
    nodes: int,
    scheme: str,
    cores: int,
    capacity: int,
    scale: int,
    edges_per_rank: int,
    threshold: float,
    batch_size: int,
    seed: int,
    tracer=None,
) -> YgmResult:
    """One connected-components run with delegates (both panels' cell)."""
    stream = rmat_stream(scale, edges_per_rank, seed=seed)
    return run_ygm(
        make_connected_components(
            stream, delegate_threshold=threshold, batch_size=batch_size
        ),
        bench_machine(nodes, cores_per_node=cores),
        scheme,
        capacity,
        seed=seed,
        tracer=tracer,
    )


def cc_cell(**kwargs) -> dict:
    """:func:`cc_run` as a pool job: the stats both tables read."""
    res = cc_run(**kwargs)
    return {
        "seconds": res.elapsed,
        "passes": res.values[0].passes,
        "delegates": res.values[0].delegate_count,
        "broadcasts": res.mailbox_stats.bcasts_initiated,
    }


def weak_panel(
    sweep: SweepConfig,
    verts_per_node_log2: int = 9,
    edges_per_node_log2: int = 12,
    delegate_fraction: float = 0.05,
    batch_size: int = 2**12,
) -> Panel:
    """Fig 7a: fixed work per node, the graph grows with N."""

    def workload(nodes: int) -> dict:
        scale = verts_per_node_log2 + max(0, int(math.log2(nodes)))
        total_edges = (1 << edges_per_node_log2) * nodes
        return dict(
            scale=scale,
            edges_per_rank=max(1, total_edges // (nodes * sweep.cores_per_node)),
            threshold=_threshold(scale, total_edges, delegate_fraction),
            batch_size=batch_size,
        )

    return Panel(
        fig="7a",
        title="Fig 7a: connected components, weak scaling "
        f"(2^{verts_per_node_log2} verts/node, 2^{edges_per_node_log2} edges/node, "
        f"RMAT {GRAPH500_PARAMS}, C={sweep.cores_per_node})",
        sweep=sweep,
        weak=True,
        simulate=cc_run,
        cell=cc_cell,
        workload=workload,
        extra=("passes", "delegates", "broadcasts"),
        note="delegate threshold scaled with the expected largest RMAT degree "
        "(Section VI-B); broadcasts grow with graph size as in the paper",
    )


def strong_panel(
    sweep: SweepConfig,
    total_verts_log2: int = 12,
    total_edges_log2: int = 15,
    delegate_fraction: float = 0.05,
    batch_size: int = 2**12,
) -> Panel:
    """Fig 7b: one graph, more nodes."""
    total_edges = 1 << total_edges_log2
    threshold = _threshold(total_verts_log2, total_edges, delegate_fraction)
    return Panel(
        fig="7b",
        title="Fig 7b: connected components, strong scaling "
        f"(2^{total_verts_log2} vertices, 2^{total_edges_log2} edges total, "
        f"C={sweep.cores_per_node})",
        sweep=sweep,
        weak=False,
        simulate=cc_run,
        cell=cc_cell,
        workload=lambda nodes: dict(
            scale=total_verts_log2,
            edges_per_rank=max(1, total_edges // (nodes * sweep.cores_per_node)),
            threshold=threshold,
            batch_size=batch_size,
        ),
        extra=("passes", "broadcasts"),
    )


def run_weak(
    sweep: Optional[SweepConfig] = None, pool: Optional[Pool] = None, **workload
) -> Table:
    """The Fig 7a table; ``workload`` overrides :func:`weak_panel`'s."""
    return weak_panel(sweep or SweepConfig.quick(), **workload).run(pool)


def run_strong(
    sweep: Optional[SweepConfig] = None, pool: Optional[Pool] = None, **workload
) -> Table:
    """The Fig 7b table; ``workload`` overrides :func:`strong_panel`'s."""
    return strong_panel(sweep or SweepConfig.quick(), **workload).run(pool)
