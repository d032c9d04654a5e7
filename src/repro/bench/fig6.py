"""Fig 6: degree-counting scaling under the four routing schemes.

Paper setup (scaled down -- see DESIGN.md):

* weak scaling (6a): 2^28 vertices and 2^32 edges **per node**, mailbox
  2^18.  We keep per-node work fixed (``edges_per_rank`` constant) and
  sweep node counts.
* strong scaling (6b): 2^32 vertices, 2^37 edges total.
* edges sampled uniformly (Erdős–Rényi) -- balanced communication, no
  broadcasts needed.

Expected shape: NoRoute falls over past a few nodes; NodeLocal and
NodeRemote track each other (uniform traffic) and beat NLNR at small N
(extra local hop); NLNR scales furthest.

Both panels run the ablations' degree-counting cell
(:func:`repro.bench.ablations.degree_cell`) over the sweep's
``(nodes, scheme)`` grid, through the one grid runner
(:func:`~repro.bench.harness.run_grid`); each panel is one
:class:`~repro.bench.harness.Panel`, which the figure table and the
instrumented runs (``--trace`` / ``--profile``) share.
"""

from __future__ import annotations

from typing import Optional

from ..exec import Pool
from .ablations import degree_cell, degree_run
from .harness import Panel, SweepConfig
from .report import Table


def weak_panel(
    sweep: SweepConfig,
    edges_per_rank: int = 2**12,
    verts_per_rank: int = 2**10,
    batch_size: int = 2**12,
) -> Panel:
    """Fig 6a: fixed work per rank."""
    return Panel(
        fig="6a",
        title="Fig 6a: degree counting, weak scaling "
        f"({edges_per_rank} edges/rank, {verts_per_rank} vertices/rank, "
        f"C={sweep.cores_per_node}, mailbox {sweep.mailbox_capacity})",
        sweep=sweep,
        weak=True,
        simulate=degree_run,
        cell=degree_cell,
        workload=lambda nodes: dict(
            batch_size=batch_size,
            edges_per_rank=edges_per_rank,
            num_vertices=verts_per_rank * nodes * sweep.cores_per_node,
        ),
        extra=("avg_remote_pkt_B",),
    )


def strong_panel(
    sweep: SweepConfig,
    total_edges: int = 2**17,
    total_verts: int = 2**14,
    batch_size: int = 2**12,
) -> Panel:
    """Fig 6b: fixed total work."""
    return Panel(
        fig="6b",
        title="Fig 6b: degree counting, strong scaling "
        f"({total_edges} edges, {total_verts} vertices total, "
        f"C={sweep.cores_per_node}, mailbox {sweep.mailbox_capacity})",
        sweep=sweep,
        weak=False,
        simulate=degree_run,
        cell=degree_cell,
        workload=lambda nodes: dict(
            batch_size=batch_size,
            edges_per_rank=max(1, total_edges // (nodes * sweep.cores_per_node)),
            num_vertices=total_verts,
        ),
    )


def run_weak(
    sweep: Optional[SweepConfig] = None, pool: Optional[Pool] = None, **workload
) -> Table:
    """The Fig 6a table; ``workload`` overrides :func:`weak_panel`'s."""
    return weak_panel(sweep or SweepConfig.quick(), **workload).run(pool)


def run_strong(
    sweep: Optional[SweepConfig] = None, pool: Optional[Pool] = None, **workload
) -> Table:
    """The Fig 6b table; ``workload`` overrides :func:`strong_panel`'s."""
    return strong_panel(sweep or SweepConfig.quick(), **workload).run(pool)
