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

Every ``(nodes, scheme)`` cell is an independent simulation, expressed
as a module-level cell function (:func:`weak_cell` / :func:`strong_cell`)
that rebuilds its workload from scalar kwargs; the drivers submit cells
through :mod:`repro.exec` and aggregate in deterministic sweep order,
so ``--jobs N`` output is byte-identical to serial.
"""

from __future__ import annotations

from typing import Optional

from ..apps import make_degree_counting
from ..exec import Job, Pool, run_jobs
from ..graph import er_stream
from ..machine import bench_machine
from .harness import SweepConfig, efficiency, run_ygm, schemes_for
from .report import Table


def weak_cell(
    *,
    nodes: int,
    scheme: str,
    cores_per_node: int,
    mailbox_capacity: int,
    edges_per_rank: int,
    verts_per_rank: int,
    batch_size: int,
    seed: int,
) -> dict:
    """One (nodes, scheme) cell of Fig 6a, rebuilt from scalars."""
    nranks = nodes * cores_per_node
    stream = er_stream(
        num_vertices=verts_per_rank * nranks,
        edges_per_rank=edges_per_rank,
        seed=seed,
    )
    res = run_ygm(
        make_degree_counting(stream, batch_size=batch_size),
        bench_machine(nodes, cores_per_node=cores_per_node),
        scheme,
        mailbox_capacity,
        seed=seed,
    )
    return {
        "seconds": res.elapsed,
        "avg_remote_pkt_B": res.mailbox_stats.avg_remote_packet_bytes,
    }


def strong_cell(
    *,
    nodes: int,
    scheme: str,
    cores_per_node: int,
    mailbox_capacity: int,
    total_edges: int,
    total_verts: int,
    batch_size: int,
    seed: int,
) -> dict:
    """One (nodes, scheme) cell of Fig 6b."""
    nranks = nodes * cores_per_node
    stream = er_stream(
        num_vertices=total_verts,
        edges_per_rank=max(1, total_edges // nranks),
        seed=seed,
    )
    res = run_ygm(
        make_degree_counting(stream, batch_size=batch_size),
        bench_machine(nodes, cores_per_node=cores_per_node),
        scheme,
        mailbox_capacity,
        seed=seed,
    )
    return {"seconds": res.elapsed}


def _grid(sweep: SweepConfig):
    for nodes in sweep.node_counts:
        for scheme in schemes_for(nodes, sweep.cores_per_node):
            yield nodes, scheme


def run_weak(
    sweep: Optional[SweepConfig] = None,
    edges_per_rank: int = 2**12,
    verts_per_rank: int = 2**10,
    batch_size: int = 2**12,
    pool: Optional[Pool] = None,
) -> Table:
    sweep = sweep or SweepConfig.quick()
    table = Table(
        title="Fig 6a: degree counting, weak scaling "
        f"({edges_per_rank} edges/rank, {verts_per_rank} vertices/rank, "
        f"C={sweep.cores_per_node}, mailbox {sweep.mailbox_capacity})",
        columns=["nodes", "scheme", "seconds", "efficiency", "avg_remote_pkt_B"],
    )
    grid = list(_grid(sweep))
    cells = run_jobs(
        [
            Job(
                fn="repro.bench.fig6:weak_cell",
                kwargs=dict(
                    nodes=nodes,
                    scheme=scheme,
                    cores_per_node=sweep.cores_per_node,
                    mailbox_capacity=sweep.mailbox_capacity,
                    edges_per_rank=edges_per_rank,
                    verts_per_rank=verts_per_rank,
                    batch_size=batch_size,
                    seed=sweep.seed,
                ),
                label=f"fig6a N={nodes} {scheme}",
            )
            for nodes, scheme in grid
        ],
        pool,
    )
    base: dict = {}
    for (nodes, scheme), cell in zip(grid, cells):
        base.setdefault(scheme, (cell["seconds"], nodes))
        b_el, b_n = base[scheme]
        table.add(
            nodes=nodes,
            scheme=scheme,
            seconds=cell["seconds"],
            efficiency=efficiency(b_el, b_n, cell["seconds"], nodes, weak=True),
            avg_remote_pkt_B=cell["avg_remote_pkt_B"],
        )
    return table


def run_strong(
    sweep: Optional[SweepConfig] = None,
    total_edges: int = 2**17,
    total_verts: int = 2**14,
    batch_size: int = 2**12,
    pool: Optional[Pool] = None,
) -> Table:
    sweep = sweep or SweepConfig.quick()
    table = Table(
        title="Fig 6b: degree counting, strong scaling "
        f"({total_edges} edges, {total_verts} vertices total, "
        f"C={sweep.cores_per_node}, mailbox {sweep.mailbox_capacity})",
        columns=["nodes", "scheme", "seconds", "efficiency"],
    )
    grid = list(_grid(sweep))
    cells = run_jobs(
        [
            Job(
                fn="repro.bench.fig6:strong_cell",
                kwargs=dict(
                    nodes=nodes,
                    scheme=scheme,
                    cores_per_node=sweep.cores_per_node,
                    mailbox_capacity=sweep.mailbox_capacity,
                    total_edges=total_edges,
                    total_verts=total_verts,
                    batch_size=batch_size,
                    seed=sweep.seed,
                ),
                label=f"fig6b N={nodes} {scheme}",
            )
            for nodes, scheme in grid
        ],
        pool,
    )
    base: dict = {}
    for (nodes, scheme), cell in zip(grid, cells):
        base.setdefault(scheme, (cell["seconds"], nodes))
        b_el, b_n = base[scheme]
        table.add(
            nodes=nodes,
            scheme=scheme,
            seconds=cell["seconds"],
            efficiency=efficiency(b_el, b_n, cell["seconds"], nodes, weak=False),
        )
    return table
