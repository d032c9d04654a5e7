"""Ablation benchmarks for the design choices DESIGN.md calls out.

These go beyond the paper's figures and probe *why* the results look the
way they do:

* mailbox-capacity sweep -- coalescing effectiveness vs memory (explains
  the Fig 8d requirement that mailbox size scale with N),
* cores-per-node sweep -- the Section III-E "lateral distance grows with
  C" argument,
* eager-threshold sweep -- sensitivity to the protocol switch,
* NLNR vs hybrid NLNR -- the Section VII MPI+threads projection,
* straggler imbalance -- YGM's pseudo-asynchrony vs the BSP baseline
  (the introduction's motivating scenario),
* in-network combining -- combining ratio vs achieved speedup across
  key-space concentrations and routing schemes (the NAPSpMV-style
  aggregation PR 9 adds).

The first four are one axis-driven sweep (:func:`_degree_sweep`) over
the parametrized degree-counting cell (:func:`degree_cell`, also the
cell of Figs 6a/6b); the straggler and combining comparisons have their
own cells.  Every ablation runs its grid through
:func:`~repro.bench.harness.run_grid`, so ablations parallelize and
cache like the figures do.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional, Sequence

import numpy as np

from ..apps import make_connected_components, make_degree_counting
from ..baselines import make_bsp_degree_counting
from ..core import YgmResult
from ..exec import Pool
from ..graph import er_stream, rmat_stream
from ..machine import bench_machine
from .harness import run_grid, run_mpi, run_ygm
from .report import Table


def degree_run(
    *,
    nodes: int,
    cores: int,
    scheme: str,
    capacity: int,
    batch_size: int,
    edges_per_rank: int,
    num_vertices: int,
    seed: int,
    eager_threshold: Optional[int] = None,
    tracer=None,
) -> YgmResult:
    """One degree-counting run: the Fig 6 panels' and the ablations' cell."""
    stream = er_stream(
        num_vertices=num_vertices, edges_per_rank=edges_per_rank, seed=seed
    )
    overrides = {}
    if eager_threshold is not None:
        overrides["eager_threshold"] = eager_threshold
    machine = bench_machine(nodes, cores_per_node=cores, **overrides)
    return run_ygm(
        make_degree_counting(stream, batch_size=batch_size),
        machine,
        scheme,
        capacity,
        seed=seed,
        tracer=tracer,
    )


def degree_cell(**kwargs) -> dict:
    """:func:`degree_run` as a pool job: every stat the figures and
    ablations read."""
    res = degree_run(**kwargs)
    stats = res.mailbox_stats
    return {
        "seconds": res.elapsed,
        "avg_remote_pkt_B": stats.avg_remote_packet_bytes,
        "flushes": stats.flushes,
        "local_bytes": stats.local_bytes_sent,
        "remote_bytes": stats.remote_bytes_sent,
    }


def _degree_sweep(
    name: str,
    title: str,
    columns: Sequence[str],
    axes: Dict[str, Sequence],
    pool: Optional[Pool],
    note: Optional[str] = None,
    **fixed,
) -> Table:
    """The ablation ``name``: a :func:`degree_cell` per point of the
    product of ``axes`` (``{kwarg: values}``, the first axis outermost),
    on ``1024 * nodes * cores`` vertices.  ``fixed`` is the kwargs no
    axis sets; ``columns`` names the axes' table columns, then the cell
    stats each row reads."""
    grid = list(itertools.product(*axes.values()))

    def cell_of(*point):
        kwargs = dict(fixed, **dict(zip(axes, point)))
        kwargs["num_vertices"] = 1024 * kwargs["nodes"] * kwargs["cores"]
        return degree_cell, kwargs

    table = Table(title=title, columns=list(columns))
    cells = run_grid(grid, cell_of, f"ablation {name}", pool)
    for point, cell in zip(grid, cells):
        stats = [cell[c] for c in columns[len(point):]]
        table.add(**dict(zip(columns, (*point, *stats))))
    if note:
        table.note(note)
    return table


def run_capacity_sweep(
    nodes: int = 8,
    cores: int = 4,
    capacities: Sequence[int] = (2**6, 2**8, 2**10, 2**12, 2**14),
    edges_per_rank: int = 2**12,
    scheme: str = "node_remote",
    seed: int = 0,
    pool: Optional[Pool] = None,
) -> Table:
    """Mailbox capacity vs runtime: small mailboxes flush tiny packets.

    The application feeds the mailbox in small increments (batch 32) so
    that the mailbox *capacity* -- not the application batch size --
    governs the flush granularity, as with the paper's per-message sends.
    """
    return _degree_sweep(
        "capacity",
        f"Ablation: mailbox capacity sweep ({scheme}, N={nodes}, C={cores})",
        ["capacity", "seconds", "avg_remote_pkt_B", "flushes"],
        {"capacity": capacities},
        pool,
        "larger mailboxes -> bigger packets -> less per-packet overhead",
        nodes=nodes, cores=cores, scheme=scheme, batch_size=32,
        edges_per_rank=edges_per_rank, seed=seed,
    )


def run_cores_sweep(
    nodes: int = 16,
    cores_options: Sequence[int] = (2, 4, 8),
    edges_per_rank: int = 2**12,
    capacity: int = 2**12,
    seed: int = 0,
    pool: Optional[Pool] = None,
) -> Table:
    """Section III-E: the NLNR advantage over NodeRemote grows with C."""
    return _degree_sweep(
        "cores",
        f"Ablation: cores-per-node sweep (N={nodes})",
        ["cores", "scheme", "seconds", "avg_remote_pkt_B"],
        {"cores": cores_options, "scheme": ("node_remote", "nlnr")},
        pool,
        "NLNR's avg packet is C x NodeRemote's: the gap widens with C",
        nodes=nodes, capacity=capacity, batch_size=2**12,
        edges_per_rank=edges_per_rank, seed=seed,
    )


def run_eager_threshold_sweep(
    thresholds: Sequence[int] = (2**12, 2**14, 2**16, 2**18),
    nodes: int = 8,
    cores: int = 4,
    capacity: int = 2**12,
    edges_per_rank: int = 2**12,
    seed: int = 0,
    pool: Optional[Pool] = None,
) -> Table:
    """Where the protocol switch sits changes which scheme's packets ride
    the fast path."""
    return _degree_sweep(
        "eager",
        f"Ablation: eager/rendezvous threshold sweep (N={nodes}, C={cores})",
        ["threshold", "scheme", "seconds"],
        {"eager_threshold": thresholds, "scheme": ("node_remote", "nlnr")},
        pool,
        nodes=nodes, cores=cores, capacity=capacity, batch_size=2**12,
        edges_per_rank=edges_per_rank, seed=seed,
    )


def run_hybrid_comparison(
    nodes: int = 8,
    cores: int = 8,
    capacity: int = 2**12,
    edges_per_rank: int = 2**12,
    seed: int = 0,
    pool: Optional[Pool] = None,
) -> Table:
    """Section VII: hybrid MPI+threads NLNR removes on-node copy costs."""
    return _degree_sweep(
        "hybrid",
        f"Ablation: NLNR vs hybrid (free local hops), N={nodes}, C={cores}",
        ["scheme", "seconds", "local_bytes", "remote_bytes"],
        {"scheme": ("node_local", "node_remote", "nlnr", "nlnr_hybrid")},
        pool,
        nodes=nodes, cores=cores, capacity=capacity, batch_size=2**12,
        edges_per_rank=edges_per_rank, seed=seed,
    )


def bsp_straggler_cell(
    *,
    nodes: int,
    cores: int,
    edges_per_rank: int,
    batch_size: int,
    straggler_delay: float,
    seed: int,
) -> dict:
    """The BSP baseline under a straggler: rank 0 pays extra per batch."""
    stream = er_stream(
        num_vertices=1024 * nodes * cores, edges_per_rank=edges_per_rank, seed=seed
    )

    def skew(rank: int, step: int) -> float:
        return straggler_delay if rank == 0 else 0.0

    # BSP: the exchange is inside every superstep, so a rank's own work
    # is not done until the last superstep completes -- its finish time.
    res = run_mpi(
        make_bsp_degree_counting(stream, batch_size=batch_size, compute_skew=skew),
        bench_machine(nodes, cores_per_node=cores),
        seed=seed,
    )
    return {
        "makespan": res.elapsed,
        "avg_work_done_others": float(np.mean(res.finish_times[1:])),
    }


def ygm_straggler_cell(
    *,
    nodes: int,
    cores: int,
    scheme: str,
    capacity: int,
    edges_per_rank: int,
    batch_size: int,
    straggler_delay: float,
    seed: int,
) -> dict:
    """YGM under the same straggler, recording own-work completion."""
    stream = er_stream(
        num_vertices=1024 * nodes * cores, edges_per_rank=edges_per_rank, seed=seed
    )
    work_done = np.zeros(nodes * cores)

    # The degree-count loop is inlined (rather than reusing
    # make_degree_counting) so the straggler's per-batch delay can be
    # interposed and the own-work completion time recorded.
    def ygm_app(ctx):
        from repro.apps.degree_count import DEGREE_SPEC
        from repro.graph.partition import CyclicPartition

        part = CyclicPartition(stream.num_vertices, ctx.nranks)
        degrees = np.zeros(part.local_count(ctx.rank), dtype=np.int64)

        def on_batch(b):
            ids = part.local_id_vec(b["vertex"].astype(np.int64))
            degrees[:] += np.bincount(ids, minlength=len(degrees))

        mb = ctx.mailbox(recv_batch=on_batch, capacity=capacity)
        for u, v in stream.batches(ctx.rank, batch_size):
            yield ctx.compute(len(u) * ctx.machine.config.compute.per_edge_gen)
            yield ctx.compute(straggler_delay if ctx.rank == 0 else 0.0)
            verts = np.concatenate((u, v))
            yield from mb.send_batch(
                part.owner_vec(verts),
                DEGREE_SPEC.build(vertex=verts.astype("u8")),
                spec=DEGREE_SPEC,
            )
        yield from mb.flush()
        work_done[ctx.rank] = ctx.sim.now  # own work complete here
        yield from mb.wait_empty()
        return degrees

    res = run_ygm(
        ygm_app, bench_machine(nodes, cores_per_node=cores), scheme, capacity,
        seed=seed,
    )
    return {
        "makespan": res.elapsed,
        "avg_work_done_others": float(np.mean(work_done[1:])),
    }


def run_straggler_comparison(
    nodes: int = 4,
    cores: int = 4,
    edges_per_rank: int = 2**12,
    capacity: int = 2**10,
    straggler_delay: float = 5e-4,
    seed: int = 0,
    pool: Optional[Pool] = None,
) -> Table:
    """The motivating scenario: one slow rank.

    Under BSP every rank idles at every superstep waiting for the
    straggler, so nobody's *own work* completes before the straggler
    does.  Under YGM the other ranks finish queueing and flushing their
    own messages early -- their cores are free for other computation and
    they merely remain available as routing intermediaries inside
    ``wait_empty`` ("cores participating ... can enter the protocol when
    ready", Abstract).  We therefore report, besides the makespan, the
    mean time at which *non-straggler* ranks finished their own work
    (their last send, before the global drain).
    """
    table = Table(
        title=f"Ablation: straggler imbalance, BSP vs YGM "
        f"(N={nodes}, C={cores}, straggler +{straggler_delay}s/batch)",
        columns=["impl", "makespan", "avg_work_done_others"],
    )
    common = dict(
        nodes=nodes, cores=cores, edges_per_rank=edges_per_rank, batch_size=2**10,
        straggler_delay=straggler_delay, seed=seed,
    )
    impls = ["bsp_alltoallv", "ygm/node_remote", "ygm/nlnr"]

    def cell_of(impl: str):
        if impl == "bsp_alltoallv":
            return bsp_straggler_cell, common
        return ygm_straggler_cell, dict(
            common, scheme=impl[len("ygm/"):], capacity=capacity
        )

    cells = run_grid([(i,) for i in impls], cell_of, "ablation straggler", pool)
    for impl, cell in zip(impls, cells):
        table.add(impl=impl, **cell)
    table.note(
        "avg_work_done_others: mean time non-straggler ranks finished their "
        "own sends; BSP couples it to the straggler, YGM does not"
    )
    return table


def combining_cell(
    *,
    app: str,
    nodes: int,
    cores: int,
    scheme: str,
    capacity: int,
    batch_size: int,
    edges_per_rank: int,
    num_vertices: int,
    seed: int,
    combining: bool,
) -> dict:
    """One combining-ablation run (degree counting or CC), with the
    message-reduction counters the sweep derives its ratios from."""
    if app == "degree_count":
        stream = er_stream(
            num_vertices=num_vertices, edges_per_rank=edges_per_rank, seed=seed
        )
        make = make_degree_counting(
            stream, batch_size=batch_size, capacity=capacity,
            combining=combining,
        )
    elif app == "connected_components":
        stream = rmat_stream(
            num_vertices.bit_length() - 1, edges_per_rank, seed=seed
        )
        # Delegate only the most extreme hubs: everything below travels
        # the point-to-point mailbox the combiner attaches to, which is
        # where combining competes with (rather than duplicates) the
        # delegate mechanism for hub-update pressure.
        mean_degree = (
            2.0 * edges_per_rank * nodes * cores / stream.num_vertices
        )
        make = make_connected_components(
            stream,
            delegate_threshold=16.0 * mean_degree,
            batch_size=batch_size,
            capacity=capacity,
            combining=combining,
        )
    else:
        raise ValueError(f"unknown combining-ablation app {app!r}")
    res = run_ygm(
        make, bench_machine(nodes, cores_per_node=cores), scheme, capacity,
        seed=seed,
    )
    stats = res.mailbox_stats
    return {
        "seconds": res.elapsed,
        "entries_forwarded": stats.entries_forwarded,
        "remote_bytes": stats.remote_bytes_sent,
        "entries_combined": stats.entries_combined,
        "app_messages_sent": stats.app_messages_sent,
    }


def _reduction(off: dict, on: dict, stat: str) -> float:
    """The share of ``stat`` that combining removed (0 if ``off`` had none)."""
    return 1.0 - (on[stat] / off[stat] if off[stat] else 1.0)


def run_combining_sweep(
    nodes: int = 4,
    cores: int = 4,
    capacity: int = 2**8,
    edges_per_rank: int = 2**11,
    schemes: Sequence[str] = ("nlnr", "node_aware"),
    seed: int = 0,
    pool: Optional[Pool] = None,
) -> Table:
    """Combining ratio vs achieved speedup (the PR 9 ablation).

    The degree panels shrink the vertex set at a fixed edge count, so
    the same traffic concentrates onto fewer keys: the fraction of
    records the in-network combiner can eliminate (``combine_ratio``)
    rises across the rows, and with it the forwarded-entry and wire-byte
    reductions and the simulated-time speedup.  The CC panel is the
    fig7-style RMAT workload, whose hub-skewed label updates combine
    naturally.  Each row pairs a combining-off and a combining-on run of
    the identical configuration.
    """
    nranks = nodes * cores
    table = Table(
        title=f"Ablation: in-network combining ratio vs speedup "
        f"(N={nodes}, C={cores})",
        columns=[
            "app", "scheme", "verts", "combine_ratio",
            "fwd_reduction", "wire_reduction", "speedup",
        ],
    )
    # (app, num_vertices): degree panels sweep key concentration; the
    # RMAT panel's vertex count picks the generator scale.
    panels = [
        ("degree_count", 16 * nranks),
        ("degree_count", 64 * nranks),
        ("degree_count", 256 * nranks),
        ("connected_components", 1024),
    ]
    # Each (app, verts, scheme) row runs combining off, then on.
    grid = [
        (app, verts, scheme, combining)
        for app, verts in panels
        for scheme in schemes
        for combining in (False, True)
    ]

    def cell_of(app: str, verts: int, scheme: str, combining: bool):
        return combining_cell, dict(
            app=app, nodes=nodes, cores=cores, scheme=scheme, capacity=capacity,
            batch_size=2**10, edges_per_rank=edges_per_rank, num_vertices=verts,
            seed=seed, combining=combining,
        )

    cells = run_grid(grid, cell_of, "ablation combining", pool)
    for (app, verts, scheme, _), off, on in zip(grid[::2], cells[::2], cells[1::2]):
        posted = on["app_messages_sent"]
        table.add(
            app=app,
            scheme=scheme,
            verts=verts,
            combine_ratio=on["entries_combined"] / posted if posted else 0.0,
            fwd_reduction=_reduction(off, on, "entries_forwarded"),
            wire_reduction=_reduction(off, on, "remote_bytes"),
            speedup=off["seconds"] / on["seconds"] if on["seconds"] else 0.0,
        )
    table.note(
        "combine_ratio: fraction of posted records merged away in-network; "
        "speedup is simulated seconds, combining off/on"
    )
    return table
