"""Shared experiment-running machinery for the figure benchmarks.

Every figure and ablation table has one shape: a grid of rows (axis
values such as ``(nodes, scheme)``), each row one simulation -- a *cell*
function run as a :mod:`repro.exec` job -- reduced to the stats its
table row reads.  :func:`run_grid` is that shape's one runner: it turns
the rows into one batch of jobs and returns the cells in row order, so
each table's function only lists its rows, names each row's cell and
kwargs, and renders the table.  Simulated seconds are the measured
quantity; wall-clock time of the simulation itself is what
``benchmarks/ygmbench`` measures.  The four scaling panels (Figs 6a-7b)
are each one :class:`Panel`: the figure table and the instrumented runs
(:mod:`repro.bench.instrumented`) both build their cells from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

from ..core import YgmResult, YgmWorld
from ..core.routing import PAPER_SCHEMES
from ..exec import Job, Pool, run_jobs
from ..machine import MachineConfig, bench_machine
from ..mpi import World
from .report import Table


@dataclass(frozen=True)
class SweepConfig:
    """Scaled-down sweep parameters (the paper's axes, shrunk).

    ``quick`` keeps the whole figure suite runnable in a couple of
    minutes; ``full`` pushes node counts (and therefore rank counts) up
    for cleaner asymptotics.
    """

    cores_per_node: int
    node_counts: Sequence[int]
    mailbox_capacity: int
    seed: int = 0

    @classmethod
    def quick(cls) -> "SweepConfig":
        return cls(cores_per_node=4, node_counts=(1, 2, 4, 8, 16), mailbox_capacity=2**12)

    @classmethod
    def full(cls) -> "SweepConfig":
        return cls(
            cores_per_node=8,
            node_counts=(1, 2, 4, 8, 16, 32, 64),
            mailbox_capacity=2**13,
        )

    def machine(self, nodes: int, **overrides) -> MachineConfig:
        return bench_machine(nodes, cores_per_node=self.cores_per_node, **overrides)


def schemes_for(nodes: int, cores: int, schemes: Iterable[str] = PAPER_SCHEMES) -> List[str]:
    """The paper ran NLNR only once a layer roughly fills (>= C nodes,
    Section VI): below that its remote channels degenerate.  ``adaptive``
    embeds an NLNR fallback for its congested branch, so it is gated the
    same way; ``node_aware`` has no such constraint."""
    out = []
    for s in schemes:
        if (s.startswith("nlnr") or s == "adaptive") and nodes < cores:
            continue
        out.append(s)
    return out


def run_grid(
    rows: Sequence[Tuple[Any, ...]],
    cell_of: Callable[..., Tuple[Callable[..., dict], dict]],
    label: str,
    pool: Optional[Pool] = None,
) -> List[dict]:
    """Run one cell per row and return the cells in row order.

    ``cell_of(*row)`` names a row's cell function (a module-level
    function, so a worker can import it) and its kwargs; a grid may mix
    cell functions (Fig 8 puts YGM and CombBLAS rows on one grid).  Every
    row goes into one :func:`~repro.exec.run_jobs` batch, labelled
    ``label`` plus the row's axis values for progress and trace display.
    """
    jobs = []
    for row in rows:
        cell, kwargs = cell_of(*row)
        jobs.append(
            Job(
                fn=f"{cell.__module__}:{cell.__name__}",
                kwargs=kwargs,
                label=" ".join(map(str, (label, *row))),
            )
        )
    return run_jobs(jobs, pool)


def run_ygm(
    make_app: Callable[..., Callable],
    machine: MachineConfig,
    scheme: str,
    capacity: int,
    seed: int = 0,
    tracer=None,
) -> YgmResult:
    """Run one YGM configuration to completion."""
    world = YgmWorld(
        machine, scheme=scheme, seed=seed, mailbox_capacity=capacity, tracer=tracer
    )
    return world.run(make_app)


def run_mpi(rank_main: Callable, machine: MachineConfig, seed: int = 0):
    """Run one plain-MPI (baseline) configuration."""
    world = World(machine, seed=seed)
    return world.run(rank_main)


def efficiency(base_elapsed: float, base_nodes: int, elapsed: float, nodes: int, weak: bool) -> float:
    """Parallel efficiency relative to the smallest configuration."""
    if elapsed == 0:
        return float("nan")
    if weak:
        return base_elapsed / elapsed
    return (base_elapsed / elapsed) * (base_nodes / nodes)


@dataclass(frozen=True)
class Panel:
    """One scaling panel: a cell per ``(nodes, scheme)`` of the sweep.

    ``simulate(**cell_kwargs(nodes, scheme), tracer=...)`` is the cell's
    simulation; ``cell`` (same kwargs) is its pool job, reducing that
    simulation to the row stats the table reads (``seconds`` plus
    ``extra``).  ``workload(nodes)`` is the panel's part of the kwargs.
    """

    fig: str
    title: str
    sweep: SweepConfig
    weak: bool
    simulate: Callable[..., YgmResult]
    cell: Callable[..., dict]
    workload: Callable[[int], dict]
    extra: Tuple[str, ...] = ()
    note: Optional[str] = None

    def cell_kwargs(self, nodes: int, scheme: str) -> dict:
        """The kwargs of the ``(nodes, scheme)`` cell."""
        return dict(
            nodes=nodes,
            scheme=scheme,
            cores=self.sweep.cores_per_node,
            capacity=self.sweep.mailbox_capacity,
            seed=self.sweep.seed,
            **self.workload(nodes),
        )

    def run(self, pool: Optional[Pool] = None) -> Table:
        """The figure table: every cell, with each scheme's efficiency
        relative to its smallest node count."""
        grid = [
            (nodes, scheme)
            for nodes in self.sweep.node_counts
            for scheme in schemes_for(nodes, self.sweep.cores_per_node)
        ]
        cells = run_grid(
            grid, lambda *row: (self.cell, self.cell_kwargs(*row)), f"fig{self.fig}", pool
        )
        table = Table(
            title=self.title,
            columns=["nodes", "scheme", "seconds", "efficiency", *self.extra],
        )
        base: dict = {}
        for (nodes, scheme), cell in zip(grid, cells):
            seconds = cell["seconds"]
            b_el, b_n = base.setdefault(scheme, (seconds, nodes))
            table.add(
                nodes=nodes,
                scheme=scheme,
                seconds=seconds,
                efficiency=efficiency(b_el, b_n, seconds, nodes, weak=self.weak),
                **{col: cell[col] for col in self.extra},
            )
        if self.note:
            table.note(self.note)
        return table
