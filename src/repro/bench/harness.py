"""Shared experiment-running machinery for the figure benchmarks.

Each figure module builds workloads, sweeps ``(scheme, nodes)`` grids and
returns :class:`~repro.bench.report.Table` objects whose rows mirror the
series plotted in the paper.  Simulated seconds are the measured
quantity; wall-clock time of the simulation itself is what
``benchmarks/ygmbench`` measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, Iterable, List, Optional, Sequence

from ..core import YgmResult, YgmWorld
from ..core.routing import PAPER_SCHEMES
from ..machine import MachineConfig, bench_machine
from ..mpi import World


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


def run_ygm(
    make_app: Callable[..., Callable],
    machine: MachineConfig,
    scheme: str,
    capacity: int,
    seed: int = 0,
    tracer=None,
    pdes_workers: Optional[int] = None,
) -> YgmResult:
    """Run one YGM configuration to completion.

    ``pdes_workers`` > 1 runs the simulation partitioned across that
    many worker processes through the parallel engine
    (:class:`~repro.pdes.PdesWorld`; clamped to the node count).  The
    result is bit-identical to the serial run -- the engine's
    conformance battery (tests/pdes) enforces it -- so figure tables
    are unchanged by construction.
    """
    if pdes_workers is not None and pdes_workers > 1:
        from ..pdes import PdesWorld

        engine = PdesWorld(
            machine,
            scheme=scheme,
            seed=seed,
            mailbox_capacity=capacity,
            tracer=tracer,
            workers=min(pdes_workers, machine.nodes),
        )
        return engine.run(make_app)
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
