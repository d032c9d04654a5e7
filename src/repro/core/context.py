"""YGM execution context and world runner -- the library's front door.

Typical use::

    from repro import YgmWorld
    from repro.machine import bench_machine

    def rank_main(ctx):
        counts = {}

        def on_recv(vertex):
            counts[vertex] = counts.get(vertex, 0) + 1

        mb = ctx.mailbox(recv=on_recv)
        for v in my_vertices:
            yield from mb.send(owner(v), v)
        yield from mb.wait_empty()
        return counts

    world = YgmWorld(bench_machine(nodes=4), scheme="nlnr", seed=0)
    result = world.run(rank_main)
    print(result.elapsed, result.mailbox_stats.bcasts_initiated)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional, Union

import numpy as np

from ..machine import Machine, MachineConfig, bench_machine
from ..mpi import Comm, RankContext, World, WorldResult
from .config import MailboxConfig
from .mailbox import Mailbox
from .routing import RoutingScheme, get_scheme
from .stats import MailboxStats, aggregate


@dataclass(frozen=True)
class Occupancy:
    """Point-in-time runtime occupancy counters (``YgmContext.occupancy``).

    ``nic_*_in_use`` are packets currently holding the node's NIC
    resource, ``nic_*_queued`` the waiters behind them;
    ``buffered_messages`` counts this rank's messages sitting in
    coalescing buffers across all its mailboxes, and ``buffer_fill`` is
    that count over the summed mailbox capacities (0.0 with no
    mailboxes).
    """

    nic_tx_in_use: int
    nic_tx_queued: int
    nic_rx_in_use: int
    nic_rx_queued: int
    buffered_messages: int
    buffer_fill: float


class YgmContext:
    """What a YGM rank program receives.

    Wraps the simulated-MPI rank context with the routing scheme and a
    mailbox factory.  All ranks must create mailboxes in the same order.
    """

    def __init__(self, mpi_ctx: RankContext, scheme: RoutingScheme, default_config: MailboxConfig):
        self._mpi = mpi_ctx
        self.scheme = scheme
        self.default_config = default_config
        self.mailboxes: List[Mailbox] = []

    # -- identity ------------------------------------------------------------
    @property
    def comm(self) -> Comm:
        return self._mpi.comm

    @property
    def rank(self) -> int:
        return self._mpi.comm.rank

    @property
    def world_rank(self) -> int:
        return self._mpi.rank

    @property
    def nranks(self) -> int:
        return self._mpi.nranks

    @property
    def node(self) -> int:
        return self._mpi.node

    @property
    def core(self) -> int:
        return self._mpi.core

    @property
    def world(self) -> World:
        return self._mpi.world

    @property
    def machine(self) -> Machine:
        return self._mpi.machine

    @property
    def sim(self):
        return self._mpi.sim

    @property
    def rng(self) -> np.random.Generator:
        return self._mpi.rng

    def compute(self, seconds: float):
        """Charge application CPU time: ``yield ctx.compute(t)``."""
        return self._mpi.compute(seconds)

    # -- observability -------------------------------------------------------
    def occupancy(self) -> "Occupancy":
        """Cheap live occupancy counters for this rank's node.

        A point-in-time snapshot of the signals adaptive policies (and
        application-level backpressure) can key on: the node's NIC
        transmit/receive occupancy (``in_use + queue_length`` of the
        simulated :class:`~repro.sim.resources.Resource`) and this
        rank's own coalescing-buffer fill.  Reading it never advances
        simulated time and never perturbs the run.
        """
        machine = self._mpi.machine
        node = self._mpi.node
        tx = machine.nic_tx[node]
        rx = machine.nic_rx[node]
        buffered = sum(mb.queued for mb in self.mailboxes)
        capacity = sum(mb.config.capacity for mb in self.mailboxes)
        return Occupancy(
            nic_tx_in_use=tx.in_use,
            nic_tx_queued=tx.queue_length,
            nic_rx_in_use=rx.in_use,
            nic_rx_queued=rx.queue_length,
            buffered_messages=buffered,
            buffer_fill=(buffered / capacity) if capacity else 0.0,
        )

    # -- tracing -------------------------------------------------------------
    @property
    def tracer(self):
        """The installed :class:`repro.trace.Tracer`, or ``None``."""
        return self._mpi.sim.tracer

    def trace(self, name: str, **args) -> None:
        """Emit an application-level trace marker on this rank's lane.

        A no-op (one attribute check) when no tracer is installed, so
        rank programs can annotate phases unconditionally.
        """
        tracer = self._mpi.sim.tracer
        if tracer is not None and tracer.wants("app"):
            tracer.instant(
                self._mpi.sim.now, "app", name, f"rank {self.world_rank}", **args
            )

    # -- mailbox factory -----------------------------------------------------
    def mailbox(
        self,
        recv: Optional[Callable[[Any], None]] = None,
        recv_batch: Optional[Callable[[np.ndarray], None]] = None,
        recv_bcast: Optional[Callable[[Any], None]] = None,
        capacity: Optional[int] = None,
        combiner=None,
    ) -> Mailbox:
        """Create this rank's next mailbox (collective: same order everywhere).

        ``combiner`` attaches an in-network combining algebra
        (:class:`~repro.core.routing.combiner.Combiner`) for this
        mailbox's batch records.
        """
        config = self.default_config
        if capacity is not None:
            config = config.with_overrides(capacity=capacity)
        if combiner is not None:
            config = config.with_overrides(combiner=combiner)
        mb = Mailbox(
            self,
            recv=recv,
            recv_batch=recv_batch,
            recv_bcast=recv_bcast,
            config=config,
            mailbox_id=len(self.mailboxes),
        )
        self.mailboxes.append(mb)
        return mb


@dataclass
class YgmResult:
    """Outcome of a YGM world run."""

    values: List[Any]
    elapsed: float
    finish_times: List[float]
    transport: Dict[str, Any]
    per_rank_stats: List[MailboxStats]
    mailbox_stats: MailboxStats

    def utilization(self) -> List[float]:
        """Per-rank busy fraction: 1 - (mailbox idle time / finish time).

        The "core utilization" the paper's asynchrony improves: time not
        spent blocked waiting for traffic in wait_empty.
        """
        out = []
        for stats, finish in zip(self.per_rank_stats, self.finish_times):
            if finish and finish > 0:
                out.append(max(0.0, 1.0 - stats.idle_time / finish))
            else:
                out.append(1.0)
        return out

    @classmethod
    def from_world(cls, res: WorldResult, contexts: List[YgmContext]) -> "YgmResult":
        per_rank = [
            aggregate(mb.stats for mb in ctx.mailboxes) for ctx in contexts
        ]
        return cls(
            values=res.values,
            elapsed=res.elapsed,
            finish_times=res.finish_times,
            transport=res.transport,
            per_rank_stats=per_rank,
            mailbox_stats=aggregate(per_rank),
        )


class YgmWorld:
    """A simulated machine running YGM with a chosen routing scheme."""

    def __init__(
        self,
        machine: Union[MachineConfig, int],
        scheme: Union[str, RoutingScheme] = "nlnr",
        seed: int = 0,
        mailbox_capacity: int = MailboxConfig().capacity,
        cores_per_node: int = 8,
        tracer=None,
        tiebreaker=None,
    ):
        if isinstance(machine, int):
            machine = bench_machine(nodes=machine, cores_per_node=cores_per_node)
        self.machine_config = machine
        self.tracer = tracer
        self.world = World(machine, seed=seed, tracer=tracer, tiebreaker=tiebreaker)
        if isinstance(scheme, str):
            scheme = get_scheme(scheme, machine.nodes, machine.cores_per_node)
        elif (scheme.nodes, scheme.cores) != (machine.nodes, machine.cores_per_node):
            raise ValueError("routing scheme shape does not match the machine")
        # Adaptive schemes read live NIC occupancy; static schemes ignore this.
        scheme.bind_machine(self.world.machine)
        self.scheme = scheme
        self.default_config = MailboxConfig(capacity=mailbox_capacity)

    @property
    def nranks(self) -> int:
        return self.world.nranks

    def run(self, rank_main: Callable[[YgmContext], Generator]) -> YgmResult:
        """Run ``rank_main(ctx)`` on every rank to completion."""
        contexts: List[YgmContext] = []

        def wrapper(mpi_ctx: RankContext) -> Generator:
            ctx = YgmContext(mpi_ctx, self.scheme, self.default_config)
            contexts.append(ctx)
            value = yield from rank_main(ctx)
            return value

        res = self.world.run(wrapper)
        contexts.sort(key=lambda c: c.world_rank)
        return YgmResult.from_world(res, contexts)
