"""The simulated world: machine + per-rank inboxes + rank processes.

:class:`World` wires the layers together and runs one *rank program* (a
generator function taking a :class:`RankContext`) on every simulated core.
This is the moral equivalent of ``mpiexec -n <ranks> python program.py``
for the simulated machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional

import numpy as np

from ..machine import Machine, MachineConfig
from ..sim import DeadlockError, Simulator
from .comm import Comm
from .matching import Inbox

#: Context id of the world communicator (MPI_COMM_WORLD analogue).
WORLD_CTX = 0


def failed_rank_deadlock(blocked, now, rank, failed_at, exc) -> DeadlockError:
    """The deadlock that follows a rank failure, blamed on that rank.

    Names ``rank`` (the lowest failed one) in the detail and is chained
    ``from`` its exception ``exc``, so the root cause is not lost.
    """
    err = DeadlockError(
        blocked, now, detail=f"rank {rank} failed at t={failed_at!r}: {exc!r}"
    )
    err.__cause__ = exc
    return err


@dataclass
class RankContext:
    """Everything a rank program gets: identity, comm, rng, compute hook."""

    world: "World"
    rank: int
    comm: Comm

    @property
    def nranks(self) -> int:
        return self.world.machine.nranks

    @property
    def node(self) -> int:
        return self.world.machine.node_of(self.rank)

    @property
    def core(self) -> int:
        return self.world.machine.core_of(self.rank)

    @property
    def sim(self) -> Simulator:
        return self.world.sim

    @property
    def machine(self) -> Machine:
        return self.world.machine

    @property
    def rng(self) -> np.random.Generator:
        """Per-rank deterministic RNG (seeded from the world seed + rank)."""
        if not hasattr(self, "_rng") or self._rng is None:
            self._rng = np.random.default_rng(
                np.random.SeedSequence(entropy=self.world.seed, spawn_key=(self.rank,))
            )
        return self._rng

    def compute(self, seconds: float):
        """Charge ``seconds`` of application CPU work to this core.

        Returns an event; use as ``yield ctx.compute(t)``.
        """
        if seconds < 0:
            raise ValueError(f"negative compute time: {seconds}")
        return self.world.sim.timeout(seconds)


@dataclass
class WorldResult:
    """Outcome of a world run."""

    #: Per-rank return values of the rank program.
    values: List[Any]
    #: Simulated seconds from launch to the last rank finishing.
    elapsed: float
    #: Per-rank finish times (simulated seconds).
    finish_times: List[float]
    #: Machine-level transport statistics.
    transport: Dict[str, Any] = field(default_factory=dict)

    @property
    def makespan(self) -> float:
        return self.elapsed

    @property
    def avg_finish(self) -> float:
        return float(np.mean(self.finish_times))


class World:
    """A simulated machine with one MPI rank per core."""

    def __init__(self, config: MachineConfig, seed: int = 0, tracer=None, tiebreaker=None):
        self.sim = Simulator(tiebreaker=tiebreaker)
        if tracer is not None:
            tracer.bind(nodes=config.nodes, cores_per_node=config.cores_per_node)
            self.sim.tracer = tracer
        self.machine = Machine(self.sim, config)
        self.seed = seed
        self.inboxes: List[Inbox] = [
            Inbox(self.sim, r) for r in range(self.machine.nranks)
        ]
        self._contexts: Dict[tuple, int] = {}
        self._next_ctx = WORLD_CTX + 1

    @property
    def nranks(self) -> int:
        return self.machine.nranks

    def comm_world(self, rank: int) -> Comm:
        """The world communicator handle for ``rank``."""
        return Comm(self, WORLD_CTX, range(self.machine.nranks), rank)

    def derive_context(self, parent_ctx: int, seq: int, color) -> int:
        """Deterministically allocate a context id for a split subcomm.

        All members call with identical ``(parent_ctx, seq, color)`` so
        they agree on the id without extra communication.
        """
        key = (parent_ctx, seq, color)
        if key not in self._contexts:
            self._contexts[key] = self._next_ctx
            self._next_ctx += 1
        return self._contexts[key]

    def make_context(self, rank: int) -> RankContext:
        return RankContext(world=self, rank=rank, comm=self.comm_world(rank))

    def run(
        self,
        rank_main: Callable[[RankContext], Generator],
        until: Optional[float] = None,
    ) -> WorldResult:
        """Run ``rank_main(ctx)`` on every rank until all complete.

        ``rank_main`` must be a generator function (the simulated process
        body).  Returns per-rank results and the simulated makespan.

        An exception escaping a rank program becomes that rank's value.
        If the surviving ranks then deadlock (typically waiting on the
        dead one), the :class:`~repro.sim.DeadlockError` names the
        lowest failed rank and is chained ``from`` its exception.
        """
        contexts = [self.make_context(r) for r in range(self.nranks)]
        finish_times: List[float] = [float("nan")] * self.nranks
        failed_at: Dict[int, float] = {}

        def wrapper(ctx: RankContext) -> Generator:
            try:
                value = yield from rank_main(ctx)
            except Exception:
                failed_at[ctx.rank] = self.sim.now
                raise
            finish_times[ctx.rank] = self.sim.now
            return value

        procs = self.sim.process_batch(
            (wrapper(ctx) for ctx in contexts),
            names=[f"rank{ctx.rank}" for ctx in contexts],
        )
        try:
            if until is not None:
                self.sim.run(until=until)
            else:
                self.sim.run_until_complete(*procs)
        except DeadlockError as err:
            if not failed_at:
                raise
            rank = min(failed_at)
            raise failed_rank_deadlock(
                err.blocked, err.now, rank, failed_at[rank], procs[rank].value
            )
        values = [p.value if p.triggered else None for p in procs]
        return WorldResult(
            values=values,
            elapsed=self.sim.now,
            finish_times=finish_times,
            transport=self.machine.nic_utilisation(),
        )
