"""repro -- a full reproduction of "You've Got Mail (YGM): Building
Missing Asynchronous Communication Primitives" (Priest, Steil, Sanders,
Pearce; 2019) on a simulated HPC substrate.

Layers (bottom up):

* :mod:`repro.sim` -- deterministic discrete-event simulation kernel.
* :mod:`repro.machine` -- N x C machine model with a LogGP-style network
  (eager/rendezvous protocol switch) and per-node NIC contention.
* :mod:`repro.mpi` -- simulated MPI: p2p matching, collectives, comms.
* :mod:`repro.serde` -- sizes + records (cereal substitute): encoded
  message lengths, the user-type registry and the fixed-record fast path.
* :mod:`repro.core` -- **YGM itself**: mailboxes, the NoRoute /
  NodeLocal / NodeRemote / NLNR routing schemes, coalescing, asynchronous
  broadcast, termination detection.
* :mod:`repro.graph`, :mod:`repro.linalg` -- graph generators, delegate
  partitioning, distributed SpMV substrate.
* :mod:`repro.apps` -- the paper's applications (degree counting,
  connected components, SpMV).
* :mod:`repro.baselines` -- CombBLAS-like 2D SpMV and BSP alltoallv.
* :mod:`repro.bench` -- the per-figure experiment harness.

Quick start::

    from repro import YgmWorld
    from repro.machine import bench_machine

    def rank_main(ctx):
        hits = []
        mb = ctx.mailbox(recv=hits.append)
        yield from mb.send((ctx.rank + 1) % ctx.nranks, f"hi from {ctx.rank}")
        yield from mb.wait_empty()
        return hits

    result = YgmWorld(bench_machine(nodes=2), scheme="nlnr").run(rank_main)
"""

from .core import (
    Mailbox,
    MailboxConfig,
    MailboxStats,
    PAPER_SCHEMES,
    RoutingScheme,
    SCHEMES,
    YgmContext,
    YgmResult,
    YgmWorld,
    get_scheme,
)
from .machine import MachineConfig, NetworkModel, bench_machine, quartz_like, small
from .serde import RecordSpec

__version__ = "1.0.0"

__all__ = [
    "Mailbox",
    "MailboxConfig",
    "MailboxStats",
    "MachineConfig",
    "NetworkModel",
    "PAPER_SCHEMES",
    "RecordSpec",
    "RoutingScheme",
    "SCHEMES",
    "YgmContext",
    "YgmResult",
    "YgmWorld",
    "bench_machine",
    "get_scheme",
    "quartz_like",
    "small",
    "__version__",
]
