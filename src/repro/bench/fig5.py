"""Fig 5: point-to-point bandwidth vs message size.

The paper measures two-rank bandwidth on Quartz (MVAPICH 2.3 over
Omni-Path) and annotates where each routing scheme's *average message
size* falls for a fixed send volume, given 32 cores/node.  We reproduce
both: the bandwidth curve is measured end-to-end through the simulated
MPI layer (not just evaluated from the model formula), and the markers
use the Section III-E average-size analysis O(V/NC), O(V/N), O(VC/N).

Every point of the curve is an independent two-rank simulation, so the
sweep (and the marker measurements) is one
:func:`~repro.bench.harness.run_grid` over message sizes, a
:func:`bandwidth_cell` per size.
"""

from __future__ import annotations

from typing import List, Optional

from ..exec import Pool
from ..machine import KiB, MiB, bench_machine
from ..mpi import HEADER_BYTES, World
from .harness import run_grid
from .report import Table

#: Sweep sizes: powers of two from 1 B to 16 MiB, plus the points just
#: around the eager threshold where the protocol switch shows.
def sweep_sizes() -> List[int]:
    sizes = [2**k for k in range(0, 25)]
    sizes += [16 * KiB - 1, 16 * KiB + 1]
    return sorted(set(sizes))


def measure_bandwidth(nbytes: int, repeats: int = 4) -> float:
    """End-to-end bandwidth (B/s) between two ranks on different nodes,
    measured by actually running the simulated transport."""

    def rank_main(ctx):
        payload = b""  # content is irrelevant; size is passed explicitly
        body = max(0, nbytes - HEADER_BYTES)
        if ctx.rank == 0:
            for i in range(repeats):
                yield from ctx.comm.send(1, payload, tag=i, nbytes=body)
                # Wait for the ack so transfers do not pipeline.
                yield from ctx.comm.recv(source=1, tag=i)
            return None
        start = None
        for i in range(repeats):
            yield from ctx.comm.recv(source=0, tag=i)
            if start is None:
                start = ctx.sim.now
            yield from ctx.comm.send(0, b"", tag=i, nbytes=0)
        return ctx.sim.now

    world = World(bench_machine(2, cores_per_node=1))
    res = world.run(rank_main)
    elapsed = res.values[1]
    # One-way time per transfer, excluding the zero-byte ack, measured as
    # round-trip halves would be noisy; instead time the full exchange and
    # subtract the ack cost analytically.
    net = world.machine.config.net
    ack = net.remote_time_uncontended(HEADER_BYTES)
    per_transfer = elapsed / repeats - ack
    return nbytes / per_transfer


def bandwidth_cell(*, nbytes: int, repeats: int = 4) -> dict:
    """One point of the bandwidth curve (a two-rank simulation)."""
    return {"bandwidth": measure_bandwidth(nbytes, repeats=repeats)}


def run(
    quick: bool = True,
    cores_for_markers: int = 32,
    pool: Optional[Pool] = None,
) -> Table:
    table = Table(
        title="Fig 5: network bandwidth between two ranks vs message size",
        columns=["bytes", "bandwidth_MB_s", "protocol"],
    )
    net = bench_machine(2).net
    sizes = sweep_sizes()
    if quick:
        sizes = [s for s in sizes if s >= 8]
    # Scheme markers for a fixed volume V (paper annotates NoRoute, Node
    # Remote, NLNR assuming 32 cores/node).
    V = 16 * MiB
    N = 64
    C = cores_for_markers
    markers = {
        "noroute": V / ((N - 1) * C),
        "node_remote": V / (N - 1),
        "nlnr": V * C / N,
    }
    cells = run_grid(
        [(size,) for size in sizes] + [(int(avg),) for avg in markers.values()],
        lambda nbytes: (bandwidth_cell, {"nbytes": nbytes}),
        "fig5",
        pool,
    )
    for size, cell in zip(sizes, cells):
        table.add(
            bytes=size,
            bandwidth_MB_s=cell["bandwidth"] / 1e6,
            protocol="rendezvous" if net.is_rendezvous(size) else "eager",
        )
    for (scheme, avg), cell in zip(markers.items(), cells[len(sizes):]):
        table.note(
            f"marker {scheme}: avg message size {avg / KiB:.1f} KiB for "
            f"V={V // MiB} MiB, N={N}, C={C} "
            f"-> {cell['bandwidth'] / 1e6:.1f} MB/s"
        )
    table.note(
        f"eager->rendezvous switch at {net.eager_threshold // KiB} KiB "
        "(downward jump, as in the paper)"
    )
    return table
