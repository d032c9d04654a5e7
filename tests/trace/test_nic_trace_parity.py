"""NIC trace parity across the one-event-per-hold rewrite, recorded as data.

The two digests below were produced by the *parent* commit (426bd28: the
acquire/timeout/release ``Resource.timed`` and the detached
``_in_flight`` process) running exactly this scenario.  The rewrite
(``Resource.hold`` + arrival/delivery callbacks) must emit the same
``resource``-category events (``wait`` / ``hold`` / ``queue_depth``: same
lanes, timestamps, durations, values) and the same ``mpi``
``packet_on_wire`` / ``packet_delivered`` instants, to the last float
bit.  Emission *order* within an instant is not part of the contract, so
the digest is over the sorted tuples.
"""

import hashlib

from repro import YgmWorld
from repro.machine import small
from repro.trace import Tracer

SENDS_PER_RANK = 40


def _contended_main(ctx):
    """Hot-spot traffic: half of every rank's sends target node 0."""
    mb = ctx.mailbox(recv=lambda _msg: None, capacity=8)
    n = ctx.nranks
    for i in range(SENDS_PER_RANK):
        dest = i % 2 if i % 4 < 2 else (ctx.rank + 1 + i) % n
        yield from mb.send(dest, (ctx.rank, i))
    yield from mb.wait_empty()


def _traced_events():
    tracer = Tracer(categories={"resource", "mpi"})
    world = YgmWorld(
        small(nodes=4, cores_per_node=2),
        scheme="noroute",
        seed=5,
        mailbox_capacity=8,
        tracer=tracer,
    )
    world.run(_contended_main)
    return tracer.events


def _digest(events) -> str:
    rows = sorted(
        (
            repr(ev.ts),
            ev.name,
            ev.lane,
            repr(ev.dur),
            repr((ev.args or {}).get("value")),
        )
        for ev in events
    )
    return hashlib.sha256(repr(rows).encode()).hexdigest()


# Recorded at the parent commit (see the module docstring).
RESOURCE_DIGEST = "d6b3fcce94d4ff7972b1e856994f880fe8da4f91f54b5fda2c04df36560311cb"
WIRE_DIGEST = "599fd3077ef05136c0e2b5b0e3ee3bbaf245c33a1f0e1d649da847583a2e6341"


def test_resource_and_wire_trace_events_match_the_parent_commit():
    events = _traced_events()
    resource = [ev for ev in events if ev.cat == "resource"]
    wire = [
        ev for ev in events
        if ev.cat == "mpi" and ev.name in ("packet_on_wire", "packet_delivered")
    ]
    # The scenario must actually contend, or the digests prove nothing.
    names = {ev.name for ev in resource}
    assert names == {"wait", "hold", "queue_depth"}
    assert max(ev.args["value"] for ev in resource if ev.name == "queue_depth") >= 2
    assert _digest(resource) == RESOURCE_DIGEST
    assert _digest(wire) == WIRE_DIGEST
