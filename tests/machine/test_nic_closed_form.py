"""Closed-form NIC conformance, bit-exact.

A FIFO server with deterministic service times needs no simulation to
predict: per NIC, in request order, the max-plus recurrence

    g_i = max(a_i, e_{i-1});   e_i = g_i + nic_time(s_i)

(``a`` request, ``g`` grant, ``e`` completion instant) gives every hold,
and a remote packet is two of them joined by the wire delay.  This is
the per-channel occupancy arithmetic of the Task--Chauhan
cluster-of-multicores model (PAPERS.md) used as the *oracle* the
one-event-per-hold :class:`~repro.sim.resources.Resource` must meet with
``==``, not ``approx`` -- the float expressions below are written in the
kernel's own association order, ``(g + nic) + overhead``.

The recurrence fixes instants, not same-instant order: examples where
two packets reach one destination NIC at the same float instant are
discarded here (which of them is served first is the subject of the tie
test in ``test_topology.py``).
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.machine import Machine, small
from repro.sim import Simulator

NODES = 3
CORES = 2
#: Start offsets sit on a coarse grid so that distinct offsets can never
#: round to the same request instant after ``+ send_overhead``.
GRID = 0.125e-6
#: Probe instants sit off that grid (and are skipped by the oracle if one
#: ever coincides with a hold boundary).
PROBE_SHIFT = 0.0377e-6

packets = st.lists(
    st.tuples(
        st.integers(0, 160),  # start offset, in GRID units
        st.integers(0, NODES - 1),  # source node
        st.integers(1, NODES - 1),  # destination node = source + this
        st.one_of(  # size: both sides of the 16 KiB eager threshold
            st.integers(0, 4096),
            st.integers(16 * 1024 - 2, 16 * 1024 + 2),
            st.integers(16 * 1024, 64 * 1024),
        ),
    ),
    min_size=1,
    max_size=10,
)


def _serve(requests):
    """Max-plus recurrence for one NIC.

    ``[(a, nic)]`` in request order -> ``([(a, g, e)], busy_time)``.
    """
    holds, e_prev, busy = [], 0.0, 0.0
    for a, nic in requests:
        g = max(a, e_prev)
        e_prev = g + nic
        busy += nic
        holds.append((a, g, e_prev))
    return holds, busy


def _occupancy(holds, t):
    """``(in_use, queue_length)`` at ``t``; None on a hold boundary."""
    if any(t in hold for hold in holds):
        return None
    return (
        sum(1 for _a, g, e in holds if g < t < e),
        sum(1 for a, g, _e in holds if a < t < g),
    )


@settings(max_examples=150, deadline=None)
@given(
    packets=packets,
    send_overhead=st.sampled_from([0.0, None]),
    recv_overhead=st.sampled_from([0.0, None]),
    probes=st.lists(st.integers(0, 400), max_size=6, unique=True),
)
def test_transmit_meets_the_max_plus_recurrence_bit_for_bit(
    packets, send_overhead, recv_overhead, probes
):
    overrides = {}
    if send_overhead is not None:
        overrides["send_overhead"] = send_overhead
    if recv_overhead is not None:
        overrides["recv_overhead"] = recv_overhead
    sim = Simulator()
    m = Machine(sim, small(nodes=NODES, cores_per_node=CORES, **overrides))
    net = m.config.net
    so, ro = net.send_overhead, net.recv_overhead

    # ---- oracle -----------------------------------------------------------
    pkts = []
    for i, (start, src_node, hop, nbytes) in enumerate(packets):
        pkts.append(
            {
                "i": i,
                "start": start * GRID,
                "src": m.rank_of(src_node, i % CORES),
                "dst": m.rank_of((src_node + hop) % NODES, (i // CORES) % CORES),
                "nbytes": nbytes,
                "nic": net.nic_time(nbytes),
            }
        )
    tx_holds, tx_busy = {}, {}
    for node in range(NODES):
        # Request order: by instant, then launch order (equal request
        # instants mean equal grid offsets, whose timeouts fire FIFO).
        mine = [p for p in pkts if m.node_of(p["src"]) == node]
        mine.sort(key=lambda p: p["start"])  # stable
        reqs = [((p["start"] + so) if so > 0 else p["start"], p["nic"]) for p in mine]
        tx_holds[node], tx_busy[node] = _serve(reqs)
        for p, (_a, _g, e) in zip(mine, tx_holds[node]):
            p["returns"] = e
            p["arrives"] = e + net.remote_delay(p["nbytes"])
    rx_holds, rx_busy = {}, {}
    for node in range(NODES):
        mine = [p for p in pkts if m.node_of(p["dst"]) == node]
        assume(len({p["arrives"] for p in mine}) == len(mine))
        mine.sort(key=lambda p: p["arrives"])
        rx_holds[node], rx_busy[node] = _serve(
            [(p["arrives"], p["nic"]) for p in mine]
        )
        for p, (_a, _g, e) in zip(mine, rx_holds[node]):
            p["delivered"] = (e + ro) if ro > 0 else e

    # ---- simulation -------------------------------------------------------
    returned, delivered, sampled = {}, {}, []

    def sender(p):
        yield sim.timeout(p["start"])
        yield from m.transmit(
            p["src"], p["dst"], p["nbytes"], p["i"],
            lambda i: delivered.__setitem__(i, sim.now),
        )
        returned[p["i"]] = sim.now

    def probe(times):
        for t in times:
            yield sim.timeout(t - sim.now)
            sampled.append(
                (
                    sim.now,
                    [(r.in_use, r.queue_length) for r in m.nic_tx],
                    [(r.in_use, r.queue_length) for r in m.nic_rx],
                )
            )

    for p in pkts:
        sim.process(sender(p))
    sim.process(probe(sorted(k * GRID + PROBE_SHIFT for k in probes)))
    sim.run()

    # ---- exact agreement --------------------------------------------------
    assert returned == {p["i"]: p["returns"] for p in pkts}
    assert delivered == {p["i"]: p["delivered"] for p in pkts}
    for engines, holds, busy in (
        (m.nic_tx, tx_holds, tx_busy),
        (m.nic_rx, rx_holds, rx_busy),
    ):
        for node, res in enumerate(engines):
            assert res.holds == len(holds[node])
            assert res.busy_time == busy[node]
            assert (res.in_use, res.queue_length) == (0, 0)
    for t, tx_seen, rx_seen in sampled:
        for seen, holds in ((tx_seen, tx_holds), (rx_seen, rx_holds)):
            for node in range(NODES):
                expected = _occupancy(holds[node], t)
                if expected is not None:
                    assert seen[node] == expected
