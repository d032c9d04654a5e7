"""Unit tests for the Machine transport paths and NIC contention."""

import gc
import weakref

import pytest

from repro.machine import Machine, small
from repro.sim import Simulator


def make_machine(nodes=2, cores=2, **net_overrides):
    sim = Simulator()
    cfg = small(nodes=nodes, cores_per_node=cores, **net_overrides)
    return sim, Machine(sim, cfg)


def test_shape_helpers():
    sim, m = make_machine(nodes=3, cores=4)
    assert m.nranks == 12
    assert m.node_of(5) == 1
    assert m.core_of(5) == 1
    assert m.rank_of(2, 3) == 11
    assert m.same_node(4, 7)
    assert not m.same_node(3, 4)


def test_local_transmit_delivers_and_charges_sender():
    sim, m = make_machine()
    delivered = []

    def sender(sim):
        yield from m.transmit(0, 1, 1024, "pkt", delivered.append)

    p = sim.process(sender(sim))
    sim.run_until_complete(p)
    assert delivered == ["pkt"]
    assert sim.now == pytest.approx(m.config.net.local_time(1024))
    assert m.local_packets == 1
    assert m.remote_packets == 0


def test_remote_transmit_delivers_after_full_path():
    sim, m = make_machine()
    net = m.config.net
    delivered_at = []

    def sender(sim):
        yield from m.transmit(0, 2, 4096, "pkt", lambda p: delivered_at.append(sim.now))

    p = sim.process(sender(sim))
    sim.run()
    expected = net.remote_time_uncontended(4096)
    assert delivered_at[0] == pytest.approx(expected)
    assert m.remote_packets == 1
    assert m.remote_bytes == 4096


def test_sender_returns_before_delivery():
    """Buffered-send semantics: the sender regains its core after the
    source-side costs, while the packet is still in flight."""
    sim, m = make_machine()
    net = m.config.net
    sender_done = []

    def sender(sim):
        yield from m.transmit(0, 2, 4096, "pkt", lambda p: None)
        sender_done.append(sim.now)

    p = sim.process(sender(sim))
    sim.run()
    source_side = net.send_overhead + net.nic_time(4096)
    assert sender_done[0] == pytest.approx(source_side)
    assert sender_done[0] < net.remote_time_uncontended(4096)


def test_tx_nic_serializes_cores_of_same_node():
    """Two cores on one node sending remotely share the TX NIC."""
    sim, m = make_machine(nodes=2, cores=2)
    net = m.config.net
    done = []

    def sender(sim, src):
        yield from m.transmit(src, 2, 8192, "pkt", lambda p: None)
        done.append(sim.now)

    for src in (0, 1):
        sim.process(sender(sim, src))
    sim.run()
    t_nic = net.nic_time(8192)
    # Second sender's NIC hold starts only after the first completes.
    assert max(done) >= net.send_overhead + 2 * t_nic


def test_rx_nic_creates_hotspot_queueing():
    """Many nodes sending to one node queue at its RX NIC."""
    sim, m = make_machine(nodes=5, cores=1)
    net = m.config.net
    delivered_at = []

    def sender(sim, src):
        yield from m.transmit(src, 0, 8192, src, lambda p: delivered_at.append(sim.now))

    for src in range(1, 5):
        sim.process(sender(sim, src))
    sim.run()
    # All four packets serialize through node 0's RX NIC.
    span = max(delivered_at) - min(delivered_at)
    assert span >= 3 * net.nic_time(8192) * 0.99


def test_nic_utilisation_report():
    sim, m = make_machine()

    def sender(sim):
        yield from m.transmit(0, 2, 1000, "a", lambda p: None)
        yield from m.transmit(0, 1, 1000, "b", lambda p: None)

    p = sim.process(sender(sim))
    sim.run()
    util = m.nic_utilisation()
    assert util["remote_packets"] == 1
    assert util["local_packets"] == 1
    assert util["tx_busy"] > 0
    assert util["rx_busy"] > 0


# ------------------------------------------------- kernel-event budget
def _steps_for_packets(npackets, **net_overrides):
    sim, m = make_machine(**net_overrides)

    def sender(sim):
        for i in range(npackets):
            yield from m.transmit(0, 2, 4096, i, lambda p: None)

    sim.process(sender(sim))
    sim.run()
    assert m.remote_packets == npackets
    return sim.steps


@pytest.mark.parametrize(
    "overrides, per_packet",
    [
        ({}, 5),  # send overhead, TX hold, arrival, RX hold, delivery
        ({"recv_overhead": 0.0}, 4),  # delivery runs inline in the RX completion
        ({"send_overhead": 0.0, "recv_overhead": 0.0}, 3),
    ],
)
def test_remote_packet_costs_exactly_five_kernel_events(overrides, per_packet):
    """One more remote packet is exactly five more kernel events.

    Host-independent: a process, an acquire event or a second timeout
    put back on the per-packet path fails here, not in a timing.
    """
    steps = [_steps_for_packets(k, **overrides) for k in (1, 2, 7)]
    assert steps[1] - steps[0] == per_packet
    assert steps[2] - steps[1] == 5 * per_packet


def _resumes_for_packets(npackets, **net_overrides):
    """How many times the kernel resumes a rank sending ``npackets``."""
    sim, m = make_machine(**net_overrides)
    resumes = []

    def sender(sim):
        for i in range(npackets):
            yield from m.transmit(0, 2, 4096, i, lambda p: None)

    def counted(gen):
        for event in gen:  # the sender's events all succeed with None
            yield event
            resumes.append(sim.now)

    sim.process(counted(sender(sim)))
    sim.run()
    assert m.remote_packets == npackets
    return len(resumes)


@pytest.mark.parametrize(
    "overrides",
    [{}, {"recv_overhead": 0.0}, {"send_overhead": 0.0, "recv_overhead": 0.0}],
)
def test_sender_is_resumed_exactly_once_per_remote_packet(overrides):
    """The sender waits on a packet's in-flight entry once, for 5/4/3 events.

    Every resume re-enters the whole ``apps -> mailbox -> mpi ->
    machine`` generator chain, so a second wait per packet (the send
    overhead as its own timeout) fails here, not only in a timing.
    """
    for k in (1, 2, 7):
        assert _resumes_for_packets(k, **overrides) == k


def test_delivered_packet_is_not_kept_alive_by_its_entry_or_its_sender():
    sim, m = make_machine()
    yielded, payload_ref, delivered = [], [], []

    class Payload:
        lin = None

    def sender(sim):
        payload = Payload()
        payload_ref.append(weakref.ref(payload))
        transmit = m.transmit(0, 2, 4096, payload, lambda p: delivered.append(1))
        del payload
        for event in transmit:
            yielded.append(event)  # the in-flight entry, held by the test
            yield event
        yield sim.timeout(1.0)  # the sender outlives the delivery

    p = sim.process(sender(sim))
    sim.run(until=0.5)
    gc.collect()
    assert delivered == [1] and p.is_alive and yielded
    assert payload_ref[0]() is None


# ------------------------------------------------------- same-instant ties
def test_same_instant_tx_grants_deliver_in_grant_order_not_request_order():
    """Two TX engines free at the same float instant, each with one waiter.

    Ranks 0 (node 0) and 2 (node 1) start equal-sized sends at t=0, so
    both TX holds complete at the same instant, node 0's first.  Their
    waiters requested in the *opposite* order: rank 3 (node 1) before
    rank 1 (node 0).  Both waiters' packets go to node 2.  The waiters
    are *granted* in their predecessors' completion order (node 0 then
    node 1), and that -- not the request order -- decides who reaches
    node 2's RX engine first.

    ``EXPECTED`` was recorded at the parent commit (426bd28, the
    acquire/timeout/release resource).  A server that pushes a waiter's
    completion at request time (``busy_until`` arithmetic) keeps every
    timestamp and counter and delivers ``[3, 1]``.
    """
    EXPECTED = [1, 3]
    sim, m = make_machine(nodes=4, cores=2)
    delivered = []

    def sender(sim, src, dst, start, nbytes):
        yield sim.timeout(start)
        yield from m.transmit(src, dst, nbytes, src, delivered.append)

    sim.process(sender(sim, 0, 6, 0.0, 8192))  # predecessor on nic_tx[0]
    sim.process(sender(sim, 2, 7, 0.0, 8192))  # predecessor on nic_tx[1]
    sim.process(sender(sim, 3, 4, 0.25e-6, 1024))  # waiter on nic_tx[1], first
    sim.process(sender(sim, 1, 4, 0.5e-6, 1024))  # waiter on nic_tx[0], second
    sim.run()
    assert [m.nic_tx[n].holds for n in (0, 1)] == [2, 2]
    assert [src for src in delivered if src in (1, 3)] == EXPECTED
