"""The PR 9 routing schemes: node-aware aggregation and adaptive routing.

Structural invariants beyond the shared ``SCHEMES``-parametrized battery
in test_routing.py (which already covers delivery, hop bounds, partner
edges, broadcast coverage and table/view agreement for every registered
scheme): the node-aware funnel property, the adaptive scheme's two
branches under controlled congestion, and the regression that every
built-in scheme defines its own vectorised route.
"""

import numpy as np
import pytest

from repro.core.routing import (
    EXTENDED_SCHEMES,
    PAPER_SCHEMES,
    SCHEMES,
    get_scheme,
)
from repro.core.routing.base import RoutingScheme
from repro.machine import address

SHAPES = [(2, 2), (3, 2), (2, 4), (4, 4), (8, 4), (5, 3), (12, 4)]


def test_extended_schemes_list():
    assert EXTENDED_SCHEMES == PAPER_SCHEMES + ["node_aware", "adaptive"]
    assert set(EXTENDED_SCHEMES) <= set(SCHEMES)


# ------------------------------------------------------------- node_aware
@pytest.mark.parametrize("nodes,cores", SHAPES)
def test_node_aware_remote_hops_only_between_aggregators(nodes, cores):
    """The funnel property: every off-node transmission runs between the
    two nodes' designated aggregator ranks."""
    scheme = get_scheme("node_aware", nodes, cores)

    def aggregator(node):
        return node * cores + node % cores

    for src in range(scheme.nranks):
        for dest in range(scheme.nranks):
            if src == dest:
                continue
            cur = src
            for _ in range(scheme.max_hops()):
                if cur == dest:
                    break
                nxt = int(scheme.hop_table(cur)[dest])
                if not address.same_node(cur, nxt, cores):
                    assert cur == aggregator(address.node_of(cur, cores))
                    assert nxt == aggregator(address.node_of(nxt, cores))
                cur = nxt
            assert cur == dest


@pytest.mark.parametrize("nodes,cores", SHAPES)
def test_node_aware_partners_and_channels(nodes, cores):
    scheme = get_scheme("node_aware", nodes, cores)
    for rank in range(scheme.nranks):
        node = address.node_of(rank, cores)
        partners = scheme.remote_partners(rank)
        if rank == node * cores + node % cores:
            # Aggregators talk to every *other* aggregator, nobody else.
            assert len(partners) == nodes - 1
            assert all(
                p == address.node_of(p, cores) * cores
                + address.node_of(p, cores) % cores
                for p in partners
            )
        else:
            assert partners == []


# --------------------------------------------------------------- adaptive
class _FakeResource:
    def __init__(self, in_use=0, queue_length=0):
        self.in_use = in_use
        self.queue_length = queue_length


class _FakeMachine:
    def __init__(self, nodes):
        self.nic_tx = [_FakeResource() for _ in range(nodes)]


@pytest.mark.parametrize("nodes,cores", [(4, 4), (8, 4)])
def test_adaptive_unbound_routes_direct(nodes, cores):
    """Without a machine there is no occupancy signal: ship direct."""
    adaptive = get_scheme("adaptive", nodes, cores)
    direct = get_scheme("noroute", nodes, cores)
    dests = np.arange(adaptive.nranks, dtype=np.int64)
    for src in (0, adaptive.nranks - 1):
        mine = dests[dests != src]
        assert np.array_equal(
            adaptive.next_hop_vec(src, mine), direct.next_hop_vec(src, mine)
        )


@pytest.mark.parametrize("nodes,cores", [(4, 4), (8, 4)])
def test_adaptive_switches_on_live_congestion(nodes, cores):
    """Idle NIC -> direct; occupied NIC -> the NLNR funnel, per call."""
    adaptive = get_scheme("adaptive", nodes, cores)
    nlnr = get_scheme("nlnr", nodes, cores)
    machine = _FakeMachine(nodes)
    adaptive.bind_machine(machine)
    src = 1
    dests = np.array(
        [d for d in range(adaptive.nranks) if d != src], dtype=np.int64
    )

    # The scalar view is taken once (as a mailbox does) and read per post.
    view = adaptive.hop_list(src)
    last = int(dests[-1])

    # Idle: every hop is the destination itself.
    assert np.array_equal(adaptive.next_hop_vec(src, dests), dests)
    assert view[last] == last

    # Congest this rank's node: the same call now routes like NLNR.
    machine.nic_tx[src // cores].in_use = 1
    assert np.array_equal(
        adaptive.next_hop_vec(src, dests), nlnr.next_hop_vec(src, dests)
    )
    assert view[last] == nlnr.hop_list(src)[last] != last

    # Back to idle: direct again (the signal is read per decision).
    machine.nic_tx[src // cores].in_use = 0
    assert np.array_equal(adaptive.next_hop_vec(src, dests), dests)
    assert view[last] == last

    # A queue backlog counts as congestion too.
    machine.nic_tx[src // cores].queue_length = 2
    assert np.array_equal(
        adaptive.next_hop_vec(src, dests), nlnr.next_hop_vec(src, dests)
    )


@pytest.mark.parametrize("nodes,cores", [(4, 4), (8, 2)])
def test_adaptive_bcast_tree_is_static(nodes, cores):
    """Broadcast trees must not depend on load: a tree rewired mid-flight
    would duplicate or drop copies.  Adaptive always uses NLNR's tree."""
    adaptive = get_scheme("adaptive", nodes, cores)
    nlnr = get_scheme("nlnr", nodes, cores)
    machine = _FakeMachine(nodes)
    adaptive.bind_machine(machine)
    for origin in (0, adaptive.nranks - 1):
        for holder in range(adaptive.nranks):
            idle = adaptive.bcast_targets(holder, origin)
            machine.nic_tx[holder // cores].in_use = 3
            congested = adaptive.bcast_targets(holder, origin)
            machine.nic_tx[holder // cores].in_use = 0
            assert idle == congested == nlnr.bcast_targets(holder, origin)


def test_static_schemes_ignore_bind_machine():
    for name in ("noroute", "node_local", "node_remote", "nlnr", "node_aware"):
        scheme = get_scheme(name, 4, 2)
        scheme.bind_machine(object())  # must be a harmless no-op
        assert scheme.hop_list(0)[5] in range(scheme.nranks)


# ------------------------------------------------------ one route per scheme
@pytest.mark.parametrize("name", list(SCHEMES))
def test_no_builtin_scheme_uses_the_scalar_fallback(name, monkeypatch):
    """Every registered scheme defines its own ``next_hop_vec``: the base
    class has no route (and no scalar fallback) to inherit."""

    def boom(self, cur, dests):
        raise AssertionError(
            f"{type(self).__name__} fell back to the scalar next_hop_vec"
        )

    monkeypatch.setattr(RoutingScheme, "next_hop_vec", boom)
    scheme = get_scheme(name, 4, 4)
    if name == "adaptive":
        scheme.bind_machine(_FakeMachine(4))
    dests = np.array([3, 7, 9, 12, 3], dtype=np.int64)
    hops = scheme.next_hop_vec(0, dests)
    assert hops.shape == dests.shape
    if name == "adaptive":
        # Exercise the congested branch as well: it delegates to the
        # *embedded* NLNR's override, which the monkeypatch also guards.
        scheme._nic_tx[0].in_use = 1
        assert scheme.next_hop_vec(0, dests).shape == dests.shape
