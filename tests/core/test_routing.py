"""Exhaustive + property tests for the routing schemes.

These check the paper's Section III invariants directly on the route
tables: path validity, hop bounds, exchange-phase structure, broadcast
coverage and remote-message counts, and the Section III-E partner and
channel structure, derived from the tables.  The tables and broadcast
trees themselves are pinned by SHA-256 digests (``route_digests.json``)
recorded from the scalar ``next_hop`` and the hand-written
``bcast_targets`` of commit 4f41b1c, before ``next_hop`` was deleted.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.routing import PAPER_SCHEMES, SCHEMES, get_scheme
from repro.machine import address

SHAPES = [(2, 2), (3, 2), (2, 4), (4, 4), (8, 4), (5, 3), (12, 4), (16, 4)]
#: Shapes the digests were recorded on: SHAPES plus the one-node,
#: one-core-per-node and 128-rank corners.
DIGEST_SHAPES = SHAPES + [(1, 1), (1, 4), (4, 1), (32, 4)]
DIGESTS = json.loads((Path(__file__).parent / "route_digests.json").read_text())
#: Schemes whose routes and broadcast trees are both static.
STATIC_SCHEMES = [name for name in SCHEMES if name != "adaptive"]


class _BusyNic:
    in_use, queue_length = 1, 0


class _CongestedMachine:
    def __init__(self, nodes):
        self.nic_tx = [_BusyNic() for _ in range(nodes)]


def trace_path(scheme, src, dest):
    """Follow the hop tables from src to dest; returns the hop sequence."""
    path = [src]
    cur = src
    for _ in range(scheme.max_hops() + 1):
        if cur == dest:
            return path
        cur = int(scheme.hop_table(cur)[dest])
        assert 0 <= cur < scheme.nranks
        path.append(cur)
    raise AssertionError(f"{scheme.name}: no delivery {src}->{dest}: {path}")


@pytest.mark.parametrize("name", list(SCHEMES))
@pytest.mark.parametrize("nodes,cores", SHAPES)
def test_all_pairs_delivered_within_hop_bound(name, nodes, cores):
    scheme = get_scheme(name, nodes, cores)
    for src in range(scheme.nranks):
        for dest in range(scheme.nranks):
            if src == dest:
                continue
            path = trace_path(scheme, src, dest)
            assert path[-1] == dest
            assert len(path) - 1 <= scheme.max_hops()


@pytest.mark.parametrize("nodes,cores", SHAPES)
def test_node_local_phase_structure(nodes, cores):
    """Node Local: first hop local (to matching core offset), second remote."""
    scheme = get_scheme("node_local", nodes, cores)
    for src in range(scheme.nranks):
        for dest in range(scheme.nranks):
            if src == dest:
                continue
            path = trace_path(scheme, src, dest)
            hops = list(zip(path, path[1:]))
            if len(hops) == 2:
                a, b = hops
                assert address.same_node(a[0], a[1], cores), "hop 1 must be local"
                assert not address.same_node(b[0], b[1], cores), "hop 2 must be remote"
                # After the local hop the holder matches dest's core offset.
                assert address.core_of(a[1], cores) == address.core_of(dest, cores)


@pytest.mark.parametrize("nodes,cores", SHAPES)
def test_node_remote_phase_structure(nodes, cores):
    """Node Remote: first hop remote (keeping core offset), second local."""
    scheme = get_scheme("node_remote", nodes, cores)
    for src in range(scheme.nranks):
        for dest in range(scheme.nranks):
            if src == dest:
                continue
            path = trace_path(scheme, src, dest)
            hops = list(zip(path, path[1:]))
            if len(hops) == 2:
                a, b = hops
                assert not address.same_node(a[0], a[1], cores)
                assert address.same_node(b[0], b[1], cores)
                assert address.core_of(a[1], cores) == address.core_of(src, cores)
                assert address.node_of(a[1], cores) == address.node_of(dest, cores)


@pytest.mark.parametrize("nodes,cores", SHAPES)
def test_nlnr_phase_structure(nodes, cores):
    """NLNR: local -> remote -> local, with the paper's intermediary rule."""
    scheme = get_scheme("nlnr", nodes, cores)
    for src in range(scheme.nranks):
        for dest in range(scheme.nranks):
            if src == dest:
                continue
            path = trace_path(scheme, src, dest)
            # Exactly one remote hop on any cross-node path.
            remote_hops = [
                (a, b) for a, b in zip(path, path[1:])
                if not address.same_node(a, b, cores)
            ]
            if address.same_node(src, dest, cores):
                assert remote_hops == []
            else:
                assert len(remote_hops) == 1
                a, b = remote_hops[0]
                # Sender-side intermediary has core offset == dest node % C;
                # receiver-side has core offset == source node % C.
                assert address.core_of(a, cores) == address.node_of(dest, cores) % cores
                assert address.core_of(b, cores) == address.node_of(src, cores) % cores


@pytest.mark.parametrize("name", list(SCHEMES))
@pytest.mark.parametrize("nodes,cores", SHAPES)
def test_remote_hops_only_between_partners(name, nodes, cores):
    """Every remote hop travels along a declared remote-partner edge."""
    scheme = get_scheme(name, nodes, cores)
    for src in range(scheme.nranks):
        partners = set(scheme.remote_partners(src))
        for dest in range(scheme.nranks):
            if src == dest:
                continue
            path = trace_path(scheme, src, dest)
            for a, b in zip(path, path[1:]):
                if not address.same_node(a, b, cores):
                    assert b in set(scheme.remote_partners(a)), (
                        f"{name}: remote hop {a}->{b} not in partner set"
                    )


def partner_counts(scheme):
    return [len(scheme.remote_partners(r)) for r in range(scheme.nranks)]


@pytest.mark.parametrize("nodes,cores", SHAPES)
def test_nlnr_partner_count_is_n_over_c(nodes, cores):
    counts = partner_counts(get_scheme("nlnr", nodes, cores))
    # ~N/C nodes per column (exact split of N-? depends on divisibility).
    assert max(counts) <= -(-nodes // cores)  # ceil
    assert min(counts) >= nodes // cores - 1


@pytest.mark.parametrize("nodes,cores", SHAPES)
def test_nl_nr_partner_count_is_n_minus_1(nodes, cores):
    for name in ("node_local", "node_remote"):
        counts = partner_counts(get_scheme(name, nodes, cores))
        assert counts == [nodes - 1] * (nodes * cores)


@pytest.mark.parametrize("nodes,cores", SHAPES)
def test_noroute_partner_count_is_every_off_node_core(nodes, cores):
    counts = partner_counts(get_scheme("noroute", nodes, cores))
    assert counts == [(nodes - 1) * cores] * (nodes * cores)


@pytest.mark.parametrize("name", list(SCHEMES))
@pytest.mark.parametrize("nodes,cores", SHAPES)
def test_remote_partners_are_the_off_node_hops_of_the_table(name, nodes, cores):
    scheme = get_scheme(name, nodes, cores)
    for rank in range(scheme.nranks):
        hops = {int(h) for h in scheme.hop_table(rank)}
        off_node = sorted(h for h in hops if not address.same_node(rank, h, cores))
        assert scheme.remote_partners(rank) == off_node


# ----------------------------------------------------------- broadcasts
def simulate_bcast(scheme, origin):
    """Expand the broadcast forwarding tree; returns (copies received
    per rank, number of remote transmissions, number of local ones)."""
    received = np.zeros(scheme.nranks, dtype=int)
    remote = local = 0
    frontier = [(origin, True)]  # (holder, is_origin_injection)
    while frontier:
        nxt = []
        for holder, _ in frontier:
            for target in scheme.bcast_targets(holder, origin):
                assert target != origin, "broadcast must not return to origin"
                if address.same_node(holder, target, scheme.cores):
                    local += 1
                else:
                    remote += 1
                received[target] += 1
                nxt.append((target, False))
        frontier = nxt
    return received, remote, local


@pytest.mark.parametrize("name", list(SCHEMES))
@pytest.mark.parametrize("nodes,cores", SHAPES)
def test_bcast_reaches_everyone_exactly_once(name, nodes, cores):
    scheme = get_scheme(name, nodes, cores)
    for origin in range(scheme.nranks):
        received, _, _ = simulate_bcast(scheme, origin)
        expected = np.ones(scheme.nranks, dtype=int)
        expected[origin] = 0
        assert np.array_equal(received, expected), (
            f"{name} bcast from {origin}: {received}"
        )


@pytest.mark.parametrize("nodes,cores", SHAPES)
def test_bcast_remote_message_counts_match_paper(nodes, cores):
    """Section III-C/III-D closed forms: NodeLocal uses C(N-1) remote
    messages per broadcast; NodeRemote and NLNR use N-1."""
    for origin in (0, nodes * cores - 1):
        _, remote_nl, _ = simulate_bcast(get_scheme("node_local", nodes, cores), origin)
        assert remote_nl == cores * (nodes - 1)
        _, remote_nr, _ = simulate_bcast(get_scheme("node_remote", nodes, cores), origin)
        assert remote_nr == nodes - 1
        _, remote_nlnr, _ = simulate_bcast(get_scheme("nlnr", nodes, cores), origin)
        assert remote_nlnr == nodes - 1
        _, remote_none, _ = simulate_bcast(get_scheme("noroute", nodes, cores), origin)
        assert remote_none == (nodes - 1) * cores


@pytest.mark.parametrize("name", STATIC_SCHEMES)
@pytest.mark.parametrize("nodes,cores", SHAPES)
def test_bcast_tree_is_the_union_of_the_routes_from_the_origin(name, nodes, cores):
    """As a set of (holder, target) edges, a static scheme's broadcast
    tree is exactly the union of its point-to-point paths from the
    origin.  The order of the targets differs from any order the paths
    induce, which is why the trees stay hand-written."""
    scheme = get_scheme(name, nodes, cores)
    for origin in range(scheme.nranks):
        tree = {
            (holder, target)
            for holder in range(scheme.nranks)
            for target in scheme.bcast_targets(holder, origin)
        }
        routes = set()
        for dest in range(scheme.nranks):
            path = trace_path(scheme, origin, dest)
            routes.update(zip(path, path[1:]))
        assert tree == routes


# ------------------------------------------------------- recorded digests
def _digest(rows):
    return hashlib.sha256(np.asarray(rows, dtype="<i8").tobytes()).hexdigest()


@pytest.mark.parametrize("name", list(SCHEMES))
@pytest.mark.parametrize("nodes,cores", DIGEST_SHAPES)
def test_hop_tables_match_the_recorded_scalar_routes(name, nodes, cores):
    scheme = get_scheme(name, nodes, cores)
    ranks = range(scheme.nranks)
    want = DIGESTS["hop_tables"][f"{name} {nodes}x{cores}"]
    assert _digest([scheme.hop_table(cur) for cur in ranks]) == want
    assert _digest([[scheme.hop_list(cur)[d] for d in ranks] for cur in ranks]) == want
    if name == "adaptive":
        # Congested, the scalar view reads the embedded NLNR's table.
        scheme.bind_machine(_CongestedMachine(nodes))
        want = DIGESTS["hop_tables"][f"adaptive/congested {nodes}x{cores}"]
        views = [scheme.hop_list(cur) for cur in ranks]
        assert _digest([[view[d] for d in ranks] for view in views]) == want


@pytest.mark.parametrize("name", list(SCHEMES))
@pytest.mark.parametrize("nodes,cores", DIGEST_SHAPES)
def test_bcast_trees_match_the_recorded_trees(name, nodes, cores):
    scheme = get_scheme(name, nodes, cores)
    ranks = range(scheme.nranks)
    for _ in range(2):  # computed, then read back
        trees = [[list(scheme.bcast_targets(c, o)) for c in ranks] for o in ranks]
        digest = hashlib.sha256(json.dumps(trees).encode()).hexdigest()
        assert digest == DIGESTS["bcast_trees"][f"{name} {nodes}x{cores}"]
    assert isinstance(scheme.bcast_targets(0, 0), tuple)


# ---------------------------------------------------------- vectorized path
@pytest.mark.parametrize("name", list(SCHEMES))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_next_hop_vec_matches_scalar(name, data):
    """The vectorised route over any column agrees with the scalar view
    (``hop_list``) a ``post`` indexes."""
    nodes = data.draw(st.integers(2, 12))
    cores = data.draw(st.integers(1, 6))
    scheme = get_scheme(name, nodes, cores)
    cur = data.draw(st.integers(0, scheme.nranks - 1))
    dests = data.draw(
        st.lists(st.integers(0, scheme.nranks - 1), min_size=1, max_size=64)
    )
    dests = np.array([d for d in dests if d != cur], dtype=np.int64)
    if len(dests) == 0:
        return
    vec = scheme.next_hop_vec(cur, dests)
    scalar = np.array([scheme.hop_list(cur)[d] for d in dests.tolist()])
    assert np.array_equal(vec, scalar)


# ---------------------------------------------------------- channels & misc
def remote_components(scheme):
    """Connected components of the remote-partner graph (the paper's
    channels, Section III-E), over the ranks that have a partner."""
    parent = {}

    def find(r):
        while parent.setdefault(r, r) != r:
            r = parent[r]
        return r

    for rank in range(scheme.nranks):
        for partner in scheme.remote_partners(rank):
            parent[find(rank)] = find(partner)
    return len({find(r) for r in parent})


@pytest.mark.parametrize("nodes,cores", SHAPES)
def test_channel_counts(nodes, cores):
    for name in ("noroute", "node_aware", "adaptive"):
        assert remote_components(get_scheme(name, nodes, cores)) == 1
    for name in ("node_local", "node_remote"):
        assert remote_components(get_scheme(name, nodes, cores)) == cores
    # NLNR: one channel per unordered layer pair plus the self-offset
    # channels, C(C-1)/2 + C, once N >= 2C.  Below that not every pair is
    # realised: a layer pair needs a node in each layer (and a self pair
    # two nodes in its layer), so 4x4 has 6 of 10 and 5x3 has 5 of 6.
    layers = min(nodes, cores)
    doubled = min(cores, max(0, nodes - cores))
    channels = remote_components(get_scheme("nlnr", nodes, cores))
    assert channels == layers * (layers - 1) // 2 + doubled
    if nodes >= 2 * cores:
        assert channels == cores * (cores - 1) // 2 + cores


def test_unknown_scheme_rejected():
    with pytest.raises(ValueError):
        get_scheme("teleport", 2, 2)


def test_hybrid_nlnr_routing_identical_to_nlnr():
    nlnr = get_scheme("nlnr", 8, 4)
    hybrid = get_scheme("nlnr_hybrid", 8, 4)
    assert hybrid.free_local_hops and not nlnr.free_local_hops
    for src in range(nlnr.nranks):
        assert np.array_equal(nlnr.hop_table(src), hybrid.hop_table(src))


def test_paper_schemes_list():
    assert PAPER_SCHEMES == ["noroute", "node_local", "node_remote", "nlnr"]


@pytest.mark.parametrize("name", list(SCHEMES))
def test_average_message_fraction_ordering(name):
    """Section III-E: of a rank's send volume V under uniform traffic, the
    share per remote partner is O(V/NC) < O(V/N) < O(VC/N)."""
    nodes, cores = 16, 4

    def share(scheme_name):
        return 1 / len(get_scheme(scheme_name, nodes, cores).remote_partners(0))

    assert share("noroute") < share("node_local") < share("nlnr")
