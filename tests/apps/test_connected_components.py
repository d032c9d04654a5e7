"""Connected components vs networkx, with and without delegates."""

import networkx as nx
import numpy as np
import pytest

from repro import YgmWorld
from repro.apps import gather_global_labels, make_connected_components
from repro.core.routing import PAPER_SCHEMES
from repro.graph import er_stream, rmat_stream
from repro.graph.generators import EdgeStream
from repro.machine import small


def reference_labels(stream, nranks):
    """Min component id per vertex, via networkx."""
    g = nx.Graph()
    g.add_nodes_from(range(stream.num_vertices))
    for rank in range(nranks):
        u, v = stream.all_edges(rank)
        g.add_edges_from(zip(u.tolist(), v.tolist()))
    labels = np.arange(stream.num_vertices, dtype=np.int64)
    for comp in nx.connected_components(g):
        m = min(comp)
        for v in comp:
            labels[v] = m
    return labels


@pytest.mark.parametrize("scheme", PAPER_SCHEMES)
def test_cc_no_delegates_matches_networkx(scheme):
    nodes, cores = 2, 2
    stream = er_stream(num_vertices=64, edges_per_rank=40, seed=5)
    world = YgmWorld(small(nodes=nodes, cores_per_node=cores), scheme=scheme)
    res = world.run(make_connected_components(stream, batch_size=64))
    got = gather_global_labels(res.values, 64, 4)
    assert np.array_equal(got, reference_labels(stream, 4))
    assert res.mailbox_stats.bcasts_initiated == 0


@pytest.mark.parametrize("scheme", ["node_remote", "nlnr"])
def test_cc_with_delegates_matches_networkx(scheme):
    """Skewed RMAT graph with an aggressive threshold: many delegates."""
    nodes, cores = 2, 2
    stream = rmat_stream(scale=7, edges_per_rank=300, seed=6)
    world = YgmWorld(small(nodes=nodes, cores_per_node=cores), scheme=scheme)
    res = world.run(
        make_connected_components(stream, delegate_threshold=20.0, batch_size=128)
    )
    got = gather_global_labels(res.values, 128, 4)
    assert np.array_equal(got, reference_labels(stream, 4))
    # Delegates existed and were synchronised with asynchronous broadcasts.
    assert res.values[0].delegate_count > 0
    assert res.mailbox_stats.bcasts_initiated > 0


def test_cc_delegate_and_plain_agree():
    stream = rmat_stream(scale=6, edges_per_rank=200, seed=7)
    w1 = YgmWorld(small(nodes=2, cores_per_node=2), scheme="nlnr")
    w2 = YgmWorld(small(nodes=2, cores_per_node=2), scheme="nlnr")
    res_plain = w1.run(make_connected_components(stream))
    res_del = w2.run(make_connected_components(stream, delegate_threshold=10.0))
    l1 = gather_global_labels(res_plain.values, 64, 4)
    l2 = gather_global_labels(res_del.values, 64, 4)
    assert np.array_equal(l1, l2)


class FixedStream(EdgeStream):
    """A stream over fixed edge lists: ``shares[rank]`` is the rank's
    ``(u, v)`` pairs, in order (ranks not in ``shares`` have none)."""

    def __init__(self, shares, n):
        object.__setattr__(self, "kind", "fixed")
        object.__setattr__(self, "num_vertices", n)
        object.__setattr__(self, "edges_per_rank", max(map(len, shares.values())))
        object.__setattr__(self, "seed", 0)
        object.__setattr__(self, "scale", 0)
        object.__setattr__(self, "params", (0.25,) * 4)
        object.__setattr__(self, "shares", shares)

    def all_edges(self, rank):
        edges = self.shares.get(rank, [])
        u = np.array([e[0] for e in edges], dtype=np.int64)
        v = np.array([e[1] for e in edges], dtype=np.int64)
        return u, v

    def batches(self, rank, batch_size):
        yield self.all_edges(rank)


def test_cc_path_graph_takes_many_passes():
    """A long path exercises multi-pass convergence (O(diam) passes)."""
    n = 16
    stream = FixedStream({0: [(i, i + 1) for i in range(n - 1)]}, n)
    world = YgmWorld(small(nodes=2, cores_per_node=2), scheme="node_local")
    res = world.run(make_connected_components(stream, batch_size=8))
    labels = gather_global_labels(res.values, n, 4)
    assert (labels == 0).all()
    assert res.values[0].passes > 2


def test_cc_disconnected_components():
    two_triangles = [(1, 2), (2, 3), (3, 1), (5, 6), (6, 7), (7, 5)]
    world = YgmWorld(small(nodes=2, cores_per_node=2), scheme="nlnr")
    res = world.run(make_connected_components(FixedStream({0: two_triangles}, 8)))
    labels = gather_global_labels(res.values, 8, 4)
    assert list(labels) == [0, 1, 1, 1, 4, 5, 5, 5]


#: ``(scheme, combining) -> elapsed`` of the duplicate-update graph below,
#: recorded before the label handler tested for a change ahead of its
#: ``np.minimum.at`` and the edge handler kept whole batches.
DUPLICATE_UPDATE_ELAPSED = {
    ("nlnr", False): 0.0002937587509381777,
    ("nlnr", True): 0.00029363091230650803,
    ("noroute", False): 0.0002879604621672637,
    ("noroute", True): 0.0002877804621672638,
}


@pytest.mark.parametrize("scheme, combining", list(DUPLICATE_UPDATE_ELAPSED))
def test_cc_duplicate_vertex_updates_in_one_batch(scheme, combining):
    """Rank 0 owns 4, 8 and 12, so vertex 3's three label updates share
    one batch (merged to one under combining); hub 15 is a delegate whose
    edges are colocated and whose label travels by broadcast."""
    shares = {
        0: [(4, 3), (8, 3), (12, 3), (15, 1), (15, 2)],
        1: [(15, 5), (15, 6), (9, 15), (13, 14)],
        2: [(15, 7), (10, 15), (11, 13), (2, 6)],
    }
    world = YgmWorld(small(nodes=2, cores_per_node=2), scheme=scheme)
    res = world.run(
        make_connected_components(
            FixedStream(shares, 16), delegate_threshold=4.0, batch_size=4,
            combining=combining,
        )
    )
    labels = gather_global_labels(res.values, 16, 4)
    assert labels.tolist() == [0, 1, 1, 3, 3, 1, 1, 1, 3, 1, 1, 11, 3, 11, 11, 1]
    assert [v.passes for v in res.values] == [3, 3, 3, 3]
    assert [v.delegate_count for v in res.values] == [1, 1, 1, 1]
    assert [v.bcasts for v in res.values] == [0, 0, 0, 3]  # 15's home is rank 3
    assert res.elapsed == DUPLICATE_UPDATE_ELAPSED[scheme, combining]
