"""Fig 7: connected-components weak (7a) and strong (7b) scaling."""

from repro.bench import fig7


def test_shape_fig7a_weak(tiny_sweep):
    """Paper shape: broadcast count grows under weak scaling despite the
    scaled threshold; routed schemes beat NoRoute at the largest N."""
    table = fig7.run_weak(tiny_sweep)
    table.print()
    n_max = max(tiny_sweep.node_counts)
    n_min = min(tiny_sweep.node_counts)

    bcasts = table.series("nodes", "broadcasts", scheme="node_remote")
    assert bcasts[n_max] > bcasts[n_min]  # Fig 7a growth curve
    delegates = table.series("nodes", "delegates", scheme="node_remote")
    assert delegates[n_max] > delegates[n_min]

    secs = table.series("scheme", "seconds", nodes=n_max)
    assert min(secs, key=secs.get) != "noroute"


def test_shape_fig7b_strong(tiny_sweep):
    """Strong scaling: same graph, more nodes -> routed schemes do not
    lose to NoRoute."""
    table = fig7.run_strong(tiny_sweep, total_verts_log2=11, total_edges_log2=14)
    table.print()
    n_max = max(tiny_sweep.node_counts)
    secs = table.series("scheme", "seconds", nodes=n_max)
    assert secs["node_remote"] <= secs["noroute"]
