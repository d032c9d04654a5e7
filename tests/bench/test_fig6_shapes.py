"""Fig 6: degree-counting weak (6a) and strong (6b) scaling."""

from repro.bench import fig6


def test_shape_fig6a_weak(quick_sweep):
    """Paper shape: NoRoute falls off hardest; NL ~ NR (uniform traffic);
    NLNR has the best weak-scaling efficiency at the largest N."""
    table = fig6.run_weak(quick_sweep, edges_per_rank=2**11)
    table.print()
    n_max = max(quick_sweep.node_counts)
    eff = table.series("scheme", "efficiency", nodes=n_max)
    secs = table.series("scheme", "seconds", nodes=n_max)

    # NoRoute is the worst scheme at the largest node count.
    assert secs["noroute"] == max(secs.values())
    # NodeLocal and NodeRemote track each other under uniform traffic.
    assert abs(secs["node_local"] - secs["node_remote"]) / secs["node_remote"] < 0.35
    # NLNR keeps the highest efficiency.
    assert eff["nlnr"] == max(eff.values())

    # Average remote packet sizes follow O(V/NC) < O(V/N) < O(VC/N).
    pkt = table.series("scheme", "avg_remote_pkt_B", nodes=n_max)
    assert pkt["noroute"] < pkt["node_local"] <= pkt["node_remote"] < pkt["nlnr"]


def test_shape_fig6b_strong(quick_sweep):
    """Strong scaling: adding nodes keeps helping the routed schemes but
    NoRoute saturates (its packets shrink quadratically)."""
    table = fig6.run_strong(quick_sweep, total_edges=2**16, total_verts=2**13)
    table.print()
    n_lo, n_hi = min(quick_sweep.node_counts), max(quick_sweep.node_counts)
    for scheme in ("node_remote", "nlnr"):
        series = table.series("nodes", "seconds", scheme=scheme)
        if n_hi in series and n_lo in series:
            assert series[n_hi] < series[n_lo]  # still speeding up
    no = table.series("nodes", "seconds", scheme="noroute")
    nlnr_or_nr = table.series("nodes", "seconds", scheme="nlnr")
    # At the largest N the routed scheme beats NoRoute.
    assert nlnr_or_nr[n_hi] < no[n_hi]
