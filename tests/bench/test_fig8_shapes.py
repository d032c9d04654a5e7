"""Fig 8: SpMV scaling -- YGM vs the CombBLAS-style 2D baseline."""

from repro.bench import fig8


def test_shape_fig8a_8b_weak_rmat(tiny_sweep):
    """Paper shape (8a): CombBLAS wins at small N; among YGM schemes the
    routed ones beat NoRoute at the largest N, with NLNR in front.  The
    YGM-over-CombBLAS crossover needs the full sweep's wider nodes
    (C=8, N>=32 -- verified in EXPERIMENTS.md), beyond this quick test.
    (8b): delegates grow under weak scaling."""
    table = fig8.run_weak(tiny_sweep, skewed=True)
    table.print()
    n_min, n_max = min(tiny_sweep.node_counts), max(tiny_sweep.node_counts)
    cb = table.series("nodes", "seconds", impl="combblas2d")
    ygm = table.series("nodes", "seconds", impl="ygm/node_remote")
    # CombBLAS ahead at the smallest configuration (paper: small N).
    assert cb[n_min] < ygm[n_min]
    # Among YGM schemes, NLNR leads at the largest N (paper ordering).
    at_max = {
        row["impl"]: row["seconds"]
        for row in table.rows
        if row["nodes"] == n_max and row["impl"].startswith("ygm/")
    }
    assert at_max["ygm/nlnr"] == min(at_max.values())
    assert at_max["ygm/noroute"] == max(at_max.values())
    # Fig 8b: delegate count grows under weak scaling.
    dels = table.series("nodes", "delegates", impl="ygm/node_remote")
    assert dels[n_max] > dels[n_min]


def test_shape_fig8c_weak_uniform(tiny_sweep):
    """Paper shape (8c): without delegates on uniform graphs the same
    scaling behaviour holds (bigger CombBLAS lead at small N)."""
    table = fig8.run_weak(tiny_sweep, skewed=False)
    table.print()
    n_min = min(tiny_sweep.node_counts)
    cb = table.series("nodes", "seconds", impl="combblas2d")
    ygm = table.series("nodes", "seconds", impl="ygm/node_remote")
    assert cb[n_min] < ygm[n_min]
    dels = table.series("nodes", "delegates", impl="ygm/node_remote")
    assert all(d == 0 for d in dels.values())


def test_shape_fig8d_strong_webgraph(tiny_sweep):
    """Paper shape (8d): with the mailbox scaled with N, YGM strong-scales
    on the webgraph-like input and stays in CombBLAS's league."""
    table = fig8.run_strong_webgraph(tiny_sweep)
    table.print()
    n_min, n_max = min(tiny_sweep.node_counts), max(tiny_sweep.node_counts)
    ygm = table.series("nodes", "seconds", impl="ygm/node_remote")
    assert ygm[n_max] < ygm[n_min]  # strong scaling achieved
    # Mailbox actually scaled with N.
    boxes = table.series("nodes", "mailbox", impl="ygm/node_remote")
    assert boxes[n_max] == boxes[n_min] * (n_max // n_min)


def test_shape_fig8d_fixed_mailbox_hurts(tiny_sweep):
    """The paper's observation behind 8d: *without* scaling the mailbox,
    message sizes shrink and scaling stalls relative to the scaled run."""
    scaled = fig8.run_strong_webgraph(tiny_sweep, scale_mailbox_with_nodes=True)
    fixed = fig8.run_strong_webgraph(tiny_sweep, scale_mailbox_with_nodes=False)
    n_max = max(tiny_sweep.node_counts)
    s = scaled.series("nodes", "seconds", impl="ygm/node_remote")[n_max]
    f = fixed.series("nodes", "seconds", impl="ygm/node_remote")[n_max]
    assert s <= f
