"""Ablation shapes (design-choice studies from DESIGN.md section 4)."""

from repro.bench import ablations


def test_shape_capacity_bigger_mailbox_bigger_packets():
    table = ablations.run_capacity_sweep(
        nodes=4, cores=4, capacities=(2**6, 2**10, 2**14), edges_per_rank=2**12
    )
    table.print()
    pkts = table.column("avg_remote_pkt_B")
    secs = table.column("seconds")
    assert pkts[0] < pkts[1] < pkts[2]
    assert secs[0] > secs[2]  # tiny mailboxes pay per-packet overhead


def test_shape_cores_sweep_gap_grows_with_c():
    """Section III-E: NLNR's advantage over NodeRemote widens with C."""
    table = ablations.run_cores_sweep(
        nodes=16, cores_options=(2, 8), edges_per_rank=2**11
    )
    table.print()
    gap = {}
    for cores in (2, 8):
        nr = table.series("scheme", "seconds", cores=cores)["node_remote"]
        nl = table.series("scheme", "seconds", cores=cores)["nlnr"]
        gap[cores] = nr / nl
    assert gap[8] > gap[2]


def test_shape_hybrid_no_slower_than_nlnr():
    table = ablations.run_hybrid_comparison(nodes=4, cores=4, edges_per_rank=2**11)
    table.print()
    secs = table.series("scheme", "seconds")
    assert secs["nlnr_hybrid"] <= secs["nlnr"]
    # Routing identical: same remote traffic.
    rb = table.series("scheme", "remote_bytes")
    assert rb["nlnr_hybrid"] == rb["nlnr"]


def test_shape_straggler_ygm_frees_other_ranks():
    """The introduction's scenario: under BSP nobody's own work finishes
    before the straggler; under YGM the others are done far earlier."""
    table = ablations.run_straggler_comparison(
        nodes=2, cores=4, edges_per_rank=2**11, straggler_delay=5e-4
    )
    table.print()
    work = table.series("impl", "avg_work_done_others")
    assert work["ygm/node_remote"] < 0.5 * work["bsp_alltoallv"]


def test_shape_eager_threshold_sweep():
    table = ablations.run_eager_threshold_sweep(
        thresholds=(2**12, 2**16), nodes=4, cores=4, edges_per_rank=2**11
    )
    table.print()
    assert len(table.rows) == 4
