"""Fig 5: bandwidth vs message size through the simulated transport."""

from repro.bench import fig5
from repro.machine import MiB, bench_machine


def test_shape_fig5():
    """The paper's curve: monotone rise, dip at 16 KiB, recovery, and the
    scheme markers ordered NoRoute < NodeRemote < NLNR."""
    table = fig5.run(quick=True)
    table.print()
    bw = {row["bytes"]: row["bandwidth_MB_s"] for row in table.rows}
    net = bench_machine(2).net
    thr = net.eager_threshold

    # Monotone within the eager regime.
    eager_sizes = sorted(s for s in bw if s < thr)
    for a, b in zip(eager_sizes, eager_sizes[1:]):
        assert bw[b] > bw[a]

    # Downward jump at the protocol switch.
    assert bw[thr] < bw[thr - 1]

    # Recovery: large rendezvous messages beat the best eager point.
    assert bw[16 * MiB] > bw[thr - 1]

    # Scheme markers (from the notes): increasing average message size.
    marker_lines = [n for n in table.notes if n.startswith("marker")]
    assert len(marker_lines) == 3
