"""Sweep fixtures of the figure shape tests (``test_*_shapes.py``).

Each ``test_shape_*`` runs a scaled-down sweep, prints the figure's table
(run with ``-s`` to see it) and asserts the paper's qualitative result --
who wins, and where -- on the simulated metrics.
"""

import pytest

from repro.bench.harness import SweepConfig


@pytest.fixture(scope="session")
def quick_sweep() -> SweepConfig:
    """Small sweep used inside shape tests (keeps CI time sane)."""
    return SweepConfig(cores_per_node=4, node_counts=(1, 2, 4, 8, 16), mailbox_capacity=2**12)


@pytest.fixture(scope="session")
def tiny_sweep() -> SweepConfig:
    return SweepConfig(cores_per_node=4, node_counts=(2, 4, 8), mailbox_capacity=2**12)
