"""Table golden: every ``cli.REGISTRY`` table, rendered small, is pinned.

Each figure runs its registry entry on a tiny sweep; each ablation runs
its ``ablations.run_*`` function with shrunk node and edge counts (as
``test_ablation_shapes.py`` does).  The rendered text must equal
``table_golden.json`` line for line, so a change to how ``repro.bench``
builds its grids or fills its tables that moves a single printed
character fails here by figure id.  The whole file runs in a few
seconds, serially.

The table only moves in a diff that says why.  To record it again:

    PYTHONPATH=src python tests/bench/test_table_golden.py
"""

import json
import sys
from pathlib import Path

import pytest

from repro.bench import ablations
from repro.bench.cli import REGISTRY
from repro.bench.harness import SweepConfig

GOLDEN = Path(__file__).resolve().with_name("table_golden.json")
SWEEP = SweepConfig(cores_per_node=2, node_counts=(1, 2, 4), mailbox_capacity=2**8)
SMALL = dict(edges_per_rank=2**9)
#: The ablation tables at shrunk sizes (the registry runs the defaults).
ABLATIONS = {
    "capacity": lambda: ablations.run_capacity_sweep(
        nodes=2, cores=2, capacities=(2**6, 2**10), **SMALL
    ),
    "combining": lambda: ablations.run_combining_sweep(nodes=2, cores=2, **SMALL),
    "cores": lambda: ablations.run_cores_sweep(nodes=4, cores_options=(2, 4), **SMALL),
    "eager": lambda: ablations.run_eager_threshold_sweep(
        thresholds=(2**8, 2**16), nodes=2, cores=2, **SMALL
    ),
    "hybrid": lambda: ablations.run_hybrid_comparison(nodes=2, cores=2, **SMALL),
    "straggler": lambda: ablations.run_straggler_comparison(nodes=2, cores=2, **SMALL),
}


def render(key: str) -> list:
    """The lines of ``key``'s table at the small sizes."""
    if REGISTRY[key].group == "ablations":
        table = ABLATIONS[key]()
    else:
        table = REGISTRY[key].run(SWEEP, True, None)
    return table.render().split("\n")


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_registry_entry(golden):
    assert list(golden) == list(REGISTRY)
    assert set(ABLATIONS) == {
        k for k, fig in REGISTRY.items() if fig.group == "ablations"
    }


@pytest.mark.parametrize("key", list(REGISTRY))
def test_table_renders_as_recorded(key, golden):
    assert render(key) == golden[key]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({k: render(k) for k in REGISTRY}, indent=1) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
