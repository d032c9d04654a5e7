"""Memory gate: the traced allocation peak of the four contracted workloads.

Each of ``degree_bulk``, ``degree_packets``, ``cc_delegates`` and
``scalar_rpc`` builds its ygmbench inputs at seed 1 and smoke size
(``benchmarks/ygmbench/workloads.py``, shrink 16) in a fresh interpreter,
then runs one repetition under ``tracemalloc``.  The repetition's peak of
traced bytes must not rise more than :data:`TOLERANCE` above its entry in
``memory_gate.json``: an extra in-flight copy of the records, or a frame
that keeps its arrays across the communication context, fails here by
workload name.  A fall is not a failure; record the table again to bank
it.

The peak depends on the interpreter and on NumPy's allocations, so it is
asserted only under the Python ``major.minor`` and NumPy version the
table was recorded with, and skipped (visibly) elsewhere.  To record it
again:

    python tests/bench/test_memory_gate.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
TABLE = HERE / "memory_gate.json"
WORKLOADS = ["degree_bulk", "degree_packets", "cc_delegates", "scalar_rpc"]
SEED, SHRINK = 1, 16
#: Allowed rise over the recorded peak.  Three runs of each workload
#: gave the same peak to within a few hundred bytes.
TOLERANCE = 0.02
PYTHON = "%d.%d" % sys.version_info[:2]


def _child(workload: str) -> None:
    """Print the traced peak (bytes) of one repetition of ``workload``."""
    import gc
    import tracemalloc

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "ygmbench")]
    import workloads

    spec = workloads.WORKLOADS[workload]
    inputs = spec.setup(SEED, SHRINK)
    gc.collect()
    tracemalloc.start()
    spec.run(inputs)
    print(tracemalloc.get_traced_memory()[1])


def measure(workload: str) -> int:
    """The traced peak of one smoke repetition, from a fresh interpreter."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, __file__, "measure", workload],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.split()[-1])


@pytest.fixture(scope="module")
def table() -> dict:
    return json.loads(TABLE.read_text())


def test_table_covers_the_contracted_workloads(table):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(table["peak_bytes"]) == [w["name"] for w in spec["workloads"]]
    assert list(table["peak_bytes"]) == WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_peak_does_not_rise(table, workload):
    if (table["python"], table["numpy"]) != (PYTHON, np.__version__):
        pytest.skip(
            f"peaks were recorded under Python {table['python']} and NumPy "
            f"{table['numpy']}, this is {PYTHON} and {np.__version__}"
        )
    want = table["peak_bytes"][workload]
    got = measure(workload)
    assert got <= want * (1 + TOLERANCE), (
        f"memory gate: {workload} traced peak {got} B is "
        f"{got / want - 1:+.1%} over the recorded {want} B "
        f"(tolerance {TOLERANCE:.0%})"
    )


def record() -> None:
    """Write the table from this checkout, under this interpreter."""
    doc = {
        "command": f"tracemalloc peak of one repetition, seed {SEED}, shrink {SHRINK}",
        "python": PYTHON,
        "numpy": np.__version__,
        "peak_bytes": {w: measure(w) for w in WORKLOADS},
    }
    TABLE.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {TABLE} (Python {PYTHON}, NumPy {np.__version__})")


if __name__ == "__main__":
    if sys.argv[1:2] == ["measure"]:
        _child(sys.argv[2])
    else:
        record()
