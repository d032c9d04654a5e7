"""Counter gate: the exact counters of the four contracted ygmbench workloads.

Each of ``degree_bulk``, ``degree_packets``, ``cc_delegates`` and
``scalar_rpc`` runs once as

    python benchmarks/ygmbench/run.py --smoke --trace 1 --seed 1 --workload W

and the ``exact`` block of its result -- simulated seconds, the public
counters and the number of Python calls each layer made -- must equal the
committed table ``counter_gate.json`` entry for entry.  One more kernel
event per packet or one more call per hop fails here on the PR that adds
it, on any host: nothing in the table is a time.

The per-layer ``*.calls`` come from cProfile and so depend on the
interpreter; they are asserted only under the Python ``major.minor`` the
table was recorded with, and skipped (visibly) elsewhere.  ``sim_s`` and
the public counters are asserted always.

The table only moves in a diff that says why.  To record it again:

    python tests/bench/test_counter_gate.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
RUN = HERE.parents[1] / "benchmarks" / "ygmbench" / "run.py"
TABLE = HERE / "counter_gate.json"
WORKLOADS = ["degree_bulk", "degree_packets", "cc_delegates", "scalar_rpc"]
FLAGS = ["--smoke", "--trace", "1", "--seed", "1"]
PYTHON = "%d.%d" % sys.version_info[:2]


def measure(workload: str, out_dir) -> dict:
    """The ``exact`` block of one traced smoke run of ``workload``."""
    # These four workloads never touch run.py's shared scratch directory,
    # so several of them may run at once (pytest -n auto).
    proc = subprocess.run(
        [sys.executable, str(RUN), *FLAGS, "--workload", workload, "--out", str(out_dir)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads((Path(out_dir) / f"{workload}.trace.json").read_text())["exact"]


def is_call_count(name: str) -> bool:
    return name.endswith(".calls")


def mismatches(workload: str, expected: dict, got: dict, call_counts: bool) -> list:
    """One line per entry of ``got`` that is not ``==`` its table entry.

    ``call_counts`` selects the half compared: the cProfile ``*.calls`` or
    everything else.
    """
    lines = []
    for name in sorted(set(expected) | set(got)):
        if is_call_count(name) != call_counts:
            continue
        want, have = expected.get(name, "absent"), got.get(name, "absent")
        if want != have:
            lines.append(f"{workload}: {name} expected {want!r} got {have!r}")
    return lines


def check(lines: list) -> None:
    if lines:
        header = "counter gate (EXPERIMENTS.md, 'Counter gate'):"
        pytest.fail("\n".join([header, *lines]), pytrace=False)


@pytest.fixture(scope="module")
def table() -> dict:
    return json.loads(TABLE.read_text())


@pytest.fixture(scope="module", params=WORKLOADS)
def run(request, tmp_path_factory):
    workload = request.param
    return workload, measure(workload, tmp_path_factory.mktemp(workload))


def test_simulated_time_and_public_counters(table, run):
    workload, got = run
    check(mismatches(workload, table["workloads"][workload], got, call_counts=False))


def test_layer_call_counts(table, run):
    workload, got = run
    if table["python"] != PYTHON:
        pytest.skip(
            f"per-layer call counts were recorded under Python {table['python']}, "
            f"this is {PYTHON}: the *.calls half is skipped, sim_s and the "
            "public counters are asserted by the test above"
        )
    check(mismatches(workload, table["workloads"][workload], got, call_counts=True))


# ------------------------------------------------------ the comparison itself
def test_table_covers_the_contracted_workloads(table):
    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert list(table["workloads"]) == [w["name"] for w in spec["workloads"]] == WORKLOADS
    for exact in table["workloads"].values():
        public = [k for k in exact if not is_call_count(k)]
        assert "sim_s" in public and len(public) == 24  # sim_s + 23 counters
        assert any(is_call_count(k) for k in exact)


def test_doctored_counter_is_named(table):
    good = table["workloads"]["degree_packets"]
    assert mismatches("degree_packets", good, dict(good), False) == []
    assert mismatches("degree_packets", good, dict(good), True) == []

    doctored = dict(good, **{"sim.events": good["sim.events"] + 1})
    lines = mismatches("degree_packets", good, doctored, False)
    assert lines == [
        f"degree_packets: sim.events expected {good['sim.events']} "
        f"got {good['sim.events'] + 1}"
    ]
    with pytest.raises(pytest.fail.Exception, match="degree_packets: sim.events"):
        check(lines)
    assert mismatches("degree_packets", good, doctored, True) == []

    doctored = dict(good, **{"machine.calls": good["machine.calls"] + 1})
    assert mismatches("degree_packets", good, doctored, False) == []
    assert "machine.calls" in mismatches("degree_packets", good, doctored, True)[0]


def test_missing_and_new_entries_are_mismatches(table):
    good = table["workloads"]["scalar_rpc"]
    fewer = {k: v for k, v in good.items() if k != "sim_s"}
    assert mismatches("scalar_rpc", good, fewer, False) == [
        f"scalar_rpc: sim_s expected {good['sim_s']!r} got 'absent'"
    ]
    more = dict(good, **{"sim.new_counter": 3})
    assert mismatches("scalar_rpc", good, more, False) == [
        "scalar_rpc: sim.new_counter expected 'absent' got 3"
    ]


def record() -> None:
    """Write the table from this checkout, under this interpreter."""
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        workloads = {w: measure(w, tmp) for w in WORKLOADS}
    doc = {
        "command": "benchmarks/ygmbench/run.py " + " ".join(FLAGS) + " --workload W",
        "python": PYTHON,
        "workloads": workloads,
    }
    TABLE.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {TABLE} (Python {PYTHON})")


if __name__ == "__main__":
    record()
