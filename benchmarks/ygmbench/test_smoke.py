"""Smoke test of the benchmark harness (not collected by tier-1).

    PYTHONPATH=src python -m pytest benchmarks/ygmbench

``--smoke`` runs every workload at 1/16 size with one repetition; the test
checks that what ``BENCHMARK.json`` promises is what ``run.py`` prints.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_declared_metric(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        workload, metric, value, unit = line.split()
        assert NAME.match(workload) and NAME.match(metric), line
        printed[workload, metric] = (float(value), unit)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    document = json.loads(lines[-1])
    # The contract bounds four workloads; the harness also runs two more.
    assert {w["name"] for w in SPEC["workloads"]} <= set(document)
    for workload in document:
        result = document[workload]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert printed[workload, "failed_share"] == (0.0, "ratio")
        assert set(result["metrics"]) == {m["name"] for m in declared}
        for metric in declared:
            value, unit = printed[workload, metric["name"]]
            assert unit == metric["unit"]
            assert result["metrics"][metric["name"]] == {"value": value, "unit": unit}
