"""End-to-end tests of the bench CLI's traced mode and fig expansion."""

import csv
import json

import pytest

from repro.bench.cli import expand_figs, main


# ----------------------------------------------------------- fig expansion
def test_expand_figs_prefix_groups():
    assert expand_figs(["fig6"]) == ["6a", "6b"]
    assert expand_figs(["6"]) == ["6a", "6b"]
    assert expand_figs(["Fig7A"]) == ["7a"]
    assert expand_figs(["8"]) == ["8a", "8c", "8d"]


def test_expand_figs_exact_and_groups():
    assert expand_figs(["6a", "capacity"]) == ["6a", "capacity"]
    assert "5" in expand_figs(["all"])
    assert expand_figs(["ablations"]) == [
        "capacity", "combining", "cores", "eager", "hybrid", "straggler"
    ]


def test_expand_figs_unknown_raises():
    with pytest.raises(ValueError, match="unknown figure"):
        expand_figs(["fig99"])


@pytest.mark.parametrize("raw", ["fig", "", "FIG"])
def test_expand_figs_empty_id_raises(raw):
    """The empty string is a prefix of every id; it names no figure."""
    with pytest.raises(ValueError, match="unknown figure"):
        expand_figs([raw])
    with pytest.raises(SystemExit) as exc:
        main([raw])
    assert exc.value.code == 2


# ------------------------------------------------------------- traced mode
def test_cli_traced_mode_outputs(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    metrics = tmp_path / "metrics.csv"
    rc = main(["fig6", "--trace", str(trace), "--metrics", str(metrics)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "trace_events" in out and "wall-clock" in out

    doc = json.loads(trace.read_text())
    evs = doc["traceEvents"]
    assert evs
    lanes = {
        e["args"]["name"]
        for e in evs
        if e["ph"] == "M" and e["name"] == "thread_name"
    }
    assert any(lane.startswith("rank ") for lane in lanes)
    assert any(lane.startswith("nic_tx[") for lane in lanes)
    assert any(lane.startswith("nic_rx[") for lane in lanes)
    assert any(e["ph"] in ("i", "X", "C") for e in evs)

    with open(metrics, newline="") as f:
        rows = list(csv.DictReader(f))
    assert rows
    assert "remote_packets" in rows[0]
    assert sum(int(r["remote_packets"]) for r in rows) > 0


def test_cli_trace_only(tmp_path, capsys):
    trace = tmp_path / "t.json"
    rc = main(["7a", "--trace", str(trace)])
    assert rc == 0
    assert json.loads(trace.read_text())["traceEvents"]


def test_cli_traced_mode_rejects_untraceable_figure(tmp_path):
    with pytest.raises(SystemExit):
        main(["capacity", "--trace", str(tmp_path / "t.json")])


def test_cli_unknown_figure_exits(tmp_path):
    with pytest.raises(SystemExit):
        main(["fig99"])
