"""End-to-end tests of the bench CLI's instrumented runs (``--profile``,
``--trace``, ``--metrics``)."""

import html.parser
import json

import pytest

from repro.bench import fig6
from repro.bench.cli import REGISTRY, main
from repro.bench.harness import SweepConfig
from repro.bench.instrumented import pick_nodes, run_instrumented

#: Tiny sweep: 2 nodes x 2 cores is the smallest shape where all four
#: paper schemes are valid (NLNR needs nodes >= cores).
TINY = SweepConfig(cores_per_node=2, node_counts=(2,), mailbox_capacity=64)


class _HTMLChecker(html.parser.HTMLParser):
    def __init__(self):
        super().__init__()
        self.tags = 0

    def handle_starttag(self, tag, attrs):
        self.tags += 1
        for name, value in attrs:
            assert name not in ("src", "href"), (
                f"external asset reference <{tag} {name}={value!r}>"
            )


def test_pick_nodes_prefers_all_schemes_valid():
    assert pick_nodes(TINY) == 2
    assert pick_nodes(SweepConfig.quick()) == 4  # 4 cores -> first n >= 4
    # No candidate large enough: fall back to the biggest offered.
    small = SweepConfig(cores_per_node=8, node_counts=(1, 2), mailbox_capacity=64)
    assert pick_nodes(small) == 2


@pytest.fixture(scope="module")
def profiled_6a(tmp_path_factory):
    """Fig 6a at TINY profiled under every scheme: (tables, html, json)."""
    out = tmp_path_factory.mktemp("profile")
    html_path = out / "p.html"
    tables = run_instrumented(fig6.weak_panel(TINY), profile_path=str(html_path))
    return tables, html_path, out / "p.json"


def test_profile_figure_covers_all_schemes(profiled_6a):
    _, _, json_path = profiled_6a
    schemes = json.loads(json_path.read_text())["schemes"]
    assert [p["scheme"] for p in schemes] == [
        "noroute", "node_local", "node_remote", "nlnr"
    ]
    for p in schemes:
        assert p["elapsed"] > 0
        assert p["messages"] > 0
        assert p["packets"] > 0
        assert p["critical_path"]
        assert len(p["rank_buckets"]) == p["nranks"] == 4
        assert sum(p["cp_stages"].values()) == pytest.approx(p["elapsed"], rel=1e-9)


def test_run_profiled_writes_reports(profiled_6a):
    (table,), html_path, json_path = profiled_6a
    rendered = table.render()
    assert "nlnr" in rendered and "comm_share" in rendered

    doc = json.loads(json_path.read_text())
    assert doc["schema"] == 1
    assert doc["meta"]["fig"] == "6a"
    assert len(doc["schemes"]) == 4
    for scheme in doc["schemes"]:
        assert scheme["critical_path"]
        assert scheme["rank_buckets"]
        assert set(scheme["cp_stages"])

    page = html_path.read_text()
    checker = _HTMLChecker()
    checker.feed(page)
    assert checker.tags > 50  # a real document, not a stub
    assert page.startswith("<!DOCTYPE html>")


@pytest.mark.parametrize("fig", ["6a", "6b", "7a", "7b"])
def test_traced_run_is_the_figure_cell(fig, tmp_path):
    """The traced NLNR run is the figure's own (2 nodes, nlnr) cell."""
    table = REGISTRY[fig].run(TINY, True, None)
    (traced,) = run_instrumented(
        REGISTRY[fig].panel(TINY), metrics_path=str(tmp_path / "m.csv")
    )
    assert "scheme nlnr" in traced.title
    assert traced.rows[0]["seconds"] == table.series(
        "scheme", "seconds", nodes=2
    )["nlnr"]


@pytest.mark.parametrize("fig", ["6a", "7a"])
def test_profiled_runs_are_the_figure_cells(fig, tmp_path):
    """Every scheme's profiled run is the figure's cell at that scheme."""
    table = REGISTRY[fig].run(TINY, True, None)
    (profile,) = run_instrumented(
        REGISTRY[fig].panel(TINY), profile_path=str(tmp_path / "p.html")
    )
    assert profile.series("scheme", "seconds") == table.series(
        "scheme", "seconds", nodes=2
    )


def test_cli_profile_mode(tmp_path, capsys, monkeypatch):
    # Shrink the sweep the CLI builds so the smoke test stays fast.
    monkeypatch.setattr(SweepConfig, "quick", classmethod(lambda cls: TINY))
    out_path = tmp_path / "profile.html"
    rc = main(["6a", "--profile", str(out_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Causal profile" in out and "wall-clock" in out
    assert out_path.exists()
    assert json.loads((tmp_path / "profile.json").read_text())["schemes"]


def test_cli_profile_writes_every_named_output(tmp_path, capsys, monkeypatch):
    """``--profile`` does not drop ``--trace`` / ``--metrics``."""
    monkeypatch.setattr(SweepConfig, "quick", classmethod(lambda cls: TINY))
    p, t, m = tmp_path / "p.html", tmp_path / "t.json", tmp_path / "m.csv"
    rc = main(["6a", "--profile", str(p), "--trace", str(t), "--metrics", str(m)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Traced run" in out and "Causal profile" in out
    assert json.loads(t.read_text())["traceEvents"]
    assert m.read_text().startswith("t_start")
    assert p.exists() and (tmp_path / "p.json").exists()


def test_cli_profile_rejects_unprofilable_figure(tmp_path):
    with pytest.raises(SystemExit):
        main(["capacity", "--profile", str(tmp_path / "p.html")])
