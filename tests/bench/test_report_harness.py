"""Tests for the bench reporting and harness utilities."""

import pytest

from repro.bench import SweepConfig, Table, efficiency, schemes_for


# ------------------------------------------------------------------ table
def test_table_render_alignment_and_formats():
    t = Table(title="demo", columns=["a", "b"])
    t.add(a=1, b=0.000123456)
    t.add(a="long-value", b=None)
    t.note("a note")
    out = t.render()
    assert "== demo ==" in out
    assert "1.235e-04" in out
    assert "long-value" in out
    assert "# a note" in out
    assert out.count("\n") == 5  # title, header, rule, 2 rows, note


def test_table_series_and_column():
    t = Table(title="x", columns=["n", "scheme", "s"])
    t.add(n=1, scheme="a", s=10.0)
    t.add(n=2, scheme="a", s=20.0)
    t.add(n=1, scheme="b", s=30.0)
    assert t.series("n", "s", scheme="a") == {1: 10.0, 2: 20.0}
    assert t.series("scheme", "s", n=1) == {"a": 10.0, "b": 30.0}
    assert t.column("n") == [1, 2, 1]


def test_table_float_formats():
    t = Table(title="f", columns=["v"])
    t.add(v=0.0)
    t.add(v=1234.5)
    t.add(v=0.25)
    out = t.render()
    assert "0" in out
    assert "1.234e+03" in out or "1.235e+03" in out
    assert "0.25" in out


# ----------------------------------------------------------------- sweeps
def test_sweep_presets():
    q = SweepConfig.quick()
    f = SweepConfig.full()
    assert max(f.node_counts) > max(q.node_counts)
    assert f.cores_per_node >= q.cores_per_node
    m = q.machine(4)
    assert m.nodes == 4
    assert m.cores_per_node == q.cores_per_node


def test_sweep_machine_overrides():
    q = SweepConfig.quick()
    m = q.machine(2, eager_threshold=1024)
    assert m.net.eager_threshold == 1024


def test_schemes_for_skips_nlnr_below_one_layer():
    """The paper did not run NLNR under 32 nodes (36-core machine)."""
    assert "nlnr" not in schemes_for(2, 4)
    assert "nlnr" in schemes_for(4, 4)
    assert "nlnr" in schemes_for(16, 8)
    assert "noroute" in schemes_for(1, 8)


def test_efficiency_weak_and_strong():
    # Weak: perfect scaling keeps time flat.
    assert efficiency(1.0, 1, 1.0, 8, weak=True) == pytest.approx(1.0)
    assert efficiency(1.0, 1, 2.0, 8, weak=True) == pytest.approx(0.5)
    # Strong: perfect scaling divides time by the node ratio.
    assert efficiency(8.0, 1, 1.0, 8, weak=False) == pytest.approx(1.0)
    assert efficiency(8.0, 1, 2.0, 8, weak=False) == pytest.approx(0.5)


def test_cli_single_quick_figure(capsys):
    from repro.bench.cli import main

    rc = main(["--fig", "capacity"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "mailbox capacity sweep" in out
    assert "harness wall-clock" in out


def test_cli_ablation_runs_at_the_seed_it_is_given(capsys):
    """``--seed`` reaches the ablation drivers: the straggler table at
    seed 3 is not the seed-0 table."""
    from repro.bench.cli import main

    tables = []
    for seed in ("0", "3"):
        assert main(["straggler", "--seed", seed, "--jobs", "1", "--no-cache"]) == 0
        out = capsys.readouterr().out.splitlines()
        tables.append([line for line in out if not line.startswith("# harness")])
    assert tables[0] != tables[1]


def test_cli_full_rejects_ablations_before_any_cell_runs(monkeypatch, capsys):
    # No ablation has a full preset: --full must not print a quick table
    # under a full-scale run.
    from repro.bench import cli

    ran = []
    for key in ("6a", "straggler", "combining"):
        monkeypatch.setitem(
            cli.REGISTRY, key, cli.REGISTRY[key]._replace(run=lambda *a: ran.append(a))
        )
    with pytest.raises(SystemExit) as exc:
        cli.main(["6a", "straggler", "combining", "--full", "--no-cache"])
    assert exc.value.code == 2
    error = capsys.readouterr().err.split("error:")[-1]
    assert "straggler, combining" in error and "6a" not in error
    assert ran == []


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_cli_rejects_a_job_timeout_that_is_not_finite_and_positive(
    value, monkeypatch, capsys
):
    # 0 or less fails every pooled cell as "timed out"; nan silently
    # disables the limit.  Both must be a usage error before any work.
    from repro.bench import cli

    ran = []
    monkeypatch.setitem(
        cli.REGISTRY, "6a", cli.REGISTRY["6a"]._replace(run=lambda *a: ran.append(a))
    )
    with pytest.raises(SystemExit) as exc:
        cli.main(["--job-timeout", value, "--jobs", "2", "--no-cache", "6a"])
    assert exc.value.code == 2
    assert "--job-timeout" in capsys.readouterr().err
    assert ran == []
