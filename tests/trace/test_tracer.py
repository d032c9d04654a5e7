"""Unit and integration tests for the repro.trace observability layer."""

import json

import numpy as np
import pytest

from repro import YgmWorld
from repro.machine import small
from repro.trace import (
    ALL_CATEGORIES,
    CallbackSink,
    MemorySink,
    Tracer,
    compute_metrics,
    to_chrome_events,
)


# ------------------------------------------------------------------ tracer
def test_tracer_records_to_memory_sink():
    tr = Tracer()
    tr.instant(1.0, "mpi", "packet_injected", "rank 0", dst=3, nbytes=64)
    tr.complete(1.0, 0.5, "resource", "hold", "nic_tx[0]")
    tr.counter(2.0, "mpi", "unexpected_depth", "rank 1", 7)
    evs = tr.events
    assert [e.ph for e in evs] == ["i", "X", "C"]
    assert evs[0].args == {"dst": 3, "nbytes": 64}
    assert evs[1].dur == 0.5
    assert evs[2].args == {"value": 7}


def test_tracer_category_gating():
    tr = Tracer(categories={"mailbox"})
    assert tr.wants("mailbox")
    assert not tr.wants("mpi")
    assert not tr.wants("kernel")
    assert "kernel" in ALL_CATEGORIES


def test_tracer_rejects_unknown_categories():
    # A misspelt category used to be accepted and silently record nothing.
    with pytest.raises(ValueError) as err:
        Tracer(categories={"mailbx", "mpi", "kernal"})
    unknown, known = str(err.value).split(";")
    assert "'kernal'" in unknown and "'mailbx'" in unknown and "'mpi'" not in unknown
    assert all(repr(name) in known for name in ALL_CATEGORIES)


def test_callback_sink_streams_events():
    seen = []
    tr = Tracer(sinks=[MemorySink(), CallbackSink(seen.append)])
    tr.instant(0.0, "app", "phase", "rank 0")
    assert len(seen) == 1 and seen[0] is tr.events[0]


def test_tracer_without_memory_sink_rejects_event_access():
    tr = Tracer(sinks=[CallbackSink(lambda ev: None)])
    with pytest.raises(ValueError, match="CallbackSink"):
        _ = tr.events
    with pytest.raises(ValueError, match="no sinks"):
        _ = Tracer(sinks=[]).events


# ------------------------------------------------------- instrumented runs
def _traffic_main(ctx):
    got = []
    mb = ctx.mailbox(recv=got.append, capacity=16)
    ctx.trace("send_phase", messages=64)
    rng = ctx.rng
    for _ in range(64):
        yield from mb.send(int(rng.integers(ctx.nranks)), ctx.rank)
    yield from mb.wait_empty()
    return len(got)


def _run_traced(tracer, nodes=2, cores=2, scheme="nlnr", seed=0):
    world = YgmWorld(
        small(nodes=nodes, cores_per_node=cores),
        scheme=scheme,
        seed=seed,
        mailbox_capacity=16,
        tracer=tracer,
    )
    return world.run(_traffic_main)


def test_instrumented_run_covers_all_layers():
    tr = Tracer(categories=ALL_CATEGORIES)
    res = _run_traced(tr)
    cats = {e.cat for e in tr.events}
    assert {"app", "mailbox", "mpi", "resource", "kernel", "process"} <= cats
    names = {(e.cat, e.name) for e in tr.events}
    assert ("mpi", "packet_injected") in names
    assert ("mpi", "packet_delivered") in names
    assert ("mailbox", "flush") in names
    assert ("mailbox", "term_round") in names
    assert ("mailbox", "idle") in names
    assert ("resource", "hold") in names
    assert ("app", "send_phase") in names
    # Packet-level trace totals must agree with the end-of-run stats.
    # (Machine-level transport counts include termination-protocol
    # packets, which MailboxStats does not.)
    injected = [e for e in tr.events if e.name == "packet_injected"]
    assert len(injected) == res.transport["remote_packets"]
    flushes = [e for e in tr.events if e.name == "flush"]
    assert len(flushes) == res.mailbox_stats.flushes
    idle = sum(e.dur for e in tr.events if e.name == "idle")
    assert idle == pytest.approx(res.mailbox_stats.idle_time, rel=1e-9)


def test_default_categories_exclude_noisy_ones():
    tr = Tracer()
    _run_traced(tr)
    cats = {e.cat for e in tr.events}
    assert "kernel" not in cats and "process" not in cats
    assert "mailbox" in cats and "mpi" in cats


def test_eager_vs_rendezvous_choice_recorded():
    def rank_main(ctx):
        mb = ctx.mailbox(recv=lambda m: None, capacity=2**20)
        if ctx.rank == 0:
            # Big single payload: above the 16 KiB eager threshold.
            mb.post(ctx.nranks - 1, b"x", nbytes=1 << 20)
            yield from mb.flush()
            # Small payload, flushed separately so it is not coalesced
            # into the rendezvous packet: eager.
            mb.post(ctx.nranks - 1, b"y", nbytes=8)
            yield from mb.flush()
        yield from mb.wait_empty()
        return None

    tr = Tracer()
    YgmWorld(
        small(nodes=2, cores_per_node=1), scheme="noroute", tracer=tr
    ).run(rank_main)
    protocols = {
        e.args["protocol"] for e in tr.events if e.name == "packet_injected"
    }
    assert protocols == {"eager", "rendezvous"}


# ------------------------------------------------------------- chrome export
def test_chrome_export_structure(tmp_path):
    tr = Tracer()
    _run_traced(tr)
    path = tmp_path / "trace.json"
    tr.export_chrome(str(path))
    doc = json.loads(path.read_text())
    assert set(doc) == {"traceEvents", "displayTimeUnit"}
    evs = doc["traceEvents"]
    lanes = {
        e["args"]["name"]
        for e in evs
        if e["ph"] == "M" and e["name"] == "thread_name"
    }
    # One lane per rank plus one per NIC engine.
    assert {f"rank {r}" for r in range(4)} <= lanes
    assert {"nic_tx[0]", "nic_rx[0]", "nic_tx[1]", "nic_rx[1]"} <= lanes
    for ev in evs:
        assert {"name", "ph", "pid", "tid"} <= set(ev)
        if ev["ph"] == "X":
            assert ev["dur"] >= 0 and "ts" in ev
    # NIC holds land on NIC lanes (pid 2), mailbox events on rank lanes (pid 1).
    assert any(e["ph"] == "X" and e["pid"] == 2 for e in evs)
    assert any(e["name"] == "flush" and e["pid"] == 1 for e in evs)


def test_chrome_events_timestamps_microseconds():
    tr = Tracer()
    tr.complete(1.5, 0.25, "mailbox", "flush", "rank 0")
    evs = [e for e in to_chrome_events(tr) if e["ph"] == "X"]
    assert evs[0]["ts"] == pytest.approx(1.5e6)
    assert evs[0]["dur"] == pytest.approx(0.25e6)


def test_chrome_exec_events_get_their_own_clock_domain():
    """Host wall-clock (exec) events must not share a pid with simulated
    ones: interleaving the two clock domains on one timeline would place
    host-side job spans in the middle of microsecond-scale simulated
    activity."""
    from repro.trace.chrome import PID_HOST

    tr = Tracer(categories=ALL_CATEGORIES)
    tr.complete(1e-6, 5e-7, "mailbox", "flush", "rank 0")
    tr.complete(0.2, 1.5, "exec", "job", "worker 0", job="fig6a[0]")
    tr.complete(1.9, 0.3, "exec", "job", "worker 1", job="fig6a[1]")
    evs = to_chrome_events(tr)

    sim_pids = {e["pid"] for e in evs if e.get("cat") not in ("exec", None)}
    exec_evs = [e for e in evs if e.get("cat") == "exec"]
    assert exec_evs and all(e["pid"] == PID_HOST for e in exec_evs)
    assert PID_HOST not in sim_pids
    # Each host lane is a named thread in the host process group.
    host_threads = {
        e["args"]["name"]
        for e in evs
        if e["ph"] == "M" and e["name"] == "thread_name" and e["pid"] == PID_HOST
    }
    assert host_threads == {"worker 0", "worker 1"}
    # The host process group itself is labelled as wall clock.
    host_process = [
        e for e in evs
        if e["ph"] == "M" and e["name"] == "process_name" and e["pid"] == PID_HOST
    ]
    assert host_process and "wall clock" in host_process[0]["args"]["name"]


# ------------------------------------------------------------- metrics table
def test_metrics_rows_total_matches_stats(tmp_path):
    tr = Tracer()
    res = _run_traced(tr)
    rows = compute_metrics(tr)
    assert rows, "non-empty metrics table"
    assert sum(r["remote_packets"] for r in rows) == res.transport["remote_packets"]
    assert sum(r["local_packets"] for r in rows) == res.transport["local_packets"]
    assert sum(r["flushes"] for r in rows) == res.mailbox_stats.flushes
    assert sum(r["idle_seconds"] for r in rows) == pytest.approx(
        res.mailbox_stats.idle_time, rel=1e-9
    )
    assert sum(r["term_rounds"] for r in rows) == res.mailbox_stats.term_rounds
    assert any(r["nic_utilization"] > 0 for r in rows)
    # CSV round trip.
    path = tmp_path / "metrics.csv"
    written = tr.export_metrics(str(path), interval=None)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == len(written) + 1  # header + rows


def test_metrics_explicit_interval():
    tr = Tracer()
    _run_traced(tr)
    end = max(e.ts + e.dur for e in tr.events)
    rows = compute_metrics(tr, interval=end / 10)
    assert 10 <= len(rows) <= 11
    assert rows[0]["t_start"] == 0.0
    with pytest.raises(ValueError):
        compute_metrics(tr, interval=0.0)


def test_metrics_empty_tracer():
    assert compute_metrics(Tracer()) == []


# ------------------------------------------------------------ programmatic API
def test_context_tracer_property_and_annotations():
    tr = Tracer()

    def rank_main(ctx):
        assert ctx.tracer is tr
        ctx.trace("custom_marker", value=ctx.rank)
        mb = ctx.mailbox(recv=lambda m: None)
        yield from mb.wait_empty()
        return True

    YgmWorld(small(nodes=1, cores_per_node=2), scheme="noroute", tracer=tr).run(
        rank_main
    )
    markers = [e for e in tr.events if e.name == "custom_marker"]
    assert {e.args["value"] for e in markers} == {0, 1}
    assert {e.lane for e in markers} == {"rank 0", "rank 1"}


def test_context_trace_noop_without_tracer():
    def rank_main(ctx):
        assert ctx.tracer is None
        ctx.trace("ignored")  # must not raise
        mb = ctx.mailbox(recv=lambda m: None)
        yield from mb.wait_empty()
        return True

    res = YgmWorld(small(nodes=1, cores_per_node=2), scheme="noroute").run(rank_main)
    assert all(res.values)


def test_batch_traffic_traced():
    from repro import RecordSpec

    spec = RecordSpec("t", [("v", "u8")])

    def rank_main(ctx):
        mb = ctx.mailbox(recv_batch=lambda b: None, capacity=64)
        dests = np.arange(ctx.nranks, dtype=np.int64).repeat(32)
        yield from mb.send_batch(dests, spec.build(v=dests.astype("u8")))
        yield from mb.wait_empty()
        return None

    tr = Tracer()
    res = YgmWorld(
        small(nodes=2, cores_per_node=2), scheme="nlnr", mailbox_capacity=64, tracer=tr
    ).run(rank_main)
    forwarded = sum(
        e.args["entries"] for e in tr.events if e.name == "forward"
    )
    assert forwarded == res.mailbox_stats.entries_forwarded > 0
