"""Engine-level behaviour: protocol, error paths, diagnostics, tracing."""

import multiprocessing

import pytest

from repro.core.context import YgmWorld
from repro.machine import bench_machine, small
from repro.pdes import PdesError, PdesWorld, assert_equivalent, run_pdes
from repro.pdes.partition import min_wire_latency
from repro.sim import DeadlockError
from repro.trace import Tracer


def ping_all(ctx):
    got = []
    mb = ctx.mailbox(recv=lambda m: got.append(m))
    for i in range(10):
        yield from mb.send((ctx.rank + 1 + i) % ctx.nranks, (ctx.rank, i))
    yield from mb.wait_empty()
    return sorted(got)


def test_single_partition_is_exactly_the_serial_kernel():
    # workers=1 keeps the native in-flight path (no export hook at all),
    # so even raw delivery order is trivially serial.
    serial = YgmWorld(4, scheme="nlnr", seed=2, cores_per_node=2).run(ping_all)
    par = PdesWorld(4, scheme="nlnr", seed=2, cores_per_node=2, workers=1).run(
        ping_all
    )
    assert_equivalent(par, serial)
    assert par.values == serial.values


def test_run_pdes_convenience_wrapper():
    serial = YgmWorld(4, scheme="nlnr", seed=0, cores_per_node=2).run(ping_all)
    par = run_pdes(ping_all, 4, scheme="nlnr", workers=2, cores_per_node=2)
    assert_equivalent(par, serial)


def test_window_protocol_diagnostics_count_rounds_and_exports():
    engine = PdesWorld(4, scheme="nlnr", seed=0, cores_per_node=2, workers=2)
    engine.run(ping_all)
    assert engine.rounds > 1
    assert engine.exported_packets > 0


def test_zero_lookahead_is_rejected():
    machine = bench_machine(2, cores_per_node=2, latency=0.0)
    assert min_wire_latency(machine.net) == 0.0
    with pytest.raises(PdesError, match="lookahead"):
        PdesWorld(machine, workers=2)


def test_more_workers_than_nodes_is_rejected():
    with pytest.raises(ValueError):
        PdesWorld(2, cores_per_node=2, workers=3)


@pytest.mark.parametrize("timeout", [0, -1.0, float("nan"), float("inf")])
def test_bad_window_timeout_is_rejected_before_any_fork(timeout):
    # Accepted, a timeout like this reports every partition as stalled
    # at round 0: a bad argument misreported as a hang.
    before = multiprocessing.active_children()
    with pytest.raises(ValueError, match="window_timeout"):
        PdesWorld(4, cores_per_node=1, workers=2, window_timeout=timeout)
    assert multiprocessing.active_children() == before


def test_global_deadlock_is_detected_across_partitions():
    # Rank 3 (partition 1) blocks forever; every other rank finishes.
    # The stuck partition reports an empty heap, no partition can move,
    # and the driver must rule global deadlock rather than spin.
    def rank_main(ctx):
        if ctx.rank == 3:
            yield ctx.sim.event("never")
        return ctx.rank

    with pytest.raises(DeadlockError):
        PdesWorld(4, cores_per_node=1, workers=2).run(rank_main)


class Boom(Exception):
    pass


def test_error_while_peers_wait_empty_chains_the_deadlock():
    """The partitioned twin of the serial test in
    ``tests/core/test_handler_errors.py``: rank 1 dies inside
    ``wait_empty`` while rank 0, on the other partition, waits for it in
    the termination protocol.  The deadlock names rank 1, is chained
    from its exception, and leaves no worker process behind."""
    k = 3
    got = []

    def on_recv(v):
        got.append(v)
        if len(got) == k:
            raise Boom(v)

    def rank_main(ctx):
        mb = ctx.mailbox(recv=on_recv)
        if ctx.rank == 0:
            for i in range(2 * k):
                yield from mb.send(1, ("m", i))
        yield from mb.wait_empty()

    before = multiprocessing.active_children()
    engine = PdesWorld(small(nodes=2, cores_per_node=1), scheme="noroute", workers=2)
    with pytest.raises(DeadlockError) as ei:
        engine.run(rank_main)
    err = ei.value
    assert isinstance(err.__cause__, Boom)
    assert err.__cause__.args == (("m", k - 1),)
    assert "rank 1 failed at t=" in str(err)
    assert f"deadlocked at t={err.now!r}" in str(err)
    assert multiprocessing.active_children() == before


def test_rank_exception_becomes_its_value_exactly_like_serial():
    # The serial kernel stores an exception escaping a rank program as
    # that rank's value (run_until_complete holds a completion callback,
    # so the failure is captured, not raised).  Partitioned runs must
    # mirror that, including shipping the exception across the pipe.
    def rank_main(ctx):
        if ctx.rank == 2:
            raise ValueError("boom on rank 2")
        return ctx.rank
        yield  # make it a generator

    serial = YgmWorld(4, scheme="nlnr", seed=0, cores_per_node=1).run(rank_main)
    par = PdesWorld(4, cores_per_node=1, workers=2).run(rank_main)
    assert [type(v) for v in par.values] == [type(v) for v in serial.values]
    assert par.values[2].args == serial.values[2].args == ("boom on rank 2",)


def test_worker_internal_error_surfaces_as_pdes_error_with_traceback(monkeypatch):
    # An error inside the worker machinery itself (not a rank program)
    # must come back as a PdesError naming the partition and carrying
    # the worker's traceback.  The fault is injected by patching the
    # worker's step before fork -- children inherit the patched module.
    from repro.pdes.worker import PartitionRuntime

    orig = PartitionRuntime.step

    def faulty_step(self, horizon, imports, drain):
        if self.part == 1:
            raise RuntimeError("synthetic worker fault")
        return orig(self, horizon, imports, drain)

    monkeypatch.setattr(PartitionRuntime, "step", faulty_step)
    with pytest.raises(PdesError) as ei:
        PdesWorld(4, cores_per_node=2, workers=2).run(ping_all)
    msg = str(ei.value)
    assert "partition 1" in msg
    assert "Traceback" in msg and "synthetic worker fault" in msg


def test_worker_death_surfaces_as_pdes_error():
    # A worker dying outright (simulated segfault: os._exit skips all
    # exception handling) is detected as EOF on its pipe, not a hang.
    def rank_main(ctx):
        if ctx.rank == 3:
            import os

            os._exit(13)
        return ctx.rank
        yield

    with pytest.raises(PdesError, match="without a report"):
        PdesWorld(4, cores_per_node=1, workers=2).run(rank_main)


def test_all_ranks_failing_still_terminates_cleanly():
    # Even with no successful rank anywhere (the completion instant is a
    # failure event), the engine terminates and mirrors serial values.
    def rank_main(ctx):
        raise RuntimeError(f"rank {ctx.rank} dead")
        yield

    serial = YgmWorld(4, scheme="nlnr", seed=0, cores_per_node=1).run(rank_main)
    par = PdesWorld(4, cores_per_node=1, workers=2).run(rank_main)
    assert [v.args for v in par.values] == [v.args for v in serial.values]
    assert par.elapsed == serial.elapsed


def test_driver_tracer_records_window_and_completion_events():
    tracer = Tracer()
    engine = PdesWorld(
        4, scheme="nlnr", seed=0, cores_per_node=2, workers=2, tracer=tracer
    )
    engine.run(ping_all)
    names = [ev.name for ev in tracer.events if ev.cat == "pdes"]
    assert "window" in names
    assert "barrier" in names
    assert names[-1] == "complete"
    windows = [
        ev for ev in tracer.events if ev.cat == "pdes" and ev.name == "window"
    ]
    # Horizon is always lookahead past the window floor.
    lookahead = engine.lookahead
    for ev in windows:
        assert ev.args["horizon"] == pytest.approx(ev.ts + lookahead)


def test_small_preset_machine_runs_partitioned():
    machine = small(nodes=2, cores_per_node=2)
    serial = YgmWorld(machine, scheme="nlnr", seed=7).run(ping_all)
    par = PdesWorld(machine, scheme="nlnr", seed=7, workers=2).run(ping_all)
    assert_equivalent(par, serial)
