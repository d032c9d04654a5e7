"""Tests for the kernel fast paths: absolute-time pushes, batched
enqueue, process batches, and the countdown-based ``run_until_complete``.

These paths exist for speed; the tests pin that they are *semantically*
indistinguishable from the one-at-a-time equivalents (same order, same
timestamps, same sequence numbering) so the determinism guarantees of
the seed kernel carry over.
"""

import pytest

from repro.machine import Machine, small
from repro.pdes.worker import enqueue_at, export_on_wire, inject_arrival
from repro.sim import DeadlockError, Simulator


def _triggered(sim, fn):
    """A triggered event that runs ``fn()`` when the kernel pops it."""
    ev = sim.event()
    ev._value, ev._ok = None, True
    ev.callbacks.append(lambda _ev: fn())
    return ev


# ----------------------------------------------------------- enqueue_at()
def test_enqueue_at_sequences_like_enqueue_at_the_same_instant():
    """An absolute-time push is sequenced like a relative one, tiebreaker too."""

    def run(absolute: bool, tiebreaker=None):
        sim = Simulator(tiebreaker=tiebreaker)
        order = []

        def starter(_ev):
            for i in range(3):
                ev = _triggered(sim, lambda i=i: order.append((sim.now, i)))
                if absolute:
                    enqueue_at(sim, ev, sim.now + 0.3)
                else:
                    sim._enqueue(ev, 0.3)

        sim.timeout(0.1).callbacks.append(starter)
        sim.timeout(0.4).callbacks.append(
            lambda _ev: order.append((sim.now, "native"))
        )
        sim.run()
        return order, sim.steps, sim._seq

    assert run(absolute=True) == run(absolute=False)
    assert run(absolute=True)[0][-1] == (0.4, 2)
    reverse = lambda t, seq: -seq  # noqa: E731
    assert run(True, reverse) == run(False, reverse)
    assert run(True, reverse)[0][0] == (0.4, 2)


def test_enqueue_at_rejects_the_past():
    sim = Simulator()
    sim.timeout(1.0)
    sim.run()
    for at in (0.5, float("nan")):
        with pytest.raises(ValueError):
            enqueue_at(sim, _triggered(sim, lambda: None), at)
    assert sim._heap == []
    enqueue_at(sim, _triggered(sim, lambda: None), 1.0)  # "now" is not the past
    sim.run()
    assert sim.now == 1.0


def _remote_deliveries(reinject: bool, tiebreaker=None):
    """Six ranks on three nodes, equal-sized remote packets: many ties.

    ``reinject`` claims every packet at its on-wire point and replays it
    at once through ``inject_arrival`` (what a PDES partition does for a
    destination it owns), so the arrival is an absolute-time push.
    """
    sim = Simulator(tiebreaker=tiebreaker)
    m = Machine(sim, small(nodes=3, cores_per_node=2))
    log = []

    def deliver(packet):
        log.append((sim.now, packet))

    if reinject:
        def exporter(t_wire, src, dst, nbytes, packet):
            inject_arrival(m, t_wire, src, dst, nbytes, packet, deliver)

        export_on_wire(sim, exporter)

    def sender(src):
        for i in (1, 2):
            yield from m.transmit(src, (src + 2 * i) % 6, 1024, (src, i), deliver)

    for src in range(6):
        sim.process(sender(src))
    sim.run()
    assert len(log) == 12
    return log, sim.steps, sim._seq


def test_inject_arrival_sequences_like_the_native_arrival():
    """A replayed arrival lands in the native arrival's same-instant slot."""
    assert _remote_deliveries(True) == _remote_deliveries(False)


def test_inject_arrival_respects_the_tiebreaker():
    reverse = lambda t, seq: -seq  # noqa: E731
    fifo = _remote_deliveries(False)
    reversed_ = _remote_deliveries(False, reverse)
    assert reversed_[0] != fifo[0]  # the tiebreaker decides real ties here
    assert _remote_deliveries(True, reverse) == reversed_


# -------------------------------------------------------- process_batch()
def _worker(sim, log, label, delay):
    yield sim.timeout(delay)
    log.append((sim.now, label))
    return label


def test_process_batch_matches_sequential_process_calls():
    def run(batched: bool):
        sim = Simulator()
        log = []
        gens = [_worker(sim, log, i, delay=(i % 3) * 0.5) for i in range(6)]
        names = [f"w{i}" for i in range(6)]
        if batched:
            procs = sim.process_batch(gens, names=names)
        else:
            procs = [sim.process(g, name=n) for g, n in zip(gens, names)]
        sim.run()
        return log, [p.value for p in procs], sim._seq, sim.steps

    assert run(batched=True) == run(batched=False)


def test_process_batch_names_default_and_values():
    sim = Simulator()
    log = []
    procs = sim.process_batch(_worker(sim, log, i, 0.0) for i in range(3))
    sim.run()
    assert [p.value for p in procs] == [0, 1, 2]
    assert all(p.processed for p in procs)


# -------------------------------------------------- run_until_complete()
def test_run_until_complete_ignores_daemon_processes():
    sim = Simulator()
    log = []

    def daemon(sim):
        while True:
            yield sim.timeout(1.0)

    def job(sim):
        yield sim.timeout(2.5)
        log.append("done")

    sim.process(daemon(sim))
    p = sim.process(job(sim))
    sim.run_until_complete(p)
    assert log == ["done"]
    assert p.processed
    assert sim.now == pytest.approx(2.5)


def test_run_until_complete_many_processes_counts_each_once():
    sim = Simulator()
    log = []
    procs = [sim.process(_worker(sim, log, i, 0.5 * i)) for i in range(8)]
    sim.run_until_complete(*procs)
    assert len(log) == 8
    assert sim.now == pytest.approx(3.5)


def test_run_until_complete_with_already_finished_process():
    sim = Simulator()
    log = []
    p = sim.process(_worker(sim, log, "a", 1.0))
    sim.run()  # finishes p
    # Awaiting an already-processed process returns without stepping.
    steps_before = sim.steps
    sim.run_until_complete(p)
    assert sim.steps == steps_before


def test_run_until_complete_deadlocks_when_queue_drains():
    sim = Simulator()

    def stuck(sim):
        yield sim.event()  # never triggered

    p = sim.process(stuck(sim))
    with pytest.raises(DeadlockError):
        sim.run_until_complete(p)


def test_run_until_complete_stops_at_completion_not_queue_drain():
    # Events scheduled past the awaited completion stay queued.
    sim = Simulator()
    late = []
    sim.timeout(10.0).callbacks.append(lambda _ev: late.append(True))
    p = sim.process(_worker(sim, [], "x", 1.0))
    sim.run_until_complete(p)
    assert sim.now == pytest.approx(1.0)
    assert not late
    sim.run()  # drain the rest
    assert late == [True]


# --------------------------------------------------------------- tracing
def test_progress_samples_recorded_with_tracer():
    from repro.trace import Tracer

    sim = Simulator()
    sim.tracer = Tracer()
    sim.process_batch(_worker(sim, [], i, 0.1) for i in range(4))
    sim.run()
    samples = sim.tracer.progress_samples
    assert len(samples) >= 2  # at least loop entry + exit
    sim_times = [s[0] for s in samples]
    step_counts = [s[1] for s in samples]
    walls = [s[2] for s in samples]
    assert sim_times == sorted(sim_times)
    assert step_counts == sorted(step_counts)
    assert walls == sorted(walls)
    assert step_counts[-1] == sim.steps
