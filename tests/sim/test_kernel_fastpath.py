"""Tests for the kernel fast paths: Callback events, batched enqueue,
process batches, and the countdown-based ``run_until_complete``.

These paths exist for speed; the tests pin that they are *semantically*
indistinguishable from the one-at-a-time equivalents (same order, same
timestamps, same sequence numbering) so the determinism guarantees of
the seed kernel carry over.
"""

import pytest

from repro.sim import Callback, DeadlockError, Simulator


# ------------------------------------------------------------- schedule()
def test_schedule_runs_callback_at_delay():
    sim = Simulator()
    fired = []
    ev = sim.schedule(2.5, lambda: fired.append(sim.now))
    assert isinstance(ev, Callback)
    assert not ev.triggered  # value assigned only at processing time
    sim.run()
    assert fired == [2.5]
    assert ev.processed and ev.ok and ev.value is None


def test_schedule_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_interleaves_fifo_with_timeouts():
    sim = Simulator()
    order = []

    def proc(sim):
        yield sim.timeout(1.0)
        order.append("timeout")

    sim.process(proc(sim))
    sim.schedule(1.0, lambda: order.append("callback"))
    sim.run()
    # The callback is enqueued immediately; the process's timeout only
    # when its init event runs at t=0 -- so at t=1 FIFO order puts the
    # callback first.
    assert order == ["callback", "timeout"]


def test_schedule_callback_runs_before_attached_callbacks():
    sim = Simulator()
    order = []
    ev = sim.schedule(1.0, lambda: order.append("fn"))
    ev.attach(lambda _ev: order.append("attached"))
    sim.run()
    assert order == ["fn", "attached"]


def test_callback_event_waitable_by_process():
    sim = Simulator()
    got = []

    def proc(sim, ev):
        yield ev
        got.append(sim.now)

    ev = sim.schedule(3.0, lambda: None)
    sim.process(proc(sim, ev))
    sim.run()
    assert got == [3.0]


# ---------------------------------------------------------- schedule_at()
def test_schedule_at_matches_schedule_with_the_same_instant():
    """One Callback event at the absolute time, sequenced like ``schedule``."""

    def run(absolute: bool, tiebreaker=None):
        sim = Simulator(tiebreaker=tiebreaker)
        order = []

        def starter():
            for i in range(3):
                fn = lambda i=i: order.append((sim.now, i))  # noqa: E731
                if absolute:
                    ev = sim.schedule_at(sim.now + 0.3, fn)
                else:
                    ev = sim.schedule(0.3, fn)
                assert isinstance(ev, Callback) and not ev.triggered

        sim.schedule(0.1, starter)
        sim.schedule(0.4, lambda: order.append((sim.now, "native")))
        sim.run()
        return order, sim.steps, sim._seq

    assert run(absolute=True) == run(absolute=False)
    assert run(absolute=True)[0][-1] == (0.4, 2)
    reverse = lambda t, seq: -seq  # noqa: E731
    assert run(True, reverse) == run(False, reverse)
    assert run(True, reverse)[0][0] == (0.4, 2)


def test_schedule_at_rejects_the_past():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule_at(0.5, lambda: None)
    sim.schedule_at(1.0, lambda: None)  # "now" is not the past
    sim.run()
    assert sim.now == 1.0


# ------------------------------------------------------- schedule_batch()
def test_schedule_batch_matches_sequential_schedules():
    def run(batched: bool):
        sim = Simulator()
        order = []
        fns = [lambda i=i: order.append((sim.now, i)) for i in range(5)]
        if batched:
            sim.schedule_batch(1.5, fns)
        else:
            for fn in fns:
                sim.schedule(1.5, fn)
        sim.run()
        return order, sim._seq

    assert run(batched=True) == run(batched=False)


def test_schedule_batch_respects_tiebreaker():
    # A reversing tiebreaker must reorder batch-enqueued events exactly as
    # it reorders singly-enqueued ones.
    def run(batched: bool):
        sim = Simulator(tiebreaker=lambda t, seq: -seq)
        order = []
        fns = [lambda i=i: order.append(i) for i in range(4)]
        if batched:
            sim.schedule_batch(1.0, fns)
        else:
            for fn in fns:
                sim.schedule(1.0, fn)
        sim.run()
        return order

    assert run(batched=True) == run(batched=False) == [3, 2, 1, 0]


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
    sim.schedule(10.0, lambda: late.append(True))
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
