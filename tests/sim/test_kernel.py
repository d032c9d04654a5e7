"""Unit tests for the DES kernel: simulator, events, time semantics."""

import pytest

from repro.sim import DeadlockError, EventStateError, Simulator


def test_initial_time_is_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(2.5)
        yield sim.timeout(1.0)

    sim.process(proc(sim))
    sim.run()
    assert sim.now == pytest.approx(3.5)


def test_process_return_value():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1)
        return "result"

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == "result"
    assert p.triggered


def test_process_waits_on_child_process():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(3)
        return 42

    def parent(sim):
        got = yield sim.process(child(sim))
        return got + 1

    p = sim.process(parent(sim))
    sim.run()
    assert p.value == 43
    assert sim.now == pytest.approx(3)


def test_events_processed_in_fifo_order_at_same_time():
    sim = Simulator()
    order = []

    def proc(sim, label):
        yield sim.timeout(1.0)
        order.append(label)

    for label in "abcde":
        sim.process(proc(sim, label))
    sim.run()
    assert order == list("abcde")


def test_run_until_limits_time():
    sim = Simulator()
    hits = []

    def proc(sim):
        for _ in range(10):
            yield sim.timeout(1)
            hits.append(sim.now)

    sim.process(proc(sim))
    sim.run(until=4.5)
    assert sim.now == pytest.approx(4.5)
    assert hits == [1, 2, 3, 4]


def test_deadlock_detection():
    sim = Simulator()

    def proc(sim):
        # Wait on an event that nobody will ever trigger.
        yield sim.event("never")

    sim.process(proc(sim))
    with pytest.raises(DeadlockError) as ei:
        sim.run()
    assert ei.value.blocked == 1


def test_run_until_complete_ignores_daemons():
    sim = Simulator()

    def daemon(sim, wake):
        yield wake  # blocked forever after main finishes

    def main(sim):
        yield sim.timeout(1)
        return "done"

    wake = sim.event()
    sim.process(daemon(sim, wake))
    p = sim.process(main(sim))
    sim.run_until_complete(p)
    assert p.value == "done"


def test_event_double_succeed_raises():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(EventStateError):
        ev.succeed(2)


def test_event_fail_propagates_into_process():
    sim = Simulator()

    class Boom(Exception):
        pass

    def proc(sim, ev):
        with pytest.raises(Boom):
            yield ev
        return "caught"

    ev = sim.event()
    p = sim.process(proc(sim, ev))
    ev.fail(Boom("x"))
    sim.run()
    assert p.value == "caught"


def test_unhandled_process_exception_surfaces():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1)
        raise ValueError("kaboom")

    sim.process(proc(sim))
    with pytest.raises(Exception) as ei:
        sim.run()
    assert "kaboom" in repr(ei.value.__cause__) or "kaboom" in repr(ei.value)


def test_yielding_non_event_is_an_error():
    sim = Simulator()

    def proc(sim):
        yield 42  # not an Event

    p = sim.process(proc(sim))
    p.attach(lambda ev: None)  # observer so failure goes to the event
    sim.run()
    assert p.ok is False
    assert isinstance(p.value, TypeError)


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.process(lambda: None)


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1)


def test_nan_timeout_rejected():
    """NaN fails ``delay < 0`` too; accepted, it ran the clock 2 -> nan -> 3."""
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(float("nan"))
    assert sim._heap == []


def test_determinism_two_runs_identical():
    def world(sim, log):
        def worker(sim, i):
            yield sim.timeout(i * 0.1)
            log.append(("w", i, sim.now))
            yield sim.timeout(1)
            log.append(("d", i, sim.now))

        procs = [sim.process(worker(sim, i)) for i in range(5)]
        for p in procs:
            yield p

    logs = []
    for _ in range(2):
        sim = Simulator()
        log = []
        sim.process(world(sim, log))
        sim.run()
        logs.append(log)
    assert logs[0] == logs[1]
