"""Unit tests for Store (FIFO blocking gets) and Resource (FIFO server)."""

import pytest

from repro.sim import Resource, Simulator, Store


# ---------------------------------------------------------------- stores
def test_store_put_then_get():
    sim = Simulator()
    store = Store(sim)

    def proc(sim):
        item = yield store.get()
        return item

    store.put("hello")
    p = sim.process(proc(sim))
    sim.run()
    assert p.value == "hello"


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)

    def getter(sim):
        item = yield store.get()
        return (item, sim.now)

    def putter(sim):
        yield sim.timeout(5)
        store.put("late")

    p = sim.process(getter(sim))
    sim.process(putter(sim))
    sim.run()
    assert p.value == ("late", 5)


def test_store_fifo_ordering_items_and_getters():
    sim = Simulator()
    store = Store(sim)
    results = []

    def getter(sim, label):
        item = yield store.get()
        results.append((label, item))

    for label in "ab":
        sim.process(getter(sim, label))

    def putter(sim):
        yield sim.timeout(1)
        store.put(1)
        store.put(2)

    sim.process(putter(sim))
    sim.run()
    assert results == [("a", 1), ("b", 2)]


def test_store_try_get_and_len():
    sim = Simulator()
    store = Store(sim)
    assert store.try_get() is None
    store.put(7)
    assert len(store) == 1
    assert store.try_get() == 7
    assert len(store) == 0


# ------------------------------------------------------------- resources
def test_resource_serializes_holds():
    sim = Simulator()
    res = Resource(sim)
    spans = []

    def user(sim, label):
        start = sim.now
        yield res.hold(1.0)
        spans.append((label, start, sim.now))

    for label in "abc":
        sim.process(user(sim, label))
    sim.run()
    # Total serialized time = 3 holds of 1s each.
    assert sim.now == pytest.approx(3.0)
    ends = [end for (_, _, end) in spans]
    assert ends == [1.0, 2.0, 3.0]


def test_resource_fifo_grant_order():
    sim = Simulator()
    res = Resource(sim)
    order = []

    def user(sim, label, delay):
        yield sim.timeout(delay)
        yield res.hold(1.0)
        order.append(label)

    sim.process(user(sim, "first", 0.0))
    sim.process(user(sim, "second", 0.1))
    sim.process(user(sim, "third", 0.2))
    sim.run()
    assert order == ["first", "second", "third"]


def test_resource_utilisation_counters():
    sim = Simulator()
    res = Resource(sim)

    def user(sim):
        yield res.hold(2.0)
        yield res.hold(3.0)

    p = sim.process(user(sim))
    sim.run_until_complete(p)
    assert res.busy_time == pytest.approx(5.0)
    assert res.holds == 2


def test_resource_hold_is_one_event_and_serves_callbacks():
    """A hold costs exactly its completion event, process or not."""
    sim = Simulator()
    res = Resource(sim)
    seen = []
    first = res.hold(1.0)
    second = res.hold(0.5)  # queued behind ``first``
    first.callbacks.append(lambda ev: seen.append(("first", sim.now, ev.value)))
    second.callbacks.append(lambda ev: seen.append(("second", sim.now, ev.value)))
    assert (res.in_use, res.queue_length) == (1, 1)
    assert not first.triggered and not second.triggered
    sim.run()
    assert seen == [("first", 1.0, None), ("second", 1.5, None)]
    assert sim.steps == 2
    assert (res.in_use, res.queue_length) == (0, 0)


def test_resource_grants_next_hold_before_holder_callbacks_run():
    """The waiter is in service by the time the finished holder resumes."""
    sim = Simulator()
    res = Resource(sim)
    observed = []
    first = res.hold(1.0)
    res.hold(1.0)
    first.callbacks.append(
        lambda _ev: observed.append((res.in_use, res.queue_length, res.holds))
    )
    sim.run()
    assert observed == [(1, 0, 1)]


def test_resource_zero_duration_hold():
    sim = Simulator()
    res = Resource(sim)
    done = []

    def user(sim):
        yield res.hold(0.0)
        done.append(sim.now)
        yield res.hold(0.0)
        done.append(sim.now)

    p = sim.process(user(sim))
    sim.run_until_complete(p)
    assert done == [0.0, 0.0]
    assert res.holds == 2 and res.busy_time == 0.0
    assert res.in_use == 0


def test_resource_negative_duration_raises():
    sim = Simulator()
    res = Resource(sim)
    with pytest.raises(ValueError):
        res.hold(-1.0)
    assert (res.in_use, res.queue_length) == (0, 0)


def test_resource_nan_duration_raises():
    sim = Simulator()
    res = Resource(sim)
    with pytest.raises(ValueError):
        res.hold(float("nan"))
    assert (res.in_use, res.queue_length) == (0, 0)
    assert sim._heap == []
