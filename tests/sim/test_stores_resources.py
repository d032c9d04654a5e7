"""Unit tests for Store (cancellable gets) and Resource (FIFO server)."""

import pytest

from repro.sim import EventStateError, Resource, Simulator, Store


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


def test_store_drain():
    sim = Simulator()
    store = Store(sim)
    for i in range(4):
        store.put(i)
    assert store.drain() == [0, 1, 2, 3]
    assert len(store) == 0


def test_cancelled_get_does_not_steal_items():
    sim = Simulator()
    store = Store(sim)
    got = []

    def canceller(sim):
        g = store.get()
        t = sim.timeout(1)
        yield sim.any_of([g, t])
        assert not g.triggered
        g.cancel()

    def getter(sim):
        yield sim.timeout(0.5)  # posted after canceller's get
        item = yield store.get()
        got.append(item)

    def putter(sim):
        yield sim.timeout(2)
        store.put("only")

    sim.process(canceller(sim))
    sim.process(getter(sim))
    sim.process(putter(sim))
    sim.run()
    assert got == ["only"]


def test_put_after_all_getters_cancelled_queues_item():
    """With only a cancelled getter waiting, put must queue the item
    (not hand it to the dead getter)."""
    sim = Simulator()
    store = Store(sim)

    def proc(sim):
        g = store.get()
        yield sim.any_of([g, sim.timeout(1)])
        assert not g.triggered
        g.cancel()
        assert g.cancelled
        store.put("kept")
        assert len(store) == 1
        assert store.try_get() == "kept"
        return True

    p = sim.process(proc(sim))
    sim.run()
    assert p.value is True


def test_put_skips_many_cancelled_getters():
    sim = Simulator()
    store = Store(sim)
    got = []

    def canceller(sim):
        g = store.get()
        yield sim.any_of([g, sim.timeout(1)])
        g.cancel()

    def live(sim):
        yield sim.timeout(0.5)  # queued behind the cancelled getters
        item = yield store.get()
        got.append(item)

    for _ in range(3):
        sim.process(canceller(sim))
    sim.process(live(sim))

    def putter(sim):
        yield sim.timeout(2)
        store.put("x")

    sim.process(putter(sim))
    sim.run()
    assert got == ["x"]


def test_cancel_triggered_get_raises():
    sim = Simulator()
    store = Store(sim)
    store.put(1)
    g = store.get()
    assert g.triggered
    with pytest.raises(EventStateError):
        g.cancel()


def test_any_of_both_children_usable():
    sim = Simulator()
    a, b = Store(sim), Store(sim)
    seen = []

    def proc(sim):
        ga, gb = a.get(), b.get()
        yield sim.any_of([ga, gb])
        for g in (ga, gb):
            if g.triggered:
                seen.append(g.value)
            else:
                g.cancel()

    a.put("A")
    b.put("B")
    sim.process(proc(sim))
    sim.run()
    # Both were already available: both trigger.
    assert sorted(seen) == ["A", "B"]


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
