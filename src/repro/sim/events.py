"""Core event primitives for the discrete-event simulation kernel.

An :class:`Event` is a one-shot future bound to a :class:`~repro.sim.kernel.
Simulator`.  Processes (generator coroutines, see :mod:`repro.sim.process`)
``yield`` events to suspend until they trigger.  Events move through three
states:

``pending``
    created, not yet triggered; callbacks may be attached.
``triggered``
    a value (or exception) has been assigned and the event has been placed
    on the simulator's queue.
``processed``
    the simulator has popped the event and run its callbacks.

The distinction between *triggered* and *processed* matters for
determinism: all state changes at a given simulated time are serialized
through the event queue in FIFO order of triggering.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence

from .errors import EventStateError

#: Sentinel for "no value assigned yet".
_PENDING = object()


class Event:
    """A one-shot future that processes can wait on.

    Parameters
    ----------
    sim:
        The owning simulator.  Events may only be triggered and waited on
        within their own simulator.
    name:
        Optional debug label shown in ``repr``.
    """

    __slots__ = ("sim", "name", "callbacks", "_value", "_ok", "_processed")

    def __init__(self, sim: "Simulator", name: str = ""):  # noqa: F821
        self.sim = sim
        self.name = name
        #: Callbacks run (with the event as sole argument) when processed.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self._processed = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """``True`` once a value or exception has been assigned."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """``True`` once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> Optional[bool]:
        """``True`` if succeeded, ``False`` if failed, ``None`` if pending."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception instance if it failed)."""
        if self._value is _PENDING:
            raise EventStateError(f"{self!r} has not been triggered")
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Assign a success value and schedule callback processing *now*.

        Returns ``self`` so it can be chained/yielded.
        """
        if self._value is not _PENDING:
            raise EventStateError(f"{self!r} already triggered")
        self._value = value
        self._ok = True
        self.sim._enqueue(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Assign an exception; waiters will have it raised into them."""
        if self._value is not _PENDING:
            raise EventStateError(f"{self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._value = exc
        self._ok = False
        self.sim._enqueue(self)
        return self

    # -- kernel hooks --------------------------------------------------------
    def _process(self) -> None:
        """Run callbacks.  Called exactly once by the kernel."""
        self._processed = True
        callbacks, self.callbacks = self.callbacks, None
        if callbacks:
            for cb in callbacks:
                cb(self)

    def attach(self, callback: Callable[["Event"], None]) -> None:
        """Attach *callback*; runs immediately if already processed."""
        if self.callbacks is None:
            # Already processed -- run inline to preserve "never lost".
            callback(self)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = (
            "processed" if self._processed
            else "triggered" if self.triggered
            else "pending"
        )
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state}>"


class Timeout(Event):
    """An event that triggers ``delay`` simulated seconds after creation.

    The value is assigned when the delay elapses (not at creation), so
    ``triggered`` correctly reads False while the timeout is pending --
    condition events (AnyOf/AllOf) rely on this.

    Timeouts are the single most-allocated event type (every modelled
    cost is one), so construction writes the slots directly and the
    debug ``name`` is computed lazily instead of f-formatted per event.
    """

    __slots__ = ("delay", "_timeout_value")

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):  # noqa: F821
        if not delay >= 0:
            raise ValueError(f"timeout delay must be >= 0, got {delay}")
        self.sim = sim
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._processed = False
        self.delay = delay
        self._timeout_value = value
        sim._enqueue(self, delay)

    @property
    def name(self) -> str:  # shadows the base slot; computed on demand
        return f"timeout({self.delay})"

    def _process(self) -> None:
        self._value = self._timeout_value
        self._ok = True
        super()._process()


class AnyOf(Event):
    """Triggers when the *first* of ``events`` triggers.

    The value is the list of child events; the caller should inspect each
    child's ``triggered`` flag (several may fire at the same timestamp) and
    cancel those that support cancellation and did not fire.
    """

    __slots__ = ("events", "_done")

    def __init__(self, sim: "Simulator", events: Sequence[Event]):  # noqa: F821
        super().__init__(sim, name="any_of")
        self.events = list(events)
        self._done = False
        if not self.events:
            self.succeed(self.events)
            return
        for ev in self.events:
            if ev.triggered:
                # Child already triggered; fire immediately.
                self._on_child(ev)
                break
        else:
            for ev in self.events:
                ev.attach(self._on_child)

    def _on_child(self, ev: Event) -> None:
        if self._done:
            return
        self._done = True
        if ev.ok is False:
            self.fail(ev.value)
        else:
            self.succeed(self.events)


class AllOf(Event):
    """Triggers when *all* of ``events`` have triggered.

    The value is the list of child event values, in input order.  Fails
    fast if any child fails.
    """

    __slots__ = ("events", "_remaining", "_done")

    def __init__(self, sim: "Simulator", events: Sequence[Event]):  # noqa: F821
        super().__init__(sim, name="all_of")
        self.events = list(events)
        self._done = False
        self._remaining = sum(1 for ev in self.events if not ev.triggered)
        for ev in self.events:
            if ev.triggered and ev.ok is False:
                self._done = True
                self.fail(ev.value)
                return
        if self._remaining == 0:
            self.succeed([ev.value for ev in self.events])
            return
        for ev in self.events:
            if not ev.triggered:
                ev.attach(self._on_child)

    def _on_child(self, ev: Event) -> None:
        if self._done:
            return
        if ev.ok is False:
            self._done = True
            self.fail(ev.value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self._done = True
            self.succeed([e.value for e in self.events])
