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

from typing import Any, Callable, List, Optional

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
    ``triggered`` reads False while the timeout is pending, like every
    other event that has not yet fired.

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
