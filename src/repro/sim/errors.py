"""Exception types raised by the discrete-event simulation kernel."""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for all simulation kernel errors."""


class DeadlockError(SimulationError):
    """Raised by :meth:`Simulator.run` when no events remain but live
    processes are still blocked.

    A deadlock in the simulated world almost always indicates a protocol
    bug (e.g. a receive posted for a message that is never sent), so the
    kernel surfaces it loudly instead of returning silently.  ``detail``,
    when given, is appended to the message: ``World.run`` names the
    failed rank that left the others blocked there.
    """

    def __init__(self, blocked: int, now: float, detail: str = ""):
        self.blocked = blocked
        self.now = now
        super().__init__(
            f"simulation deadlocked at t={now!r}: event queue empty but "
            f"{blocked} process(es) still blocked" + (f" ({detail})" if detail else "")
        )


class EventStateError(SimulationError):
    """Raised when an event is succeeded/failed more than once, or its
    value is read before it has triggered."""


class ProcessError(SimulationError):
    """Wraps an exception that escaped a simulated process.

    The original exception is available as ``__cause__``.
    """
