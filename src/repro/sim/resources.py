"""The FIFO server used to model contended hardware.

A :class:`Resource` is a single-slot server with a FIFO wait queue.  Each
node's NIC TX and RX engine is one: holding it for ``nic_gap + bytes /
wire_rate`` seconds is how transmission serialization (and hence
congestion at hot nodes) arises in the simulation.

**Push-instant contract.**  One hold is one kernel event, its completion.
Sequence numbers (and the PDES push-time key) are taken when an event is
*pushed*, so the completion is pushed when the hold is *granted*: at once
on an idle server, else from inside the predecessor's completion, before
the predecessor's own callbacks run.  Pushing at request time (``grant =
max(now, busy_until)``) keeps every timestamp and counter but, when two
servers free at the same float instant, completes their waiters in request
order, not grant order.  That arithmetic is the oracle in
``tests/machine/test_nic_closed_form.py``, not the implementation.
"""

from __future__ import annotations

from collections import deque

from .events import Event


class _Hold(Event):
    """The completion event of one :meth:`Resource.hold`."""

    __slots__ = ("resource", "duration", "requested", "granted")

    def __init__(self, resource: "Resource", duration: float):
        super().__init__(resource.sim, "hold")
        self.resource = resource
        self.duration = duration
        self.requested = self.granted = self.sim._now

    def _process(self) -> None:
        self._value = None
        self._ok = True
        self.resource._complete(self)  # before the holder's callbacks
        super()._process()


class Resource:
    """A single-slot FIFO server (contract: module docstring)."""

    def __init__(self, sim: "Simulator", name: str = ""):  # noqa: F821
        self.sim = sim
        self.name = name
        #: 1 while a hold is in service, else 0.
        self.in_use = 0
        self._waiters = deque()  # of _Hold, oldest first
        #: Total simulated seconds of holds completed (utilisation metric).
        self.busy_time = 0.0
        #: Number of completed holds.
        self.holds = 0

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def hold(self, duration: float) -> Event:
        """Occupy the server for ``duration`` seconds, after earlier holds.

        Returns the completion event (the hold's only kernel event): a
        process yields it, any other caller appends a callback.
        """
        if duration < 0:
            raise ValueError(f"negative hold duration: {duration}")
        hold = _Hold(self, duration)
        if self.in_use:
            self._waiters.append(hold)
            self._trace_queue_depth()
        else:
            self.in_use = 1
            self.sim._enqueue(hold, duration)
        return hold

    def _complete(self, hold: _Hold) -> None:
        """Account a finished hold and grant the oldest waiter, if any."""
        sim = self.sim
        self.busy_time += hold.duration
        self.holds += 1
        tracer = sim.tracer
        trace = tracer is not None and tracer.wants("resource")
        if self._waiters:
            # Hand the slot directly to the next waiter (in_use unchanged).
            nxt = self._waiters.popleft()
            nxt.granted = now = sim._now
            sim._enqueue(nxt, nxt.duration)
            if trace:
                self._trace_queue_depth()
                if now > nxt.requested:
                    tracer.complete(
                        nxt.requested, now - nxt.requested, "resource", "wait",
                        self.name,
                    )
        else:
            self.in_use = 0
        if trace:
            tracer.complete(
                hold.granted, sim._now - hold.granted, "resource", "hold",
                self.name,
            )

    def _trace_queue_depth(self) -> None:
        tracer = self.sim.tracer
        if tracer is not None and tracer.wants("resource"):
            tracer.counter(
                self.sim.now, "resource", "queue_depth", self.name,
                len(self._waiters),
            )
