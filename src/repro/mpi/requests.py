"""Nonblocking request handles (MPI_Request analogue)."""

from __future__ import annotations

from typing import Generator, Optional

from ..sim import Event
from .envelope import Message


class Request:
    """Base class for isend/irecv handles."""

    def __init__(self, event: Event):
        self._event = event

    @property
    def complete(self) -> bool:
        return self._event.triggered

    def test(self) -> bool:
        """Nonblocking completion check."""
        return self._event.triggered

    def wait(self) -> Generator:
        """Generator: block until complete; returns the result."""
        value = yield self._event
        return self._finish(value)

    def result(self):
        """The result of a completed request (raises if pending)."""
        return self._finish(self._event.value)

    def _finish(self, value):
        return value


class SendRequest(Request):
    """Handle for a nonblocking send; completes when the sender-side
    costs are paid (buffered-send semantics, like a completed MPI_Isend
    into a system buffer)."""


class RecvRequest(Request):
    """Handle for a nonblocking receive; completes with a
    :class:`~repro.mpi.envelope.Message`."""

    def __init__(self, event: Event, translate):
        super().__init__(event)
        self._translate = translate

    def cancel(self) -> None:
        """Withdraw the receive if not yet matched."""
        self._event.cancel()

    def _finish(self, packet) -> Message:
        return self._translate(packet)


def waitall(requests) -> Generator:
    """Generator: wait for every request; returns their results in order."""
    results = []
    for req in requests:
        res = yield from req.wait()
        results.append(res)
    return results
