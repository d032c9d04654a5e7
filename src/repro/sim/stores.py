"""FIFO message stores with blocking gets.

:class:`Store` is the rendezvous point between simulated message delivery
and blocked receivers.  Puts never block (stores are unbounded -- flow
control in the simulated network is modelled with
:class:`~repro.sim.resources.Resource` holds, not store capacity).  Gets
block until an item is available and cannot be withdrawn: a process that
waits for "either an application message or a termination-protocol
message" subscribes both classes to one store and waits on one get
(:meth:`repro.mpi.matching.Inbox.subscribe`).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from .events import _PENDING, Event


class StoreGet(Event):
    """A pending get on a :class:`Store`."""

    __slots__ = ("store",)

    def __init__(self, store: "Store"):
        # Gets are allocated on every receive poll; write the slots
        # directly and compute the debug name lazily.
        self.sim = store.sim
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._processed = False
        self.store = store

    @property
    def name(self) -> str:  # shadows the base slot; computed on demand
        return f"get:{self.store.name}"


class Store:
    """An unbounded FIFO queue of items with blocking gets."""

    def __init__(self, sim: "Simulator", name: str = ""):  # noqa: F821
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Enqueue ``item``; wakes the oldest getter, if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> StoreGet:
        """Return an event that triggers with the next available item."""
        ev = StoreGet(self)
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> Optional[Any]:
        """Non-blocking get: the next item, or ``None`` if empty."""
        if self._items:
            return self._items.popleft()
        return None
