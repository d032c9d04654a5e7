"""Per-rank message matching: posted receives and unexpected messages.

This mirrors how MPI implementations match incoming traffic:

* arriving packets first try the *posted-receive queue* (FIFO order of
  posting, first match wins),
* otherwise they land in the *unexpected-message queue*, which future
  receives scan before blocking,
* additionally, whole traffic classes ``(ctx, kind)`` can be *subscribed*
  to a :class:`~repro.sim.stores.Store` -- several classes to one store,
  in arrival order.  Each YGM mailbox steers its application and
  termination channels into one such inbox, so its progress loop is one
  receive that dispatches on the packet kind, independent of MPI-style
  matching.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Hashable, List, Optional, Tuple

from ..sim import Event, Simulator, Store
from .envelope import ANY_SOURCE, ANY_TAG, Packet


class PostedRecv(Event):
    """A posted receive; triggers with the matching :class:`Packet`."""

    __slots__ = ("ctx", "kind", "source", "tag", "_cancelled")

    def __init__(self, sim: Simulator, ctx: int, kind: str, source, tag):
        super().__init__(sim, name="posted_recv")
        self.ctx = ctx
        self.kind = kind
        self.source = source
        self.tag = tag
        self._cancelled = False

    def cancel(self) -> None:
        """Withdraw the receive if not yet matched (lazy removal)."""
        if not self.triggered:
            self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled


class Inbox:
    """The matching engine of a single rank."""

    def __init__(self, sim: Simulator, rank: int):
        self.sim = sim
        self.rank = rank
        self._posted: Deque[PostedRecv] = deque()
        self._unexpected: List[Packet] = []
        self._subscriptions: Dict[Tuple[int, str], Store] = {}
        #: Counters for diagnostics.
        self.delivered = 0
        self.unexpected_peak = 0

    # -- subscription ---------------------------------------------------------
    def subscribe(self, ctx: int, *kinds: str) -> Store:
        """Route every ``(ctx, kind)`` packet of ``kinds`` into one new store.

        Packets of a subscribed class never enter the posted/unexpected
        machinery.  Earlier arrivals of any listed class (a fast peer's
        traffic can beat this rank's subscription) are re-steered into
        the store in arrival order; unrelated packets stay unexpected.
        """
        store = Store(self.sim, name=f"inbox[{self.rank}]:{kinds}")
        for kind in kinds:
            self._subscriptions[(ctx, kind)] = store
        keep: List[Packet] = []
        for pkt in self._unexpected:
            if pkt.ctx == ctx and pkt.kind in kinds:
                store.put(pkt)
            else:
                keep.append(pkt)
        self._unexpected = keep
        return store

    # -- delivery (called by the machine transport) ------------------------------
    def deliver(self, packet: Packet) -> None:
        self.delivered += 1
        store = self._subscriptions.get((packet.ctx, packet.kind))
        if store is not None:
            store.put(packet)
            return
        for posted in self._posted:
            if posted.cancelled or posted.triggered:
                continue
            if packet.matches(posted.ctx, posted.kind, posted.source, posted.tag):
                posted.succeed(packet)
                self._posted.remove(posted)
                self._compact()
                return
        self._unexpected.append(packet)
        if len(self._unexpected) > self.unexpected_peak:
            self.unexpected_peak = len(self._unexpected)
        self._trace_unexpected_depth()

    # -- receiving -------------------------------------------------------------
    def post(self, ctx: int, kind: str, source, tag) -> PostedRecv:
        """Post a receive; triggers with the first matching packet."""
        ev = PostedRecv(self.sim, ctx, kind, source, tag)
        for i, pkt in enumerate(self._unexpected):
            if pkt.matches(ctx, kind, source, tag):
                del self._unexpected[i]
                ev.succeed(pkt)
                self._trace_unexpected_depth()
                return ev
        self._posted.append(ev)
        return ev

    def _trace_unexpected_depth(self) -> None:
        tracer = self.sim.tracer
        if tracer is not None and tracer.wants("mpi"):
            tracer.counter(
                self.sim.now, "mpi", "unexpected_depth", f"rank {self.rank}",
                len(self._unexpected),
            )

    def probe(self, ctx: int, kind: str, source=ANY_SOURCE, tag=ANY_TAG) -> Optional[Packet]:
        """Non-destructively find a matching unexpected packet."""
        for pkt in self._unexpected:
            if pkt.matches(ctx, kind, source, tag):
                return pkt
        return None

    def _compact(self) -> None:
        """Drop stale (cancelled/triggered) posted entries from the front."""
        while self._posted and (
            self._posted[0].cancelled or self._posted[0].triggered
        ):
            self._posted.popleft()

    @property
    def pending_unexpected(self) -> int:
        return len(self._unexpected)

    def subscribed_stores(self) -> Dict[Tuple[int, str], Store]:
        """Snapshot of the subscribed traffic-class stores (diagnostics;
        the invariant checker audits them for undrained packets).  One
        store may appear under several keys."""
        return dict(self._subscriptions)
