"""Distributed termination detection (paper Section IV-B).

YGM terminates a ``wait_empty`` when *all* ranks have finished producing
messages and every in-flight message has been received.  We implement the
standard double-counting protocol the production YGM uses (asynchronous
global counting rounds):

* every rank tracks transport-level ``(entries_sent, entries_received)``,
* rounds of a tree-based global sum run over a dedicated traffic class,
* the root declares termination when the global sums are **equal and
  unchanged across two consecutive rounds** -- one equal round is not
  sufficient because counter reports are not causally synchronized.

The detector is a resumable state machine (not a blocking collective):
``advance()`` makes whatever progress the already-arrived protocol
messages allow and returns.  The mailbox keeps processing *application*
traffic between advances, so ranks acting as routing intermediaries keep
forwarding while the protocol converges -- the "pseudo-asynchronous"
behaviour the paper describes.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Optional, Tuple

Counts = Tuple[int, int]

# Phases of the per-round state machine.
IDLE = "idle"
COLLECTING = "collecting"
WAIT_RESULT = "wait_result"


def binomial_children(rank: int, size: int) -> List[int]:
    """Children of ``rank`` in the binomial tree rooted at 0."""
    children = []
    mask = 1
    while mask < size:
        if rank & mask:
            break
        child = rank | mask
        if child < size:
            children.append(child)
        mask <<= 1
    return children


def binomial_parent(rank: int) -> Optional[int]:
    """Parent of ``rank`` (None for the root)."""
    if rank == 0:
        return None
    return rank & (rank - 1)


class TerminationDetector:
    """Counting termination detection over a mailbox's TERM channel.

    Parameters
    ----------
    comm:
        The communicator used for protocol messages.
    kind:
        Traffic-class key isolating this mailbox's protocol packets.
    get_counts:
        Callable returning this rank's current ``(sent, received)``
        transport-entry counters.
    send:
        ``send(dest, payload, tag)`` generator factory (the mailbox wires
        this to ``comm.send(..., kind=kind)``).
    """

    def __init__(
        self,
        rank: int,
        size: int,
        get_counts: Callable[[], Counts],
        send: Callable,
    ):
        self.rank = rank
        self.size = size
        self.get_counts = get_counts
        self._send = send
        self.children = binomial_children(rank, size)
        self.parent = binomial_parent(rank)
        self.round = 0
        self.phase = IDLE
        self.done = False
        self.rounds_completed = 0
        #: Global ``(sent, received)`` totals of the last completed round.
        #: After ``done``, this is the protocol's agreed-on quiescence
        #: snapshot -- identical on every rank, unlike the raw per-rank
        #: counters which keep moving as soon as a rank exits its epoch.
        #: The invariant checker (:mod:`repro.check`) audits it.
        self.last_totals: Optional[Counts] = None
        #: This rank's *own* ``(sent, received)`` sample from the round
        #: that produced :attr:`last_totals` -- before children were
        #: merged in.  Unlike ``last_totals`` (a global total, identical
        #: on every rank, so summing it across ranks or partitions
        #: overcounts), contributions are partition-composable by
        #: construction: the sum of ``last_contribution`` over all ranks
        #: equals ``last_totals`` exactly, because the agreed totals were
        #: computed from precisely these samples.
        self.last_contribution: Optional[Counts] = None
        self._own: Counts = (0, 0)
        self._partial: Counts = (0, 0)
        self._prev_totals: Optional[Counts] = None
        #: Arrived protocol messages keyed by tag.
        self._cache: Dict[tuple, object] = {}

    # -- incoming protocol traffic (fed by the mailbox) ------------------------
    def on_packet(self, tag: tuple, payload) -> None:
        self._cache[tag] = payload

    # -- the state machine -------------------------------------------------------
    def advance(self) -> Generator:
        """Make all currently-possible progress; returns True if any
        state transition happened (generator -- drive with yield from)."""
        progressed = False
        while not self.done:
            step = yield from self._step()
            if not step:
                return progressed
            progressed = True
        return progressed

    def _step(self) -> Generator:
        if self.done:
            return False
        if self.phase == IDLE:
            self.phase = COLLECTING
            return True
        if self.phase == COLLECTING:
            result = yield from self._try_collect()
            return result
        if self.phase == WAIT_RESULT:
            result = yield from self._try_result()
            return result
        raise AssertionError(f"bad phase {self.phase}")
        yield  # pragma: no cover -- keeps this a generator

    def _try_collect(self) -> Generator:
        """Fire once every child's round contribution has arrived."""
        tags = [("r", self.round, child) for child in self.children]
        if not all(t in self._cache for t in tags):
            return False
        sent, recv = self.get_counts()
        self._own = (sent, recv)
        for t in tags:
            c_sent, c_recv = self._cache.pop(t)
            sent += c_sent
            recv += c_recv
        self._partial = (sent, recv)
        if self.parent is not None:
            yield from self._send(self.parent, self._partial, ("r", self.round, self.rank))
            self.phase = WAIT_RESULT
        else:
            # Root: evaluate and broadcast the verdict.
            totals = self._partial
            done = totals[0] == totals[1] and totals == self._prev_totals
            self._prev_totals = totals
            yield from self._broadcast_result((done, totals))
            self._finish_round(done)
        return True

    def _try_result(self) -> Generator:
        tag = ("b", self.round)
        if tag not in self._cache:
            return False
        done, totals = self._cache.pop(tag)
        self._prev_totals = totals
        yield from self._broadcast_result((done, totals))
        self._finish_round(done)
        return True

    def _broadcast_result(self, result) -> Generator:
        for child in self.children:
            yield from self._send(child, result, ("b", self.round))

    def _finish_round(self, done: bool) -> None:
        self.rounds_completed += 1
        self.last_totals = self._prev_totals
        self.last_contribution = self._own
        if done:
            self.done = True
        else:
            self.round += 1
            self.phase = IDLE

    def reset(self) -> None:
        """Re-arm the detector for a subsequent quiescence epoch.

        ``rounds_completed`` is cleared so it always reads as *this
        epoch's* round count; the mailbox accumulates the per-epoch
        values into ``MailboxStats.term_rounds`` at epoch completion.
        """
        if not self.done:
            raise RuntimeError("cannot reset a detector mid-protocol")
        self.done = False
        self.round += 1  # keep tags globally unique across epochs
        self.phase = IDLE
        self.rounds_completed = 0
        self._prev_totals = None
