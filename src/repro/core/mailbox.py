"""The YGM mailbox: the paper's central abstraction (Section IV).

A :class:`Mailbox` is created with a receive callback and a message
capacity.  User code queues messages with ``send`` / ``send_bcast`` (or
the vectorized ``send_many`` for arbitrary payloads and ``send_batch``
for fixed-width records); when the mailbox is full the rank enters
its *communication context* -- it flushes all coalescing buffers along the
routing scheme's next hops and processes every packet that has already
arrived (delivering to the callback, forwarding intermediary traffic) --
then drops back into computation, regardless of what other ranks are
doing.  ``wait_empty`` runs the termination-detection protocol until all
ranks are globally quiescent.

Conventions:

* ``send`` / ``send_many`` / ``send_batch`` / ``send_bcast`` post at
  once and return what the caller drives with ``yield from``: the
  communication context when the post filled the mailbox, else ``()``.
  They are plain functions, so no suspended frame of theirs keeps the
  caller's arguments, and a forgotten ``yield from`` still queues the
  message (it only skips the communication context);
* the other methods that can block or take simulated time
  (``flush``, ``progress``, ``wait_empty``, ``test_empty``) are
  generators -- drive them with ``yield from`` inside the rank program;
* receive callbacks are plain functions; to emit messages from inside a
  callback use the nonblocking ``post`` / ``post_many`` / ``post_batch``
  / ``post_bcast`` (the surrounding communication context flushes them);
* such a post lands behind the forwards of the packet's earlier entries
  and ahead of its own entry's: every point-to-point entry, record batch
  or scalar run, delivers what ends here and then queues its forwards
  (``_route``).

A posted record is held once: the mailbox copies it into its coalescing
buffers (the gather that groups a run by next hop), and the caller's
arrays are free as soon as the ``send*`` call returns.  Record batches
carry their destination column in the route table's key dtype
(``uint8`` up to 256 ranks, ``uint16`` up to 65,536) from the range
check to delivery; scalar runs keep ``int64`` destinations.

Scalar point-to-point messages have one representation between the send
call and the receive callback: struct-of-arrays runs
(:class:`~repro.core.coalescing.P2PColumns`) that ride coalescing
buffers, packets and routing intermediaries as NumPy columns and
materialise as Python values only at the handler boundary.  Scalar runs
and record batches are two payload formats under one routing rule: a
received packet's consecutive entries of one kind are routed in one
pass, and a posted run in a pass of its own.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, Iterable, List, Optional

import numpy as np

from ..mpi.envelope import HEADER_BYTES, Packet
from ..mpi.sizes import payload_nbytes, payload_nbytes_many
from ..serde import RecordSpec
from .coalescing import (
    BatchEntry,
    BcastEntry,
    CoalescingBuffer,
    P2PColumns,
)
from .config import MailboxConfig
from .stats import MailboxStats
from .termination import TerminationDetector


def _check_ranks(dests) -> None:
    """Raise TypeError naming the first non-integer rank of ``dests``
    (casting it to ``int64`` would deliver to a rank nobody named)."""
    given = dests.tolist() if isinstance(dests, np.ndarray) else list(dests)
    bad = next((d for d in given if not isinstance(d, (int, np.integer))), None)
    if bad is not None:
        raise TypeError(f"destination {bad!r} is not an integer rank")


class Mailbox:
    """An asynchronous mailbox over a routing scheme.

    Created through :meth:`repro.core.context.YgmContext.mailbox`; all
    ranks must create their mailboxes in the same order (like MPI
    communicator construction).
    """

    def __init__(
        self,
        ctx,  # YgmContext
        recv: Optional[Callable[[Any], None]] = None,
        recv_batch: Optional[Callable[[np.ndarray], None]] = None,
        recv_bcast: Optional[Callable[[Any], None]] = None,
        config: Optional[MailboxConfig] = None,
        mailbox_id: int = 0,
    ):
        if recv is None and recv_batch is None and recv_bcast is None:
            raise ValueError("a mailbox needs at least one receive callback")
        self.ctx = ctx
        self.comm = ctx.comm
        self.rank = ctx.rank
        self.scheme = ctx.scheme
        #: ``self._hops[dest]`` is the next hop of a scalar post.
        self._hops = self.scheme.hop_list(self.rank)
        self.config = config or MailboxConfig()
        self.recv = recv
        self.recv_batch = recv_batch
        self.recv_bcast = recv_bcast if recv_bcast is not None else recv
        self.stats = MailboxStats()

        self._app_kind = ("ygm", mailbox_id, "app")
        self._term_kind = ("ygm", mailbox_id, "term")
        #: The mailbox's one inbox: application and termination packets
        #: in arrival order (the paper's single receive loop).
        self._store = ctx.world.inboxes[ctx.world_rank].subscribe(
            self.comm.ctx, self._app_kind, self._term_kind
        )

        self._buffers: Dict[int, CoalescingBuffer] = {}
        #: The causal profiler (:mod:`repro.trace.profile`) when the
        #: installed tracer has ``profile=True``, else ``None``.  Read at
        #: injection (to allocate lineage ids), at flush (packet
        #: membership and time spans) and at delivery only to wrap the
        #: receive callback of a run whose entry carries lineage.
        tracer = ctx.sim.tracer
        self._prof = tracer.lineage if tracer is not None else None
        #: In-network combining algebra (``None`` = pure re-binning).
        self._combiner = self.config.combiner
        self._queued = 0  # messages across all buffers
        self._pending_handle_cost = 0.0
        self._lane = f"rank {ctx.world_rank}"  # trace lane label
        #: Completed quiescence epochs (wait_empty/test_empty returning done).
        self._epoch = 0
        self._term = TerminationDetector(
            rank=self.rank,
            size=self.comm.size,
            get_counts=lambda: (self.stats.entries_sent, self.stats.entries_received),
            send=self._send_term,
        )

    # ------------------------------------------------------------------ sends
    def post(self, dest: int, payload: Any, nbytes: Optional[int] = None) -> None:
        """Queue a point-to-point message without entering communication.

        Safe to call from receive callbacks.  Messages to self are
        delivered immediately (they never touch the transport).
        """
        if not 0 <= dest < self.comm.size:
            raise ValueError(f"destination {dest} out of range [0, {self.comm.size})")
        try:
            hop = self._hops[dest]
        except TypeError:
            raise TypeError(f"destination {dest!r} is not an integer rank") from None
        self.stats.app_messages_sent += 1
        prof = self._prof
        if dest == self.rank:
            recv = self.recv
            if recv is None:
                raise RuntimeError("mailbox has no scalar receive callback")
            self.stats.app_messages_delivered += 1
            self._pending_handle_cost += (
                self.ctx.machine.config.compute.per_message_handle
            )
            if prof is not None:
                now = self.ctx.sim.now
                lid = prof.new_message(self.rank, dest, now)
                recv = prof.handler(recv, [lid], self.rank, now)
            recv(payload)
            return
        size = payload_nbytes(payload, nbytes)
        lid = None
        if prof is not None:
            t = self.ctx.sim.now
            lid = prof.new_message(self.rank, dest, t)
            prof.enqueue(lid, self.rank, hop, t)
        # The message joins the buffer's open columnar run; no
        # per-message entry object exists.
        self._buffer_for(hop).add_p2p(dest, payload, size, lid)
        self._queued += 1

    def send(self, dest: int, payload: Any, nbytes: Optional[int] = None) -> Iterable:
        """Queue a message; returns the communication context if that
        filled the mailbox, else ``()`` (drive it with ``yield from``)."""
        self.post(dest, payload, nbytes=nbytes)
        return self._communicate() if self._queued >= self.config.capacity else ()

    def post_many(
        self,
        dests,
        payloads,
        nbytes=None,
    ) -> None:
        """Queue many scalar messages at once (a vectorized ``post``).

        ``dests[i]`` is the destination rank of ``payloads[i]`` (a
        sequence of arbitrary payload values); ``nbytes`` optionally
        supplies the wire sizes (one int for all, or a parallel array).
        Unlike ``post_batch`` this does not require fixed-width records:
        the payloads ride the pipeline as an object column and only
        materialise per message at the receive callback.  Self-addressed
        messages are delivered immediately, in index order, before the
        remainder is binned by next hop.
        """
        n = len(payloads)
        dests = self._dest_column(dests, n, "payloads")
        if dests is None:
            return
        self.stats.app_messages_sent += n
        sizes = payload_nbytes_many(payloads, nbytes)
        # ``fromiter`` with object dtype stores the caller's exact
        # objects (no str/array conversion) in one C loop.
        cols = np.fromiter(payloads, dtype=object, count=n)
        prof = self._prof
        lins = None if prof is None else prof.new_batch(self.rank, dests, self.ctx.sim.now)
        self._route([P2PColumns(dests, cols, sizes, lins)], at_injection=True)

    def send_many(self, dests, payloads, nbytes=None) -> Iterable:
        """Vectorized scalar send; returns what :meth:`send` returns."""
        self.post_many(dests, payloads, nbytes=nbytes)
        return self._communicate() if self._queued >= self.config.capacity else ()

    def post_bcast(self, payload: Any, nbytes: Optional[int] = None) -> None:
        """Queue a broadcast to every other rank (callback-safe)."""
        self.stats.bcasts_initiated += 1
        size = payload_nbytes(payload, nbytes)
        prof = self._prof
        for target in self.scheme.bcast_targets(self.rank, self.rank):
            lid = None
            if prof is not None:
                t = self.ctx.sim.now
                lid = prof.new_message(self.rank, target, t, kind="bcast")
                prof.enqueue(lid, self.rank, target, t)
            self._buffer_for(target).add(BcastEntry(self.rank, payload, size, lid))
            self._queued += 1

    def send_bcast(self, payload: Any, nbytes: Optional[int] = None) -> Iterable:
        """Broadcast to all other ranks (paper's SEND_BCAST); returns what
        :meth:`send` returns."""
        self.post_bcast(payload, nbytes=nbytes)
        return self._communicate() if self._queued >= self.config.capacity else ()

    def post_batch(self, dests: np.ndarray, batch: np.ndarray, spec: Optional[RecordSpec] = None) -> None:
        """Queue a batch of fixed-width records, binned by next hop.

        ``dests[i]`` is the destination rank of record ``batch[i]``.
        This is the vectorized fast path (cf. mpi4py's buffer methods):
        per-message Python overhead is eliminated and intermediaries
        re-bin with NumPy.  The range check runs in ``int64`` (a negative
        or too-large rank raises, never wraps); from there on the column
        has the route table's key dtype.
        """
        if spec is not None:
            spec.validate(batch)
        dests = self._dest_column(dests, len(batch), "batch")
        if dests is None:
            return
        dests = dests.astype(self.scheme._key_dtype)
        self.stats.app_messages_sent += len(dests)
        prof = self._prof
        lins = None if prof is None else prof.new_batch(self.rank, dests, self.ctx.sim.now)
        self._route([BatchEntry(dests, batch, lins)], at_injection=True)

    def send_batch(self, dests: np.ndarray, batch: np.ndarray, spec: Optional[RecordSpec] = None) -> Iterable:
        """Vectorized send; returns what :meth:`send` returns."""
        self.post_batch(dests, batch, spec=spec)
        return self._communicate() if self._queued >= self.config.capacity else ()

    # -------------------------------------------------------------- internals
    def _dest_column(self, dests, n: int, what: str) -> Optional[np.ndarray]:
        """``dests`` as an ``int64`` column of ``n`` ranks in range, or
        ``None`` when ``n`` is 0 (nothing to post).  The range check runs
        in ``int64``, so a negative or too-large rank raises, never wraps."""
        col = np.asarray(dests)
        if col.dtype.kind not in "iub" and col.size:
            _check_ranks(dests)
        col = col.astype(np.int64, copy=False)
        if col.shape != (n,):
            raise ValueError(f"dests {col.shape} and {what} ({n},) lengths differ")
        if n == 0:
            return None
        if col.min() < 0 or col.max() >= self.comm.size:
            raise ValueError(f"destination rank out of range [0, {self.comm.size})")
        return col

    def _buffer_for(self, hop: int) -> CoalescingBuffer:
        buf = self._buffers.get(hop)
        if buf is None:
            buf = CoalescingBuffer(hop)
            self._buffers[hop] = buf
        return buf

    def _route(self, run: List[Any], at_injection: bool = False) -> None:
        """One routing pass: deliver what ends here, queue the rest by hop.

        ``run`` is a received packet's run of consecutive entries of one
        kind, record batches or scalar runs (delivered as they are if
        every message ends here), or one run posted here; only a batch
        run meets the combiner.  One route-table read and one stable
        sort (:meth:`~repro.core.routing.base.RoutingScheme.bin_by_hop`)
        cut it at every ``(entry, hop)`` boundary; entry by entry, what
        ends here is delivered, then the forwards are queued, hop
        ascending, as a pass per entry would.  Each segment is gathered
        straight from its entry, every column alike: no record is copied
        twice, and no buffer entry keeps another's records alive (a
        received one-segment entry moves as it is).  Posted records
        (``at_injection``) are always copied and do not count toward
        ``stats.entries_forwarded``.
        """
        rank = self.rank
        batches = run[0].kind == "batch"
        if batches and self._combiner is not None:
            run = self._split_combined(run)
        deliver = self._deliver_batch if batches else self._deliver_p2p_run
        dests = run[0].dests if len(run) == 1 else np.concatenate([e.dests for e in run])
        if not at_injection and (dests == rank).all():
            for entry in run:
                deliver(entry)
            return
        counts = [e.count for e in run] if len(run) > 1 else None
        hops, order, starts, ends = self.scheme.bin_by_hop(rank, dests, counts)
        if order is None and at_injection:
            order = np.arange(len(dests))
        if order is not None and counts is not None:  # entry-local indices
            order = order - np.repeat(np.cumsum(counts) - counts, counts)
        segs = list(zip(starts.tolist(), ends.tolist(), hops[starts].tolist()))
        q = end = 0
        for entry in run:  # never empty: one segment or more each
            first = q
            end += entry.count
            while segs[q][1] < end:
                q += 1
            q += 1
            mine = segs[first:q]
            whole = len(mine) == 1 and not at_injection
            for s, e, hop in mine:
                if hop == rank:
                    deliver(entry if whole else entry.take(order[s:e]))
            for s, e, hop in mine:
                if hop != rank:
                    seg = entry if whole else entry.take(order[s:e])
                    if not at_injection:
                        self.stats.entries_forwarded += seg.count
                    if seg.lins is not None:
                        self._prof.enqueue_batch(seg.lins, rank, hop, self.ctx.sim.now)
                    self._buffer_for(hop).add(seg)
                    self._queued += seg.count

    def _split_combined(self, run: List[BatchEntry]) -> List[BatchEntry]:
        """Cut each entry of a combining mailbox's run in two: what ends
        here, untouched, then its forwards, :meth:`_combined`."""
        out = []
        for entry in run:
            here = entry.dests == self.rank
            if not here.all():
                if here.any():
                    out.append(entry.take(here))
                    entry = entry.take(~here)
                entry = self._combined(entry)
            out.append(entry)
        return out

    def _combined(self, entry: BatchEntry) -> BatchEntry:
        """``entry`` with equal-``(dest, key)`` records collapsed, at
        injection and at every forwarding hop, before they are counted as
        forwarded or queued (in-network combining).  Merged-away records
        end their lineage at this rank, tallied in ``entries_combined``."""
        *cols, eliminated = self._combiner.combine(entry.dests, entry.batch, entry.lins)
        if not eliminated:
            return entry
        self.stats.entries_combined += eliminated
        return BatchEntry(*cols)

    def _communicate(self) -> Generator:
        """The communication context a full mailbox enters: flush every
        buffer, then process what has arrived."""
        yield from self.flush()
        yield from self.progress()

    # --------------------------------------------------------------- flushing
    @property
    def queued(self) -> int:
        """Messages currently buffered (not yet flushed)."""
        return self._queued

    @property
    def has_incoming(self) -> bool:
        """Whether any packet -- application or termination -- is waiting."""
        return len(self._store) > 0

    def flush(self) -> Generator:
        """Send every nonempty coalescing buffer along its next hop."""
        if self._queued == 0:
            return
        tracer = self.ctx.sim.tracer
        trace = tracer is not None and tracer.wants("mailbox")
        started = self.ctx.sim.now
        messages = self._queued
        self.stats.flushes += 1
        compute = self.ctx.machine.config.compute
        prof = self._prof
        # Per-message packing cost, charged in bulk.
        pack_cost = self._queued * compute.per_message_queue
        if pack_cost > 0:
            yield self.ctx.sim.timeout(pack_cost)
            if prof is not None:
                prof.span(self.ctx.world_rank, "serialize", started, self.ctx.sim.now)
        # Deterministic hop order.
        packets = 0
        for hop in sorted(self._buffers):
            buf = self._buffers[hop]
            if not buf:
                continue
            entries, nbytes, count = buf.take()
            self._queued -= count
            if self._combiner is not None and len(entries) > 1:
                entries, nbytes, count = self._merge_batch_entries(
                    entries, nbytes, count
                )
            packets += 1
            yield from self._send_packet(hop, entries, nbytes, count, pack_cost)
        if trace:
            tracer.complete(
                started, self.ctx.sim.now - started, "mailbox", "flush",
                self._lane, messages=messages, packets=packets,
            )

    def _merge_batch_entries(self, entries: List[Any], nbytes: int, count: int):
        """Combine across a buffer's batch entries at flush time.

        Records binned by *separate* ``post_batch`` calls (or separate
        forwarded packets) land in separate :class:`BatchEntry` chunks of
        the same coalescing buffer; per-chunk combining in
        :meth:`_split_combined` cannot see across them.  One more combining
        pass over the whole buffer catches those duplicates just before
        the packet goes out.  Only applies when every entry is a batch
        chunk of one record dtype (the invariable case for a combined
        mailbox); the post-merge ``(entries, nbytes, count)`` keep
        ``entries_sent == entries_received`` balanced because
        :meth:`_send_packet` sees only the merged view.
        """
        first = entries[0]
        if any(e.kind != "batch" or e.batch.dtype != first.batch.dtype for e in entries):
            return entries, nbytes, count
        merged = self._combined(BatchEntry.concat(entries))
        if merged.count == count:
            return entries, nbytes, count
        return [merged], merged.wire_bytes, merged.count

    def _send_packet(
        self, hop: int, entries: List[Any], nbytes: int, count: int,
        serialize: float = 0.0,
    ) -> Generator:
        self.stats.entries_sent += count
        dst_w = self.comm.world_rank_of(hop)
        local = self.ctx.machine.same_node(self.ctx.world_rank, dst_w)
        if local:
            self.stats.local_packets_sent += 1
            self.stats.local_bytes_sent += nbytes
        else:
            self.stats.remote_packets_sent += 1
            self.stats.remote_bytes_sent += nbytes
        prof = self._prof
        pid = None
        if prof is not None:
            pid = prof.packet_out(
                self.ctx.world_rank, dst_w, nbytes + HEADER_BYTES, count,
                self.ctx.sim.now, serialize, entries,
            )
        if local and self.scheme.free_local_hops:
            # Hybrid MPI+threads model (Section VII): on-node hand-off is a
            # pointer exchange -- no copy cost, immediate delivery.
            pkt = Packet(
                src=self.ctx.world_rank, dst=dst_w, ctx=self.comm.ctx,
                kind=self._app_kind, tag=0, payload=entries,
                nbytes=nbytes + HEADER_BYTES, lin=pid,
            )
            if pid is not None:
                prof.packet_free_local(pid, self.ctx.sim.now)
            self.ctx.world.inboxes[dst_w].deliver(pkt)
            return
        t0 = None if pid is None else self.ctx.sim.now
        yield from self.comm.send(
            hop, entries, tag=0, nbytes=nbytes, kind=self._app_kind, lin=pid
        )
        if pid is not None:
            prof.span(self.ctx.world_rank, "nic", t0, self.ctx.sim.now)

    # -------------------------------------------------------------- receiving
    def progress(self) -> Generator:
        """Process all already-arrived packets; returns application packets
        handled.

        Termination packets only update the detector's cache, so they do
        not count: the detector advances only after a pass that handled
        no application traffic.

        Forwarded (intermediary) traffic generated while processing is
        flushed before returning, so a rank sitting in its communication
        context keeps the routes moving.
        """
        handled = 0
        store = self._store
        term_kind = self._term_kind
        while True:
            pkt = store.try_get()
            if pkt is None:
                break
            if pkt.kind == term_kind:
                self._term.on_packet(pkt.tag, pkt.payload)
                continue
            yield from self._handle_packet(pkt)
            handled += 1
        if handled and self._queued:
            # Forwarding may have enqueued follow-on packets.
            yield from self.flush()
        if self._pending_handle_cost > 0:
            yield from self._charge_pending_handles()
        return handled

    def _handle_packet(self, pkt: Packet) -> Generator:
        forwarded_before = self.stats.entries_forwarded
        stats = self.stats
        rank = self.rank
        prof = self._prof
        run = []  # consecutive point-to-point entries of one kind
        for entry in pkt.payload:
            kind = entry.kind
            if kind != "bcast":
                if run and run[0].kind != kind:
                    self._route(run)
                    run = []
                stats.entries_received += entry.count
                run.append(entry)
                continue
            if run:
                self._route(run)
                run = []
            stats.entries_received += 1
            self._deliver_bcast(entry)
            for target in self.scheme.bcast_targets(rank, entry.origin):
                child = None
                if prof is not None:
                    t = self.ctx.sim.now
                    child = prof.new_message(
                        rank, target, t, kind="bcast", parent=entry.lin
                    )
                    prof.enqueue(child, rank, target, t)
                self._buffer_for(target).add(
                    BcastEntry(entry.origin, entry.payload, entry.nbytes, child)
                )
                self._queued += 1
                stats.entries_forwarded += 1
        if run:
            self._route(run)
        forwarded = self.stats.entries_forwarded - forwarded_before
        if forwarded:
            tracer = self.ctx.sim.tracer
            if tracer is not None and tracer.wants("mailbox"):
                tracer.instant(
                    self.ctx.sim.now, "mailbox", "forward", self._lane,
                    entries=forwarded,
                )
        if self._pending_handle_cost > 0:
            yield from self._charge_pending_handles()

    def _deliver_p2p_run(self, run: P2PColumns) -> None:
        """Deliver a columnar run of scalar messages (handler boundary).

        Stats and handler cost accrue in bulk; the receive callback still
        runs once per message -- this is where the columns materialise
        back into Python values.  A profiled run wraps the callback once
        (:meth:`~repro.trace.profile.LineageProfiler.handler`).
        """
        recv = self.recv
        if recv is None:
            raise RuntimeError("mailbox has no scalar receive callback")
        n = run.count
        self.stats.app_messages_delivered += n
        self._pending_handle_cost += (
            n * self.ctx.machine.config.compute.per_message_handle
        )
        if run.lins is not None:
            recv = self._prof.handler(recv, run.lins, self.rank, self.ctx.sim.now)
        # ``tolist`` hands back the column's objects unchanged; looping a
        # plain list beats per-element ndarray indexing.
        for payload in run.payloads.tolist():
            recv(payload)

    def _deliver_batch(self, entry: BatchEntry) -> None:
        """Deliver a batch of records to ``recv_batch`` in one call, or
        record by record to ``recv`` when there is no batch callback."""
        recv = self.recv_batch
        if recv is None:
            if self.recv is None:
                raise RuntimeError("mailbox has no batch receive callback")
            recv = self._recv_each
        n = entry.count
        self.stats.app_messages_delivered += n
        self._pending_handle_cost += (
            n * self.ctx.machine.config.compute.per_message_handle
        )
        if entry.lins is not None:
            recv = self._prof.batch_handler(
                recv, entry.lins, self.rank, self.ctx.sim.now
            )
        recv(entry.batch)

    def _recv_each(self, batch: np.ndarray) -> None:
        """The per-record fallback of a mailbox with no batch callback."""
        recv = self.recv
        for item in batch:
            recv(item)

    def _deliver_bcast(self, entry: BcastEntry) -> None:
        recv = self.recv_bcast
        if recv is None:
            raise RuntimeError("mailbox has no broadcast receive callback")
        self.stats.bcast_deliveries += 1
        self._pending_handle_cost += self.ctx.machine.config.compute.per_message_handle
        if entry.lin is not None:
            recv = self._prof.handler(recv, [entry.lin], self.rank, self.ctx.sim.now)
        recv(entry.payload)

    def _charge_pending_handles(self) -> Generator:
        """Charge the handler cost accrued since the last charge.  Callers
        test ``_pending_handle_cost > 0`` first: most calls on the idle
        path would find nothing to charge."""
        cost, self._pending_handle_cost = self._pending_handle_cost, 0.0
        t0 = self.ctx.sim.now
        yield self.ctx.sim.timeout(cost)
        if self._prof is not None:
            self._prof.span(self.ctx.world_rank, "handler", t0, self.ctx.sim.now)

    # ------------------------------------------------------------ termination
    def _send_term(self, dest: int, payload, tag) -> Generator:
        yield from self.comm.send(dest, payload, tag=tag, kind=self._term_kind)

    def _advance_term(self) -> Generator:
        """Drive the detector; trace any rounds completed by this call."""
        rounds_before = self._term.rounds_completed
        t0 = self.ctx.sim.now
        progressed = yield from self._term.advance()
        if self._prof is not None:
            self._prof.span(self.ctx.world_rank, "term", t0, self.ctx.sim.now)
        completed = self._term.rounds_completed - rounds_before
        if completed:
            tracer = self.ctx.sim.tracer
            if tracer is not None and tracer.wants("mailbox"):
                tracer.instant(
                    self.ctx.sim.now, "mailbox", "term_round", self._lane,
                    completed=completed, epoch_rounds=self._term.rounds_completed,
                )
        return progressed

    def wait_empty(self) -> Generator:
        """Block until global quiescence (paper's WAIT_EMPTY).

        Flushes everything, keeps processing and forwarding application
        traffic, and participates in termination-detection rounds until
        the protocol declares the whole job quiescent.
        """
        if self._term.done:
            self._term.reset()
        while True:
            if self._queued:
                yield from self.flush()
            handled = yield from self.progress()
            if handled or self._queued:
                continue
            progressed = yield from self._advance_term()
            if self._term.done:
                self.stats.term_rounds += self._term.rounds_completed
                self._trace_quiescent()
                return
            if progressed:
                continue
            yield from self._wait_any_traffic()

    def test_empty(self) -> Generator:
        """Nonblocking completion poll (paper's TEST_EMPTY).

        Flushes, processes available traffic, advances the termination
        protocol as far as possible without waiting, and returns whether
        global quiescence has been detected.  Like :meth:`wait_empty`,
        a call after a completed epoch re-arms the detector and begins a
        fresh quiescence epoch.
        """
        if self._term.done:
            self._term.reset()
        if self._queued:
            yield from self.flush()
        yield from self.progress()
        yield from self._advance_term()
        if self._term.done:
            self.stats.term_rounds += self._term.rounds_completed
            self._trace_quiescent()
        return self._term.done

    @property
    def term_totals(self):
        """Agreed global ``(sent, received)`` of the last quiescence epoch."""
        return self._term.last_totals

    def _trace_quiescent(self) -> None:
        """Record the completion of a quiescence epoch.

        ``term_sent``/``term_received`` are the *protocol's* agreed
        global totals (identical on every rank of the epoch, unlike the
        raw per-rank counters, which keep moving as soon as any rank
        exits the epoch and starts the next phase).
        :class:`repro.check.InvariantChecker` uses the snapshot to prove
        the termination detector never declared quiet while messages
        were still queued or in flight.
        """
        self._epoch += 1
        tracer = self.ctx.sim.tracer
        if tracer is not None and tracer.wants("mailbox"):
            totals = self._term.last_totals or (0, 0)
            tracer.instant(
                self.ctx.sim.now, "mailbox", "quiescent", self._lane,
                mailbox=self._app_kind[1],
                epoch=self._epoch,
                rank=self.rank,
                size=self.comm.size,
                term_sent=totals[0],
                term_received=totals[1],
                entries_sent=self.stats.entries_sent,
                entries_received=self.stats.entries_received,
                queued=self._queued,
            )

    def _wait_any_traffic(self) -> Generator:
        blocked_at = self.ctx.sim.now
        pkt = yield self._store.get()
        idle = self.ctx.sim.now - blocked_at
        self.stats.idle_time += idle
        if self._prof is not None:
            self._prof.span(self.ctx.world_rank, "idle", blocked_at, self.ctx.sim.now)
        tracer = self.ctx.sim.tracer
        if tracer is not None and tracer.wants("mailbox"):
            tracer.complete(blocked_at, idle, "mailbox", "idle", self._lane)
        if pkt.kind == self._term_kind:
            self._term.on_packet(pkt.tag, pkt.payload)
        else:
            yield from self._handle_packet(pkt)
