"""Reference per-entry re-binning: ``Mailbox._bin_batch`` and ``_bin_by_hop``, frozen.

These are the mailbox's binning methods as they stood when a received
packet was routed one :class:`~repro.core.coalescing.BatchEntry` at a
time: each entry paid its own terminal compare, its own ``take``s and
its own ``bin_by_hop``.  ``tests/core/test_bin_once_per_packet.py``
holds the one-pass-per-packet product path to them: same buffer
entries, same deliveries, same counters, same profiler rows.  Only the
``self`` receiver became the explicit ``mb`` argument; the mailbox's
delivery, buffer and stats members they use are the product's own.
"""

from __future__ import annotations

import numpy as np

from repro.core.coalescing import BatchEntry


def bin_batch(mb, entry: BatchEntry, at_injection: bool) -> None:
    """Deliver self-addressed records, bin the rest by next hop.

    ``at_injection`` distinguishes freshly posted batches from batches
    re-binned at a routing intermediary: only the latter count toward
    ``stats.entries_forwarded``.  With a combiner, equal-``(dest, key)``
    records collapse before they are counted as forwarded or queued.
    """
    here = entry.dests == mb.rank
    if not at_injection and here.all():
        # Terminal hop for a whole received batch: the packet owns its
        # columns, so deliver them as they are (no masked copies).
        mb._deliver_batch(entry)
        return
    if here.any():
        mb._deliver_batch(entry.take(here))
        entry = entry.take(~here)
        if entry.count == 0:
            return
    comb = mb._combiner
    if comb is not None and entry.count > 1:
        dests, batch, lins, eliminated = comb.combine(
            entry.dests, entry.batch, entry.lins
        )
        if eliminated:
            mb.stats.entries_combined += eliminated
            entry = BatchEntry(dests, batch, lins)
    bin_by_hop(mb, entry, at_injection)


def bin_by_hop(mb, run, at_injection: bool) -> None:
    """Queue a run of messages, one entry per next hop."""
    if not at_injection:
        mb.stats.entries_forwarded += run.count
    hops, order, starts, ends = mb.scheme.bin_by_hop(mb.rank, run.dests)
    if order is None and at_injection:
        # One hop for the whole run: no gather would copy, so gather
        # anyway -- the caller may reuse its arrays after the send.
        order = np.arange(run.count)
    if order is not None:
        run = run.take(order)
    prof = mb._prof
    for s, e in zip(starts.tolist(), ends.tolist()):
        hop = int(hops[s])
        seg = run.take(slice(s, e))
        if seg.lins is not None:
            prof.enqueue_batch(seg.lins, mb.rank, hop, mb.ctx.sim.now)
        mb._buffer_for(hop).add(seg)
        mb._queued += e - s

