"""Tests for the coalescing buffer's entry lists across flushes."""

from repro.core.coalescing import BcastEntry, CoalescingBuffer


def _entry(origin=0, nbytes=4):
    return BcastEntry(origin, payload=None, nbytes=nbytes)


def test_buffer_without_pool_allocates_fresh_lists():
    buf = CoalescingBuffer(hop=0)
    buf.add(_entry())
    entries, _, _ = buf.take()
    assert entries and buf.entries == [] and buf.entries is not entries


def test_take_cycles_preserve_entry_order():
    # Every take hands over its own list: a flushed packet's entries are
    # never shared with, or changed by, a later flush.
    buf = CoalescingBuffer(hop=1)
    taken = []
    for round_no in range(10):
        for i in range(round_no + 1):
            buf.add(_entry(origin=i))
        entries, nbytes, count = buf.take()
        assert count == round_no + 1
        assert nbytes == sum(e.wire_bytes for e in entries)
        assert buf.nbytes == 0 and buf.count == 0
        taken.append(entries)
    assert len({id(entries) for entries in taken}) == len(taken)
    assert [[e.origin for e in entries] for entries in taken] == [
        list(range(n + 1)) for n in range(10)
    ]
