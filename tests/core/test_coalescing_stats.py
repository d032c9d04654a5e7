"""Unit tests for coalescing buffers and mailbox statistics."""

import numpy as np
import pytest

from repro.core import ENTRY_HEADER_BYTES, MailboxStats, aggregate
from repro.core.coalescing import BatchEntry, BcastEntry, CoalescingBuffer
from repro.core.config import MailboxConfig


# ---------------------------------------------------------------- entries
def test_bcast_entry_accounting():
    e = BcastEntry(origin=1, payload=b"abc", nbytes=3)
    assert e.count == 1
    assert e.wire_bytes == 3 + ENTRY_HEADER_BYTES
    assert e.kind == "bcast"


def test_batch_entry_accounting():
    batch = np.zeros(5, dtype=[("v", "u8")])
    dests = np.arange(5, dtype=np.int64)
    e = BatchEntry(dests, batch)
    assert e.count == 5
    assert e.wire_bytes == 5 * (8 + ENTRY_HEADER_BYTES)
    assert e.kind == "batch"


def test_batch_entry_length_mismatch():
    with pytest.raises(ValueError):
        BatchEntry(np.arange(3), np.zeros(4, dtype=[("v", "u8")]))


# ---------------------------------------------------------------- buffer
def test_buffer_accumulates_and_takes():
    buf = CoalescingBuffer(hop=7)
    buf.add(BcastEntry(1, "a", 4))
    buf.add(BcastEntry(2, "b", 6))
    assert len(buf) == 2
    assert bool(buf)
    entries, nbytes, count = buf.take()
    assert count == 2
    assert nbytes == 4 + 6 + 2 * ENTRY_HEADER_BYTES
    assert len(entries) == 2
    assert len(buf) == 0
    assert not buf


def test_buffer_mixed_entry_kinds():
    buf = CoalescingBuffer(hop=0)
    buf.add_p2p(1, "a", 4)
    batch = np.zeros(3, dtype=[("v", "u4")])
    buf.add(BatchEntry(np.arange(3, dtype=np.int64), batch))
    buf.add(BcastEntry(0, "b", 2))
    assert len(buf) == 5  # 1 + 3 + 1 messages
    _, nbytes, count = buf.take()
    assert count == 5
    assert nbytes == (4 + 8) + 3 * (4 + 8) + (2 + 8)


# ----------------------------------------------------------------- stats
def test_stats_merge_and_aggregate():
    a = MailboxStats(app_messages_sent=3, remote_bytes_sent=100, remote_packets_sent=2)
    b = MailboxStats(app_messages_sent=4, remote_bytes_sent=50, remote_packets_sent=1)
    merged = a.merge(b)
    assert merged.app_messages_sent == 7
    assert merged.remote_bytes_sent == 150
    total = aggregate([a, b, MailboxStats()])
    assert total.app_messages_sent == 7
    assert total.remote_packets_sent == 3


def test_stats_avg_remote_packet():
    s = MailboxStats(remote_packets_sent=4, remote_bytes_sent=1000)
    assert s.avg_remote_packet_bytes == 250.0
    assert MailboxStats().avg_remote_packet_bytes == 0.0


def test_stats_as_dict_roundtrip():
    s = MailboxStats(flushes=9)
    d = s.as_dict()
    assert d["flushes"] == 9
    assert "avg_remote_packet_bytes" in d


# ----------------------------------------------------------------- config
def test_mailbox_config_validation():
    with pytest.raises(ValueError):
        MailboxConfig(capacity=0)
    cfg = MailboxConfig(capacity=8)
    assert cfg.with_overrides(capacity=16).capacity == 16
    assert cfg.capacity == 8  # original untouched
