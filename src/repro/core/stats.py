"""Per-mailbox and aggregated communication statistics.

These counters feed the figure harness: broadcast counts (Fig 7a),
remote/local packet and byte volumes, average remote packet sizes (the
Section III-E analysis), and flush/termination diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Iterable, List


@dataclass
class MailboxStats:
    """Counters for one rank's mailbox."""

    #: Application messages injected via ``send``/``send_many``/``send_batch``
    #: (and their ``post*`` forms); broadcasts are counted separately.
    app_messages_sent: int = 0
    #: Application messages delivered to this rank's receive callback.
    app_messages_delivered: int = 0
    #: Broadcasts initiated via ``send_bcast``.
    bcasts_initiated: int = 0
    #: Broadcast copies delivered to this rank.
    bcast_deliveries: int = 0
    #: Transport-level entries sent (each hop counts once; the
    #: termination detector balances this against ``entries_received``).
    entries_sent: int = 0
    #: Transport-level entries received.
    entries_received: int = 0
    #: Entries forwarded as an intermediary (subset of both of the above).
    entries_forwarded: int = 0
    #: Application messages eliminated by in-network combining (each
    #: merged-away record counts once, at the rank that merged it; the
    #: conservation invariant becomes ``sent == delivered + combined``).
    entries_combined: int = 0
    #: Coalesced packets sent, split by locality.
    local_packets_sent: int = 0
    remote_packets_sent: int = 0
    #: Payload bytes sent, split by locality.
    local_bytes_sent: int = 0
    remote_bytes_sent: int = 0
    #: Number of capacity-triggered and explicit flushes.
    flushes: int = 0
    #: Termination-detection rounds participated in.
    term_rounds: int = 0
    #: Simulated seconds this rank spent blocked waiting for traffic
    #: inside wait_empty (the idle time the paper's asynchrony reduces).
    idle_time: float = 0.0

    @property
    def avg_remote_packet_bytes(self) -> float:
        """Average coalesced remote packet size -- where each scheme lands
        on the Fig 5 bandwidth curve."""
        if self.remote_packets_sent == 0:
            return 0.0
        return self.remote_bytes_sent / self.remote_packets_sent

    def merge(self, other: "MailboxStats") -> "MailboxStats":
        """Element-wise sum (for world-level aggregation)."""
        out = MailboxStats()
        for f in fields(MailboxStats):
            setattr(out, f.name, getattr(self, f.name) + getattr(other, f.name))
        return out

    def as_dict(self) -> Dict[str, float]:
        d = {f.name: getattr(self, f.name) for f in fields(MailboxStats)}
        d["avg_remote_packet_bytes"] = self.avg_remote_packet_bytes
        return d


def aggregate(stats: Iterable[MailboxStats]) -> MailboxStats:
    """Sum a collection of per-rank stats."""
    total = MailboxStats()
    for s in stats:
        total = total.merge(s)
    return total
