"""Mailbox configuration."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (routing -> config)
    from .routing.combiner import Combiner


@dataclass(frozen=True)
class MailboxConfig:
    """Tunables of a YGM mailbox.

    ``capacity`` is the message capacity of the paper's mailbox: once this
    many messages are queued across all coalescing buffers, the rank
    enters its communication context (flush + receive).  The paper's
    experiments use 2^18; the scaled benchmarks default to 2^14.

    ``combiner`` attaches an in-network combining algebra
    (:class:`~repro.core.routing.combiner.Combiner`): mergeable batch
    records with equal ``(destination, key)`` collapse during re-binning
    -- at injection and at every forwarding hop -- before re-transmission.
    ``None`` (the default) disables combining; results then match the
    paper's pure re-binning schemes exactly.
    """

    capacity: int = 2**14
    combiner: Optional["Combiner"] = None

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError(f"mailbox capacity must be >= 1, got {self.capacity}")

    def with_overrides(self, **kwargs) -> "MailboxConfig":
        return replace(self, **kwargs)
