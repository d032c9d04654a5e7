"""YGM core: mailboxes, routing schemes, coalescing, termination.

This package is the reproduction of the paper's primary contribution
(Sections III and IV).
"""

from .coalescing import ENTRY_HEADER_BYTES, BatchEntry, BcastEntry, CoalescingBuffer
from .config import MailboxConfig
from .context import Occupancy, YgmContext, YgmResult, YgmWorld
from .mailbox import Mailbox
from .routing import (
    EXTENDED_SCHEMES,
    PAPER_SCHEMES,
    SCHEMES,
    Combiner,
    RoutingScheme,
    get_scheme,
)
from .stats import MailboxStats, aggregate
from .termination import TerminationDetector, binomial_children, binomial_parent

__all__ = [
    "BatchEntry",
    "BcastEntry",
    "CoalescingBuffer",
    "Combiner",
    "ENTRY_HEADER_BYTES",
    "EXTENDED_SCHEMES",
    "Mailbox",
    "MailboxConfig",
    "MailboxStats",
    "Occupancy",
    "PAPER_SCHEMES",
    "RoutingScheme",
    "SCHEMES",
    "TerminationDetector",
    "YgmContext",
    "YgmResult",
    "YgmWorld",
    "aggregate",
    "binomial_children",
    "binomial_parent",
    "get_scheme",
]
