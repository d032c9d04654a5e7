"""Parallel discrete-event simulation of one YGM run.

Partitions the simulated machine's nodes across forked worker
processes, advances them with a conservative window-barrier protocol
(lookahead = the network model's minimum wire latency) and reassembles
a result bit-identical to the serial :class:`~repro.core.YgmWorld`.
See :mod:`repro.pdes.engine` for the protocol and EXPERIMENTS.md
("Parallel DES") for the derivation and the conformance battery.

This is a library, not a mode of the figure harness: reach it from
Python or from ``examples/pdes_quartz_scale.py``.
"""

from .conformance import ConformanceError, assert_equivalent
from .engine import PdesError, PdesStallError, PdesWorld, run_pdes
from .partition import NodePartition
from .rings import RingError, RingStats, ShmTransport, SpscRing
from .wire import WireError, decode_batch, encode_batch
from .worker import CausalityError

__all__ = [
    "PdesWorld",
    "run_pdes",
    "NodePartition",
    "PdesError",
    "PdesStallError",
    "CausalityError",
    "ConformanceError",
    "RingError",
    "RingStats",
    "ShmTransport",
    "SpscRing",
    "WireError",
    "assert_equivalent",
    "decode_batch",
    "encode_batch",
]
