"""The network cost model: a LogGP-style model with an eager/rendezvous
protocol switch.

This module is the substitute for the paper's physical interconnect
(Omni-Path on *Quartz*, measured in Fig 5).  The model decomposes the cost
of one transmitted packet into:

* **sender core overhead** -- CPU time to initiate a send (per packet),
* **NIC occupancy** -- per-packet gap plus ``bytes / wire_rate``; this is
  a *hold* on the sending (and receiving) node's NIC resource, which is
  what serializes packets through a node and produces congestion,
* **latency** -- pure wire delay, pipelined (not a resource hold),
* **rendezvous handshake** -- packets at or above ``eager_threshold``
  switch from the eager protocol to rendezvous, paying an extra
  request-to-send/clear-to-send round trip (2 x (latency + gap)) but
  enjoying a higher effective wire rate (zero-copy transfer).

The eager/rendezvous switch is what produces the characteristic downward
jump at 16 KiB in the paper's Fig 5; the model reproduces it by
construction and :mod:`repro.bench.fig5` measures it end-to-end through
the simulated MPI layer.

Local (same-node, shared-memory) messages bypass the NIC entirely and pay
a per-packet overhead plus a memory-copy cost at memory bandwidth
(Section III: "remote communication is bit-for-bit more expensive ...
local communication is handled in shared memory").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Dict, Tuple


KiB = 1024
MiB = 1024 * 1024
GiB = 1024 * 1024 * 1024


def _check_timing(model) -> None:
    """Rates (``*_rate`` fields) must be > 0, every other ``float`` field
    (a time or an overhead) finite and >= 0; NaN fails both."""
    for f in fields(model):
        value = getattr(model, f.name)
        if f.name.endswith("_rate"):
            ok, need = value > 0, "> 0"
        elif f.type == "float":
            ok, need = 0 <= value < math.inf, "finite and >= 0"
        else:
            continue
        if not ok:
            raise ValueError(
                f"{type(model).__name__}.{f.name} must be {need}, got {value!r}"
            )


@dataclass(frozen=True)
class NetworkModel:
    """Timing parameters of the simulated interconnect.

    All times in seconds, all rates in bytes/second.
    """

    #: Wire latency of one remote traversal (pure delay, pipelined).
    latency: float = 1.5e-6
    #: Per-packet NIC gap (packetisation/metadata cost) -- the reason
    #: message coalescing matters (Section IV-A).
    nic_gap: float = 1.0e-6
    #: Wire rate for eager-protocol packets (extra copy on both sides).
    eager_rate: float = 5.0 * GiB
    #: Wire rate for rendezvous-protocol packets (zero copy).
    rendezvous_rate: float = 12.0 * GiB
    #: Protocol-switch threshold (MVAPICH default: 16 KiB).
    eager_threshold: int = 16 * KiB
    #: Extra per-leg latency of the rendezvous RTS/CTS handshake.
    handshake_latency: float = 3.0e-6
    #: Sender-core CPU overhead per packet.
    send_overhead: float = 0.5e-6
    #: Receiver-core CPU overhead per packet (charged at dispatch).
    recv_overhead: float = 0.5e-6
    #: Per-packet overhead of a shared-memory (local) transfer.
    local_overhead: float = 0.4e-6
    #: Shared-memory copy rate.
    memory_rate: float = 24.0 * GiB

    #: Memoised per-size packet costs (see :meth:`packet_costs`).
    #: Coalesced buffers hit the same few sizes millions of times, so the
    #: per-packet arithmetic is worth caching.  Excluded from equality/
    #: hash/repr; ``replace``-based copies start with a fresh cache.
    _cost_cache: Dict[int, Tuple[float, float, float]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    #: Cache growth bound -- a runaway sweep of unique sizes falls back
    #: to uncached arithmetic instead of holding memory hostage.
    _COST_CACHE_MAX = 1 << 16

    def __post_init__(self):
        _check_timing(self)

    # ---------------------------------------------------------------- remote
    def is_rendezvous(self, nbytes: int) -> bool:
        """Whether a packet of ``nbytes`` uses the rendezvous protocol."""
        return nbytes >= self.eager_threshold

    def wire_rate(self, nbytes: int) -> float:
        """Effective wire rate for a packet of ``nbytes``."""
        return self.rendezvous_rate if self.is_rendezvous(nbytes) else self.eager_rate

    def nic_time(self, nbytes: int) -> float:
        """NIC occupancy (resource hold) for one packet on one NIC."""
        return self.nic_gap + nbytes / self.wire_rate(nbytes)

    def remote_delay(self, nbytes: int) -> float:
        """Pure (pipelined) delay component of a remote packet."""
        if self.is_rendezvous(nbytes):
            # RTS/CTS round trip before the data leg.
            return self.latency + 2.0 * (self.handshake_latency + self.nic_gap)
        return self.latency

    def remote_time_uncontended(self, nbytes: int) -> float:
        """End-to-end time of one remote packet on an idle machine.

        Sender overhead + sender NIC + delay + receiver NIC + receiver
        overhead.  This is what the Fig 5 bandwidth sweep measures.
        """
        return (
            self.send_overhead
            + self.nic_time(nbytes)
            + self.remote_delay(nbytes)
            + self.nic_time(nbytes)
            + self.recv_overhead
        )

    def bandwidth(self, nbytes: int) -> float:
        """Achieved point-to-point bandwidth for ``nbytes`` packets (B/s)."""
        return nbytes / self.remote_time_uncontended(nbytes)

    # ---------------------------------------------------------------- local
    def local_time(self, nbytes: int) -> float:
        """Cost of one shared-memory packet (charged to the sending core)."""
        return self.local_overhead + nbytes / self.memory_rate

    # ---------------------------------------------------------------- cached
    def _cost_params(self) -> Tuple:
        """The parameters :meth:`packet_costs` results depend on."""
        return (
            self.latency,
            self.nic_gap,
            self.eager_rate,
            self.rendezvous_rate,
            self.eager_threshold,
            self.handshake_latency,
            self.local_overhead,
            self.memory_rate,
        )

    #: Sentinel key holding the parameter tuple the memo was built under.
    _PARAMS_KEY = "__params__"

    def packet_costs(self, nbytes: int) -> Tuple[float, float, float]:
        """Memoised ``(nic_time, remote_delay, local_time)`` for one size.

        The transport layer calls this once per packet; identical float
        results to calling the three methods directly (same expressions,
        computed once per distinct size).

        The memo is keyed on the parameters it was computed from: the
        dataclass is frozen, but ``object.__setattr__`` (ablation
        helpers, tests) can still mutate a model after first use, and a
        stale memo would silently keep charging the old costs.  A
        parameter change is detected on the next call and clears the
        cache.
        """
        cache = self._cost_cache
        params = self._cost_params()
        if cache.get(self._PARAMS_KEY) != params:
            cache.clear()
            cache[self._PARAMS_KEY] = params
        costs = cache.get(nbytes)
        if costs is None:
            costs = (
                self.nic_time(nbytes),
                self.remote_delay(nbytes),
                self.local_time(nbytes),
            )
            if len(cache) < self._COST_CACHE_MAX:
                cache[nbytes] = costs
        return costs

    # ---------------------------------------------------------------- misc
    def with_overrides(self, **kwargs) -> "NetworkModel":
        """A copy with some parameters replaced (for ablations)."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class ComputeModel:
    """CPU cost parameters for the simulated application work.

    The applications charge compute time through these knobs so that
    computation/communication overlap and imbalance behave like the paper's
    C++ applications rather than like the (much slower) Python host.
    """

    #: Cost of handling one application message in a receive callback.
    per_message_handle: float = 30.0e-9
    #: Cost of generating + queueing one application message (routing,
    #: buffer append).  Charged per message at send time on each hop.
    per_message_queue: float = 20.0e-9
    #: Cost of one floating-point multiply-add (SpMV local work).
    per_flop: float = 1.0e-9
    #: Cost of generating one graph edge (edge-stream generation).
    per_edge_gen: float = 15.0e-9

    def __post_init__(self):
        _check_timing(self)

    def with_overrides(self, **kwargs) -> "ComputeModel":
        return replace(self, **kwargs)
