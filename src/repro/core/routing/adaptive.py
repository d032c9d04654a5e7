"""The adaptive routing scheme: pick a route from live NIC occupancy.

The paper's schemes are static functions of the machine shape; its
Section III-E analysis shows the trade they make is *channel count*
(fewer, fatter remote channels coalesce better) against *hops* (every
extra hop is an extra copy).  Which side wins depends on instantaneous
load, so this scheme decides per re-binning call from a signal the
simulator already maintains: the sending node's NIC-TX occupancy
(:class:`~repro.sim.resources.Resource` ``in_use`` + ``queue_length`` --
the same counters the PR 5 profiler and ``YgmContext.occupancy()``
surface).

* NIC idle -> **direct** delivery (NoRoute's hop): no forwarding
  copies, lowest latency while bandwidth is plentiful.
* NIC busy -> **NLNR**'s route: traffic funnels through layer
  intermediaries, producing fewer/larger remote packets exactly when
  the wire is the bottleneck.

Both branches are existing static schemes, so every route stays acyclic
with at most 3 hops, and the scalar view and the re-binning keys agree
given the same simulation state.  Broadcasts always use NLNR's static tree: the
forwarding tree must be consistent across ranks, so it cannot depend on
per-rank load.

Partitioned runs (:mod:`repro.pdes`) stay exact: the signal is the
*current* node's ``nic_tx``.  ``Machine.transmit_remote`` acquires the
source-side NIC natively in the partition owning the sending node (only
the destination tail is replayed, by ``repro.pdes.worker.inject_arrival``),
and partitions are whole nodes -- so the executing worker always owns
``cur``'s node and reads exactly the counters the serial engine would.
The conformance battery (``tests/pdes``) covers this scheme for that reason.

Until :meth:`bind_machine` is called (e.g. in shape-only unit tests)
the scheme never sees congestion and routes like NoRoute.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .base import RoutingScheme
from .nlnr import NLNR


class Adaptive(RoutingScheme):
    """Direct when the NIC is idle, NLNR when it is congested."""

    name = "adaptive"

    #: Occupancy (``in_use + queue_length`` of the node's NIC-TX
    #: resource) at or above which the detour through NLNR engages.
    congestion_threshold: int = 1

    def __init__(self, nodes: int, cores_per_node: int):
        super().__init__(nodes, cores_per_node)
        self._nlnr = NLNR(nodes, cores_per_node)
        self._nic_tx: Optional[list] = None

    def bind_machine(self, machine) -> None:
        self._nic_tx = machine.nic_tx

    def _congested(self, node: int) -> bool:
        tx = self._nic_tx
        if tx is None:
            return False
        nic = tx[node]
        return nic.in_use + nic.queue_length >= self.congestion_threshold

    def next_hop_vec(self, cur: int, dests: np.ndarray) -> np.ndarray:
        # One decision per re-binning call: the whole batch sees one
        # congestion state, as posts do when nothing yields between them.
        if self._congested(cur // self.cores):
            return self._nlnr.next_hop_vec(cur, dests)
        return np.asarray(dests, dtype=np.int64)

    def hop_table(self, cur: int) -> np.ndarray:
        # The idle route, direct delivery; the congested one is the
        # embedded NLNR's table.
        return np.arange(self.nranks, dtype=self._key_dtype)

    def hop_list(self, cur: int) -> "_AdaptiveHops":
        return _AdaptiveHops(self, cur)

    def _hop_keys(self, cur: int, dests: np.ndarray) -> np.ndarray:
        # Live occupancy cannot be tabulated: decide per call, reading
        # the embedded (static) NLNR's table when congested.
        if self._congested(cur // self.cores):
            return self._nlnr._hop_keys(cur, dests)
        return np.asarray(dests, dtype=self._key_dtype)

    def max_hops(self) -> int:
        return 3

    def _bcast_tree(self, cur: int, origin: int) -> List[int]:
        # Static NLNR tree: broadcast forwarding must be consistent
        # across ranks, so it cannot depend on per-rank load.
        return self._nlnr._bcast_tree(cur, origin)


class _AdaptiveHops:
    """Adaptive's scalar hop view from one rank: ``view[dest]`` reads the
    node's NIC occupancy, then indexes the idle or the congested table."""

    __slots__ = ("_scheme", "_node", "_idle", "_congested")

    def __init__(self, scheme: Adaptive, cur: int):
        self._scheme = scheme
        self._node = cur // scheme.cores
        self._idle = range(scheme.nranks)
        self._congested = scheme._nlnr.hop_list(cur)

    def __getitem__(self, dest: int) -> int:
        if self._scheme._congested(self._node):
            return self._congested[dest]
        return self._idle[dest]
