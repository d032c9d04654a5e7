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
with at most 3 hops, and the scalar/vector paths agree given the same
simulation state.  Broadcasts always use NLNR's static tree: the
forwarding tree must be consistent across ranks, so it cannot depend on
per-rank load.

PDES safety: the signal is the *current* node's ``nic_tx`` resource.
``Machine.transmit_remote`` acquires the source-side NIC natively in
the partition that owns the sending node (only the destination tail is
replayed via ``inject_arrival``), and PDES partitions machines by whole
nodes -- so the executing worker always owns ``cur``'s node and reads
exactly the counters the serial engine would.  The conformance battery
covers this scheme for that reason.

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

    def next_hop(self, cur: int, dest: int) -> int:
        if self._congested(cur // self.cores):
            return self._nlnr.next_hop(cur, dest)
        return dest

    def next_hop_vec(self, cur: int, dests: np.ndarray) -> np.ndarray:
        # One routing decision per re-binning call: the whole batch sees
        # the same congestion state, mirroring what the scalar path sees
        # when nothing yields between messages.
        if self._congested(cur // self.cores):
            return self._nlnr.next_hop_vec(cur, dests)
        return np.asarray(dests, dtype=np.int64)

    def _hop_keys(self, cur: int, dests: np.ndarray) -> np.ndarray:
        # Live occupancy cannot be tabulated: decide per call as
        # next_hop_vec does, with the congested branch reading the
        # embedded (static) NLNR's table.
        if self._congested(cur // self.cores):
            return self._nlnr._hop_keys(cur, dests)
        return np.asarray(dests, dtype=self._key_dtype)

    def max_hops(self) -> int:
        return 3

    def bcast_targets(self, cur: int, origin: int) -> List[int]:
        # Static NLNR tree: broadcast forwarding must be consistent
        # across ranks, so it cannot depend on per-rank load.
        return self._nlnr.bcast_targets(cur, origin)

    def remote_partners(self, rank: int) -> List[int]:
        # The direct branch may hit any off-node rank; NLNR's partners
        # (and the bcast tree's) are a subset of that.
        node = self._node(rank)
        return [r for r in range(self.nranks) if self._node(r) != node]

    def channel_count(self) -> int:
        # Like NoRoute's single any-to-any channel class: under load the
        # NLNR subset is used, but the channel *structure* admits all.
        return 1
