"""The simulated machine: N nodes x C cores, NICs, and packet transport.

:class:`Machine` owns the DES-level hardware resources and implements the
two transport paths of the paper's cost analysis:

* :meth:`transmit_remote` -- over the wire, serialized through the source
  and destination node NIC resources (one TX and one RX engine per node),
* :meth:`transmit_local` -- through shared memory, charged to the sending
  core only.

Delivery is a callback (``deliver(packet)``) supplied by the transport
layer above (the simulated MPI matching engine), so the machine layer
knows nothing about ranks' inboxes.

A remote packet is one in-flight entry (:class:`_InFlight`) that the
kernel pops up to five times.  Each push -- push order breaks timestamp
ties, see :mod:`repro.sim.resources` -- happens at the instant its
counterpart in the nine-event process-per-packet protocol was pushed:

==========================================  ========================  ===========
nine events (before)                        five pushes of one entry  pushed at
==========================================  ========================  ===========
``timeout(send_overhead)``                  send overhead             call
TX acquire, TX hold timeout                 TX hold completion        TX grant
in-flight init, wire timeout                arrival                   on-wire
RX acquire, RX hold timeout                 RX hold completion        RX grant
``timeout(recv_overhead)``, process end     delivery                  RX hold end
==========================================  ========================  ===========

Five is the floor under that rule; ``send_overhead`` and
``recv_overhead`` are not folded into the holds next to them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, List

from ..sim import Event, Resource, Simulator
from . import address
from .netmodel import ComputeModel, NetworkModel


@dataclass(frozen=True)
class MachineConfig:
    """Shape and timing of the simulated machine."""

    nodes: int
    cores_per_node: int
    net: NetworkModel
    compute: ComputeModel

    def __post_init__(self):
        address.validate_shape(self.nodes, self.cores_per_node)

    @property
    def nranks(self) -> int:
        return self.nodes * self.cores_per_node


class Machine:
    """Hardware resources + packet transport for one simulated machine."""

    def __init__(self, sim: Simulator, config: MachineConfig):
        self.sim = sim
        self.config = config
        n = config.nodes
        #: Per-node transmit NIC engines (serialize outbound remote packets).
        self.nic_tx: List[Resource] = [
            Resource(sim, name=f"nic_tx[{i}]") for i in range(n)
        ]
        #: Per-node receive NIC engines (serialize inbound remote packets;
        #: this is where hot-spot receivers queue up).
        self.nic_rx: List[Resource] = [
            Resource(sim, name=f"nic_rx[{i}]") for i in range(n)
        ]
        # -- transport statistics (whole machine) --
        self.remote_packets = 0
        self.remote_bytes = 0
        self.local_packets = 0
        self.local_bytes = 0

    # -- shape helpers -----------------------------------------------------
    @property
    def nranks(self) -> int:
        return self.config.nranks

    @property
    def nodes(self) -> int:
        return self.config.nodes

    @property
    def cores_per_node(self) -> int:
        return self.config.cores_per_node

    def node_of(self, rank: int) -> int:
        return address.node_of(rank, self.config.cores_per_node)

    def core_of(self, rank: int) -> int:
        return address.core_of(rank, self.config.cores_per_node)

    def addr_of(self, rank: int) -> address.Addr:
        return address.addr_of(rank, self.config.cores_per_node)

    def rank_of(self, node: int, core: int) -> int:
        return address.rank_of(node, core, self.config.cores_per_node)

    def same_node(self, a: int, b: int) -> bool:
        return address.same_node(a, b, self.config.cores_per_node)

    # -- transport ---------------------------------------------------------
    def transmit_local(
        self,
        src: int,
        dst: int,
        nbytes: int,
        packet: Any,
        deliver: Callable[[Any], None],
    ) -> Generator:
        """Send a packet through shared memory (same node).

        Generator run inside the *sending* rank's process: the shared
        memory copy is charged to the sending core (the paper's MPI-only
        YGM performs explicit on-node copies, Section VII).
        """
        net = self.config.net
        self.local_packets += 1
        self.local_bytes += nbytes
        tracer = self.sim.tracer
        if tracer is not None and tracer.wants("mpi"):
            tracer.instant(
                self.sim.now, "mpi", "local_packet", f"rank {src}",
                dst=dst, nbytes=nbytes,
            )
        cost = net.packet_costs(nbytes)[2]  # local_time, memoised
        if cost > 0:
            yield self.sim.timeout(cost)
        if tracer is not None and tracer.lineage is not None and packet.lin is not None:
            tracer.lineage.packet_delivered(packet.lin, self.sim.now, local=True)
        deliver(packet)

    def transmit_remote(
        self,
        src: int,
        dst: int,
        nbytes: int,
        packet: Any,
        deliver: Callable[[Any], None],
    ) -> Generator:
        """Send a packet over the wire (different nodes).

        Generator run inside the *sending* rank's process.  It builds the
        packet's in-flight entry, starts it (send overhead, else the
        source-NIC request) and waits on it once: the sender regains its
        core when the TX hold ends while the entry carries the packet on
        to delivery -- buffered-send semantics.
        """
        sim = self.sim
        net = self.config.net
        entry = _InFlight(self, 0, src, dst, nbytes, packet, deliver)
        self.remote_packets += 1
        self.remote_bytes += nbytes
        tracer = sim.tracer
        if tracer is not None and tracer.wants("mpi"):
            tracer.instant(
                sim.now, "mpi", "packet_injected", f"rank {src}",
                dst=dst, nbytes=nbytes,
                protocol="rendezvous" if net.is_rendezvous(nbytes) else "eager",
            )
        if net.send_overhead > 0:
            sim._enqueue(entry, net.send_overhead)
        else:
            entry.phase = 1
            entry.tx._request(entry)
        yield entry

    def transmit(
        self,
        src: int,
        dst: int,
        nbytes: int,
        packet: Any,
        deliver: Callable[[Any], None],
    ) -> Generator:
        """Dispatch to the local or remote path based on endpoints."""
        if self.same_node(src, dst):
            return self.transmit_local(src, dst, nbytes, packet, deliver)
        return self.transmit_remote(src, dst, nbytes, packet, deliver)

    # -- diagnostics ---------------------------------------------------------
    def nic_utilisation(self) -> dict:
        """Aggregate NIC busy time (seconds) for reporting."""
        return {
            "tx_busy": sum(r.busy_time for r in self.nic_tx),
            "rx_busy": sum(r.busy_time for r in self.nic_rx),
            "remote_packets": self.remote_packets,
            "remote_bytes": self.remote_bytes,
            "local_packets": self.local_packets,
            "local_bytes": self.local_bytes,
        }


class _InFlight(Event):
    """One remote packet from the send call to its delivery.

    ``phase`` is the stage the next pop runs (the module docstring's
    table, top to bottom); each stage pushes the entry again, or queues
    it on a NIC engine whose grant pushes it.  The sending rank waits on
    the entry: its callbacks run once, when the TX hold ends.
    """

    __slots__ = ("machine", "phase", "src", "dst", "nbytes", "packet", "deliver",
                 "tx", "rx", "duration", "delay", "requested", "granted")
    name = "in_flight"  # shadows the base slot: the kernel trace label

    def __init__(self, machine: Machine, phase: int, src: int, dst: int,
                 nbytes: int, packet: Any, deliver: Callable[[Any], None]):
        self.sim = machine.sim
        self.callbacks = []
        self._value = None  # the sender resumes with None, as from a hold
        self._ok = True
        self._processed = False
        self.machine = machine
        self.phase = phase
        self.src = src
        self.dst = dst
        self.nbytes = nbytes
        self.packet = packet
        self.deliver = deliver
        self.tx = machine.nic_tx[machine.node_of(src)]
        self.rx = machine.nic_rx[machine.node_of(dst)]
        # ``duration`` is each NIC hold (TX and RX), ``delay`` the wire.
        self.duration, self.delay, _ = machine.config.net.packet_costs(nbytes)

    def _process(self) -> None:
        sim = self.sim
        phase = self.phase
        if phase == 0:  # send overhead paid: request the source NIC
            self.phase = 1
            self.tx._request(self)
            return
        tracer = sim.tracer
        packet = self.packet
        lineage = None
        if tracer is not None and tracer.lineage is not None and packet.lin is not None:
            lineage = tracer.lineage
        if phase == 1:  # TX hold over: the packet is on the wire
            # Grant the next TX waiter, trace the on-wire instant, push the
            # arrival, and only then resume the sender: the push order
            # the digests record.  This is the one push of a phase-2
            # entry through ``_enqueue``; a partitioned run claims the
            # packet there instead.
            self.tx._complete(self)
            if tracer is not None and tracer.wants("mpi"):
                tracer.instant(sim._now, "mpi", "packet_on_wire", f"rank {self.src}",
                               dst=self.dst, nbytes=self.nbytes)
            if lineage is not None:
                lineage.packet_wire(packet.lin, sim._now)
            self.phase = 2
            sim._enqueue(self, self.delay)
            self._processed = True
            callbacks, self.callbacks = self.callbacks, None
            for cb in callbacks:
                cb(self)
        elif phase == 2:  # arrival: request the destination NIC
            if lineage is not None:
                lineage.packet_rx(packet.lin, sim._now)
            self.phase = 3
            self.rx._request(self)
        elif phase == 3 and self.machine.config.net.recv_overhead > 0:
            self.rx._complete(self)  # RX hold over: receive overhead next
            self.phase = 4
            sim._enqueue(self, self.machine.config.net.recv_overhead)
        else:  # delivery (inside the RX completion when recv_overhead is 0)
            if phase == 3:
                self.rx._complete(self)
            self.packet = None  # a held entry must not keep the packet alive
            if tracer is not None and tracer.wants("mpi"):
                tracer.instant(sim._now, "mpi", "packet_delivered", f"rank {self.dst}",
                               nbytes=self.nbytes)
            if lineage is not None:
                lineage.packet_delivered(packet.lin, sim._now)
            self.deliver(packet)
