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

A remote packet costs five kernel events, each pushed -- push order breaks
timestamp ties, see :mod:`repro.sim.resources` -- at the instant its
counterparts in the nine-event process-per-packet protocol were:

==========================================  ==================  ===========
nine events (before)                        five events         pushed at
==========================================  ==================  ===========
``timeout(send_overhead)``                  same                call
TX acquire, TX hold timeout                 TX hold completion  TX grant
in-flight init, wire timeout                arrival callback    on-wire
RX acquire, RX hold timeout                 RX hold completion  RX grant
``timeout(recv_overhead)``, process end     delivery callback   RX hold end
==========================================  ==================  ===========

Five is the floor under that rule; ``send_overhead`` and ``recv_overhead``
are not folded into the holds next to them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Generator, List

from ..sim import Resource, Simulator
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
        #: Optional PDES export hook, called at the packet-on-wire point of
        #: :meth:`transmit_remote` as ``hook(t_wire, src, dst, nbytes,
        #: packet)``.  Returning true claims the packet: the in-flight
        #: remainder is *not* simulated here -- the owning partition of
        #: ``dst`` replays it via :meth:`inject_arrival` at the identical
        #: arrival instant.  ``None`` (the default) keeps the serial path.
        self.on_remote_export: Any = None

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

        Generator run inside the *sending* rank's process.  It charges the
        sender-core overhead and the source-NIC occupancy, then schedules
        the in-flight remainder (wire delay, :meth:`_arrive`) as callbacks
        so the sender regains its core -- buffered-send semantics.  Every
        event is pushed at the instant the module docstring's table names.
        """
        net = self.config.net
        sim = self.sim
        nic_time, delay, _ = net.packet_costs(nbytes)
        self.remote_packets += 1
        self.remote_bytes += nbytes
        tracer = sim.tracer
        trace = tracer is not None and tracer.wants("mpi")
        if trace:
            tracer.instant(
                sim.now, "mpi", "packet_injected", f"rank {src}",
                dst=dst, nbytes=nbytes,
                protocol="rendezvous" if net.is_rendezvous(nbytes) else "eager",
            )
        if net.send_overhead > 0:
            yield sim.timeout(net.send_overhead)
        yield self.nic_tx[self.node_of(src)].hold(nic_time)
        if trace:
            tracer.instant(
                sim.now, "mpi", "packet_on_wire", f"rank {src}",
                dst=dst, nbytes=nbytes,
            )
        if tracer is not None and tracer.lineage is not None and packet.lin is not None:
            tracer.lineage.packet_wire(packet.lin, sim.now)
        exporter = self.on_remote_export
        if exporter is not None and exporter(sim.now, src, dst, nbytes, packet):
            return
        arrive = partial(self._arrive, dst, nbytes, nic_time, packet, deliver)
        sim.schedule(delay, arrive)

    def inject_arrival(
        self,
        t_wire: float,
        src: int,
        dst: int,
        nbytes: int,
        packet: Any,
        deliver: Callable[[Any], None],
    ) -> None:
        """Replay a cross-partition packet's arrival (PDES import side).

        The exporting partition saw the packet on the wire at ``t_wire``
        and skipped the rest; it resumes here at ``t_wire + delay``, the
        float expression of :meth:`transmit_remote`'s ``schedule``, so the
        arrival instant and everything downstream (NIC-RX contention,
        delivery order, stats) are bit-identical.
        """
        nic_time, delay, _ = self.config.net.packet_costs(nbytes)
        arrive = partial(self._arrive, dst, nbytes, nic_time, packet, deliver)
        self.sim.schedule_at(t_wire + delay, arrive)

    def _arrive(
        self,
        dst: int,
        nbytes: int,
        nic_time: float,
        packet: Any,
        deliver: Callable[[Any], None],
    ) -> None:
        """Arrival callback: the destination-side NIC-RX hold, then delivery."""
        sim = self.sim
        tracer = sim.tracer
        prof = tracer.lineage if tracer is not None else None
        if prof is not None and packet.lin is not None:
            prof.packet_rx(packet.lin, sim.now)

        def delivered() -> None:
            if tracer is not None and tracer.wants("mpi"):
                tracer.instant(
                    sim.now, "mpi", "packet_delivered", f"rank {dst}",
                    nbytes=nbytes,
                )
            if prof is not None and packet.lin is not None:
                prof.packet_delivered(packet.lin, sim.now)
            deliver(packet)

        hold = self.nic_rx[self.node_of(dst)].hold(nic_time)
        recv_overhead = self.config.net.recv_overhead
        if recv_overhead > 0:
            hold.callbacks.append(lambda _h: sim.schedule(recv_overhead, delivered))
        else:
            hold.callbacks.append(lambda _h: delivered())

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
