"""The per-partition worker of the parallel DES engine.

Each worker is a forked OS process owning one :class:`NodePartition`
block of the simulated machine.  It builds the *full* serial stack -- a
fresh :class:`~repro.mpi.world.World` with the complete machine shape
and inboxes for every rank -- but launches rank programs only for its
owned ranks and claims remote packets on the wire (:func:`export_on_wire`),
so:

* all intra-partition simulation (local transfers, NIC contention,
  mailbox routing, same-node fast paths) runs through the unchanged
  serial kernel;
* a packet bound for a foreign rank is captured at its packet-on-wire
  instant and shipped to the driver instead of being simulated in
  flight; the owning partition replays the arrival at the bit-identical
  timestamp via :func:`inject_arrival`.

The worker is driven round by round over a pipe (see
:mod:`repro.pdes.engine` for the window-barrier protocol); its window
imports and exports move through the shared-memory rings
(:mod:`repro.pdes.rings`).  Forking -- not spawning -- matters: rank
programs are closures that never need to be pickled.
"""

from __future__ import annotations

import heapq
import math
import traceback
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..core.config import MailboxConfig
from ..core.context import YgmContext
from ..core.stats import aggregate
from ..machine.topology import _InFlight
from ..mpi import World
from ..sim.errors import DeadlockError
from .partition import min_wire_latency
from .rings import recv_batch, send_batch

#: Command / reply verbs of the driver<->worker pipe protocol.
CMD_STEP = "step"
CMD_FINISH = "finish"
REP_READY = "ready"
REP_REPORT = "report"
REP_RESULT = "result"
REP_ERROR = "error"


@dataclass
class WorkerSpec:
    """Everything a forked worker needs (inherited, never pickled)."""

    part: int
    partition: Any  # NodePartition
    machine_config: Any
    scheme: Any  # resolved RoutingScheme object
    seed: int
    default_config: MailboxConfig
    rank_main: Any
    tiebreaker: Any = None
    #: The :class:`~repro.pdes.rings.ShmTransport`, shared with the
    #: driver via fork; ``None`` for a one-partition run, which exports
    #: nothing.
    rings: Any = None


def enqueue_at(sim, event, at: float) -> None:
    """Push a triggered event on ``sim``'s heap at the *absolute* instant ``at``.

    An imported arrival is replayed at its exact timestamp with it
    (``delay = at - now`` would round-trip through float subtraction and
    lose bit-identity with the serial ``t_wire + remote_delay``).
    Sequenced like ``Simulator._enqueue``, tiebreaker included.  ``at``
    may not be in the past (nor NaN).
    """
    if not at >= sim._now:
        raise ValueError(
            f"cannot enqueue at t={at!r}: simulator already at {sim._now!r}"
        )
    sim._seq = seq = sim._seq + 1
    if sim._tiebreaker is None:
        heapq.heappush(sim._heap, (at, seq, event))
    else:
        heapq.heappush(sim._heap, (at, sim._tiebreaker(at, seq), seq, event))


def inject_arrival(machine, t_wire, src, dst, nbytes, packet, deliver) -> None:
    """Replay a cross-partition packet's arrival (the import side).

    The exporting partition saw the packet on the wire at ``t_wire`` and
    skipped the rest; it resumes here as an in-flight entry at its
    arrival stage, pushed at ``t_wire + delay`` -- the float expression
    of the serial arrival push -- so the arrival instant and everything
    downstream (NIC-RX contention, delivery order, stats) are
    bit-identical.
    """
    entry = _InFlight(machine, 2, src, dst, nbytes, packet, deliver)
    enqueue_at(machine.sim, entry, t_wire + entry.delay)


def export_on_wire(sim, exporter) -> None:
    """Claim every remote packet of ``sim``'s machine at its on-wire instant.

    When a remote packet's TX hold ends, its in-flight entry pushes its
    arrival stage (phase 2) through ``sim._enqueue`` -- the machine's only
    push of a phase-2 entry there.  From now on that push calls
    ``exporter(t_wire, src, dst, nbytes, packet)`` instead, and the
    in-flight remainder is not simulated here: the partition owning
    ``dst`` replays it with :func:`inject_arrival`.  Every other push is
    the serial one, with the same sequence number.
    """
    enqueue = sim._enqueue

    def enqueue_or_export(event, delay: float = 0.0) -> None:
        if type(event) is _InFlight and event.phase == 2:
            exporter(sim._now, event.src, event.dst, event.nbytes, event.packet)
        else:
            enqueue(event, delay)

    sim._enqueue = enqueue_or_export


class CausalityError(RuntimeError):
    """An imported packet arrived behind the partition's clock.

    This cannot happen for conforming runs (the window protocol bounds
    every import below by the horizon); it indicates a protocol bug and
    is raised loudly instead of silently corrupting the timeline.
    """


class PartitionRuntime:
    """One partition's simulation state inside a worker process."""

    def __init__(self, spec: WorkerSpec):
        self.part = spec.part
        self.partition = spec.partition
        #: While injecting an imported arrival, the wire instant the
        #: serial run would have pushed it at (see the tiebreaker below).
        self._push_override: Optional[float] = None
        if spec.partition.nparts > 1:
            tiebreaker = self._make_push_order_tiebreaker(spec.tiebreaker)
        else:
            tiebreaker = spec.tiebreaker
        self.world = World(
            spec.machine_config, seed=spec.seed, tiebreaker=tiebreaker
        )
        self.sim = self.world.sim
        self.machine = self.world.machine
        self.net = spec.machine_config.net
        self.owned: List[int] = list(spec.partition.ranks_of(spec.part))
        owned_nodes = set(spec.partition.nodes_of(spec.part))
        self._owned_nodes = owned_nodes
        self.exports: List[tuple] = []
        self._scratch = bytearray()
        self._rx = self._tx = None
        if spec.rings is not None:
            self._rx = spec.rings.to_worker[spec.part]
            self._tx = spec.rings.from_worker[spec.part]

        #: Live pump limit for the current window.  :meth:`pump` seeds it
        #: with the driver's horizon; the exporter hook *tightens* it as
        #: packets hit the wire (see below), which is what makes the
        #: driver's batched per-partition horizons safe.
        self._limit: float = math.inf

        exports_append = self.exports.append
        lookahead = min_wire_latency(self.net)
        reflect = 2.0 * lookahead
        owner_of_rank = spec.partition.owner_of_rank
        part = spec.part

        def exporter(t_wire, src, dst, nbytes, packet):
            exports_append((t_wire, src, dst, nbytes, packet))
            # Dynamic clamp: once this partition has influenced the
            # outside world (first export at wire instant w), nothing it
            # does beyond w + 2L is safe -- another partition may react
            # to that export and send something back arriving as early
            # as w + 2L.  An export whose destination we own ourselves
            # re-enters at w + L exactly, so it clamps a full L tighter.
            # Under the legacy common horizon H = t_min + L both bounds
            # are >= H (w >= t_min), i.e. the clamp is provably inert at
            # window_batch=1 and only bites when the driver hands out
            # batched (> t_min + L) horizons.
            limit = t_wire + (
                lookahead if owner_of_rank(dst) == part else reflect
            )
            if limit < self._limit:
                self._limit = limit

        # Every inter-node packet -- cross-partition or not -- leaves via
        # the exporter and re-enters through :meth:`inject`, so all
        # remote arrivals at one timestamp are sequenced under the single
        # canonical key ``(t_arr, t_wire, src)``.  Exporting only the
        # cross-partition subset would interleave barrier-injected
        # arrivals with natively-simulated ones and break the serial
        # delivery order whenever two sources' packets land on the same
        # rank at the same instant (routine in rank-symmetric apps).  In
        # single-partition mode there is no barrier to re-inject at, so
        # the native in-flight path runs untouched (exactly the serial
        # kernel).
        if spec.partition.nparts > 1:
            export_on_wire(self.sim, exporter)

        # -- launch owned rank programs (same wrapping as YgmWorld.run +
        # World.run, restricted to the owned ranks in world-rank order so
        # partition-relative startup order matches the serial run) --
        self.contexts: List[YgmContext] = []
        self.finish_times: Dict[int, float] = {}
        self.failed_at: Dict[int, float] = {}
        self.remaining = len(self.owned)
        world = self.world
        rank_main = spec.rank_main
        scheme = spec.scheme
        # Each forked worker owns a private copy of the scheme object;
        # adaptive schemes read *this* worker's machine (they only ever
        # consult the sending node's NIC, which the owning partition
        # simulates natively -- see repro.core.routing.adaptive).
        scheme.bind_machine(self.machine)
        default_config = spec.default_config

        def make_wrapper(r: int):
            def wrapper():
                ctx = YgmContext(world.make_context(r), scheme, default_config)
                self.contexts.append(ctx)
                try:
                    value = yield from rank_main(ctx)
                except Exception:
                    self.failed_at[r] = world.sim.now
                    raise
                self.finish_times[r] = world.sim.now
                return value

            return wrapper()

        self.procs = dict(
            zip(
                self.owned,
                world.sim.process_batch(
                    (make_wrapper(r) for r in self.owned),
                    names=[f"rank{r}" for r in self.owned],
                ),
            )
        )

        #: Instant the last owned rank program completed (succeeded *or*
        #: failed -- the serial stop rule counts both), None while live.
        self.done_at: Optional[float] = None

        def finished(_ev) -> None:
            self.remaining -= 1
            if self.remaining == 0:
                self.done_at = self.sim.now

        for p in self.procs.values():
            p.attach(finished)

    def _make_push_order_tiebreaker(self, user):
        """Order same-timestamp events by *push time* -- the serial order.

        The serial kernel breaks timestamp ties by sequence number,
        i.e. by heap-push order; and since pushes happen at the
        simulator's (nondecreasing) current time, that order is exactly
        ``(push time, push index)``.  A partitioned run can reproduce
        the push times: native pushes use the local clock (matching
        serial, because intra-partition event order is preserved), and
        an injected arrival uses the wire instant its serial push
        (the in-flight entry's arrival push, at the end of its TX hold)
        happens at.  Keying the
        heap this way restores the serial interleaving of an import
        against local events pushed *after* its wire instant but landing
        on the same timestamp -- the one tie the barrier's injection
        sequence numbers get backwards.  (In a serial-equivalent run the
        key is provably inert: push time is nondecreasing in push index,
        so sorting by it never reorders.)  A user tiebreaker (schedule
        fuzzing) still scrambles within each push instant.
        """

        def tiebreaker(at, seq):
            push_time = self._push_override
            if push_time is None:
                push_time = self.world.sim._now
            if user is not None:
                return (push_time, user(at, seq))
            return push_time

        return tiebreaker

    # -- stepping ----------------------------------------------------------
    def peek(self) -> Optional[float]:
        heap = self.sim._heap
        return heap[0][0] if heap else None

    def inject(self, imports: List[tuple]) -> None:
        """Enqueue imported packet arrivals at their exact timestamps.

        Injection order is wire order: a *stable* sort by ``t_wire``.
        The driver hands over each partition's exports in that
        partition's local wire order (which the engine provably
        preserves), concatenated in partition order -- so after the
        stable sort, same-instant packets from one partition keep their
        exact serial order, and the only tie resolved arbitrarily (by
        partition index) is the exact-same-float-instant collision
        *across* partitions, which serial resolves by an unknowable
        global heap artifact.  Each arrival is pushed under its wire
        instant via the push-order tiebreaker, and ``t_arr`` is computed
        with the identical memoised ``remote_delay`` expression the
        serial in-flight path uses, so both the timestamp and its tie
        rank are reproduced.
        """
        if not imports:
            return
        costs = self.net.packet_costs
        imports = sorted(imports, key=lambda e: e[0])
        machine = self.machine
        inboxes = self.world.inboxes
        now = self.sim.now
        try:
            for t_wire, src, dst, nbytes, packet in imports:
                if t_wire + costs(nbytes)[1] < now:
                    raise CausalityError(
                        f"partition {self.part}: import {src}->{dst} arrives "
                        f"at t={t_wire + costs(nbytes)[1]!r}, behind local "
                        f"clock t={now!r}"
                    )
                self._push_override = t_wire
                inject_arrival(
                    machine, t_wire, src, dst, nbytes, packet, inboxes[dst].deliver
                )
        finally:
            self._push_override = None

    def pump(self, limit: float, drain: bool = False) -> Optional[float]:
        """Process events strictly below ``limit``, stopping at completion.

        The serial :meth:`~repro.sim.kernel.Simulator.run_until_complete`
        stop rule, windowed: the event that finishes the last owned rank
        program ends the pump mid-window.  The same simulated timestamp
        is then flushed (``run_until_complete`` would keep popping those
        events while *other* partitions' ranks are still live), so any
        packet already committed to the wire at the finish instant still
        exports instead of being stranded in a frozen heap.

        ``drain`` drops the stop rule: the final drain replays everything
        below the global completion instant.  Either way the clock never
        passes the last processed event, and an empty heap is not a
        deadlock in windowed mode -- the partition may be waiting for
        imports, which only the engine can rule out globally.
        """
        sim = self.sim
        heap = sim._heap
        pop = heapq.heappop
        self._limit = limit
        while heap and heap[0][0] < self._limit:
            if self.remaining <= 0 and not drain and heap[0][0] != sim._now:
                break
            item = pop(heap)
            sim._now = item[0]
            sim._steps += 1
            if sim.tracer is not None:
                sim._trace_step(sim.tracer, item[-1])
            item[-1]._process()
        if not heap and self.remaining > 0 and limit == math.inf:
            # Single-partition mode mirrors the serial deadlock check.
            raise DeadlockError(self.sim._live_processes, self.sim.now)
        return heap[0][0] if heap else None

    def _advance(self, horizon, drain: bool) -> Optional[float]:
        """Pump this window's events; returns the next pending timestamp."""
        if horizon is None or not (drain or self.remaining > 0):
            return self.peek()
        return self.pump(horizon, drain)

    def step(self, horizon, batch, drain: bool):
        """One window: inject the imports named by the ``batch`` ring
        descriptor, advance, and report with the exports' descriptor."""
        self.inject(recv_batch(self._rx, batch))
        next_t = self._advance(horizon, drain)
        exports, self.exports[:] = list(self.exports), []
        return (
            REP_REPORT,
            self.part,
            send_batch(self._tx, exports, self._scratch),
            next_t,
            self.remaining,
            self.done_at,
            self.sim.now,
            self.sim.steps,
        )

    # -- result assembly ---------------------------------------------------
    def result(self) -> tuple:
        """Per-rank outcome of this partition, all picklable."""
        contexts = sorted(self.contexts, key=lambda c: c.world_rank)
        per_rank_stats = {
            ctx.world_rank: aggregate(mb.stats for mb in ctx.mailboxes)
            for ctx in contexts
        }
        term = {
            ctx.world_rank: [
                (mb._app_kind[1], mb.term_totals, mb._term.last_contribution)
                for mb in ctx.mailboxes
            ]
            for ctx in contexts
        }
        values = {
            r: (p.value if p.triggered else None) for r, p in self.procs.items()
        }
        transport = {
            "tx_busy": {
                n: self.machine.nic_tx[n].busy_time for n in self._owned_nodes
            },
            "rx_busy": {
                n: self.machine.nic_rx[n].busy_time for n in self._owned_nodes
            },
            "remote_packets": self.machine.remote_packets,
            "remote_bytes": self.machine.remote_bytes,
            "local_packets": self.machine.local_packets,
            "local_bytes": self.machine.local_bytes,
        }
        return (
            REP_RESULT,
            self.part,
            {
                "values": values,
                "done_at": self.done_at,
                "finish_times": dict(self.finish_times),
                "failed_at": dict(self.failed_at),
                "per_rank_stats": per_rank_stats,
                "term": term,
                "transport": transport,
                "steps": self.sim.steps,
            },
        )


def _serve(conn, runtime: PartitionRuntime) -> None:
    """Answer driver commands until ``CMD_FINISH``."""
    while True:
        msg = conn.recv()
        cmd = msg[0]
        if cmd == CMD_STEP:
            _, horizon, batch, drain = msg
            conn.send(runtime.step(horizon, batch, drain))
        elif cmd == CMD_FINISH:
            conn.send(runtime.result())
            return
        else:
            raise ValueError(f"unknown PDES command {cmd!r}")


def worker_main(conn, spec: WorkerSpec) -> None:
    """Forked-process entry point: build the partition, serve the pipe."""
    try:
        runtime = PartitionRuntime(spec)
        conn.send((REP_READY, spec.part))
        _serve(conn, runtime)
    except EOFError:
        return  # driver went away; nothing to report to
    except BaseException:
        try:
            conn.send((REP_ERROR, spec.part, traceback.format_exc()))
        except (BrokenPipeError, OSError):
            pass
    finally:
        if spec.rings is not None:
            try:
                spec.rings.close()
            except BufferError:  # pragma: no cover - leaked view; best effort
                pass
        try:
            conn.close()
        except OSError:
            pass
