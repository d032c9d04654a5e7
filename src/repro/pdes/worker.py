"""The per-partition worker of the parallel DES engine.

Each worker is a forked OS process owning one :class:`NodePartition`
block of the simulated machine.  It builds the *full* serial stack -- a
fresh :class:`~repro.mpi.world.World` with the complete machine shape
and inboxes for every rank -- but launches rank programs only for its
owned ranks and installs the machine's ``on_remote_export`` hook, so:

* all intra-partition simulation (local transfers, NIC contention,
  mailbox routing, same-node fast paths) runs through the unchanged
  serial kernel;
* a packet bound for a foreign rank is captured at its packet-on-wire
  instant and shipped to the driver instead of being simulated in
  flight; the owning partition replays the arrival at the bit-identical
  timestamp via :meth:`~repro.machine.topology.Machine.inject_arrival`.

The worker is driven round by round over a pipe (see
:mod:`repro.pdes.engine` for the window-barrier protocol).  Forking --
not spawning -- matters: rank programs are closures that never need to
be pickled; only per-window packet batches cross the pipe.
"""

from __future__ import annotations

import heapq
import math
import traceback
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, List, Optional

from ..core.config import MailboxConfig
from ..core.context import YgmContext
from ..core.stats import aggregate
from ..mpi import World
from ..sim.errors import DeadlockError
from .rings import encode_exports, push_encoded, recv_batch, send_batch

#: Command / reply verbs of the driver<->worker pipe protocol.
CMD_STEP = "step"
CMD_CLOCK = "clock"  # flight recorder: echo perf_counter for clock alignment
CMD_FINISH = "finish"
REP_READY = "ready"
REP_CLOCK = "clock"
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
    #: ``"pipe"`` ships export batches as objects over the pipe (the
    #: legacy pickling transport); ``"shm"`` ships them through the
    #: shared-memory rings with only a tiny descriptor on the pipe.
    transport: str = "pipe"
    rings: Any = None  # ShmTransport, shared with the driver via fork
    #: A :class:`~repro.pdes.flight.FlightSpec`, or ``None`` (the
    #: default): flight recording off, zero-cost on the worker hot path.
    flight: Any = None


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
        #: The :class:`~repro.pdes.flight.WorkerFlight` buffer, or
        #: ``None``.  Disabled is the default and costs the serve loop
        #: exactly one cached-attribute check per window, with zero
        #: flight-recorder code executed (both asserted by
        #: tests/pdes/test_flight.py).
        self.flight = None
        flight_tracer = None
        if spec.flight is not None:
            from ..trace import Tracer
            from .flight import WorkerFlight

            # In-worker tracer: simulated-time events + kernel progress
            # samples, buffered locally and shipped with the result.
            # Tracer hooks only *read* simulated state, so the run stays
            # bit-identical (the flight differentials enforce it).
            flight_tracer = Tracer(categories=spec.flight.categories)
            self.flight = WorkerFlight(spec.part, flight_tracer)
        self.world = World(
            spec.machine_config, seed=spec.seed, tracer=flight_tracer,
            tiebreaker=tiebreaker,
        )
        self.sim = self.world.sim
        self.machine = self.world.machine
        self.net = spec.machine_config.net
        self.owned: List[int] = list(spec.partition.ranks_of(spec.part))
        owned_nodes = set(spec.partition.nodes_of(spec.part))
        self._owned_nodes = owned_nodes
        self.exports: List[tuple] = []
        self.transport = spec.transport
        self._scratch = bytearray()
        if spec.rings is not None:
            self._rx = spec.rings.to_worker[spec.part]
            self._tx = spec.rings.from_worker[spec.part]
        else:
            self._rx = self._tx = None

        #: Live pump limit for the current window.  :meth:`pump` seeds it
        #: with the driver's horizon; the exporter hook *tightens* it as
        #: packets hit the wire (see below), which is what makes the
        #: driver's batched per-partition horizons safe.
        self._limit: float = math.inf

        exports_append = self.exports.append
        lookahead = self.net.min_wire_latency
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
            return True

        # Every inter-node packet -- cross-partition or not -- leaves via
        # the export hook and re-enters through :meth:`inject`, so all
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
            self.machine.on_remote_export = exporter

        # -- launch owned rank programs (same wrapping as YgmWorld.run +
        # World.run, restricted to the owned ranks in world-rank order so
        # partition-relative startup order matches the serial run) --
        self.contexts: List[YgmContext] = []
        self.finish_times: Dict[int, float] = {}
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
                value = yield from rank_main(ctx)
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
        (``transmit_remote``'s ``schedule(delay, ...)``) happens at.  Keying the
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
                machine.inject_arrival(
                    t_wire, src, dst, nbytes, packet, inboxes[dst].deliver
                )
        finally:
            self._push_override = None

    def pump(self, limit: float) -> Optional[float]:
        """Process events strictly below ``limit``, stopping at completion.

        The serial :meth:`~repro.sim.kernel.Simulator.run_until_complete`
        stop rule, windowed: the event that finishes the last owned rank
        program ends the pump mid-window.  The same simulated timestamp
        is then flushed (``run_until_complete`` would keep popping those
        events while *other* partitions' ranks are still live), so any
        packet already committed to the wire at the finish instant still
        exports instead of being stranded in a frozen heap.
        """
        sim = self.sim
        heap = sim._heap
        pop = heapq.heappop
        self._limit = limit
        while heap and heap[0][0] < self._limit:
            if self.remaining <= 0 and heap[0][0] != sim._now:
                break
            item = pop(heap)
            sim._now = item[0]
            sim._steps += 1
            if sim.tracer is not None:
                sim._trace_step(sim.tracer, item[-1])
            item[-1]._process()
        if not heap and self.remaining > 0 and limit == math.inf:
            # Single-partition mode mirrors the serial deadlock check; in
            # windowed mode an empty heap just means "waiting for
            # imports" and the driver rules on global deadlock.
            raise DeadlockError(self.sim._live_processes, self.sim.now)
        return heap[0][0] if heap else None

    def _advance(self, horizon, drain: bool) -> Optional[float]:
        """Pump this window's events; returns the next pending timestamp."""
        if horizon is None:
            return self.peek()
        if drain:
            return self.sim.run_window(horizon)
        if self.remaining > 0:
            return self.pump(horizon)
        return self.peek()

    def step(self, horizon, batch, drain: bool):
        """One window: inject, advance, report.

        ``batch`` is the import batch's pipe payload (object list or
        ring descriptor).  With the flight recorder off this path costs
        one cached-attribute check over the bare protocol work.
        """
        fl = self.flight
        if fl is not None:
            return self._step_flight(fl, horizon, batch, drain)
        self.inject(self.recv_imports(batch))
        next_t = self._advance(horizon, drain)
        exports, self.exports[:] = list(self.exports), []
        return (
            REP_REPORT,
            self.part,
            self._ship_exports(exports),
            next_t,
            self.remaining,
            self.done_at,
            self.sim.now,
            self.sim.steps,
        )

    def _step_flight(self, fl, horizon, batch, drain: bool):
        """The instrumented twin of :meth:`step`: same work, same order,
        with a clock read between the phases.  Under the pipe transport
        serialization happens implicitly inside the report's
        ``Connection.send``, so it lands in the serve loop's
        ``ring-push`` span instead of ``export-serialize``."""
        pc = perf_counter
        t0 = pc()
        self.inject(self.recv_imports(batch))
        t1 = pc()
        next_t = self._advance(horizon, drain)
        t2 = pc()
        exports, self.exports[:] = list(self.exports), []
        if self._tx is None or self.transport == "pipe":
            desc = exports
            t3 = t2
        else:
            nonempty = encode_exports(exports, self._scratch)
            t3 = pc()
            desc = push_encoded(self._tx, self._scratch, nonempty)
        t4 = pc()
        fl.span("import-drain", t0, t1 - t0)
        fl.span("compute", t1, t2 - t1)
        fl.span("export-serialize", t2, t3 - t2)
        fl.span("ring-push", t3, t4 - t3)
        if fl.tracer is not None:
            # Window-granularity progress sample: small workers may never
            # hit the kernel's 1024-step sampling stride, but the metrics
            # exporter needs >= 2 samples per worker to attribute wall
            # clock (the rank_group rows).  Reads state only.
            fl.tracer.progress_samples.append((self.sim.now, self.sim.steps, t2))
        fl.round += 1
        return (
            REP_REPORT,
            self.part,
            desc,
            next_t,
            self.remaining,
            self.done_at,
            self.sim.now,
            self.sim.steps,
        )

    # -- transport ---------------------------------------------------------
    def recv_imports(self, batch) -> List[tuple]:
        """Materialise a window's imports from their pipe descriptor."""
        if self._rx is None or self.transport == "pipe":
            return batch
        return recv_batch(self._rx, batch)

    def _ship_exports(self, exports: List[tuple]):
        """Encode a window's exports; returns what rides the pipe."""
        if self._tx is None or self.transport == "pipe":
            return exports
        return send_batch(self._tx, exports, self._scratch)

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
                (mb._app_kind[1], mb.term_totals, mb.term_contribution)
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
                "per_rank_stats": per_rank_stats,
                "term": term,
                "transport": transport,
                "steps": self.sim.steps,
                # Flight telemetry rides the control pipe with the final
                # result -- out of band, never through the data rings.
                "flight": (
                    self.flight.snapshot(self)
                    if self.flight is not None
                    else None
                ),
            },
        )


def _serve(conn, runtime: PartitionRuntime) -> None:
    """The flight-off serve loop: bare protocol, no clock reads."""
    while True:
        msg = conn.recv()
        cmd = msg[0]
        if cmd == CMD_STEP:
            _, horizon, batch, drain = msg
            conn.send(runtime.step(horizon, batch, drain))
        elif cmd == CMD_CLOCK:
            conn.send((REP_CLOCK, runtime.part, perf_counter()))
        elif cmd == CMD_FINISH:
            conn.send(runtime.result())
            return
        else:
            raise ValueError(f"unknown PDES command {cmd!r}")


def _serve_flight(conn, runtime: PartitionRuntime, fl) -> None:
    """The recorded serve loop: times the pipe waits and report sends.

    ``barrier-wait`` is the interval blocked in ``conn.recv`` -- it
    covers both the true barrier (waiting for siblings via the driver)
    and the driver's own bookkeeping, which is exactly the
    synchronisation cost a worker experiences.  Clock probes are
    answered before any recording so the handshake RTT stays minimal.
    """
    pc = perf_counter
    recv = conn.recv
    while True:
        t0 = pc()
        msg = recv()
        t1 = pc()
        cmd = msg[0]
        if cmd == CMD_CLOCK:
            conn.send((REP_CLOCK, runtime.part, pc()))
            fl.span("barrier-wait", t0, t1 - t0)
            continue
        fl.span("barrier-wait", t0, t1 - t0)
        if cmd == CMD_STEP:
            _, horizon, batch, drain = msg
            rep = runtime.step(horizon, batch, drain)
            t2 = pc()
            conn.send(rep)
            fl.span("ring-push", t2, pc() - t2)
        elif cmd == CMD_FINISH:
            # result() snapshots the flight buffer, so this is the last
            # thing recorded; the send itself is not (nobody could ship
            # a span describing its own shipping).
            conn.send(runtime.result())
            return
        else:
            raise ValueError(f"unknown PDES command {cmd!r}")


def worker_main(conn, spec: WorkerSpec) -> None:
    """Forked-process entry point: build the partition, serve the pipe."""
    try:
        runtime = PartitionRuntime(spec)
        conn.send((REP_READY, spec.part))
        if runtime.flight is not None:
            _serve_flight(conn, runtime, runtime.flight)
        else:
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
