"""The conservative parallel-DES driver (window-barrier protocol).

One big simulation, partitioned by node across forked worker processes
(:mod:`repro.pdes.worker`), each running the unchanged serial kernel
over its node block.  The driver advances everyone in *windows*:

1. every partition reports the timestamp of its earliest pending event;
2. the driver computes each partition's earliest activity ``e_p`` (its
   next event or earliest not-yet-injected import arrival) and hands
   partition ``p`` the horizon ``H_p = min(A_p + L, e_p + K*L)``, where
   ``A_p = min over other active partitions q of e_q``, the lookahead
   ``L`` is the network model's
   :func:`~repro.pdes.partition.min_wire_latency`, and
   ``K`` is the window-batch factor (``K = 1`` collapses every ``H_p``
   to the classic common horizon ``t_min + L``);
3. partitions process every event strictly below ``H_p``, *dynamically
   clamped* by the worker's export hook: after the partition's first
   export of the round at wire instant ``w`` it stops at ``w + 2L``
   (the earliest instant the outside world's reaction to that export
   could arrive back), and after its first export *to itself* at ``w_s``
   it stops at ``w_s + L`` (such a packet re-enters directly).  Any
   import generated this round by another partition arrives at
   ``>= A_p + L >= H_p``; chains that pass through this partition's own
   influence arrive ``>= w + 2L`` (or ``w_s + L``) -- so nothing a
   partition processes can precede an import it has yet to see
   (conservative synchronisation, no rollback), while a partition with
   no nearby neighbours or no outbound traffic runs up to ``K`` windows
   between barriers;
4. at the barrier, exported packets are routed to the partitions owning
   their destination ranks and injected at bit-identical arrival
   timestamps; repeat.  With ``window_batch=0`` (the default) ``K``
   adapts to observed traffic: it doubles after an export-free round
   and halves (to a floor of 1) after a round that exported, so chatty
   phases run at the provably-tight single window while quiet phases
   collapse barriers ~``K``-fold.

Export batches cross process boundaries through shared-memory rings
(:mod:`repro.pdes.rings`): the pipes carry only verbs, horizons and tiny
batch descriptors while the packet bytes move through per-worker SPSC
rings in the serde wire format (:mod:`repro.pdes.wire`).

A partition whose owned rank programs have all completed freezes at its
local completion instant (the serial ``run_until_complete`` stop rule)
and is excluded from the horizon computation; once *every* partition has
completed, leftovers strictly below the global completion time
``T_final = max(local finishes)`` -- events the serial run would still
have processed while later-finishing ranks were live -- are drained,
and per-rank results are aggregated into a normal
:class:`~repro.core.context.YgmResult`.

Global quiescence totals are audited across partitions: every mailbox's
:attr:`~repro.core.termination.TerminationDetector.last_contribution`
samples (one per rank) must sum to the termination detector's agreed
global ``last_totals`` -- the partition-composable identity the serial
detector guarantees.
"""

from __future__ import annotations

import math
import multiprocessing
import time
from typing import Any, Callable, Dict, Generator, List, Optional, Union

from ..core.config import MailboxConfig
from ..core.context import YgmResult
from ..core.routing import RoutingScheme, get_scheme
from ..core.stats import aggregate
from ..machine import MachineConfig, bench_machine
from ..mpi.world import failed_rank_deadlock
from ..sim.errors import DeadlockError
from .partition import NodePartition, min_wire_latency
from .rings import DESC_NONE, RingError, ShmTransport, recv_batch, send_batch
from .wire import decode_batch
from .worker import (
    CMD_FINISH,
    CMD_STEP,
    REP_ERROR,
    REP_READY,
    REP_REPORT,
    REP_RESULT,
    WorkerSpec,
    worker_main,
)


class PdesError(RuntimeError):
    """A protocol failure in the parallel engine (not a simulation error)."""


class PdesStallError(PdesError):
    """A worker failed to reach the window barrier within the timeout.

    ``detail`` names the congested ring(s) from the always-on
    :class:`~repro.pdes.rings.RingStats` counters, so a stall verdict
    says *where* the traffic was sitting, not just who went quiet.
    """

    def __init__(
        self, stalled: List[int], timeout: float, round_no: int,
        detail: str = "",
    ):
        self.stalled = stalled
        super().__init__(
            f"PDES partition(s) {stalled} stalled: no barrier report within "
            f"{timeout:.1f}s (window round {round_no}); workers killed"
            + detail
        )


class PdesWorld:
    """A :class:`~repro.core.YgmWorld` lookalike running the simulation
    partitioned across ``workers`` processes.

    The result is bit-identical to the serial ``YgmWorld.run`` -- same
    values, timestamps, delivery orders and statistics -- which the
    ``tests/pdes`` conformance battery enforces across every app,
    routing scheme and partition count.
    """

    def __init__(
        self,
        machine: Union[MachineConfig, int],
        scheme: Union[str, RoutingScheme] = "nlnr",
        seed: int = 0,
        mailbox_capacity: int = MailboxConfig().capacity,
        cores_per_node: int = 8,
        tracer=None,
        tiebreaker=None,
        workers: int = 2,
        window_timeout: float = 120.0,
        window_batch: int = 0,
        ring_bytes: Optional[int] = None,
    ):
        # Before any fork: a non-positive or NaN timeout would otherwise
        # report every partition as stalled at round 0.
        if not (math.isfinite(window_timeout) and window_timeout > 0):
            raise ValueError(
                f"PdesWorld.window_timeout must be a finite number of "
                f"seconds > 0, got {window_timeout!r}"
            )
        if isinstance(machine, int):
            machine = bench_machine(nodes=machine, cores_per_node=cores_per_node)
        self.machine_config = machine
        self.tracer = tracer
        self.tiebreaker = tiebreaker
        self.seed = seed
        if isinstance(scheme, str):
            scheme = get_scheme(scheme, machine.nodes, machine.cores_per_node)
        elif (scheme.nodes, scheme.cores) != (machine.nodes, machine.cores_per_node):
            raise ValueError("routing scheme shape does not match the machine")
        self.scheme = scheme
        self.default_config = MailboxConfig(capacity=mailbox_capacity)
        self.partition = NodePartition(
            machine.nodes, machine.cores_per_node, workers
        )
        self.lookahead = min_wire_latency(machine.net)
        if not self.lookahead > 0.0:
            raise PdesError(
                f"conservative lookahead must be positive, got "
                f"{self.lookahead!r} (min_wire_latency of the network model); a "
                "zero-latency interconnect admits no parallel window"
            )
        self.window_timeout = window_timeout
        if window_batch < 0:
            raise PdesError(
                f"window_batch must be >= 0 (0 selects the adaptive "
                f"policy), got {window_batch}"
            )
        #: Window-batch factor K; 0 = adaptive, 1 = the legacy common
        #: horizon, k > 1 = up to k lookahead windows per barrier round.
        self.window_batch = window_batch
        self.ring_bytes = ring_bytes
        self._rings: Optional[ShmTransport] = None
        self._scratch = bytearray()
        if tracer is not None:
            tracer.bind(
                nodes=machine.nodes, cores_per_node=machine.cores_per_node
            )
        #: Driver-side :class:`~repro.pdes.rings.RingStats` dicts of the
        #: last multi-partition run (``{"to_worker": [...],
        #: "from_worker": [...]}``), captured at ring teardown so they
        #: stay readable post-run; ``None`` before the first such run.
        self.ring_stats: Optional[dict] = None
        #: Window-protocol counters of the last :meth:`run` (diagnostics).
        self.rounds = 0
        self.exported_packets = 0
        self.spilled_batches = 0
        self.max_window_batch = 1

    @property
    def nranks(self) -> int:
        return self.machine_config.nranks

    @property
    def nworkers(self) -> int:
        return self.partition.nparts

    # -- worker management -------------------------------------------------
    def _spawn(self, rank_main) -> tuple:
        ctx = multiprocessing.get_context("fork")
        conns, procs = [], []
        # The shared segment must exist before the fork: workers inherit
        # the one mapping (nothing is pickled, nothing re-attaches by
        # name), so only the driver's resource tracker registers it and
        # the single unlink in run()'s finally leaves it quiet.  One
        # partition exports nothing, so it needs no rings.
        rings = None
        if self.nworkers > 1:
            rings = ShmTransport(self.nworkers, self.ring_bytes)
        self._rings = rings
        try:
            for p in range(self.nworkers):
                parent, child = ctx.Pipe()
                spec = WorkerSpec(
                    part=p,
                    partition=self.partition,
                    machine_config=self.machine_config,
                    scheme=self.scheme,
                    seed=self.seed,
                    default_config=self.default_config,
                    rank_main=rank_main,
                    tiebreaker=self.tiebreaker,
                    rings=rings,
                )
                proc = ctx.Process(
                    target=worker_main, args=(child, spec), daemon=True,
                    name=f"pdes-part{p}",
                )
                proc.start()
                child.close()
                conns.append(parent)
                procs.append(proc)
        except BaseException:
            self._kill(procs)
            self._teardown_rings()
            raise
        return conns, procs

    def _teardown_rings(self) -> None:
        rings, self._rings = self._rings, None
        if rings is None:
            return
        # Keep the always-on driver-side counters readable after the
        # segment is gone: `engine.ring_stats` is the post-run view.
        self.ring_stats = {
            "to_worker": [r.stats.as_dict() for r in rings.to_worker],
            "from_worker": [r.stats.as_dict() for r in rings.from_worker],
        }
        try:
            rings.close()
        except BufferError:  # pragma: no cover - leaked view; best effort
            pass
        finally:
            rings.unlink()

    def _kill(self, procs) -> None:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        deadline = time.monotonic() + 5.0
        for proc in procs:
            proc.join(max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.kill()

    def _recv(self, conns, procs, expect: str, round_no: int) -> List[tuple]:
        """One reply per worker, stall- and error-checked.

        Waits on all outstanding pipes at once and drains whichever are
        ready, so a stall verdict only ever names partitions that truly
        sent nothing -- not ones whose reply merely sat unread behind a
        slower sibling in the polling order.
        """
        replies: List[Optional[tuple]] = [None] * len(conns)
        part_of = {id(conn): p for p, conn in enumerate(conns)}
        pending = set(range(len(conns)))
        deadline = time.monotonic() + self.window_timeout
        eof: List[int] = []
        grace: Optional[float] = None
        while pending:
            budget = deadline - time.monotonic()
            if grace is not None:
                budget = min(budget, grace - time.monotonic())
            ready = (
                multiprocessing.connection.wait(
                    [conns[p] for p in pending], timeout=budget
                )
                if budget > 0
                else []
            )
            if not ready:
                if eof:
                    break  # grace expired: report the silent deaths
                stalled = sorted(pending)
                detail = self._ring_stall_note(stalled)
                self._kill(procs)
                raise PdesStallError(
                    stalled, self.window_timeout, round_no, detail
                )
            errors = []
            for conn in ready:
                p = part_of[id(conn)]
                try:
                    msg = conn.recv()
                except EOFError:
                    eof.append(p)
                    pending.discard(p)
                    continue
                if msg[0] == REP_ERROR:
                    errors.append(msg)
                    pending.discard(p)
                    continue
                if msg[0] != expect:
                    self._kill(procs)
                    raise PdesError(
                        f"PDES partition {p}: expected {expect!r} reply, "
                        f"got {msg[0]!r}"
                    )
                replies[p] = msg
                pending.discard(p)
            if errors:
                # A real traceback always beats a bare EOF: name the
                # partition that actually failed, even if a sibling's
                # pipe collapsed first in the polling order.
                self._kill(procs)
                raise PdesError(
                    f"PDES partition {errors[0][1]} failed:\n{errors[0][2]}"
                )
            if eof and grace is None:
                # A worker died without a traceback.  Give its siblings
                # a short grace window: when the true failure is a crash
                # elsewhere (the usual cascade), its REP_ERROR is already
                # in flight and must win the attribution.
                grace = time.monotonic() + 1.0
        if eof:
            self._kill(procs)
            parts = sorted(eof)
            raise PdesError(
                f"PDES partition(s) {parts} exited without a report "
                f"(window round {round_no})" + self._ring_attribution(parts)
            ) from None
        return replies  # type: ignore[return-value]

    def _ring_stall_note(self, parts: List[int]) -> str:
        """Name a stalled partition's congested rings (RingStats).

        Read *before* killing the workers so the shared head/tail
        counters still reflect the stall.  The import ring's high-water
        and spill counters are driver-side (the driver produces into
        it); the export ring's producer counters live in the worker, so
        only its live occupancy is reported here.
        """
        rings = self._rings
        if rings is None:
            return ""
        notes = []
        for p in parts:
            imp = rings.to_worker[p]
            ist = imp.stats
            if imp.used or ist.spills or ist.high_water:
                notes.append(
                    f"; partition {p} import ring: {imp.used} byte(s) "
                    f"unread of {imp.capacity} (high-water "
                    f"{ist.high_water}, {ist.spills} spill(s))"
                )
            exp = rings.from_worker[p]
            if exp.used:
                notes.append(
                    f"; partition {p} export ring: {exp.used} byte(s) "
                    f"undelivered of {exp.capacity}"
                )
        return "".join(notes)

    def _ring_attribution(self, parts: List[int]) -> str:
        """Describe what a dead worker left sitting in its export ring.

        A non-empty ``from_worker`` ring means the worker died *after*
        encoding its window exports but *before* its report reached the
        barrier -- the batches are drained (never routed: their window
        never completed) and counted so the error names how much traffic
        the dead partition was holding.
        """
        if self._rings is None:
            return ""
        notes = []
        for p in parts:
            ring = self._rings.from_worker[p]
            batches = msgs = 0
            while True:
                try:
                    data = ring.begin_pop()
                except RingError:
                    break
                try:
                    msgs += len(decode_batch(data))
                    batches += 1
                except Exception:  # truncated by the crash mid-encode
                    notes.append(
                        f"; partition {p} left a corrupt batch in its "
                        f"export ring"
                    )
                    break
                finally:
                    if type(data) is memoryview:
                        data.release()
                ring.commit_pop()
            if batches:
                notes.append(
                    f"; partition {p} left {batches} undelivered export "
                    f"batch(es) ({msgs} message(s)) in its ring"
                )
            elif ring.used > 0:
                notes.append(
                    f"; partition {p} left {ring.used} unread byte(s) "
                    f"(partial batch) in its export ring"
                )
        return "".join(notes)

    # -- export-batch transport --------------------------------------------
    def _ship(self, p: int, batch: List[tuple]):
        """Driver -> worker: returns what to put on the pipe for ``batch``.

        An empty batch never touches a ring -- which is all a
        one-partition run (no rings at all) ever ships.
        """
        if not batch:
            return DESC_NONE
        desc = send_batch(self._rings.to_worker[p], batch, self._scratch)
        if desc[0] == "spill":
            self.spilled_batches += 1
        return desc

    def _fetch(self, p: int, desc) -> List[tuple]:
        """Worker -> driver: materialise a report's export batch."""
        if desc == DESC_NONE:
            return []
        if desc[0] == "spill":
            self.spilled_batches += 1
        return recv_batch(self._rings.from_worker[p], desc)

    # -- the window-barrier protocol ---------------------------------------
    def run(self, rank_main: Callable[..., Generator]) -> YgmResult:
        """Run ``rank_main(ctx)`` on every rank, partitioned; returns the
        same :class:`YgmResult` the serial ``YgmWorld.run`` would."""
        nparts = self.nworkers
        lookahead = self.lookahead
        delay_of = self.machine_config.net.packet_costs
        owner_of_rank = self.partition.owner_of_rank
        tracer = self.tracer
        self.rounds = 0
        self.exported_packets = 0
        self.spilled_batches = 0
        self.max_window_batch = 1

        conns, procs = self._spawn(rank_main)
        try:
            self._recv(conns, procs, REP_READY, round_no=0)
            pending: List[List[tuple]] = [[] for _ in range(nparts)]

            def step_all(horizons, drain: bool) -> List[tuple]:
                for p, conn in enumerate(conns):
                    batch, pending[p] = pending[p], []
                    conn.send(
                        (CMD_STEP, horizons[p], self._ship(p, batch), drain)
                    )
                reports = self._recv(conns, procs, REP_REPORT, self.rounds)
                for rep in reports:
                    exports = self._fetch(rep[1], rep[2])
                    self.exported_packets += len(exports)
                    for exp in exports:
                        pending[owner_of_rank(exp[2])].append(exp)
                return reports

            # Round 0: report-only (no horizon), to learn initial t_min.
            reports = step_all([None] * nparts, drain=False)

            batch_k = self.window_batch if self.window_batch > 0 else 1
            adaptive = self.window_batch == 0
            while True:
                remaining = {rep[1]: rep[4] for rep in reports}
                if sum(remaining.values()) == 0:
                    break
                # Earliest activity e_p per *active* partition: its next
                # local event or earliest not-yet-injected import.
                # Completed partitions are frozen at their finish
                # instant -- their leftovers are post-completion chains
                # that cannot export (a packet's wire instant never
                # trails its sender's finish), so they are deferred to
                # the final drain rather than allowed to pin the horizon
                # forever.
                nxt: Dict[int, float] = {}
                for rep in reports:
                    p = rep[1]
                    if remaining[p] <= 0:
                        continue
                    cands = [
                        exp[0] + delay_of(exp[3])[1] for exp in pending[p]
                    ]
                    if rep[3] is not None:
                        cands.append(rep[3])
                    if cands:
                        nxt[p] = min(cands)
                if not nxt:
                    raise self._deadlock(conns, procs, reports, remaining)
                t_min = min(nxt.values())
                base = math.inf if nparts == 1 else t_min + lookahead
                if nparts == 1 or batch_k <= 1:
                    horizons = [base] * nparts
                else:
                    # Batched per-partition horizons: everything below
                    # min(A_p + L, e_p + K*L) is provably independent of
                    # this round's other windows *given* the workers'
                    # dynamic first-export clamp (see the module
                    # docstring for the two-hop reflection argument).
                    # K = 1 reduces exactly to the common base horizon.
                    horizons = []
                    for p in range(nparts):
                        e_p = nxt.get(p)
                        if e_p is None:
                            horizons.append(base)
                            continue
                        a_p = min(
                            (e for q, e in nxt.items() if q != p),
                            default=math.inf,
                        )
                        horizons.append(
                            min(a_p + lookahead, e_p + batch_k * lookahead)
                        )
                self.rounds += 1
                if batch_k > self.max_window_batch:
                    self.max_window_batch = batch_k
                spills_before = self.spilled_batches
                reports = step_all(horizons, drain=False)
                n_exports = sum(len(b) for b in pending)
                k_used = batch_k
                if adaptive and nparts > 1:
                    # Volume-driven K: double after an export-free round
                    # (quiet phase -- barriers are pure overhead), halve
                    # after an exporting round, collapse to 1 the moment
                    # a batch outgrew its ring.
                    if self.spilled_batches > spills_before:
                        batch_k = 1
                    elif n_exports == 0:
                        batch_k = min(batch_k * 2, 512)
                    else:
                        batch_k = max(1, batch_k // 2)
                if tracer is not None and tracer.wants("pdes"):
                    tracer.instant(
                        t_min, "pdes", "window", "pdes driver",
                        round=self.rounds, horizon=base,
                        batch=k_used,
                        active=sum(1 for r in remaining.values() if r > 0),
                        exports=n_exports,
                    )
                    for rep in reports:
                        tracer.instant(
                            rep[6], "pdes", "barrier", f"partition {rep[1]}",
                            round=self.rounds, next_t=rep[3],
                            remaining=rep[4], steps=rep[7],
                        )

            # -- final drain: the serial run keeps popping events until
            # the globally-last rank finishes; replay that tail.
            t_final = max(rep[5] for rep in reports)
            while True:
                self.rounds += 1
                reports = step_all([t_final] * nparts, drain=True)
                busy = any(
                    rep[3] is not None and rep[3] < t_final for rep in reports
                )
                if not busy and not any(pending):
                    break
            if tracer is not None and tracer.wants("pdes"):
                tracer.instant(
                    t_final, "pdes", "complete", "pdes driver",
                    rounds=self.rounds, exported=self.exported_packets,
                )

            for conn in conns:
                conn.send((CMD_FINISH,))
            results = self._recv(conns, procs, REP_RESULT, self.rounds)
        finally:
            self._kill(procs)
            for conn in conns:
                try:
                    conn.close()
                except OSError:
                    pass
            # Exactly one unlink, on every exit path -- normal, error,
            # stall kill, KeyboardInterrupt -- so no segment outlives
            # the run and the resource tracker stays quiet.
            self._teardown_rings()

        return self._assemble([rep[2] for rep in results])

    def _deadlock(self, conns, procs, reports, remaining) -> DeadlockError:
        """The global deadlock, blamed as ``World.run`` blames it: on the
        lowest rank that failed first, chained from its exception."""
        blocked = sum(remaining.values())
        latest = max(rep[6] for rep in reports)
        for conn in conns:
            conn.send((CMD_FINISH,))
        failed = {}
        for rep in self._recv(conns, procs, REP_RESULT, self.rounds):
            part = rep[2]
            for r, t in part["failed_at"].items():
                failed[r] = (t, part["values"][r])
        if not failed:
            return DeadlockError(blocked, latest)
        rank = min(failed)
        return failed_rank_deadlock(blocked, latest, rank, *failed[rank])

    # -- result assembly ---------------------------------------------------
    def _assemble(self, parts: List[dict]) -> YgmResult:
        nranks = self.nranks
        nodes = self.machine_config.nodes
        values: List[Any] = [None] * nranks
        finish_times: List[float] = [float("nan")] * nranks
        per_rank: List[Any] = [None] * nranks
        tx_busy: Dict[int, float] = {}
        rx_busy: Dict[int, float] = {}
        counters = {
            "remote_packets": 0, "remote_bytes": 0,
            "local_packets": 0, "local_bytes": 0,
        }
        term: Dict[int, list] = {}
        for part in parts:
            for r, v in part["values"].items():
                values[r] = v
            for r, t in part["finish_times"].items():
                finish_times[r] = t
            for r, stats in part["per_rank_stats"].items():
                per_rank[r] = stats
            term.update(part["term"])
            tx_busy.update(part["transport"]["tx_busy"])
            rx_busy.update(part["transport"]["rx_busy"])
            for key in counters:
                counters[key] += part["transport"][key]
        missing = [r for r in range(nranks) if per_rank[r] is None]
        if missing:
            raise PdesError(f"no partition reported ranks {missing}")
        # Serial elapsed is sim.now at the stop instant: the completion
        # event (success or failure) of the globally last rank.  Each
        # partition records exactly that instant locally as ``done_at``,
        # so the global stop is their max.  For all-success runs this
        # equals max(finish_times); unlike it, it stays finite when a
        # rank program died (its finish_time is NaN, as in serial).
        elapsed = max(part["done_at"] for part in parts)
        self._audit_term(term)
        # Same node-order float summation as Machine.nic_utilisation.
        transport = {
            "tx_busy": sum(tx_busy[n] for n in range(nodes)),
            "rx_busy": sum(rx_busy[n] for n in range(nodes)),
            **counters,
        }
        return YgmResult(
            values=values,
            elapsed=elapsed,
            finish_times=finish_times,
            transport=transport,
            per_rank_stats=per_rank,
            mailbox_stats=aggregate(per_rank),
        )

    def _audit_term(self, term: Dict[int, list]) -> None:
        """Check the partition-composable quiescence identity.

        For every mailbox id: the agreed global ``last_totals`` (same on
        every rank that completed the epoch) must equal the sum of the
        per-rank ``last_contribution`` samples collected from the
        partitions.  A mismatch means a partition lost or double-counted
        cross-partition traffic.
        """
        by_mailbox: Dict[int, Dict[str, Any]] = {}
        for rank, entries in term.items():
            for mailbox_id, totals, contribution in entries:
                if totals is None or contribution is None:
                    continue
                slot = by_mailbox.setdefault(
                    mailbox_id, {"totals": totals, "sent": 0, "recv": 0}
                )
                if slot["totals"] != totals:
                    raise PdesError(
                        f"mailbox {mailbox_id}: partitions disagree on "
                        f"quiescence totals ({slot['totals']} vs {totals} "
                        f"at rank {rank})"
                    )
                slot["sent"] += contribution[0]
                slot["recv"] += contribution[1]
        for mailbox_id, slot in by_mailbox.items():
            if (slot["sent"], slot["recv"]) != tuple(slot["totals"]):
                raise PdesError(
                    f"mailbox {mailbox_id}: quiescence totals are not "
                    f"partition-composable: sum of per-rank contributions "
                    f"({slot['sent']}, {slot['recv']}) != agreed totals "
                    f"{tuple(slot['totals'])}"
                )


def run_pdes(
    rank_main: Callable[..., Generator],
    machine: Union[MachineConfig, int],
    scheme: Union[str, RoutingScheme] = "nlnr",
    workers: int = 2,
    **kwargs,
) -> YgmResult:
    """One-call convenience wrapper around :class:`PdesWorld`."""
    return PdesWorld(machine, scheme=scheme, workers=workers, **kwargs).run(
        rank_main
    )
