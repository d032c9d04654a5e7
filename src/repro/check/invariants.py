"""Runtime invariant checkers for the DES/YGM stack.

An :class:`InvariantChecker` audits a running :class:`~repro.mpi.world.
World` / :class:`~repro.core.context.YgmWorld` through the existing
trace hooks (:mod:`repro.trace`), so checking is attachable to *any*
simulation without instrumenting application code.  The invariants:

* **monotonic simulated time** -- the kernel clock never moves backwards
  (sampled at every trace event);
* **quiescence is real** -- whenever the termination detector completes
  an epoch, the protocol's agreed global totals must balance
  (``sent == received``), every rank of the epoch must agree on them,
  and no rank may exit with messages still in its coalescing buffers;
* **resource sanity** -- NIC queue depths are never negative, and at
  finalize no NIC slot is still held (a leak) and no waiter is queued;
* **nothing left behind** -- at finalize the unexpected-message queues
  and all subscribed traffic-class stores are drained;
* **conservation** -- over a completed run, application messages posted
  equal messages delivered plus messages eliminated by in-network
  combining, each broadcast was delivered to exactly ``nranks - 1``
  ranks, and transport entries sent equal entries received.

Violations raise :class:`InvariantViolation` (an ``AssertionError``
subclass) at the moment of detection, so a failing schedule-fuzzer seed
points directly at the first bad state transition.

Typical use::

    checker = InvariantChecker()
    world = YgmWorld(machine, scheme="nlnr", tracer=checker.tracer)
    checker.watch(world)
    result = world.run(rank_main)
    checker.finalize(result)

or, in one call, :func:`run_checked`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..trace.tracer import CallbackSink, TraceEvent, Tracer

#: Trace categories the checker needs when it builds its own tracer.
CHECK_CATEGORIES = frozenset({"mailbox", "resource"})


class InvariantViolation(AssertionError):
    """A runtime invariant of the simulation stack was violated."""


class InvariantChecker:
    """Audits simulation runs for stack invariants via trace hooks.

    Parameters
    ----------
    tracer:
        An existing :class:`~repro.trace.Tracer` to piggyback on (it
        must record the ``"mailbox"`` category).  By default the checker
        builds its own minimal tracer; pass it as the ``tracer=`` of the
        world under test, or simply call :meth:`watch` on a world that
        has no tracer yet.
    strict_epochs:
        Whether an epoch that was reported by only *some* ranks by
        finalize time is a violation.  True for ``wait_empty``-style
        collectives; disable for apps that stop polling ``test_empty``
        early.
    """

    def __init__(self, tracer: Optional[Tracer] = None, strict_epochs: bool = True):
        if tracer is None:
            tracer = Tracer(sinks=[], categories=CHECK_CATEGORIES)
        if not tracer.wants("mailbox"):
            raise ValueError(
                "invariant checking requires the 'mailbox' trace category"
            )
        tracer.sinks.append(CallbackSink(self._on_event))
        self.tracer = tracer
        self.strict_epochs = strict_epochs
        self._worlds: List[Tuple[Any, Any]] = []  # (as-given, inner World)
        self._last_now: Dict[int, float] = {}
        #: Open (not yet fully reported) epochs:
        #: ``(mailbox_id, epoch) -> {rank: (sent, received)}``.
        self._open: Dict[Tuple[int, int], Dict[int, Tuple[int, int]]] = {}
        #: Fully checked quiescence epochs.
        self.epochs_checked = 0
        #: Trace events audited.
        self.events_seen = 0

    # -- wiring ------------------------------------------------------------
    def watch(self, world):
        """Register a world for auditing; returns it for chaining.

        Accepts a :class:`YgmWorld` or a bare :class:`World`.  If the
        world has no tracer yet, the checker's tracer is installed;
        if it has a different one, that is an error (build the world
        with ``tracer=checker.tracer`` instead).
        """
        inner = getattr(world, "world", world)
        sim = inner.sim
        if sim.tracer is None:
            cfg = inner.machine.config
            self.tracer.bind(nodes=cfg.nodes, cores_per_node=cfg.cores_per_node)
            sim.tracer = self.tracer
        elif sim.tracer is not self.tracer:
            raise ValueError(
                "world already carries a different tracer; construct it with "
                "tracer=checker.tracer to audit it"
            )
        self._worlds.append((world, inner))
        return world

    # -- event-time checks ---------------------------------------------------
    def _fail(self, message: str) -> None:
        raise InvariantViolation(message)

    def _on_event(self, event: TraceEvent) -> None:
        self.events_seen += 1
        for _, inner in self._worlds:
            sim = inner.sim
            now = sim.now
            last = self._last_now.get(id(sim))
            if last is not None and now < last:
                self._fail(
                    f"simulated time moved backwards: {last} -> {now} "
                    f"(at event {event.cat}/{event.name})"
                )
            self._last_now[id(sim)] = now
        if event.cat == "mailbox" and event.name == "quiescent":
            self._on_quiescent(event.args or {})
        elif event.cat == "resource" and event.ph == "C":
            value = (event.args or {}).get("value", 0)
            if value < 0:
                self._fail(
                    f"resource {event.lane!r} reported negative queue depth {value}"
                )

    def _on_quiescent(self, args: Dict[str, Any]) -> None:
        key = (args["mailbox"], args["epoch"])
        group = self._open.setdefault(key, {})
        rank = args["rank"]
        if rank in group:
            self._fail(
                f"mailbox {key[0]} epoch {key[1]}: rank {rank} reported "
                "quiescence twice"
            )
        if args["queued"] != 0:
            self._fail(
                f"mailbox {key[0]} epoch {key[1]}: rank {rank} declared "
                f"quiescent with {args['queued']} messages still buffered"
            )
        totals = (args["term_sent"], args["term_received"])
        if totals[0] != totals[1]:
            self._fail(
                f"mailbox {key[0]} epoch {key[1]}: termination declared with "
                f"unbalanced global totals sent={totals[0]} received={totals[1]} "
                "-- messages were still in flight"
            )
        group[rank] = totals
        if len(group) == args["size"]:
            if len(set(group.values())) != 1:
                self._fail(
                    f"mailbox {key[0]} epoch {key[1]}: ranks disagree on the "
                    f"quiescence totals: {sorted(group.items())}"
                )
            del self._open[key]
            self.epochs_checked += 1

    # -- end-of-run checks ------------------------------------------------------
    def finalize(self, result=None) -> Dict[str, int]:
        """Run the at-quiescence checks; call after the world completes.

        ``result`` (a :class:`~repro.core.context.YgmResult`), when
        given, additionally enables the global conservation checks.
        Returns a small summary dict for reporting.
        """
        for _, inner in self._worlds:
            machine = inner.machine
            for res in (*machine.nic_tx, *machine.nic_rx):
                if res.in_use != 0:
                    self._fail(
                        f"resource {res.name!r} leaked: in_use={res.in_use} "
                        "after quiescence"
                    )
                if res.queue_length != 0:
                    self._fail(
                        f"resource {res.name!r} still has {res.queue_length} "
                        "queued waiters after quiescence"
                    )
            for inbox in inner.inboxes:
                if inbox.pending_unexpected:
                    self._fail(
                        f"rank {inbox.rank}: {inbox.pending_unexpected} packets "
                        "left in the unexpected queue at finalize"
                    )
                # One store may carry several kinds: audit it once.
                by_store: Dict[int, Tuple[Any, List[Any]]] = {}
                for (_ctx, kind), store in inbox.subscribed_stores().items():
                    by_store.setdefault(id(store), (store, []))[1].append(kind)
                for store, kinds in by_store.values():
                    if len(store):
                        self._fail(
                            f"rank {inbox.rank}: {len(store)} undelivered "
                            f"packets in subscribed store {kinds!r} at finalize"
                        )
        if self.strict_epochs and self._open:
            partial = {
                key: sorted(group) for key, group in sorted(self._open.items())
            }
            self._fail(
                f"quiescence epochs reported by only some ranks: {partial}"
            )
        if result is not None:
            self.check_conservation(result)
        return {
            "epochs_checked": self.epochs_checked,
            "events_seen": self.events_seen,
            "worlds": len(self._worlds),
        }

    def check_conservation(self, result) -> None:
        """Global message-conservation checks over a completed run."""
        stats = result.mailbox_stats
        nranks = len(result.per_rank_stats)
        # In-network combining legitimately collapses posted records
        # mid-route; every merged-away record is tallied exactly once in
        # ``entries_combined``, so the conserved quantity is
        # posted == delivered + combined (combined == 0 without a combiner).
        if (
            stats.app_messages_sent
            != stats.app_messages_delivered + stats.entries_combined
        ):
            self._fail(
                f"application messages not conserved: posted "
                f"{stats.app_messages_sent}, delivered "
                f"{stats.app_messages_delivered} + combined "
                f"{stats.entries_combined}"
            )
        expected = stats.bcasts_initiated * max(0, nranks - 1)
        if expected != stats.bcast_deliveries:
            self._fail(
                f"broadcast copies not conserved: {stats.bcasts_initiated} "
                f"broadcasts on {nranks} ranks should deliver {expected} "
                f"copies, saw {stats.bcast_deliveries}"
            )
        if stats.entries_sent != stats.entries_received:
            self._fail(
                f"transport entries not conserved: sent {stats.entries_sent}, "
                f"received {stats.entries_received}"
            )


def run_checked(
    machine,
    rank_main,
    scheme: str = "nlnr",
    seed: int = 0,
    mailbox_capacity: Optional[int] = None,
    tiebreaker=None,
):
    """Run ``rank_main`` on a fresh audited world; returns ``(result, checker)``.

    Raises :class:`InvariantViolation` if any invariant fails during the
    run or at finalize.
    """
    from ..core.context import YgmWorld

    checker = InvariantChecker()
    kwargs = {}
    if mailbox_capacity is not None:
        kwargs["mailbox_capacity"] = mailbox_capacity
    world = YgmWorld(
        machine,
        scheme=scheme,
        seed=seed,
        tracer=checker.tracer,
        tiebreaker=tiebreaker,
        **kwargs,
    )
    checker.watch(world)
    result = world.run(rank_main)
    checker.finalize(result)
    return result, checker
