"""The discrete-event simulation kernel.

:class:`Simulator` owns a priority queue of triggered events.  By default
(no tiebreaker) heap entries are ``(time, sequence_number, event)``: the
sequence number makes execution fully deterministic -- two events
triggered for the same simulated time are processed in the order they
were triggered.

The tiebreak key is *pluggable*: pass a ``tiebreaker`` callable to
reorder same-timestamp events; entries then carry an extra key,
``(time, tiebreak_key, sequence_number, event)`` (the sequence number
still breaks the remaining ties, so any tiebreaker yields a
deterministic run).  This is the hook the correctness harness's schedule
fuzzer (:mod:`repro.check.fuzz`) uses to explore adversarial
interleavings -- any application property that holds for the default
FIFO order must hold for every tiebreaker, because same-timestamp
ordering is an artifact of the kernel, not of the modelled machine.

The enqueue path is specialised per shape at construction time
(:meth:`_enqueue` is bound to the FIFO or the tiebreaker variant), so
the no-tiebreaker hot path never branches on the hook.  The run loops
likewise pop and dispatch inline rather than calling :meth:`step` per
event; :meth:`step` remains the single-step API.

Either way the key is taken when an event is *pushed*: a layer standing
one event in for several (a NIC hold, a remote packet's arrival) pushes it
at the instant those were -- the contract in :mod:`repro.sim.resources`.

The kernel is intentionally tiny -- the whole simulated-MPI/YGM stack is
expressed in terms of :class:`~repro.sim.events.Event`,
:class:`~repro.sim.process.Process`, :class:`~repro.sim.stores.Store` and
:class:`~repro.sim.resources.Resource`.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, List, Optional, Sequence

from .errors import DeadlockError
from .events import AllOf, AnyOf, Callback, Event, Timeout
from .process import Process


#: Type of a same-timestamp ordering hook: ``tiebreaker(time, seq)``
#: returns a sort key inserted between the timestamp and the sequence
#: number.  Must be deterministic for reproducible runs.
Tiebreaker = Callable[[float, int], int]

#: The run loops record a wall-clock progress sample on the installed
#: tracer every this many events (plus one at loop entry and exit), which
#: is what :mod:`repro.trace.metrics` turns into ``events_per_sec`` /
#: ``wall_ms`` columns.  Sampling only appends to a tracer-side list, so
#: traced runs stay bit-identical to untraced ones.
PROGRESS_SAMPLE_EVERY = 1024


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    tiebreaker:
        Optional ``(time, seq) -> key`` hook ordering same-timestamp
        events by ``key`` (then by ``seq``).  ``None`` (the default)
        keeps pure FIFO order of triggering.

    Example
    -------
    >>> sim = Simulator()
    >>> def hello(sim):
    ...     yield sim.timeout(1.5)
    ...     return "done"
    >>> p = sim.process(hello(sim))
    >>> sim.run()
    >>> p.value
    'done'
    >>> sim.now
    1.5
    """

    def __init__(self, tiebreaker: Optional[Tiebreaker] = None) -> None:
        self._now: float = 0.0
        self._seq: int = 0
        self._tiebreaker = tiebreaker
        # Heap entry shape is fixed per simulator: 3-tuples for FIFO,
        # 4-tuples (with the tiebreak key) when a tiebreaker is given.
        # Binding the matching enqueue variant here hoists the branch out
        # of every triggering site.
        if tiebreaker is None:
            self._heap: List[tuple] = []
            self._enqueue = self._enqueue_fifo
        else:
            self._heap = []
            self._enqueue = self._enqueue_tiebreak
        #: Number of live (unfinished) processes; used for deadlock checks.
        self._live_processes: int = 0
        self._steps: int = 0
        #: Optional :class:`repro.trace.Tracer`; every layer reads its
        #: tracer from here.  ``None`` (the default) makes all trace
        #: hooks a single attribute check.
        self.tracer = None

    # -- time --------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def steps(self) -> int:
        """Total number of events processed so far (diagnostic)."""
        return self._steps

    # -- event factories -----------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create a fresh pending event."""
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event triggering ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def any_of(self, events: Sequence[Event]) -> AnyOf:
        """An event triggering when the first of ``events`` triggers."""
        return AnyOf(self, events)

    def all_of(self, events: Sequence[Event]) -> AllOf:
        """An event triggering when all of ``events`` have triggered."""
        return AllOf(self, events)

    def process(self, gen: Generator, name: str = "") -> Process:
        """Launch *gen* as a simulated process; returns its Process event."""
        return Process(self, gen, name=name)

    def process_batch(
        self, gens: Iterable[Generator], names: Optional[Sequence[str]] = None
    ) -> List[Process]:
        """Launch many processes whose init events share one timestamp.

        Equivalent to calling :meth:`process` in order (identical
        sequence numbers, hence identical schedules), but the startup
        events go through one batched enqueue pass -- the fast path for
        launching a whole machine's rank programs at once.
        """
        gens = list(gens)
        if names is None:
            names = [""] * len(gens)
        procs = [
            Process(self, gen, name=name, _defer_start=True)
            for gen, name in zip(gens, names)
        ]
        self._enqueue_batch([p._make_init_event() for p in procs])
        return procs

    # -- queue management ------------------------------------------------------
    def _enqueue_fifo(self, event: Event, delay: float = 0.0) -> None:
        """Place a triggered event on the queue (no-tiebreaker fast path)."""
        self._seq = seq = self._seq + 1
        heapq.heappush(self._heap, (self._now + delay, seq, event))

    def _enqueue_tiebreak(self, event: Event, delay: float = 0.0) -> None:
        """Enqueue with the pluggable same-timestamp ordering key."""
        self._seq = seq = self._seq + 1
        t = self._now + delay
        heapq.heappush(self._heap, (t, self._tiebreaker(t, seq), seq, event))

    # Kept as a plain method so subclasses/docs have a stable name; the
    # constructor rebinds it to the matching specialisation per instance.
    _enqueue = _enqueue_fifo

    def _enqueue_batch(self, events: Sequence[Event], delay: float = 0.0) -> None:
        """Enqueue many triggered events for the same timestamp.

        One pass with hoisted locals; sequence numbers are assigned in
        input order, so this is bit-identical to enqueueing one by one.
        """
        t = self._now + delay
        heap = self._heap
        push = heapq.heappush
        seq = self._seq
        if self._tiebreaker is None:
            for ev in events:
                seq += 1
                push(heap, (t, seq, ev))
        else:
            tb = self._tiebreaker
            for ev in events:
                seq += 1
                push(heap, (t, tb(t, seq), seq, ev))
        self._seq = seq

    def run_window(self, limit: float) -> Optional[float]:
        """Process every queued event with timestamp strictly below ``limit``.

        The conservative-synchronisation window of :mod:`repro.pdes`:
        events at or beyond ``limit`` may still be affected by
        not-yet-received cross-partition traffic, so the loop leaves them
        queued and returns the earliest pending timestamp (``None`` if
        the queue drained).  Unlike :meth:`run`, the clock is never
        advanced past the last *processed* event and an empty queue is
        not a deadlock -- the partition may simply be waiting for
        injections, which only the driver can rule out globally.
        """
        heap = self._heap
        pop = heapq.heappop
        while heap and heap[0][0] < limit:
            item = pop(heap)
            self._now = item[0]
            self._steps += 1
            tracer = self.tracer
            if tracer is not None:
                self._trace_step(tracer, item[-1])
            item[-1]._process()
        return heap[0][0] if heap else None

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Run ``callback()`` after ``delay`` seconds; returns the event.

        Uses the lightweight :class:`~repro.sim.events.Callback` event --
        no Timeout + closure pair per call.
        """
        return Callback(self, delay, callback)

    def schedule_at(self, at: float, callback: Callable[[], None]) -> Event:
        """Run ``callback()`` at the *absolute* time ``at``; returns the event.

        The absolute-time twin of :meth:`schedule`: :mod:`repro.pdes`
        replays a cross-partition packet arrival with it at its exact
        timestamp (``delay = at - now`` would round-trip through float
        subtraction and lose bit-identity with the serial ``t_wire +
        remote_delay``).  ``at`` may not be in the past.
        """
        if at < self._now:
            raise ValueError(
                f"cannot schedule at t={at!r}: simulator already at {self._now!r}"
            )
        event = Callback(self, 0.0, callback, _defer=True)
        self._seq = seq = self._seq + 1
        if self._tiebreaker is None:
            heapq.heappush(self._heap, (at, seq, event))
        else:
            heapq.heappush(self._heap, (at, self._tiebreaker(at, seq), seq, event))
        return event

    def schedule_batch(
        self, delay: float, callbacks: Iterable[Callable[[], None]]
    ) -> List[Event]:
        """Schedule many callbacks for the same future time in one pass."""
        events = [Callback(self, delay, fn, _defer=True) for fn in callbacks]
        self._enqueue_batch(events, delay=delay)
        return events

    # -- execution -------------------------------------------------------------
    def step(self) -> None:
        """Process the single next event."""
        item = heapq.heappop(self._heap)
        self._now = item[0]
        self._steps += 1
        tracer = self.tracer
        if tracer is not None:
            self._trace_step(tracer, item[-1])
        item[-1]._process()

    def _trace_step(self, tracer, event: Event) -> None:
        """Per-event trace hook + periodic wall-clock progress sample."""
        if tracer.wants("kernel"):
            tracer.instant(
                self._now, "kernel", event.name or type(event).__name__, "kernel"
            )
        if not self._steps % PROGRESS_SAMPLE_EVERY:
            tracer.progress(self._now, self._steps)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or simulated time passes ``until``.

        Raises
        ------
        DeadlockError
            If the queue drains while processes are still live.  (Live
            means started and not finished; a blocked process with no
            pending event can never make progress again.)
        """
        heap = self._heap
        pop = heapq.heappop
        tracer = self.tracer
        if tracer is not None:
            tracer.progress(self._now, self._steps)
        if until is None:
            while heap:
                item = pop(heap)
                self._now = item[0]
                self._steps += 1
                tracer = self.tracer
                if tracer is not None:
                    self._trace_step(tracer, item[-1])
                item[-1]._process()
        else:
            while heap:
                if heap[0][0] > until:
                    self._now = until
                    self._finish_trace()
                    return
                item = pop(heap)
                self._now = item[0]
                self._steps += 1
                tracer = self.tracer
                if tracer is not None:
                    self._trace_step(tracer, item[-1])
                item[-1]._process()
        self._finish_trace()
        if self._live_processes > 0:
            raise DeadlockError(self._live_processes, self._now)

    def _finish_trace(self) -> None:
        tracer = self.tracer
        if tracer is not None:
            tracer.progress(self._now, self._steps)

    def run_until_complete(self, *processes: Process) -> None:
        """Run until every given process has finished.

        Unlike :meth:`run`, other still-live processes (e.g. daemon-like
        service loops) do not count as a deadlock once the awaited
        processes are done.  Completion is tracked by a countdown fed
        from per-process callbacks -- O(1) per step, independent of the
        number of awaited processes.
        """
        remaining = len(processes)

        def finished(_ev: Event) -> None:
            nonlocal remaining
            remaining -= 1

        for p in processes:
            p.attach(finished)  # runs inline if already processed

        heap = self._heap
        pop = heapq.heappop
        tracer = self.tracer
        if tracer is not None:
            tracer.progress(self._now, self._steps)
        while remaining > 0:
            if not heap:
                raise DeadlockError(self._live_processes, self._now)
            item = pop(heap)
            self._now = item[0]
            self._steps += 1
            tracer = self.tracer
            if tracer is not None:
                self._trace_step(tracer, item[-1])
            item[-1]._process()
        self._finish_trace()
