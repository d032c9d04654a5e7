"""The tracer: an always-available, zero-cost-when-disabled event bus.

Every layer of the stack (DES kernel, machine resources, simulated MPI,
mailboxes) carries optional trace hooks of the form::

    tr = self.sim.tracer
    if tr is not None and tr.wants("mailbox"):
        tr.instant(self.sim.now, "mailbox", "forward", lane, entries=n)

When no tracer is installed (``sim.tracer is None``) the cost of a hook
is a single attribute load and identity check; when one is installed the
hooks only *read* simulated state (``sim.now``, counters) and append to
sink buffers -- they never create events, charge simulated time, or
consume randomness, so an instrumented run is bit-identical to an
untraced one (asserted by ``tests/trace/test_noperturb.py``).

Events are fanned out to pluggable :class:`Sink` objects.  The default
:class:`MemorySink` buffers everything for the post-hoc exporters in
:mod:`repro.trace.chrome` and :mod:`repro.trace.metrics`.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple


class TraceEvent(NamedTuple):
    """One trace record.

    ``ph`` follows the Chrome ``trace_event`` phase vocabulary:
    ``"i"`` instant, ``"X"`` complete (duration) and ``"C"`` counter.
    ``lane`` is the display track: ``"rank <r>"`` for rank timelines,
    the resource name (``"nic_tx[<node>]"`` / ``"nic_rx[<node>]"``) for
    NIC timelines, or a free-form label.
    """

    ts: float  # simulated seconds
    cat: str
    name: str
    ph: str
    lane: str
    dur: float
    args: Optional[Dict[str, object]]


class Sink:
    """Base class for trace sinks (the pluggable output side)."""

    def record(self, event: TraceEvent) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        """Flush/finalize; called by :meth:`Tracer.close`."""


class MemorySink(Sink):
    """Buffers every event in memory (feeds the exporters)."""

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []

    def record(self, event: TraceEvent) -> None:
        self.events.append(event)


class CallbackSink(Sink):
    """Streams every event to a user callback (e.g. live filtering)."""

    def __init__(self, callback) -> None:
        self.callback = callback

    def record(self, event: TraceEvent) -> None:
        self.callback(event)


#: Categories recorded by default: application annotations, mailbox
#: activity (flush/forward/termination/idle), transport packets,
#: resource (NIC) occupancy, host-side job-pool execution records
#: (``repro.exec`` -- per-job queued/started/finished/cache-hit spans;
#: host wall clock, not simulated time), and parallel-DES driver events
#: (``repro.pdes`` -- per-window horizon/barrier records with
#: per-partition progress; simulated time on the window axis).
DEFAULT_CATEGORIES = frozenset({"app", "mailbox", "mpi", "resource", "exec", "pdes"})

#: Everything, including the very chatty per-event kernel dispatch and
#: per-process block/unblock categories.
ALL_CATEGORIES = DEFAULT_CATEGORIES | {"kernel", "process"}


class Tracer:
    """Collects :class:`TraceEvent` records from the instrumented stack.

    Parameters
    ----------
    sinks:
        Output sinks; defaults to a single :class:`MemorySink`.
    categories:
        Enabled event categories, a subset of :data:`ALL_CATEGORIES`
        (default :data:`DEFAULT_CATEGORIES`); an unknown name is a
        ``ValueError``.  Layers skip recording entirely for disabled
        categories.
    profile:
        Install a :class:`~repro.trace.profile.LineageProfiler` as
        :attr:`lineage`: the instrumented layers then track per-message
        causal lineage, packet transmission stages and per-rank time
        attribution (see :mod:`repro.trace.profile`).  Like the event
        hooks, profiling never perturbs the simulation.
    """

    def __init__(
        self,
        sinks: Optional[Sequence[Sink]] = None,
        categories: Iterable[str] = DEFAULT_CATEGORIES,
        profile: bool = False,
    ) -> None:
        self.sinks: List[Sink] = list(sinks) if sinks is not None else [MemorySink()]
        self.categories = frozenset(categories)
        unknown = self.categories - ALL_CATEGORIES
        if unknown:
            raise ValueError(
                f"unknown trace categories {sorted(unknown)}; "
                f"known: {sorted(ALL_CATEGORIES)}"
            )
        #: The :class:`~repro.trace.profile.LineageProfiler`, or ``None``.
        #: Layers cache this once at construction; ``None`` keeps every
        #: lineage hook a single attribute check.
        self.lineage = None
        if profile:
            from .profile import LineageProfiler

            self.lineage = LineageProfiler()
        #: Machine shape, filled in by :meth:`bind` when the tracer is
        #: attached to a world; lets exporters synthesize every rank/NIC
        #: lane even if some never emitted an event.
        self.nodes: int = 0
        self.cores_per_node: int = 0
        #: Kernel progress samples ``(sim_time, events_processed,
        #: wall_seconds)``, appended by the run loops every
        #: :data:`~repro.sim.kernel.PROGRESS_SAMPLE_EVERY` events.  The
        #: metrics exporter turns these into per-interval
        #: ``events_per_sec`` / ``wall_ms`` columns.  Wall clock is
        #: host-dependent, so these never participate in determinism
        #: comparisons.
        self.progress_samples: List[Tuple[float, int, float]] = []

    # -- wiring ------------------------------------------------------------
    def bind(self, nodes: int, cores_per_node: int) -> None:
        """Record the machine shape this tracer is attached to."""
        self.nodes = nodes
        self.cores_per_node = cores_per_node

    def wants(self, category: str) -> bool:
        """Whether ``category`` events should be recorded."""
        return category in self.categories

    # -- recording ---------------------------------------------------------
    def instant(self, ts: float, cat: str, name: str, lane: str, **args) -> None:
        """A zero-duration marker event."""
        self._record(TraceEvent(ts, cat, name, "i", lane, 0.0, args or None))

    def complete(
        self, ts: float, dur: float, cat: str, name: str, lane: str, **args
    ) -> None:
        """A duration span ``[ts, ts + dur]``."""
        self._record(TraceEvent(ts, cat, name, "X", lane, dur, args or None))

    def progress(self, sim_time: float, steps: int) -> None:
        """Record a kernel wall-clock progress sample (throughput probe).

        Called by the kernel run loops; reads nothing from the
        simulation beyond its clock and step counter, so instrumented
        runs stay bit-identical to untraced ones.
        """
        self.progress_samples.append((sim_time, steps, perf_counter()))

    def counter(self, ts: float, cat: str, name: str, lane: str, value) -> None:
        """A sampled counter value (renders as a counter track)."""
        self._record(TraceEvent(ts, cat, name, "C", lane, 0.0, {"value": value}))

    def _record(self, event: TraceEvent) -> None:
        for sink in self.sinks:
            sink.record(event)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()

    # -- access ------------------------------------------------------------
    @property
    def events(self) -> List[TraceEvent]:
        """The buffered events of the first :class:`MemorySink`."""
        for sink in self.sinks:
            if isinstance(sink, MemorySink):
                return sink.events
        configured = ", ".join(type(s).__name__ for s in self.sinks) or "no sinks"
        raise ValueError(
            f"Tracer.events needs a MemorySink, but this tracer has {configured}; "
            "add a MemorySink or consume the events in a streaming sink instead"
        )

    # -- exporters (convenience wrappers) ------------------------------------
    def export_chrome(self, path: str) -> None:
        """Write a Chrome ``trace_event`` JSON file (chrome://tracing)."""
        from .chrome import export_chrome

        export_chrome(self, path)

    def export_metrics(self, path: str, interval: Optional[float] = None):
        """Write the per-interval metrics table as CSV; returns the rows."""
        from .metrics import export_metrics

        return export_metrics(self, path, interval=interval)
