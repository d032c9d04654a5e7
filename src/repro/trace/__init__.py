"""Observability for the simulated stack: tracing and per-interval metrics.

The stack is instrumented end to end -- DES kernel event dispatch,
process block/unblock, resource (NIC) occupancy, transport packets with
their eager/rendezvous protocol choice, unexpected-queue depth, and
mailbox flushes / forwards / termination rounds / idle intervals.  All
hooks are inert (one attribute check) until a :class:`Tracer` is
installed on the simulator, and recording never perturbs the simulation:
a traced run is bit-identical to an untraced one.

Typical use::

    from repro import YgmWorld
    from repro.trace import Tracer

    tracer = Tracer()
    world = YgmWorld(4, scheme="nlnr", tracer=tracer)
    result = world.run(rank_main)
    tracer.export_chrome("trace.json")    # chrome://tracing / Perfetto
    tracer.export_metrics("metrics.csv")  # per-interval table

or, from the bench CLI, on a figure panel's own cell
(:mod:`repro.bench.instrumented`)::

    python -m repro.bench 6a --trace trace.json --metrics metrics.csv

Beyond event tracing, ``Tracer(profile=True)`` enables the causal
message-lineage profiler (:mod:`repro.trace.profile`): per-message
causal DAGs, critical-path extraction with per-hop stage breakdowns,
and per-rank time attribution, rendered to a self-contained HTML report
by :mod:`repro.trace.profile_report` (CLI:
``python -m repro.bench 6a --profile profile_6a.html``; one invocation
may name ``--trace``, ``--metrics`` and ``--profile`` together).
"""

from .chrome import export_chrome, to_chrome_events
from .metrics import COLUMNS as METRIC_COLUMNS
from .metrics import WALL_CLOCK_COLUMNS, compute_metrics, export_metrics
from .profile import BUCKETS, STAGES, LineageProfiler, SchemeProfile, analyze_profile
from .profile_report import render_html, report_document, write_report
from .tracer import (
    ALL_CATEGORIES,
    DEFAULT_CATEGORIES,
    CallbackSink,
    MemorySink,
    Sink,
    TraceEvent,
    Tracer,
)

__all__ = [
    "ALL_CATEGORIES",
    "BUCKETS",
    "CallbackSink",
    "DEFAULT_CATEGORIES",
    "LineageProfiler",
    "METRIC_COLUMNS",
    "MemorySink",
    "STAGES",
    "SchemeProfile",
    "Sink",
    "TraceEvent",
    "Tracer",
    "WALL_CLOCK_COLUMNS",
    "analyze_profile",
    "compute_metrics",
    "export_chrome",
    "export_metrics",
    "render_html",
    "report_document",
    "write_report",
]
