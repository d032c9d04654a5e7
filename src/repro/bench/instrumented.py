"""Instrumented runs behind the CLI's ``--trace``, ``--metrics`` and ``--profile``.

A sweep's dozens of cells would make an unreadable timeline, and a
profile compares schemes at one size.  So an instrumented run takes one
node count of a scaling panel (Figs 6a-7b) -- the smallest in the sweep
at which every paper scheme is valid (:func:`pick_nodes`) -- and runs
the panel's own cell there, with the kwargs the figure table uses, under
a :class:`repro.trace.Tracer`.  ``--trace`` / ``--metrics`` export the
NLNR cell's Chrome ``trace_event`` timeline (a lane per rank plus NIC
lanes) and per-interval metrics table; ``--profile`` runs the cell under
every scheme with the lineage profiler and writes a self-contained HTML
report (plus JSON) comparing their critical paths to quiescence,
per-rank utilization and per-hop latency.

Tracing and profiling never perturb the simulation
(``tests/trace/test_noperturb.py``), so every simulated number printed
here equals the figure table's at the same ``(nodes, scheme)``.
"""

from __future__ import annotations

from typing import List, Optional

from ..trace import DEFAULT_CATEGORIES, Tracer, analyze_profile, write_report
from .harness import Panel, SweepConfig, schemes_for
from .report import Table


def pick_nodes(sweep: SweepConfig) -> int:
    """Smallest sweep node count at which every paper scheme is valid."""
    candidates = [
        n for n in sweep.node_counts if n >= max(2, sweep.cores_per_node)
    ]
    return min(candidates) if candidates else max(sweep.node_counts)


def json_path(html_path: str) -> str:
    """Where the profile's JSON document lands next to its HTML report."""
    stem = html_path[: -len(".html")] if html_path.endswith(".html") else html_path
    return stem + ".json"


def run_instrumented(
    panel: Panel,
    trace_path: Optional[str] = None,
    metrics_path: Optional[str] = None,
    profile_path: Optional[str] = None,
) -> List[Table]:
    """Run ``panel``'s cell instrumented and write the named outputs."""
    sweep = panel.sweep
    nodes = pick_nodes(sweep)
    schemes = schemes_for(nodes, sweep.cores_per_node)
    traced = "nlnr" if "nlnr" in schemes else schemes[-1]
    timeline = bool(trace_path or metrics_path)
    tables: List[Table] = []
    profiles = []
    for scheme in schemes if profile_path else [traced]:
        # Event categories only where a timeline is exported: the causal
        # profile needs lineage alone.
        categories = DEFAULT_CATEGORIES if timeline and scheme == traced else ()
        tracer = Tracer(categories=categories, profile=bool(profile_path))
        res = panel.simulate(**panel.cell_kwargs(nodes, scheme), tracer=tracer)
        tracer.close()
        if categories:
            tables.append(
                _timeline_table(panel, nodes, scheme, res, tracer, trace_path, metrics_path)
            )
        if profile_path:
            profiles.append(
                analyze_profile(tracer.lineage, res, sweep.machine(nodes), scheme)
            )
    if profile_path:
        tables.append(_profile_table(panel, nodes, profiles, profile_path))
    return tables


def _timeline_table(panel, nodes, scheme, res, tracer, trace_path, metrics_path):
    """Export the traced cell's timeline/metrics; summarize its stats."""
    if trace_path:
        tracer.export_chrome(trace_path)
    metrics_rows = len(tracer.export_metrics(metrics_path)) if metrics_path else 0
    stats = res.mailbox_stats
    table = Table(
        title=f"Traced run: fig {panel.fig}, {nodes} nodes x "
        f"{panel.sweep.cores_per_node} cores, scheme {scheme}",
        columns=[
            "seconds", "trace_events", "remote_packets", "remote_bytes",
            "local_packets", "flushes", "term_rounds", "idle_seconds",
        ],
    )
    table.add(
        seconds=res.elapsed,
        trace_events=len(tracer.events),
        remote_packets=stats.remote_packets_sent,
        remote_bytes=stats.remote_bytes_sent,
        local_packets=stats.local_packets_sent,
        flushes=stats.flushes,
        term_rounds=stats.term_rounds,
        idle_seconds=stats.idle_time,
    )
    if trace_path:
        table.note(f"Chrome trace_event JSON written to {trace_path}")
    if metrics_path:
        table.note(f"{metrics_rows} metric intervals written to {metrics_path}")
    return table


def _profile_table(panel, nodes, profiles, html_path):
    """Write the per-scheme HTML/JSON report; summarize each scheme."""
    sweep = panel.sweep
    title = (
        f"Causal profile: fig {panel.fig}, {nodes} nodes x "
        f"{sweep.cores_per_node} cores"
    )
    write_report(
        profiles,
        html_path,
        json_path(html_path),
        title,
        meta={
            "fig": panel.fig,
            "nodes": nodes,
            "cores_per_node": sweep.cores_per_node,
            "mailbox_capacity": sweep.mailbox_capacity,
            "seed": sweep.seed,
        },
    )
    table = Table(
        title=title,
        columns=[
            "scheme", "seconds", "messages", "packets", "comm_share",
            "dominant_stage", "idle_share",
        ],
    )
    for p in profiles:
        comm = {
            k: v for k, v in p.cp_stages.items()
            if k not in ("compute", "term_tail")
        }
        dominant = max(comm, key=comm.get) if any(comm.values()) else "-"
        total_time = sum(r["total"] for r in p.rank_buckets) or 1.0
        table.add(
            scheme=p.scheme,
            seconds=p.elapsed,
            messages=p.messages,
            packets=p.packets,
            comm_share=p.comm_share,
            dominant_stage=dominant,
            idle_share=p.bucket_totals.get("idle", 0.0) / total_time,
        )
    table.note(f"HTML report written to {html_path}")
    table.note(f"JSON report written to {json_path(html_path)}")
    return table
