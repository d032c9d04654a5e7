"""Per-interval metrics: the time-resolved view of `MailboxStats`.

Buckets the trace into fixed simulated-time intervals and tabulates, per
interval: packet and byte volumes by locality, the eager/rendezvous
split, flushes, forwarded entries, termination rounds, idle seconds, NIC
busy seconds and utilization, and peak queue depths.  This is the
"where do time and bytes go *over time*" table the end-of-run
``MailboxStats`` totals cannot provide.
"""

from __future__ import annotations

import csv
import math
from typing import Dict, List, Optional

from .tracer import Tracer

#: Column order of the exported table.
COLUMNS = [
    "t_start",
    "t_end",
    "remote_packets",
    "remote_bytes",
    "eager_packets",
    "rendezvous_packets",
    "local_packets",
    "local_bytes",
    "packets_delivered",
    "flushes",
    "flush_messages",
    "entries_forwarded",
    "term_rounds",
    "idle_seconds",
    "nic_busy_seconds",
    "nic_utilization",
    "max_unexpected_depth",
    "max_nic_queue_depth",
    "events",
    "wall_ms",
    "events_per_sec",
]

#: Columns holding (simulated) seconds or rates; everything else is a count.
FLOAT_COLUMNS = frozenset(
    {
        "t_start",
        "t_end",
        "idle_seconds",
        "nic_busy_seconds",
        "nic_utilization",
        "wall_ms",
        "events_per_sec",
    }
)

#: Columns derived from host wall-clock time: deterministic in *shape*
#: but not in value run-to-run.  Determinism checks project these out.
WALL_CLOCK_COLUMNS = frozenset({"wall_ms", "events_per_sec"})

#: Default number of intervals when no explicit interval is given.
DEFAULT_BINS = 50


def compute_metrics(
    tracer: Tracer, interval: Optional[float] = None
) -> List[Dict[str, float]]:
    """Bucket the tracer's events into per-interval metric rows."""
    events = tracer.events
    if not events:
        return []
    t_end = max(ev.ts + ev.dur for ev in events)
    if t_end <= 0.0:
        t_end = 1.0
    if interval is None:
        interval = t_end / DEFAULT_BINS
    if interval <= 0.0:
        raise ValueError(f"metrics interval must be positive, got {interval}")
    nbins = max(1, math.ceil(t_end / interval - 1e-12))
    rows = [
        {col: 0.0 for col in COLUMNS} for _ in range(nbins)
    ]
    for i, row in enumerate(rows):
        row["t_start"] = i * interval
        row["t_end"] = min((i + 1) * interval, t_end)

    def bucket(ts: float) -> Dict[str, float]:
        return rows[min(int(ts / interval), nbins - 1)]

    nic_count = 2 * tracer.nodes  # one TX and one RX engine per node
    for ev in events:
        row = bucket(ev.ts)
        key = (ev.cat, ev.name)
        if key == ("mpi", "packet_injected"):
            row["remote_packets"] += 1
            row["remote_bytes"] += ev.args["nbytes"]
            if ev.args.get("protocol") == "rendezvous":
                row["rendezvous_packets"] += 1
            else:
                row["eager_packets"] += 1
        elif key == ("mpi", "local_packet"):
            row["local_packets"] += 1
            row["local_bytes"] += ev.args["nbytes"]
        elif key == ("mpi", "packet_delivered"):
            row["packets_delivered"] += 1
        elif key == ("mpi", "unexpected_depth"):
            row["max_unexpected_depth"] = max(
                row["max_unexpected_depth"], ev.args["value"]
            )
        elif key == ("mailbox", "flush"):
            row["flushes"] += 1
            row["flush_messages"] += ev.args.get("messages", 0)
        elif key == ("mailbox", "forward"):
            row["entries_forwarded"] += ev.args.get("entries", 0)
        elif key == ("mailbox", "term_round"):
            row["term_rounds"] += ev.args.get("completed", 1)
        elif key == ("mailbox", "idle"):
            row["idle_seconds"] += ev.dur
        elif ev.cat == "resource" and ev.lane.startswith("nic_"):
            if ev.name == "hold":
                row["nic_busy_seconds"] += ev.dur
            elif ev.name == "queue_depth":
                row["max_nic_queue_depth"] = max(
                    row["max_nic_queue_depth"], ev.args["value"]
                )
    _fold_progress_samples(tracer.progress_samples, rows, interval, nbins)
    for row in rows:
        width = row["t_end"] - row["t_start"]
        if nic_count > 0 and width > 0:
            row["nic_utilization"] = row["nic_busy_seconds"] / (width * nic_count)
        wall_s = row["wall_ms"] / 1e3
        row["events_per_sec"] = row["events"] / wall_s if wall_s > 0 else 0.0
        for col in COLUMNS:
            if col not in FLOAT_COLUMNS:
                row[col] = int(row[col])
    return rows


def _fold_progress_samples(
    samples, rows: List[Dict[str, float]], interval: float, nbins: int
) -> None:
    """Distribute kernel wall-clock progress samples over the bins.

    The kernel records ``(sim_time, steps, wall_time)`` samples every
    :data:`~repro.sim.kernel.PROGRESS_SAMPLE_EVERY` events.  Each
    consecutive pair spans a simulated-time window; its event count and
    wall-clock cost are spread across the bins that window overlaps,
    proportionally to the overlap.  ``events`` is deterministic (a DES
    step count); ``wall_ms``/``events_per_sec`` are host-dependent.
    """
    if not samples or len(samples) < 2:
        return
    for (s0, st0, w0), (s1, st1, w1) in zip(samples, samples[1:]):
        d_steps = st1 - st0
        d_wall_ms = (w1 - w0) * 1e3
        if d_steps <= 0 and d_wall_ms <= 0:
            continue
        span = s1 - s0
        if span <= 0:
            # All the work happened at one simulated instant.
            row = rows[min(int(s0 / interval), nbins - 1)]
            row["events"] += d_steps
            row["wall_ms"] += d_wall_ms
            continue
        b0 = min(int(s0 / interval), nbins - 1)
        b1 = min(int(s1 / interval), nbins - 1)
        for b in range(b0, b1 + 1):
            lo = max(s0, b * interval)
            hi = s1 if b == b1 else min(s1, (b + 1) * interval)
            frac = (hi - lo) / span
            if frac <= 0:
                continue
            rows[b]["events"] += d_steps * frac
            rows[b]["wall_ms"] += d_wall_ms * frac


def export_metrics(
    tracer: Tracer, path: str, interval: Optional[float] = None
) -> List[Dict[str, float]]:
    """Write the per-interval metrics table to ``path`` as CSV."""
    rows = compute_metrics(tracer, interval=interval)
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    return rows
