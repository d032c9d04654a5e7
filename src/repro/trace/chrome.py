"""Chrome ``trace_event`` JSON exporter.

Produces a file loadable in ``chrome://tracing`` or Perfetto with one
timeline lane per rank (pid "ranks") and one per NIC engine (pid "nic"):
rank lanes carry mailbox flushes, idle intervals, packet
injection/delivery markers and unexpected-queue counters; NIC lanes carry
occupancy holds and queue-depth counters.

Timestamps are converted from simulated seconds to the format's
microseconds.  The format reference is the "Trace Event Format" document
(the JSON array-of-events flavour, ``{"traceEvents": [...]}``).

Clock domains: almost every category carries *simulated* time, but the
``exec`` category (host-side job-pool records from :mod:`repro.exec`)
carries host wall-clock seconds since pool start.  Interleaving the two
on one timeline would be meaningless, so ``exec`` events are exported to
their own process group (``host (wall clock)``, pid
:data:`PID_HOST`) instead of the simulated-time groups.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List, Tuple

from .tracer import Tracer

#: pid values for the lane groups.  The first three carry simulated
#: time; PID_HOST is the separate host wall-clock domain (``exec``).
PID_RANKS = 1
PID_NIC = 2
PID_OTHER = 3
PID_HOST = 4

_RANK_RE = re.compile(r"^rank (\d+)$")
_NIC_RE = re.compile(r"^nic_(tx|rx)\[(\d+)\]$")


def _lane_pid_tid(lane: str, other_tids: Dict[str, int]) -> Tuple[int, int]:
    """Map a lane label onto a stable (pid, tid) pair."""
    m = _RANK_RE.match(lane)
    if m:
        return PID_RANKS, int(m.group(1))
    m = _NIC_RE.match(lane)
    if m:
        # tx engines on even tids, rx on odd: nic_tx[n] -> 2n, nic_rx[n] -> 2n+1.
        return PID_NIC, 2 * int(m.group(2)) + (0 if m.group(1) == "tx" else 1)
    tid = other_tids.setdefault(lane, len(other_tids))
    return PID_OTHER, tid


def _metadata(pid: int, name: str, tid: int = 0, kind: str = "process_name") -> dict:
    return {
        "name": kind,
        "ph": "M",
        "pid": pid,
        "tid": tid,
        "args": {"name": name},
    }


def to_chrome_events(tracer: Tracer) -> List[dict]:
    """Convert the tracer's buffered events to trace_event dicts."""
    other_tids: Dict[str, int] = {}
    host_tids: Dict[str, int] = {}
    out: List[dict] = [
        _metadata(PID_RANKS, "ranks"),
        _metadata(PID_NIC, "nic"),
        _metadata(PID_OTHER, "sim"),
        _metadata(PID_HOST, "host (wall clock)"),
    ]
    # Synthesize every rank/NIC lane from the bound machine shape so the
    # timeline is complete even for lanes that never emitted an event.
    for rank in range(tracer.nodes * tracer.cores_per_node):
        out.append(_metadata(PID_RANKS, f"rank {rank}", tid=rank, kind="thread_name"))
    for node in range(tracer.nodes):
        out.append(
            _metadata(PID_NIC, f"nic_tx[{node}]", tid=2 * node, kind="thread_name")
        )
        out.append(
            _metadata(PID_NIC, f"nic_rx[{node}]", tid=2 * node + 1, kind="thread_name")
        )
    seen_lanes = set()
    for ev in tracer.events:
        if ev.cat == "exec":
            # Host wall-clock domain: never interleave with simulated time.
            tid = host_tids.setdefault(ev.lane, len(host_tids))
            pid = PID_HOST
            if ("host", ev.lane) not in seen_lanes:
                seen_lanes.add(("host", ev.lane))
                out.append(
                    _metadata(PID_HOST, ev.lane, tid=tid, kind="thread_name")
                )
        else:
            pid, tid = _lane_pid_tid(ev.lane, other_tids)
            if pid == PID_OTHER and ev.lane not in seen_lanes:
                seen_lanes.add(ev.lane)
                out.append(_metadata(PID_OTHER, ev.lane, tid=tid, kind="thread_name"))
        rec: dict = {
            "name": ev.name,
            "cat": ev.cat,
            "ph": ev.ph,
            "ts": ev.ts * 1e6,  # simulated seconds -> microseconds
            "pid": pid,
            "tid": tid,
        }
        if ev.ph == "X":
            rec["dur"] = ev.dur * 1e6
        elif ev.ph == "i":
            rec["s"] = "t"  # thread-scoped instant
        if ev.args:
            rec["args"] = ev.args
        out.append(rec)
    return out


def export_chrome(tracer: Tracer, path: str) -> None:
    """Write ``path`` as a Chrome trace_event JSON object."""
    doc = {"traceEvents": to_chrome_events(tracer), "displayTimeUnit": "ms"}
    with open(path, "w") as f:
        json.dump(doc, f)
