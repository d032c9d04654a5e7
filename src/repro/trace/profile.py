"""Causal message-lineage profiler (the "why", not just the "what").

The base tracer (:mod:`repro.trace.tracer`) records *that* events
happened; this module records *which message caused which*.  When a
:class:`LineageProfiler` is installed (``Tracer(profile=True)``), every
application-level send gets a **lineage id** that is carried through
coalescing buffers, routing intermediaries (NoRoute / NL / NR / NLNR
forwarding hops) and packet transmission, producing a causal DAG from
injection to final delivery:

* ``new_message`` / ``new_batch`` allocate lineage ids at injection and
  link each message to the message whose delivery callback posted it
  (the *causal parent*);
* ``enqueue`` marks a message entering a coalescing buffer on some rank
  bound for a next hop; ``packet_out`` snapshots which lineage ids left
  in which transport packet;
* the machine layer stamps each packet's transmission stages
  (``packet_wire`` / ``packet_rx`` / ``packet_delivered``);
* ``handler`` / ``batch_handler`` wrap the receive callback at the
  handler boundary: each call marks a final delivery and makes the
  delivered message the causal parent of whatever the callback posts;
* ``span`` classifies a rank's simulated time into attribution buckets
  (serialize / nic / handler / term / idle; the remainder is
  application compute + injection).

Recording is **strictly read-only with respect to the simulation**: every
hook only reads ``sim.now`` and appends to host-side lists -- no events,
no simulated cost, no randomness -- so a profiled run is bit-identical
to an unprofiled one (``tests/trace/test_noperturb.py``).  Lineage ids
are one more column of each buffered entry, moved by the same ``take``
as the others, and the mailbox meets the profiler at one boundary per
delivery: when an entry carries lineage, the delivery site swaps its
receive callback for the wrapped one from :meth:`LineageProfiler.handler`
and runs its one loop.  With profiling disabled the cost is an
``is None`` check per delivered run, never per message.

:func:`analyze_profile` turns the raw logs into a :class:`SchemeProfile`:
the critical dependency chain to quiescence with a per-edge stage
breakdown, per-rank time attribution, and per-hop latency histograms.
:mod:`repro.trace.profile_report` renders these into a self-contained
HTML report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

#: Stage names of a critical-path edge, in pipeline order.
STAGES = (
    "compute",     # causal gap: handler/application compute between messages
    "serialize",   # flush-time packing cost (per_message_queue)
    "queue",       # waiting in a coalescing buffer for the flush
    "nic_wait",    # queueing for a busy NIC engine (tx or rx side)
    "nic",         # NIC occupancy + per-packet core overheads
    "wire",        # pure wire delay (plus rendezvous handshake)
    "local",       # shared-memory copy of an on-node hop
    "deliver",     # arrived at the hop target, waiting to be processed
    "term_tail",   # from the last delivery to detected quiescence
)

#: Per-rank time-attribution buckets (``inject`` is the remainder:
#: application compute plus message generation).
BUCKETS = ("inject", "serialize", "nic", "handler", "term", "idle")

# Indexes into a packet record (see LineageProfiler.packet_out).
_P_SRC, _P_DST, _P_NBYTES, _P_COUNT, _P_SER = 0, 1, 2, 3, 4
_P_OUT, _P_WIRE, _P_RX, _P_DELIVER, _P_LOCAL, _P_FREE = 5, 6, 7, 8, 9, 10


class LineageProfiler:
    """Append-only lineage and time-attribution logs.

    Instances are installed on a :class:`~repro.trace.tracer.Tracer` via
    ``Tracer(profile=True)`` and cached by the instrumented layers; every
    method is a plain append (vectorized for the batch path) and charges
    zero simulated cost.
    """

    __slots__ = (
        "msgs",
        "batch_msgs",
        "enq",
        "enq_batch",
        "packets",
        "pkt_members",
        "deliveries",
        "batch_deliveries",
        "spans",
        "cause",
        "_next",
    )

    def __init__(self) -> None:
        #: Scalar messages: ``(lid, src, dest, t_inject, parent, kind)``.
        self.msgs: List[Tuple] = []
        #: Batch injections: ``(lid0, src, dests_array, t_inject, parent)``
        #: covering lineage ids ``lid0 .. lid0+len(dests)-1``.
        self.batch_msgs: List[Tuple] = []
        #: Buffer enqueues: ``(lid, rank, hop, t)``.
        self.enq: List[Tuple] = []
        #: Vectorized buffer enqueues: ``(lids_array, rank, hop, t)``.
        self.enq_batch: List[Tuple] = []
        #: Per-packet records (mutable lists indexed by the ``_P_*``
        #: constants); the packet id is the list index.
        self.packets: List[list] = []
        #: Per-packet lineage membership (ints and/or id arrays).
        self.pkt_members: List[list] = []
        #: Final deliveries: ``(lid, rank, t)``.
        self.deliveries: List[Tuple] = []
        #: Vectorized final deliveries: ``(lids_array, rank, t)``.
        self.batch_deliveries: List[Tuple] = []
        #: Rank time attribution: ``(rank, bucket, t0, t1)``.
        self.spans: List[Tuple] = []
        #: Lineage id whose delivery callback is currently running; new
        #: messages posted from inside a callback get it as their causal
        #: parent.
        self.cause: Optional[int] = None
        self._next = 0

    # -- injection ---------------------------------------------------------
    def new_message(
        self,
        src: int,
        dest: int,
        t: float,
        kind: str = "p2p",
        parent: Optional[int] = None,
    ) -> int:
        """Allocate a lineage id for one injected message."""
        lid = self._next
        self._next = lid + 1
        if parent is None:
            parent = self.cause
        self.msgs.append((lid, src, dest, t, parent, kind))
        return lid

    def new_batch(self, src: int, dests: np.ndarray, t: float) -> np.ndarray:
        """Allocate a contiguous lineage-id block for a record batch."""
        n = len(dests)
        lid0 = self._next
        self._next = lid0 + n
        # Copy: the caller's dests array is masked/reordered in place by
        # the mailbox after this call.
        self.batch_msgs.append((lid0, src, np.array(dests, dtype=np.int64), t, self.cause))
        return np.arange(lid0, lid0 + n, dtype=np.int64)

    # -- coalescing --------------------------------------------------------
    def enqueue(self, lid: int, rank: int, hop: int, t: float) -> None:
        self.enq.append((lid, rank, hop, t))

    def enqueue_batch(self, lids: np.ndarray, rank: int, hop: int, t: float) -> None:
        self.enq_batch.append((lids, rank, hop, t))

    # -- transport ---------------------------------------------------------
    def packet_out(
        self,
        src: int,
        dst: int,
        nbytes: int,
        count: int,
        t: float,
        serialize: float,
        entries: List[Any],
    ) -> int:
        """Record a flushed packet; snapshots its lineage membership.

        Called before the entries list is handed to the transport; only
        the lineage membership is kept, never the entries themselves.
        """
        pid = len(self.packets)
        members: List[Any] = []
        for e in entries:
            kind = e.kind
            if kind == "batch" or kind == "p2p_cols":
                # Columnar entries carry a parallel lineage-id column;
                # snapshot the whole array (the lins arrays are never
                # mutated in place, so no copy is needed).
                if e.lins is not None:
                    members.append(e.lins)
            elif e.lin is not None:
                members.append(e.lin)
        self.packets.append(
            [src, dst, nbytes, count, serialize, t,
             float("nan"), float("nan"), float("nan"), False, False]
        )
        self.pkt_members.append(members)
        return pid

    def packet_free_local(self, pid: int, t: float) -> None:
        """A zero-cost on-node hand-off (hybrid free local hop)."""
        rec = self.packets[pid]
        rec[_P_LOCAL] = rec[_P_FREE] = True
        rec[_P_DELIVER] = t

    def packet_wire(self, pid: int, t: float) -> None:
        """Sender side paid (overhead + TX NIC); packet is on the wire."""
        self.packets[pid][_P_WIRE] = t

    def packet_rx(self, pid: int, t: float) -> None:
        """Wire delay elapsed; packet queueing for the RX NIC."""
        self.packets[pid][_P_RX] = t

    def packet_delivered(self, pid: int, t: float, local: bool = False) -> None:
        """Packet handed to the destination rank's inbox."""
        rec = self.packets[pid]
        rec[_P_LOCAL] = local
        rec[_P_DELIVER] = t

    # -- delivery (the handler boundary) -----------------------------------
    def handler(self, recv, lins, rank: int, t: float):
        """``recv`` wrapped for one run of scalar deliveries.

        Call ``i`` logs ``lins[i]`` as delivered on ``rank`` at ``t`` and
        runs ``recv`` with that id as :attr:`cause` (messages posted from
        inside the callback are caused by it), then restores the
        previous cause.  Callbacks are plain functions, so simulated
        time cannot advance within a run.
        """
        ids = iter(np.asarray(lins).tolist())
        deliveries = self.deliveries

        def delivered(payload):
            lid = next(ids)
            deliveries.append((lid, rank, t))
            prev, self.cause = self.cause, lid
            try:
                recv(payload)
            finally:
                self.cause = prev

        return delivered

    def batch_handler(self, recv, lins: np.ndarray, rank: int, t: float):
        """``recv`` wrapped for one batch delivery.

        The call logs one ``batch_deliveries`` row for all of ``lins``.
        Follow-on messages are charged to the batch's first member: the
        causal DAG keeps one representative edge rather than a fan-in.
        """

        def delivered(batch):
            self.batch_deliveries.append((lins, rank, t))
            prev, self.cause = self.cause, int(lins[0])
            try:
                recv(batch)
            finally:
                self.cause = prev

        return delivered

    # -- time attribution --------------------------------------------------
    def span(self, rank: int, bucket: str, t0: float, t1: float) -> None:
        if t1 > t0:
            self.spans.append((rank, bucket, t0, t1))


# ---------------------------------------------------------------------------
# Post-hoc analysis
# ---------------------------------------------------------------------------


@dataclass
class SchemeProfile:
    """Causal-profile analysis of one run under one routing scheme."""

    scheme: str
    elapsed: float
    nranks: int
    messages: int
    packets: int
    #: Critical dependency chain, injection-order.  Each step:
    #: ``{lid, kind, src, dest, inject, handled, gap, hops: [...]}`` with
    #: per-hop ``{from, to, pid, nbytes, local, stages: {...}}``.
    critical_path: List[dict] = field(default_factory=list)
    #: Seconds of the run attributed to each stage along the chain
    #: (sums to ``elapsed`` up to float error -- the chain is anchored at
    #: t=0 and extended to quiescence by ``term_tail``).
    cp_stages: Dict[str, float] = field(default_factory=dict)
    #: Fraction of the run the chain spends in communication stages
    #: (everything except ``compute`` and ``term_tail``).
    comm_share: float = 0.0
    #: Per-rank attributed seconds: ``[{rank, total, <buckets...>}]``.
    rank_buckets: List[Dict[str, float]] = field(default_factory=list)
    #: Machine-wide bucket totals (seconds).
    bucket_totals: Dict[str, float] = field(default_factory=dict)
    #: Per-hop latency histograms ``{"local"|"remote": [(label, count)]}``.
    hop_latency: Dict[str, List[Tuple[str, int]]] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "elapsed": self.elapsed,
            "nranks": self.nranks,
            "messages": self.messages,
            "packets": self.packets,
            "critical_path": self.critical_path,
            "cp_stages": self.cp_stages,
            "comm_share": self.comm_share,
            "rank_buckets": self.rank_buckets,
            "bucket_totals": self.bucket_totals,
            "hop_latency": {
                k: [[label, count] for label, count in v]
                for k, v in self.hop_latency.items()
            },
        }


def _expand_messages(prof: LineageProfiler) -> Dict[int, Tuple]:
    """Flatten scalar + batch injections to ``lid -> (src, dest, t, parent, kind)``."""
    msgs: Dict[int, Tuple] = {}
    for lid, src, dest, t, parent, kind in prof.msgs:
        msgs[lid] = (src, dest, t, parent, kind)
    for lid0, src, dests, t, parent in prof.batch_msgs:
        for i, d in enumerate(np.asarray(dests).tolist()):
            msgs[lid0 + i] = (src, int(d), t, parent, "batch")
    return msgs


def _expand_per_lid_events(prof: LineageProfiler):
    """Chronological per-lid enqueue and packet-membership sequences."""
    enq: Dict[int, List[Tuple]] = {}
    seq = 0
    merged: List[Tuple] = []
    for lid, rank, hop, t in prof.enq:
        merged.append((t, seq, lid, rank, hop))
        seq += 1
    for lids, rank, hop, t in prof.enq_batch:
        for lid in np.asarray(lids).tolist():
            merged.append((t, seq, lid, rank, hop))
            seq += 1
    merged.sort(key=lambda r: (r[0], r[1]))
    for t, _seq, lid, rank, hop in merged:
        enq.setdefault(lid, []).append((t, rank, hop))

    membership: Dict[int, List[int]] = {}
    for pid, members in enumerate(prof.pkt_members):
        for m in members:
            if isinstance(m, (int, np.integer)):
                membership.setdefault(int(m), []).append(pid)
            else:
                for lid in np.asarray(m).tolist():
                    membership.setdefault(lid, []).append(pid)
    return enq, membership


def _expand_deliveries(prof: LineageProfiler) -> Dict[int, Tuple]:
    handled: Dict[int, Tuple] = {}
    for lid, rank, t in prof.deliveries:
        handled[lid] = (rank, t)
    for lids, rank, t in prof.batch_deliveries:
        for lid in np.asarray(lids).tolist():
            handled[lid] = (rank, t)
    return handled


def _hop_stages(pkt: list, t_enq: float, t_next: float, net) -> Dict[str, float]:
    """Decompose one hop of one message into stage durations.

    ``t_next`` is when the hop target *processed* the message (re-enqueued
    it, or ran the delivery callback).
    """
    serialize = pkt[_P_SER]
    t_out = pkt[_P_OUT]
    t_deliver = pkt[_P_DELIVER]
    stages = dict.fromkeys(
        ("serialize", "queue", "nic_wait", "nic", "wire", "local", "deliver"), 0.0
    )
    stages["serialize"] = serialize
    stages["queue"] = max(0.0, (t_out - t_enq) - serialize)
    if pkt[_P_FREE]:
        pass  # zero-cost pointer hand-off
    elif pkt[_P_LOCAL]:
        stages["local"] = max(0.0, t_deliver - t_out)
    else:
        nbytes = pkt[_P_NBYTES]
        nic_t = net.nic_time(nbytes)
        tx_span = pkt[_P_WIRE] - t_out
        rx_span = t_deliver - pkt[_P_RX]
        wait_tx = max(0.0, tx_span - net.send_overhead - nic_t)
        wait_rx = max(0.0, rx_span - nic_t - net.recv_overhead)
        stages["nic_wait"] = wait_tx + wait_rx
        stages["nic"] = max(0.0, (tx_span - wait_tx) + (rx_span - wait_rx))
        stages["wire"] = max(0.0, pkt[_P_RX] - pkt[_P_WIRE])
    stages["deliver"] = max(0.0, t_next - t_deliver)
    return stages


def _histogram(latencies: List[float]) -> List[Tuple[str, int]]:
    """Geometric (power-of-two microsecond) latency histogram."""
    if not latencies:
        return []
    arr = np.asarray(latencies) * 1e6  # -> microseconds
    edges = [0.0]
    top = max(1.0, float(arr.max()))
    e = 0.5
    while e < top:
        edges.append(e)
        e *= 2.0
    edges.append(top + 1e-12)
    counts, _ = np.histogram(arr, bins=edges)
    out = []
    for i, c in enumerate(counts.tolist()):
        lo, hi = edges[i], edges[i + 1]
        out.append((f"{lo:.3g}-{hi:.3g}us", int(c)))
    return out


def analyze_profile(prof, result, config, scheme: str) -> SchemeProfile:
    """Build the causal analysis of one profiled run.

    Parameters
    ----------
    prof:
        The run's :class:`LineageProfiler` (``tracer.lineage``).
    result:
        The :class:`~repro.core.context.YgmResult` of the same run.
    config:
        The :class:`~repro.machine.MachineConfig` the run used (the
        network model decomposes NIC wait from NIC occupancy).
    scheme:
        Routing-scheme name, carried into the report.
    """
    net = config.net
    elapsed = result.elapsed
    msgs = _expand_messages(prof)
    enq, membership = _expand_per_lid_events(prof)
    handled = _expand_deliveries(prof)

    # -- per-message hop chains -------------------------------------------
    hop_chain: Dict[int, List[dict]] = {}
    local_lat: List[float] = []
    remote_lat: List[float] = []
    for lid, enqs in enq.items():
        pids = membership.get(lid, [])
        n = min(len(enqs), len(pids))  # tolerate in-flight tails
        hops = []
        for k in range(n):
            t_enq, rank, hop = enqs[k]
            pkt = prof.packets[pids[k]]
            if k + 1 < n:
                t_next = enqs[k + 1][0]
            elif lid in handled:
                t_next = handled[lid][1]
            else:
                t_next = pkt[_P_DELIVER]
            stages = _hop_stages(pkt, t_enq, t_next, net)
            hops.append(
                {
                    "from": rank,
                    "to": hop,
                    "pid": pids[k],
                    "nbytes": pkt[_P_NBYTES],
                    "local": bool(pkt[_P_LOCAL]),
                    "stages": stages,
                }
            )
            lat = pkt[_P_DELIVER] - t_enq
            if np.isfinite(lat) and lat >= 0:
                (local_lat if pkt[_P_LOCAL] else remote_lat).append(lat)
        hop_chain[lid] = hops

    # -- critical path: walk parents back from the last delivery ----------
    critical_path: List[dict] = []
    cp_stages = dict.fromkeys(STAGES, 0.0)
    if handled:
        last_lid = max(handled, key=lambda lid: (handled[lid][1], lid))
        chain: List[int] = []
        seen = set()
        cur: Optional[int] = last_lid
        while cur is not None and cur in msgs and cur not in seen:
            seen.add(cur)
            chain.append(cur)
            cur = msgs[cur][3]  # parent
        chain.reverse()
        prev_handled = 0.0
        for lid in chain:
            src, dest, t_inject, _parent, kind = msgs[lid]
            t_handled = handled.get(lid, (None, t_inject))[1]
            gap = max(0.0, t_inject - prev_handled)
            hops = hop_chain.get(lid, [])
            step = {
                "lid": lid,
                "kind": kind,
                "src": src,
                "dest": dest,
                "inject": t_inject,
                "handled": t_handled,
                "gap": gap,
                "hops": hops,
            }
            critical_path.append(step)
            cp_stages["compute"] += gap
            for hop in hops:
                for name, dur in hop["stages"].items():
                    cp_stages[name] += dur
            prev_handled = t_handled
        cp_stages["term_tail"] = max(0.0, elapsed - prev_handled)
    comm = sum(
        v for k, v in cp_stages.items() if k not in ("compute", "term_tail")
    )
    comm_share = comm / elapsed if elapsed > 0 else 0.0

    # -- per-rank time attribution ----------------------------------------
    nranks = config.nranks
    per_rank = [dict.fromkeys(BUCKETS, 0.0) for _ in range(nranks)]
    bucket_of = {"serialize": "serialize", "nic": "nic", "handler": "handler",
                 "term": "term", "idle": "idle"}
    for rank, bucket, t0, t1 in prof.spans:
        per_rank[rank][bucket_of.get(bucket, bucket)] += t1 - t0
    rank_rows: List[Dict[str, float]] = []
    bucket_totals = dict.fromkeys(BUCKETS, 0.0)
    for rank in range(nranks):
        finish = result.finish_times[rank]
        total = finish if np.isfinite(finish) else elapsed
        row = per_rank[rank]
        attributed = sum(row.values())
        row["inject"] = max(0.0, total - attributed)
        entry: Dict[str, float] = {"rank": rank, "total": total}
        entry.update(row)
        rank_rows.append(entry)
        for b in BUCKETS:
            bucket_totals[b] += row[b]

    return SchemeProfile(
        scheme=scheme,
        elapsed=elapsed,
        nranks=nranks,
        messages=len(msgs),
        packets=len(prof.packets),
        critical_path=critical_path,
        cp_stages=cp_stages,
        comm_share=comm_share,
        rank_buckets=rank_rows,
        bucket_totals=bucket_totals,
        hop_latency={
            "local": _histogram(local_lat),
            "remote": _histogram(remote_lat),
        },
    )
