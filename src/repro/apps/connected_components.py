"""Connected components by min-label propagation (paper Section V-B).

Every vertex holds a label initialised to its own global id; each pass
over the edges sends each vertex's label to its neighbours, which keep
the minimum.  The algorithm converges (in at most ``diam(G)`` passes) to
every vertex holding the minimum vertex id of its component.  As in the
paper, this is deliberately the *simple* benchmark algorithm -- a
Shiloach-Vishkin variant would converge in O(log |V|) passes but would
not exercise broadcast-heavy delegate synchronisation.

High-degree vertices are handled with **delegates** [Pearce et al.]:

* delegate ids are found by a degree-counting pre-pass (YGM itself),
* delegate labels are replicated on every rank; delegate *edges* are
  colocated -- stored at the owner of the non-delegate endpoint, so they
  update the replicated label locally, with no message,
* after each pass, improved delegate labels are sent to the delegate's
  *home* rank, which disseminates them with YGM's **asynchronous
  broadcasts** (``post_bcast`` from inside the receive callback -- the
  lazy synchronisation pattern the paper advocates).

The returned per-rank result is the label array of the rank's owned
vertices plus per-pass diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator, Iterable, List, Optional

import numpy as np

from ..core.context import YgmContext
from ..core.routing.combiner import Combiner
from ..graph.delegates import DelegateSet
from ..graph.generators import EdgeStream
from ..graph.partition import CyclicPartition
from ..serde import RecordSpec

#: Label-update message: set ``label(vertex) = min(label(vertex), label)``.
CC_SPEC = RecordSpec("cc_label", [("vertex", "u8"), ("label", "u8")])

#: Min-union combining: label updates for one vertex collapse to the
#: smallest.  ``min`` is associative, commutative *and* idempotent over
#: vertex ids, so combined runs converge to bit-identical labels -- a
#: vertex's label after a pass is the min over all updates it would have
#: seen, whether they merged mid-route or at the receive callback.
CC_COMBINER = Combiner(
    "cc_min_label", key_fields=("vertex",), reduce_fields={"label": "min"}
)
#: Edge-distribution message: kind 0 = plain directed edge (src owns the
#: label to ship, dst receives updates); kind 1 = colocated delegate edge
#: (src non-delegate, dst delegate).
EDGE_SPEC = RecordSpec("cc_edge", [("src", "u8"), ("dst", "u8"), ("kind", "u1")])
#: Degree-count message for the delegate-identification pre-pass.
DEG_SPEC = RecordSpec("cc_degree", [("vertex", "u8")])


@dataclass
class CCResult:
    """Per-rank output of the connected-components program."""

    labels: np.ndarray  # labels of owned vertices (by local id)
    passes: int
    delegate_count: int
    bcasts: int = 0


def make_connected_components(
    stream: EdgeStream,
    delegate_threshold: Optional[float] = None,
    batch_size: int = 8192,
    capacity: Optional[int] = None,
    max_passes: int = 200,
    combining: bool = False,
) -> Callable[[YgmContext], Generator]:
    """Build the CC rank program.

    ``delegate_threshold``: vertices with degree strictly above it become
    delegates; ``None`` disables delegates entirely (no broadcasts).

    ``combining=True`` attaches :data:`CC_COMBINER` to the label-update
    mailbox: equal-vertex updates collapse to their min in-network.  The
    per-pass ``changed`` flag is preserved exactly -- it ends ``True``
    iff some owned label decreased during the pass, which is invariant
    under merging (the min of the merged updates decreases a label iff
    some individual update would have).  Final labels are bit-identical.
    """

    def rank_main(ctx: YgmContext) -> Generator:
        rank = ctx.rank
        part = CyclicPartition(stream.num_vertices, ctx.nranks)
        handle_cost = ctx.machine.config.compute.per_message_handle
        # Phases A and B run in a helper: the generated edges, the
        # degree pre-pass and the distribution masks die on its return,
        # before the first label pass.
        (
            delegates, nd_dst, nd_src_local,
            mx_src_local, mx_dst_slot, dd_u_slot, dd_v_slot,
        ) = yield from _load_graph(
            ctx, stream, part, delegate_threshold, batch_size, capacity
        )

        # ------------------------------- phase C: min-label propagation
        labels = part.local_vertices(rank).astype(np.int64)
        del_labels = delegates.vertices.astype(np.int64).copy()
        # The home rank's view of what it last disseminated.
        is_home = (
            part.owner_vec(delegates.vertices) == rank
            if delegates.count
            else np.empty(0, dtype=bool)
        )
        home_published = del_labels.copy()
        changed = np.zeros(1, dtype=bool)

        def on_label(batch: np.ndarray) -> None:
            ids = part.local_id_vec(batch["vertex"].astype(np.int64))
            new = batch["label"].astype(np.int64)
            # A label drops iff some update is below it; once one has,
            # the pass's flag is set and only the minimum is left to do.
            if not changed[0] and (new < labels[ids]).any():
                changed[0] = True
            np.minimum.at(labels, ids, new)

        def on_sync(msg) -> None:
            # Point-to-point delegate update arriving at the home rank.
            slot, label = msg
            if label < del_labels[slot]:
                del_labels[slot] = label
                changed[0] = True
            if label < home_published[slot]:
                # Lazy synchronisation: disseminate immediately with an
                # asynchronous broadcast from inside the callback.
                home_published[slot] = label
                sync_mb.post_bcast((slot, label))

        def on_sync_bcast(msg) -> None:
            slot, label = msg
            if label < del_labels[slot]:
                del_labels[slot] = label
                changed[0] = True

        label_mb = ctx.mailbox(
            recv_batch=on_label,
            capacity=capacity,
            combiner=CC_COMBINER if combining else None,
        )
        sync_mb = ctx.mailbox(
            recv=on_sync, recv_bcast=on_sync_bcast, capacity=capacity
        )

        passes = 0
        while True:
            passes += 1
            if passes > max_passes:
                raise RuntimeError(f"CC did not converge in {max_passes} passes")
            changed[0] = False
            del_before = del_labels.copy()

            # 1. Plain edges: ship my labels to neighbour owners.  The
            # batch is built inside the call: no frame keeps it.
            for lo in range(0, len(nd_dst), batch_size):
                hi = lo + batch_size
                dst = nd_dst[lo:hi]
                yield from label_mb.send_batch(
                    part.owner_vec(dst),
                    CC_SPEC.build(vertex=dst, label=labels[nd_src_local[lo:hi]]),
                    spec=CC_SPEC,
                )

            # 2. Colocated delegate edges: both directions, locally.
            if len(mx_src_local):
                yield ctx.compute(len(mx_src_local) * handle_cost)
                np.minimum.at(del_labels, mx_dst_slot, labels[mx_src_local])
                new = del_labels[mx_dst_slot]
                if not changed[0] and (new < labels[mx_src_local]).any():
                    changed[0] = True
                np.minimum.at(labels, mx_src_local, new)

            # 3. Delegate-delegate edges: purely replicated state.
            if len(dd_u_slot):
                yield ctx.compute(len(dd_u_slot) * handle_cost)
                np.minimum.at(del_labels, dd_u_slot, del_labels[dd_v_slot])
                np.minimum.at(del_labels, dd_v_slot, del_labels[dd_u_slot])

            yield from label_mb.wait_empty()

            # 4. Delegate synchronisation through the homes.
            if delegates.count:
                improved = np.flatnonzero(del_labels < del_before)
                for slot in improved.tolist():
                    home = part.owner(int(delegates.vertices[slot]))
                    if home == rank:
                        # Our own improvement: publish if news.
                        if del_labels[slot] < home_published[slot]:
                            home_published[slot] = int(del_labels[slot])
                            sync_mb.post_bcast((slot, int(del_labels[slot])))
                    else:
                        yield from sync_mb.send(home, (slot, int(del_labels[slot])))
                if (del_labels != del_before).any():
                    changed[0] = True
                yield from sync_mb.wait_empty()

            # 5. Global convergence check.
            any_changed = yield from ctx.comm.allreduce(bool(changed[0]), lambda a, b: a or b)
            if not any_changed:
                break

        # Owned delegate vertices take their replicated labels.
        if delegates.count:
            owned = delegates.vertices[is_home]
            labels[part.local_id_vec(owned)] = del_labels[is_home]
        return CCResult(
            labels=labels,
            passes=passes,
            delegate_count=delegates.count,
            bcasts=sync_mb.stats.bcasts_initiated,
        )

    return rank_main


def _load_graph(
    ctx: YgmContext,
    stream: EdgeStream,
    part: CyclicPartition,
    delegate_threshold: Optional[float],
    batch_size: int,
    capacity: Optional[int],
) -> Generator:
    """Generate the rank's edges, find the delegates (phase A) and
    distribute the edges (phase B).

    Returns what the label passes read: ``(delegates, nd_dst,
    nd_src_local, mx_src_local, mx_dst_slot, dd_u_slot, dd_v_slot)``.
    ``nd_*`` are the plain directed edges whose source this rank owns
    (the source by local id); ``mx_*`` its colocated delegate edges (the
    delegate endpoint by slot); ``dd_*`` the slots of its
    delegate-delegate edges, kept where they were generated (both
    endpoints are replicated everywhere).
    """
    gen_u, gen_v = stream.all_edges(ctx.rank)
    yield ctx.compute(len(gen_u) * ctx.machine.config.compute.per_edge_gen)
    delegates = yield from _find_delegates(
        ctx, part, gen_u, gen_v, delegate_threshold, capacity
    )
    nd_src, nd_dst, mx_src, mx_dst, dd_u, dd_v = yield from _distribute_edges(
        ctx, part, delegates, gen_u, gen_v, batch_size, capacity
    )
    return (
        delegates, nd_dst, part.local_id_vec(nd_src),
        part.local_id_vec(mx_src), delegates.slots_vec(mx_dst),
        delegates.slots_vec(dd_u), delegates.slots_vec(dd_v),
    )


def _find_delegates(
    ctx: YgmContext,
    part: CyclicPartition,
    gen_u: np.ndarray,
    gen_v: np.ndarray,
    threshold: Optional[float],
    capacity: Optional[int],
) -> Generator:
    """Phase A: the delegates are the vertices whose degree, counted by a
    YGM pre-pass, is above ``threshold`` (``None``: no delegates)."""
    if threshold is None:
        deg_mb = ctx.mailbox(recv_batch=lambda b: None, capacity=capacity)
        yield from deg_mb.wait_empty()  # keep mailbox creation collective
        return DelegateSet(np.empty(0, dtype=np.int64))
    degrees = np.zeros(part.local_count(ctx.rank), dtype=np.int64)

    def on_deg(batch: np.ndarray) -> None:
        ids = part.local_id_vec(batch["vertex"].astype(np.int64))
        degrees[:] += np.bincount(ids, minlength=len(degrees))

    deg_mb = ctx.mailbox(recv_batch=on_deg, capacity=capacity)
    yield from _send_degrees(deg_mb, part, gen_u, gen_v)
    yield from deg_mb.wait_empty()
    mine = part.local_vertices(ctx.rank)[degrees > threshold]
    all_delegate_arrays = yield from ctx.comm.allgather(mine)
    return DelegateSet(np.concatenate(all_delegate_arrays))


def _send_degrees(mb, part: CyclicPartition, u: np.ndarray, v: np.ndarray) -> Iterable:
    """Send both endpoints of every edge to their owners for counting."""
    verts = np.concatenate((u, v))
    return mb.send_batch(
        part.owner_vec(verts), DEG_SPEC.build(vertex=verts),
        spec=DEG_SPEC,
    )


def _distribute_edges(
    ctx: YgmContext,
    part: CyclicPartition,
    delegates: DelegateSet,
    gen_u: np.ndarray,
    gen_v: np.ndarray,
    batch_size: int,
    capacity: Optional[int],
) -> Generator:
    """Phase B: ship every edge to the rank that updates across it.

    The receive callback only keeps the delivered edge batches; they are
    split into plain and mixed edges once, after ``wait_empty``, in
    delivery order.

    Returns ``(nd_src, nd_dst, mx_src, mx_dst, dd_u, dd_v)`` by global
    vertex id (see :func:`_load_graph`).
    """
    batches: List[np.ndarray] = []
    edge_mb = ctx.mailbox(recv_batch=batches.append, capacity=capacity)
    du, dv, _either = delegates.split_edges(gen_u, gen_v)
    dd_mask = du & dv
    for lo in range(0, len(gen_u), batch_size):
        hi = lo + batch_size
        yield from _send_edges(
            edge_mb, part, gen_u[lo:hi], gen_v[lo:hi],
            du[lo:hi], dv[lo:hi], dd_mask[lo:hi],
        )
    yield from edge_mb.wait_empty()

    # Field by field, each straight to the dtype the passes read:
    # concatenating the structured batches would promote dtypes per input.
    def column(name: str, dtype) -> np.ndarray:
        fields = [b[name] for b in batches] or [np.empty(0, dtype)]
        return np.concatenate(fields, dtype=dtype)

    src, dst = column("src", np.int64), column("dst", np.int64)
    plain = column("kind", np.uint8) == 0
    batches.clear()  # the mailbox outlives this call: drop the records
    mixed = ~plain
    return (
        src[plain], dst[plain], src[mixed], dst[mixed],
        gen_u[dd_mask], gen_v[dd_mask],
    )


def _send_edges(
    mb, part: CyclicPartition, u: np.ndarray, v: np.ndarray,
    bu: np.ndarray, bv: np.ndarray, bdd: np.ndarray,
) -> Iterable:
    """Send one batch of edges (``bu``/``bv``: is the endpoint a
    delegate; ``bdd``: are both) to the ranks that own them."""
    plain = ~(bu | bv)
    # Plain edges: both directions, owned by the source's owner.
    src = np.concatenate((u[plain], v[plain]))
    dst = np.concatenate((v[plain], u[plain]))
    # Mixed edges: colocate at the non-delegate endpoint's owner.
    only_v = bv & ~bu & ~bdd
    only_u = bu & ~bv & ~bdd
    m_src = np.concatenate((u[only_v], v[only_u]))
    m_dst = np.concatenate((v[only_v], u[only_u]))
    all_src = np.concatenate((src, m_src))
    if not len(all_src):
        return ()
    all_dst = np.concatenate((dst, m_dst))
    kinds = np.concatenate(
        (np.zeros(len(src), dtype="u1"), np.ones(len(m_src), dtype="u1"))
    )
    return mb.send_batch(
        part.owner_vec(all_src),
        EDGE_SPEC.build(src=all_src, dst=all_dst, kind=kinds),
        spec=EDGE_SPEC,
    )


def gather_global_labels(values: List[CCResult], num_vertices: int, nranks: int) -> np.ndarray:
    """Reassemble the global label array from per-rank results."""
    part = CyclicPartition(num_vertices, nranks)
    out = np.zeros(num_vertices, dtype=np.int64)
    for rank, res in enumerate(values):
        out[part.local_vertices(rank)] = res.labels
    return out
