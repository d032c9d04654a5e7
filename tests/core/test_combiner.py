"""Property tests for the in-network combining algebras (ISSUE 9 sat-4).

Every app-level combiner must behave as a merge algebra: the combined
result is independent of the order records meet in (commutativity), and
of how the stream is windowed into partial combines (associativity --
this is exactly what intermediate hops do).  The ``min`` algebras must
additionally be idempotent, which is what makes their combining
bit-exact end to end.  Float ``sum`` (SpMV) holds the same structure up
to rounding only, so its re-grouping equivalences are checked with a
tolerance.  Last, two fixed panels pin what combining removes end to end.
"""

import numpy as np
import pytest

from repro.apps import make_connected_components, make_degree_counting
from repro.apps.bfs import BFS_COMBINER, BFS_SPEC
from repro.apps.connected_components import CC_COMBINER, CC_SPEC
from repro.apps.degree_count import DEGREE_COMBINER, DEGREE_COUNT_SPEC
from repro.apps.kmer_count import KMER_COMBINER, KMER_COUNT_SPEC
from repro.apps.sssp import SSSP_COMBINER, SSSP_SPEC
from repro.core import YgmWorld
from repro.core.routing.combiner import REDUCE_OPS, Combiner
from repro.graph import er_stream, rmat_stream
from repro.linalg.spmv import SPMV_COMBINER, SPMV_SPEC
from repro.machine import bench_machine


def _random_case(app, rng, n):
    """(combiner, dests, batch) with a deliberately collision-rich key
    space so groups of size > 1 are common."""
    dests = rng.integers(0, 6, n)
    if app == "degree_count":
        batch = DEGREE_COUNT_SPEC.build(
            vertex=rng.integers(0, 12, n).astype("u8"),
            count=rng.integers(1, 5, n).astype("u8"),
        )
        return DEGREE_COMBINER, dests, batch
    if app == "kmer_count":
        batch = KMER_COUNT_SPEC.build(
            kmer=rng.integers(0, 9, n).astype("u8"),
            count=rng.integers(1, 4, n).astype("u8"),
        )
        return KMER_COMBINER, dests, batch
    if app == "cc":
        batch = CC_SPEC.build(
            vertex=rng.integers(0, 12, n).astype("u8"),
            label=rng.integers(0, 64, n).astype("u8"),
        )
        return CC_COMBINER, dests, batch
    if app == "bfs":
        batch = BFS_SPEC.build(
            vertex=rng.integers(0, 12, n).astype("u8"),
            dist=rng.integers(0, 20, n).astype("u8"),
        )
        return BFS_COMBINER, dests, batch
    if app == "sssp":
        batch = SSSP_SPEC.build(
            vertex=rng.integers(0, 12, n).astype("u8"),
            dist=rng.random(n),
        )
        return SSSP_COMBINER, dests, batch
    if app == "spmv":
        batch = SPMV_SPEC.build(
            row=rng.integers(0, 12, n).astype("u8"),
            val=rng.standard_normal(n),
        )
        return SPMV_COMBINER, dests, batch
    raise AssertionError(app)


APPS = ["degree_count", "kmer_count", "cc", "bfs", "sssp", "spmv"]
MIN_APPS = ["cc", "bfs", "sssp"]  # idempotent min algebras


def _canon(comb, result):
    """Sort a combine() result by (dest, *key_fields).

    When nothing merges, ``combine`` passes the original arrays through
    untouched (no copy), so equal *multisets* may come back in different
    orders; the algebraic properties hold up to this canonical order.
    """
    dests, batch, lins, eliminated = result
    order = np.lexsort(
        [batch[f] for f in reversed(comb.key_fields)] + [dests]
    )
    return dests[order], batch[order], lins, eliminated


def _assert_combined_equal(comb, a, b, exact):
    da, ba, _, _ = _canon(comb, a)
    db, bb, _, _ = _canon(comb, b)
    assert np.array_equal(da, db)
    for f in comb.key_fields:
        assert np.array_equal(ba[f], bb[f])
    for f, op in comb.reduce_fields.items():
        if exact:
            assert np.array_equal(ba[f], bb[f])
        else:
            assert np.allclose(ba[f], bb[f], rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("app", APPS)
@pytest.mark.parametrize("seed", range(8))
def test_merge_order_equivalence(app, seed):
    """Commutativity: any permutation of the input records combines to
    the identical (canonically ordered) output."""
    rng = np.random.default_rng(seed)
    comb, dests, batch = _random_case(app, rng, n=int(rng.integers(2, 80)))
    base = comb.combine(dests, batch)
    perm = rng.permutation(len(dests))
    shuffled = comb.combine(dests[perm], batch[perm])
    assert base[3] == shuffled[3]  # same number eliminated
    _assert_combined_equal(comb, base, shuffled, comb.exact)


@pytest.mark.parametrize("app", APPS)
@pytest.mark.parametrize("seed", range(8))
def test_windowed_combining_equals_one_shot(app, seed):
    """Associativity: combining two windows separately and then
    combining the concatenation (what an intermediate hop does) matches
    combining everything at once."""
    rng = np.random.default_rng(100 + seed)
    comb, dests, batch = _random_case(app, rng, n=int(rng.integers(4, 80)))
    cut = int(rng.integers(1, len(dests)))
    d1, b1, _, e1 = comb.combine(dests[:cut], batch[:cut])
    d2, b2, _, e2 = comb.combine(dests[cut:], batch[cut:])
    rewindowed = comb.combine(
        np.concatenate([d1, d2]), np.concatenate([b1, b2])
    )
    one_shot = comb.combine(dests, batch)
    assert e1 + e2 + rewindowed[3] == one_shot[3]
    _assert_combined_equal(comb, rewindowed, one_shot, comb.exact)


@pytest.mark.parametrize("app", MIN_APPS)
@pytest.mark.parametrize("seed", range(4))
def test_min_algebras_are_idempotent(app, seed):
    """Doubling the stream changes nothing for the ``min`` algebras:
    re-delivering a dominated update can never move the result."""
    rng = np.random.default_rng(200 + seed)
    comb, dests, batch = _random_case(app, rng, n=int(rng.integers(2, 60)))
    once = comb.combine(dests, batch)
    doubled = comb.combine(
        np.concatenate([dests, dests]), np.concatenate([batch, batch])
    )
    _assert_combined_equal(comb, once, doubled, exact=True)
    # And combining is a fixpoint: re-combining its own output is a no-op.
    again = comb.combine(once[0], once[1])
    assert again[3] == 0
    _assert_combined_equal(comb, once, again, exact=True)


@pytest.mark.parametrize("seed", range(4))
def test_sum_algebras_conserve_totals(seed):
    """Integer count-sum combining must conserve the global total."""
    rng = np.random.default_rng(300 + seed)
    for app in ("degree_count", "kmer_count"):
        comb, dests, batch = _random_case(app, rng, n=50)
        (field,) = comb.reduce_fields
        _, out, _, eliminated = comb.combine(dests, batch)
        assert int(out[field].sum()) == int(batch[field].sum())
        assert eliminated == len(batch) - len(out)


def test_lineage_representative_is_first_posted():
    """Merged groups keep the earliest-posted record's lineage id (the
    others end at the combining rank)."""
    dests = np.array([2, 2, 2, 3], dtype=np.int64)
    batch = DEGREE_COUNT_SPEC.build(
        vertex=np.array([7, 7, 5, 7], dtype="u8"),
        count=np.array([1, 1, 1, 1], dtype="u8"),
    )
    lins = np.array([10, 11, 12, 13], dtype=np.int64)
    out_dests, out, out_lins, eliminated = DEGREE_COMBINER.combine(
        dests, batch, lins
    )
    assert eliminated == 1
    assert len(out_lins) == len(out_dests) == len(out)
    # The (dest=2, vertex=7) pair merged; 10 posted first and survives.
    by_key = dict(zip(zip(out_dests.tolist(), out["vertex"].tolist()),
                      out_lins.tolist()))
    assert by_key[(2, 7)] == 10
    assert by_key[(2, 5)] == 12
    assert by_key[(3, 7)] == 13


def test_singleton_and_empty_batches_pass_through():
    for n in (0, 1):
        dests = np.arange(n, dtype=np.int64)
        batch = DEGREE_COUNT_SPEC.zeros(n)
        out_dests, out, out_lins, eliminated = DEGREE_COMBINER.combine(
            dests, batch
        )
        assert eliminated == 0
        assert out_dests is dests and out is batch


def test_combiner_validation():
    with pytest.raises(ValueError, match="key field"):
        Combiner("bad", key_fields=(), reduce_fields={"x": "sum"})
    with pytest.raises(ValueError, match="reduce op"):
        Combiner("bad", key_fields=("k",), reduce_fields={"x": "mean"})
    with pytest.raises(ValueError, match="both key and reduce"):
        Combiner("bad", key_fields=("x",), reduce_fields={"x": "sum"})


def test_reduce_ops_registry_is_algebraically_sound():
    """Every registered op must be associative and commutative on the
    dtypes the apps use (spot-checked numerically)."""
    rng = np.random.default_rng(0)
    xs = rng.integers(0, 100, 30)
    for name, op in REDUCE_OPS.items():
        a, b, c = xs[:10], xs[10:20], xs[20:]
        assert np.array_equal(op(op(a, b), c), op(a, op(b, c)))
        assert np.array_equal(op(a, b), op(b, a))


# ------------------------------------------------- end-to-end reduction floors
#: In-network combining must remove at least this share of forwarded
#: entries *and* remote wire bytes on both representative panels (the
#: PR 9 acceptance bar).  Simulated counters of paired off/on runs: exact
#: on any host.
MIN_COMBINING_REDUCTION = 0.25


def _panel_counters(app, combining):
    """(entries_combined, entries_forwarded, remote_bytes_sent) of one panel
    run: NLNR, 2 nodes x 2 cores, capacity 2^8."""
    if app == "degree_count":
        # Fig 6 shape with a concentrated key space: duplicate-rich windows.
        stream = er_stream(num_vertices=64, edges_per_rank=512, seed=5)
        program = make_degree_counting(
            stream, batch_size=1024, capacity=2**8, combining=combining
        )
    else:
        # Fig 7's RMAT workload; only extreme hubs are delegated, so label
        # updates ride the combinable point-to-point mailbox.
        stream = rmat_stream(8, 512, seed=5)
        mean_degree = 2.0 * 512 * 4 / stream.num_vertices
        program = make_connected_components(
            stream, delegate_threshold=16.0 * mean_degree, batch_size=1024,
            capacity=2**8, combining=combining,
        )
    world = YgmWorld(
        bench_machine(2, cores_per_node=2), scheme="nlnr", seed=0,
        mailbox_capacity=2**8,
    )
    stats = world.run(program).mailbox_stats
    return stats.entries_combined, stats.entries_forwarded, stats.remote_bytes_sent


@pytest.mark.parametrize(
    "app, off, on",
    [
        ("degree_count", (0, 2116, 33440), (2958, 128, 3072)),
        ("connected_components", (0, 9053, 200796), (6832, 5281, 103932)),
    ],
)
def test_combining_reduction_floor(app, off, on):
    assert _panel_counters(app, combining=False) == off
    assert _panel_counters(app, combining=True) == on
    forwarded = 1.0 - on[1] / off[1]  # 0.9395 / 0.4167
    wire = 1.0 - on[2] / off[2]  # 0.9081 / 0.4824
    assert min(forwarded, wire) >= MIN_COMBINING_REDUCTION
