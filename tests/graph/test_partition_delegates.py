"""Tests for partitioning and delegates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    BlockPartition,
    CyclicPartition,
    DelegateSet,
    build_delegates,
    degrees_from_edges,
    find_delegates,
    rmat_edges,
    rmat_expected_max_degree,
    scaled_delegate_threshold,
)


# ---------------------------------------------------------------- cyclic
def test_cyclic_owner_matches_paper_algorithm1():
    part = CyclicPartition(num_vertices=100, nranks=7)
    for v in range(100):
        assert part.owner(v) == v % 7
        assert part.local_id(v) == v // 7
        assert part.global_id(part.owner(v), part.local_id(v)) == v


def test_cyclic_vectorized_matches_scalar():
    part = CyclicPartition(1000, 13)
    v = np.arange(1000)
    assert np.array_equal(part.owner_vec(v), v % 13)
    assert np.array_equal(part.local_id_vec(v), v // 13)


def test_cyclic_local_counts_sum_to_n():
    part = CyclicPartition(101, 7)
    counts = [part.local_count(r) for r in range(7)]
    assert sum(counts) == 101
    assert max(counts) - min(counts) <= 1


def test_cyclic_local_vertices():
    part = CyclicPartition(20, 4)
    assert list(part.local_vertices(1)) == [1, 5, 9, 13, 17]
    assert all(part.owner(v) == 2 for v in part.local_vertices(2))


# ----------------------------------------------------------------- block
@given(st.integers(1, 500), st.integers(1, 17))
@settings(max_examples=50, deadline=None)
def test_block_partition_consistent(n, p):
    part = BlockPartition(n, p)
    sizes = [part.local_count(k) for k in range(p)]
    assert sum(sizes) == n
    assert max(sizes) - min(sizes) <= 1
    for v in range(n):
        k = part.owner(v)
        lo, hi = part.bounds(k)
        assert lo <= v < hi


def test_block_owner_vec_matches_scalar():
    part = BlockPartition(103, 7)
    v = np.arange(103)
    assert np.array_equal(part.owner_vec(v), [part.owner(x) for x in v])


# -------------------------------------------------------------- delegates
def test_degrees_from_edges():
    u = np.array([0, 0, 1])
    v = np.array([1, 2, 2])
    deg = degrees_from_edges(u, v, 4)
    assert list(deg) == [2, 2, 2, 0]


def test_find_delegates_threshold_strict():
    deg = np.array([5, 10, 10, 11])
    assert list(find_delegates(deg, 10)) == [3]
    assert list(find_delegates(deg, 4)) == [0, 1, 2, 3]


def test_delegate_set_membership_and_slots():
    ds = DelegateSet(np.array([3, 17, 99]))
    assert ds.count == 3
    mask = ds.is_delegate_vec(np.array([0, 3, 17, 50, 99, 100]))
    assert list(mask) == [False, True, True, False, True, False]
    assert list(ds.slots_vec(np.array([3, 17, 99]))) == [0, 1, 2]


def test_delegate_set_empty():
    ds = DelegateSet(np.array([], dtype=np.int64))
    assert ds.count == 0
    assert not ds.is_delegate_vec(np.array([1, 2, 3])).any()


def test_build_delegates_finds_hubs():
    rng = np.random.default_rng(0)
    n = 2**10
    u, v = rmat_edges(10, 16 * n, rng)
    deg = degrees_from_edges(u, v, n)
    thresh = float(np.percentile(deg, 99.5))
    ds = build_delegates(u, v, n, thresh)
    assert ds.count > 0
    assert 0 in ds.slot_of  # vertex 0 is the biggest hub
    assert (deg[ds.vertices] > thresh).all()


def test_expected_max_degree_scaling():
    """Doubling the graph (scale+1, 2x edges) grows the expected max
    degree by 2(a+b) -- the quantity the paper scales thresholds with."""
    a, b = 0.57, 0.19
    d1 = rmat_expected_max_degree(20, 16 * 2**20, a, b)
    d2 = rmat_expected_max_degree(21, 16 * 2**21, a, b)
    assert d2 / d1 == pytest.approx(2 * (a + b))
    assert scaled_delegate_threshold(20, 16 * 2**20, a, b) >= 4.0


def test_split_edges_masks():
    ds = DelegateSet(np.array([1]))
    u = np.array([0, 1, 2])
    v = np.array([1, 2, 0])
    du, dv, either = ds.split_edges(u, v)
    assert list(du) == [False, True, False]
    assert list(dv) == [True, False, False]
    assert list(either) == [True, True, False]
