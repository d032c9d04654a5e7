"""Tests for graph generators: determinism, ranges, degree skew, and RMAT
bit-identity against the frozen pre-bulk generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    GRAPH500_PARAMS,
    UNIFORM_PARAMS,
    er_stream,
    erdos_renyi_edges,
    permute_vertices,
    rmat_edges,
    rmat_stream,
)

from . import reference_rmat


def test_er_ranges_and_count():
    rng = np.random.default_rng(0)
    u, v = erdos_renyi_edges(100, 5000, rng)
    assert len(u) == len(v) == 5000
    assert u.min() >= 0 and u.max() < 100
    assert v.min() >= 0 and v.max() < 100


def test_er_roughly_uniform():
    rng = np.random.default_rng(1)
    u, v = erdos_renyi_edges(64, 64 * 2000, rng)
    deg = np.bincount(u, minlength=64)
    assert deg.min() > 0.8 * deg.mean()
    assert deg.max() < 1.2 * deg.mean()


def test_rmat_ranges():
    rng = np.random.default_rng(2)
    u, v = rmat_edges(10, 4000, rng)
    assert u.min() >= 0 and u.max() < 2**10
    assert v.min() >= 0 and v.max() < 2**10


def test_rmat_skewed_params_give_skewed_degrees():
    rng = np.random.default_rng(3)
    n = 2**12
    u, v = rmat_edges(12, 16 * n, rng, params=GRAPH500_PARAMS)
    deg = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
    # Scale-free-ish: the max degree dwarfs the mean; many isolated vertices.
    assert deg.max() > 20 * deg.mean()
    assert (deg == 0).sum() > n // 10


def test_rmat_uniform_params_are_not_skewed():
    rng = np.random.default_rng(4)
    n = 2**12
    u, v = rmat_edges(12, 16 * n, rng, params=UNIFORM_PARAMS)
    deg = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
    assert deg.max() < 4 * deg.mean()


def test_rmat_hub_is_vertex_zero_in_expectation():
    rng = np.random.default_rng(5)
    n = 2**10
    u, v = rmat_edges(10, 64 * n, rng, params=GRAPH500_PARAMS)
    deg = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
    assert np.argmax(deg) == 0  # a=0.57 concentrates mass at id 0


def test_rmat_invalid_params_rejected():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        rmat_edges(4, 10, rng, params=(0.5, 0.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        rmat_edges(0, 10, rng)


def test_permute_preserves_multiset_of_degrees():
    rng = np.random.default_rng(6)
    n = 256
    u, v = rmat_edges(8, 2048, rng)
    pu, pv = permute_vertices((u, v), n, np.random.default_rng(7))
    deg = np.sort(np.bincount(u, minlength=n) + np.bincount(v, minlength=n))
    pdeg = np.sort(np.bincount(pu, minlength=n) + np.bincount(pv, minlength=n))
    assert np.array_equal(deg, pdeg)


# ----------------------------------------------------------- edge streams
def test_stream_batches_cover_exact_edge_count():
    stream = er_stream(num_vertices=50, edges_per_rank=1000, seed=0)
    total = sum(len(u) for u, v in stream.batches(rank=0, batch_size=128))
    assert total == 1000


def test_stream_deterministic_per_rank():
    stream = rmat_stream(scale=8, edges_per_rank=500, seed=42)
    a = stream.all_edges(rank=3)
    b = stream.all_edges(rank=3)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_stream_differs_across_ranks():
    stream = er_stream(num_vertices=1000, edges_per_rank=500, seed=42)
    a = stream.all_edges(rank=0)
    b = stream.all_edges(rank=1)
    assert not np.array_equal(a[0], b[0])


def test_stream_batch_content_independent_of_batch_size():
    """Same total edge multiset regardless of batching granularity."""
    stream = er_stream(num_vertices=100, edges_per_rank=777, seed=5)
    one = np.sort(np.concatenate([u * 1000 + v for u, v in stream.batches(0, 777)]))
    many = np.sort(np.concatenate([u * 1000 + v for u, v in stream.batches(0, 64)]))
    assert np.array_equal(one, many)


@given(st.integers(1, 12), st.integers(1, 2000))
@settings(max_examples=20, deadline=None)
def test_rmat_property_bounds(scale, m):
    rng = np.random.default_rng(scale * 1000 + m)
    u, v = rmat_edges(scale, m, rng)
    assert len(u) == m
    assert ((u >= 0) & (u < 2**scale)).all()
    assert ((v >= 0) & (v < 2**scale)).all()


#: The parameter sets the bit-identity checks sweep: Graph500, uniform and
#: one more skewed set whose c/(c+d) differs from a/(a+b).
RMAT_PARAMS = [GRAPH500_PARAMS, UNIFORM_PARAMS, (0.45, 0.15, 0.3, 0.1)]


def assert_same_rmat(scale, num_edges, params, noise, seed):
    got = rmat_edges(scale, num_edges, np.random.default_rng(seed), params, noise)
    want = reference_rmat.rmat_edges(
        scale, num_edges, np.random.default_rng(seed), params, noise
    )
    for g, w in zip(got, want):
        assert g.dtype == np.int64
        assert np.array_equal(g, w), (scale, num_edges, params, noise, seed)


@pytest.mark.parametrize("noise", [0.0, 0.1])
@pytest.mark.parametrize("params", RMAT_PARAMS, ids=["graph500", "uniform", "skewed"])
def test_rmat_is_bit_identical_to_the_frozen_reference(params, noise):
    """Every edge of every scale is the one the pre-bulk generator drew."""
    for scale in range(1, 17):
        for num_edges in (0, 1, 4096, 20_000):
            for seed in (0, 1, 7):
                assert_same_rmat(scale, num_edges, params, noise, seed)


@given(
    st.integers(1, 16),
    st.integers(0, 3000),
    st.sampled_from(RMAT_PARAMS),
    st.sampled_from([0.0, 0.1]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_rmat_property_bit_identical_to_the_frozen_reference(
    scale, num_edges, params, noise, seed
):
    assert_same_rmat(scale, num_edges, params, noise, seed)
