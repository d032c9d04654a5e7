"""Differential test: the O(n) re-binning kernel against a frozen reference.

``RoutingScheme.bin_by_hop`` takes its hop keys from a per-rank table in
the narrowest unsigned dtype that holds a rank id and radix-sorts them;
``reference_binning.bin_by_hop`` is the ``int64`` comparison sort it
replaced.  A stable sort's permutation is unique, so ``hops``, ``order``,
``starts`` and ``ends`` must be equal element for element on every
scheme, shape and column -- including either side of each key-dtype
boundary and both states of the adaptive scheme.
"""

import numpy as np
import pytest

from repro.core.routing import SCHEMES, get_scheme

from . import reference_binning as reference

SHAPES = [(1, 1), (1, 4), (4, 1), (16, 4), (32, 4)]  # ..., 64 and 128 ranks

#: ``(nodes, cores, key dtype)`` either side of each key-dtype boundary.
BOUNDARIES = [
    (64, 4, np.uint8),  # 256 ranks: the largest rank id is 255
    (257, 1, np.uint16),
    (4096, 16, np.uint16),  # 65,536 ranks
    (65537, 1, np.uint32),
]

OUTPUTS = ("hops", "order", "starts", "ends")


class _FakeResource:
    def __init__(self):
        self.in_use = 0
        self.queue_length = 0


class _FakeMachine:
    def __init__(self, nodes):
        self.nic_tx = [_FakeResource() for _ in range(nodes)]


def assert_matches_reference(scheme, cur, dests):
    got = scheme.bin_by_hop(cur, dests)
    want = reference.bin_by_hop(scheme, cur, dests)
    for name, g, w in zip(OUTPUTS, got, want):
        if w is None:
            assert g is None, name
        else:
            assert g is not None and np.array_equal(g, w), name
    return got


def columns(nranks, cur, rng):
    """Destination columns that reach every branch of the kernel."""
    yield np.empty(0, dtype=np.int64)  # empty
    yield np.full(7, cur, dtype=np.int64)  # all-self
    yield np.full(5, (cur + 1) % nranks, dtype=np.int64)  # one dest: one hop
    yield rng.integers(0, nranks, size=500)  # mixed hops, repeats
    yield np.arange(nranks, dtype=np.int64)  # every rank once


def curs(nranks):
    return sorted({0, nranks // 2, nranks - 1})


@pytest.mark.parametrize("name", list(SCHEMES))
@pytest.mark.parametrize("nodes,cores", SHAPES)
def test_matches_reference_on_every_scheme_and_shape(name, nodes, cores):
    scheme = get_scheme(name, nodes, cores)
    rng = np.random.default_rng(nodes * 100 + cores)
    for cur in curs(scheme.nranks):
        for dests in columns(scheme.nranks, cur, rng):
            hops, *_ = assert_matches_reference(scheme, cur, dests)
            assert hops.dtype == np.uint8


@pytest.mark.parametrize("name", list(SCHEMES))
@pytest.mark.parametrize("nodes,cores,dtype", BOUNDARIES)
def test_key_dtype_boundaries(name, nodes, cores, dtype):
    scheme = get_scheme(name, nodes, cores)
    rng = np.random.default_rng(nodes)
    for cur in curs(scheme.nranks):
        for dests in columns(scheme.nranks, cur, rng):
            hops, *_ = assert_matches_reference(scheme, cur, dests)
            assert hops.dtype == dtype


def test_single_hop_column_keeps_the_identity_permutation():
    # node_aware: every off-node destination of a non-aggregator funnels
    # through its node's aggregator, so distinct dests share one hop.
    scheme = get_scheme("node_aware", 4, 4)
    dests = np.array([4, 9, 14, 15, 8], dtype=np.int64)
    hops, order, starts, ends = assert_matches_reference(scheme, 1, dests)
    assert order is None
    assert (starts.tolist(), ends.tolist()) == ([0], [5])
    assert set(hops.tolist()) == {0}


@pytest.mark.parametrize("nodes,cores", [(4, 4), (8, 4), (32, 4)])
def test_adaptive_idle_and_congested(nodes, cores):
    adaptive = get_scheme("adaptive", nodes, cores)
    nlnr = get_scheme("nlnr", nodes, cores)
    machine = _FakeMachine(nodes)
    adaptive.bind_machine(machine)
    rng = np.random.default_rng(nodes)
    for cur in curs(adaptive.nranks):
        nic = machine.nic_tx[cur // cores]
        for dests in columns(adaptive.nranks, cur, rng):
            nic.in_use = 0  # idle: direct, the hop is the destination
            idle = assert_matches_reference(adaptive, cur, dests)
            assert np.array_equal(idle[0], np.sort(dests, kind="stable"))
            nic.in_use = 1  # congested: NLNR's route
            congested = assert_matches_reference(adaptive, cur, dests)
            assert np.array_equal(congested[0], nlnr.bin_by_hop(cur, dests)[0])
            assert idle[0].dtype == congested[0].dtype == np.uint8


@pytest.mark.parametrize("name", list(SCHEMES))
def test_hop_table_is_built_once_per_rank(name, monkeypatch):
    scheme = get_scheme(name, 4, 4)
    if name == "adaptive":
        machine = _FakeMachine(4)
        scheme.bind_machine(machine)
        for nic in machine.nic_tx:
            nic.in_use = 1  # the tabulated branch
    built = []
    cls = type(scheme._nlnr if name == "adaptive" else scheme)
    route = cls.next_hop_vec

    def counting(self, cur, dests):
        built.append(cur)
        return route(self, cur, dests)

    monkeypatch.setattr(cls, "next_hop_vec", counting)
    dests = np.array([3, 7, 9, 12, 3, 15], dtype=np.int64)
    for _ in range(3):
        for cur in (0, 5):
            scheme.bin_by_hop(cur, dests)
    assert built == [0, 5]
