"""`min_wire_latency` is a true lower bound (satellite: lookahead).

The parallel engine's safety rests on one inequality: no remote packet,
of any size, can be observed by another node earlier than
``t_wire + min_wire_latency(net)``.  If the bound ever exceeded an
actual ``remote_delay``, a window could process an event that an
in-flight import should have preceded -- silent causality violation.
These property tests hammer the inequality under randomized model
parameters, across the eager/rendezvous protocol boundary, and after
in-place mutation of a (frozen) model -- the memo-staleness bug class.
"""

import random

import pytest

from repro.machine.netmodel import NetworkModel
from repro.pdes.partition import min_wire_latency


def random_model(rng: random.Random) -> NetworkModel:
    return NetworkModel(
        latency=rng.uniform(1e-8, 1e-5),
        nic_gap=rng.uniform(1e-8, 1e-5),
        eager_rate=rng.uniform(1e8, 2e10),
        rendezvous_rate=rng.uniform(1e8, 4e10),
        eager_threshold=rng.choice([1, 7, 256, 4096, 16384, 1 << 20]),
        handshake_latency=rng.uniform(0.0, 1e-5),
        send_overhead=rng.uniform(0.0, 1e-6),
        recv_overhead=rng.uniform(0.0, 1e-6),
    )


def probe_sizes(net: NetworkModel):
    """Sizes straddling every protocol decision point."""
    t = net.eager_threshold
    return sorted(
        {1, 8, 64, t - 1, t, t + 1, 4 * t, 1 << 22} - {0, -1}
        | {s for s in (t - 2, 2 * t) if s > 0}
    )


@pytest.mark.parametrize("seed", range(50))
def test_lower_bound_holds_under_randomized_parameters(seed):
    rng = random.Random(seed)
    net = random_model(rng)
    bound = min_wire_latency(net)
    assert bound >= 0.0
    for nbytes in probe_sizes(net):
        assert bound <= net.remote_delay(nbytes), (
            f"min_wire_latency {bound!r} exceeds remote_delay({nbytes}) = "
            f"{net.remote_delay(nbytes)!r} for {net!r}"
        )
        # The memoised triple the transport actually charges agrees.
        assert bound <= net.packet_costs(nbytes)[1]


def test_bound_is_tight():
    # Not just any lower bound: some packet size achieves it exactly.
    net = NetworkModel()
    sizes = probe_sizes(net)
    assert min(net.remote_delay(n) for n in sizes) == min_wire_latency(net)


@pytest.mark.parametrize("seed", range(20))
def test_lower_bound_tracks_in_place_mutation(seed):
    # The dataclass is frozen but ablation helpers/tests mutate via
    # object.__setattr__; packet_costs memoisation once went stale that
    # way (PR 6).  min_wire_latency is deliberately unmemoised, so it
    # must follow the mutated parameters immediately -- and keep
    # lower-bounding the (cache-invalidating) packet_costs.
    rng = random.Random(1000 + seed)
    net = random_model(rng)
    for nbytes in probe_sizes(net):
        net.packet_costs(nbytes)  # warm the memo under the old params
    object.__setattr__(net, "latency", rng.uniform(1e-9, 1e-4))
    object.__setattr__(net, "handshake_latency", rng.uniform(0.0, 1e-4))
    object.__setattr__(net, "nic_gap", rng.uniform(1e-9, 1e-4))
    bound = min_wire_latency(net)
    assert bound == min(
        net.latency,
        net.latency + 2.0 * (net.handshake_latency + net.nic_gap),
    )
    for nbytes in probe_sizes(net):
        assert bound <= net.remote_delay(nbytes)
        assert bound <= net.packet_costs(nbytes)[1]
