"""Unit tests for the network cost model (the Fig 5 substrate)."""

import pytest

from repro.machine import KiB, MiB, NetworkModel


@pytest.fixture
def net():
    return NetworkModel()


def test_protocol_switch_at_threshold(net):
    assert not net.is_rendezvous(net.eager_threshold - 1)
    assert net.is_rendezvous(net.eager_threshold)


def test_bandwidth_monotone_within_eager_regime(net):
    sizes = [2**k for k in range(0, 14)]  # 1B .. 8KiB
    bws = [net.bandwidth(s) for s in sizes]
    assert all(b2 > b1 for b1, b2 in zip(bws, bws[1:]))


def test_rendezvous_dip_at_threshold(net):
    """The paper's Fig 5 shows a downward jump at the 16 KiB switch."""
    below = net.bandwidth(net.eager_threshold - 1)
    at = net.bandwidth(net.eager_threshold)
    assert at < below


def test_bandwidth_recovers_past_dip(net):
    """Past the dip, rendezvous eventually beats the best eager bandwidth."""
    best_eager = net.bandwidth(net.eager_threshold - 1)
    big = net.bandwidth(16 * MiB)
    assert big > best_eager


def test_bandwidth_plateau(net):
    """Large-message bandwidth approaches the rendezvous wire rate / 2
    (the model charges both NICs sequentially)."""
    bw = net.bandwidth(64 * MiB)
    plateau = net.rendezvous_rate / 2
    assert bw == pytest.approx(plateau, rel=0.01)


def test_local_cheaper_than_remote(net):
    """Section III: local communication is bit-for-bit cheaper."""
    for size in (1, 64, 4 * KiB, 1 * MiB):
        assert net.local_time(size) < net.remote_time_uncontended(size)


def test_nic_time_has_per_packet_floor(net):
    assert net.nic_time(0) == pytest.approx(net.nic_gap)
    assert net.nic_time(1) > net.nic_gap


def test_overrides_are_copies(net):
    fast = net.with_overrides(latency=1e-9)
    assert fast.latency == 1e-9
    assert net.latency != 1e-9
    assert fast.eager_rate == net.eager_rate


def test_remote_delay_includes_handshake(net):
    small = net.remote_delay(net.eager_threshold - 1)
    large = net.remote_delay(net.eager_threshold)
    assert large > small
    assert small == pytest.approx(net.latency)


# ----------------------------------------------------------- cost cache
def test_packet_costs_matches_direct_methods(net):
    for nbytes in (0, 1, 100, net.eager_threshold - 1, net.eager_threshold, 1 * MiB):
        nic, delay, local = net.packet_costs(nbytes)
        assert nic == net.nic_time(nbytes)
        assert delay == net.remote_delay(nbytes)
        assert local == net.local_time(nbytes)


def test_packet_costs_is_cached(net):
    first = net.packet_costs(4096)
    assert net.packet_costs(4096) is first  # memoised tuple identity
    assert 4096 in net._cost_cache


def test_packet_costs_cache_is_per_instance(net):
    other = net.with_overrides(latency=net.latency * 10)
    assert other._cost_cache == {}  # replace() copies start fresh
    net.packet_costs(64)
    assert 64 not in other._cost_cache
    assert other.packet_costs(64)[1] != net.packet_costs(64)[1]


def test_packet_costs_cache_bound():
    net = NetworkModel()
    # Simulate a fully warmed memo (the sentinel entry marks the
    # parameters it was built under; without it the next call would
    # treat the stuffed cache as stale and clear it).
    net._cost_cache[net._PARAMS_KEY] = net._cost_params()
    net._cost_cache.update({i: (0.0, 0.0, 0.0) for i in range(net._COST_CACHE_MAX)})
    costs = net.packet_costs(net._COST_CACHE_MAX + 7)
    # Over the bound: still correct, just not retained.
    assert costs == (
        net.nic_time(net._COST_CACHE_MAX + 7),
        net.remote_delay(net._COST_CACHE_MAX + 7),
        net.local_time(net._COST_CACHE_MAX + 7),
    )
    assert net._COST_CACHE_MAX + 7 not in net._cost_cache


def test_model_equality_ignores_cache(net):
    other = NetworkModel()
    other.packet_costs(128)
    assert net == other


def test_packet_costs_memo_tracks_parameter_mutation(net):
    """The per-size memo must not serve stale costs after a mutation.

    The dataclass is frozen, so ordinary assignment raises; but ablation
    helpers and tests can still mutate through ``object.__setattr__``,
    and the memo used to keep charging the old parameters forever.
    """
    nbytes = 4 * KiB
    before = net.packet_costs(nbytes)
    assert before == (
        net.nic_time(nbytes), net.remote_delay(nbytes), net.local_time(nbytes)
    )

    with pytest.raises(Exception):
        net.latency = net.latency * 2  # frozen: ordinary mutation refused

    object.__setattr__(net, "latency", net.latency * 10)
    object.__setattr__(net, "nic_gap", net.nic_gap * 3)
    after = net.packet_costs(nbytes)
    assert after != before
    assert after == (
        net.nic_time(nbytes), net.remote_delay(nbytes), net.local_time(nbytes)
    )
    # And the memo is warm again for the *new* parameters.
    assert net.packet_costs(nbytes) == after


def test_packet_costs_with_overrides_copy_is_independent(net):
    """replace()-based copies start fresh and never share the memo."""
    nbytes = 64
    base = net.packet_costs(nbytes)
    fast = net.with_overrides(nic_gap=net.nic_gap / 2)
    assert fast.packet_costs(nbytes) != base
    assert net.packet_costs(nbytes) == base


# ------------------------------------------------- bad timing inputs
NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "field, value",
    [
        ("latency", NAN),  # used to run to completion with elapsed = nan
        ("send_overhead", -1e-6),  # used to be charged as 0
        ("nic_gap", -5e-6),  # these three used to end the run normally,
        ("latency", -1e-5),  # each rank *returning* the ValueError or
        ("eager_rate", 0.0),  # ZeroDivisionError
        ("recv_overhead", INF),
        ("handshake_latency", NAN),
        ("local_overhead", -1.0),
        ("rendezvous_rate", -1.0),
        ("memory_rate", NAN),
    ],
)
def test_bad_timing_rejected_when_the_machine_is_built(field, value):
    from repro.machine import bench_machine

    with pytest.raises(ValueError, match=f"NetworkModel.{field} must be"):
        bench_machine(2, cores_per_node=2, **{field: value})
    with pytest.raises(ValueError, match=field):
        NetworkModel(**{field: value})


def test_bad_timing_rejected_by_with_overrides(net):
    with pytest.raises(ValueError, match="nic_gap"):
        net.with_overrides(nic_gap=-5e-6)


def test_zero_times_and_infinite_rates_are_allowed():
    net = NetworkModel(
        latency=0.0, nic_gap=0.0, handshake_latency=0.0, send_overhead=0.0,
        recv_overhead=0.0, local_overhead=0.0, eager_rate=INF,
    )
    assert net.nic_time(4096) == 0.0
