"""Preset machines and the compute-cost model."""

import pytest

from repro.machine import ComputeModel, bench_machine, quartz_like, small
from repro.machine.presets import DEFAULT_COMPUTE, QUARTZ_NET


def test_quartz_like_shape():
    cfg = quartz_like(nodes=16)
    assert cfg.cores_per_node == 36  # the paper's Quartz
    assert cfg.nranks == 16 * 36
    assert cfg.net == QUARTZ_NET


def test_bench_machine_default_width():
    cfg = bench_machine(4)
    assert cfg.cores_per_node == 8
    assert cfg.nranks == 32


def test_presets_share_network_model():
    assert bench_machine(2).net == quartz_like(2).net == small().net


def test_preset_net_overrides():
    cfg = bench_machine(2, eager_threshold=4096, latency=9e-6)
    assert cfg.net.eager_threshold == 4096
    assert cfg.net.latency == 9e-6
    # The shared default is untouched.
    assert QUARTZ_NET.eager_threshold == 16 * 1024


def test_machine_config_validates_shape():
    with pytest.raises(ValueError):
        bench_machine(0)
    with pytest.raises(ValueError):
        small(nodes=2, cores_per_node=0)


def test_compute_model_defaults_and_overrides():
    cm = ComputeModel()
    assert cm.per_message_handle > 0
    assert cm.per_flop > 0
    fast = cm.with_overrides(per_flop=0.0)
    assert fast.per_flop == 0.0
    assert cm.per_flop > 0  # frozen original
    assert DEFAULT_COMPUTE == ComputeModel()


def test_network_model_is_frozen():
    import dataclasses

    with pytest.raises(dataclasses.FrozenInstanceError):
        QUARTZ_NET.latency = 0.0


@pytest.mark.parametrize(
    "field, value",
    [("per_message_handle", float("nan")), ("per_flop", -1e-9),
     ("per_edge_gen", float("inf")), ("per_message_queue", -1.0)],
)
def test_compute_model_rejects_bad_costs(field, value):
    with pytest.raises(ValueError, match=f"ComputeModel.{field} must be"):
        ComputeModel(**{field: value})
    with pytest.raises(ValueError, match=field):
        DEFAULT_COMPUTE.with_overrides(**{field: value})
