"""Public-API hygiene: exports exist, are documented, and are stable."""

import importlib
import inspect
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

PACKAGES = [
    "repro",
    "repro.sim",
    "repro.machine",
    "repro.mpi",
    "repro.serde",
    "repro.core",
    "repro.core.routing",
    "repro.graph",
    "repro.linalg",
    "repro.apps",
    "repro.baselines",
    "repro.bench",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_all_exports_resolve(name):
    mod = importlib.import_module(name)
    assert mod.__doc__, f"{name} lacks a module docstring"
    for symbol in getattr(mod, "__all__", []):
        assert hasattr(mod, symbol), f"{name}.__all__ lists missing {symbol!r}"


@pytest.mark.parametrize("name", PACKAGES)
def test_public_callables_documented(name):
    """Every public class/function exported by __all__ has a docstring."""
    mod = importlib.import_module(name)
    for symbol in getattr(mod, "__all__", []):
        obj = getattr(mod, symbol)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__doc__, f"{name}.{symbol} lacks a docstring"


def test_version_is_exposed():
    import repro

    assert repro.__version__


def test_top_level_surface():
    import repro

    for name in ("YgmWorld", "Mailbox", "RecordSpec", "get_scheme", "PAPER_SCHEMES"):
        assert name in repro.__all__


def test_paper_schemes_all_constructible():
    from repro import PAPER_SCHEMES, SCHEMES, get_scheme

    for name in list(SCHEMES):
        scheme = get_scheme(name, 8, 4)
        assert scheme.nranks == 32
    assert set(PAPER_SCHEMES) <= set(SCHEMES)


# ------------------------------------------------------------ API budget
# These lists can only shrink.  A new export, config field or constructor
# parameter fails here until its name is added in the same diff -- which
# puts the growth in front of the reviewer.
CORE_EXPORTS = {
    "BatchEntry", "BcastEntry", "CoalescingBuffer", "Combiner",
    "ENTRY_HEADER_BYTES", "EXTENDED_SCHEMES", "Mailbox", "MailboxConfig",
    "MailboxStats", "Occupancy", "PAPER_SCHEMES", "RoutingScheme", "SCHEMES",
    "TerminationDetector", "YgmContext", "YgmResult", "YgmWorld", "aggregate",
    "binomial_children", "binomial_parent", "get_scheme",
}
ROUTING_EXPORTS = {
    "Adaptive", "Combiner", "EXTENDED_SCHEMES", "HybridNLNR", "NLNR",
    "NoRoute", "NodeAware", "NodeLocal", "NodeRemote", "PAPER_SCHEMES",
    "RoutingScheme", "SCHEMES", "get_scheme",
}
#: Public attributes of a routing scheme: the class's and a built one's.
ROUTING_SCHEME_ATTRS = {
    "bcast_targets", "bin_by_hop", "bind_machine", "cores", "free_local_hops",
    "hop_list", "hop_table", "max_hops", "name", "next_hop_vec", "nodes",
    "nranks", "remote_partners",
}
#: Deleted when the hop table became each scheme's one route definition:
#: the scalar route twin and the hand-written channel models.
ROUTING_SCHEME_DELETED = {
    "channel_count", "expected_avg_message_fraction", "next_hop",
    "remote_partner_count",
}
SIM_EXPORTS = {
    "DeadlockError", "Event", "EventStateError", "Process", "ProcessError",
    "Resource", "SimulationError", "Simulator", "Store", "StoreGet", "Timeout",
}
#: Deleted when a remote packet became one in-flight entry: the
#: scheduled-callback event and the ``Simulator`` methods that made one.
#: Then, when each mailbox got one inbox store, the condition events and
#: their factories (the idle wait was their only caller) ...
SIM_DELETED = {"AllOf", "AnyOf", "Callback"}
SIMULATOR_DELETED = {"all_of", "any_of", "schedule", "schedule_at", "schedule_batch"}
#: ... and get cancellation plus the ``Store`` surface nothing called.
STORE_DELETED = {"cancel", "cancelled", "drain", "items", "peek"}
GRAPH_EXPORTS = {
    "BlockPartition", "CyclicPartition", "DelegateSet", "EdgeStream",
    "GRAPH500_PARAMS", "UNIFORM_PARAMS", "build_delegates",
    "degrees_from_edges", "er_stream", "erdos_renyi_edges", "find_delegates",
    "permute_vertices", "rmat_edges", "rmat_expected_max_degree",
    "rmat_stream", "scaled_delegate_threshold",
}
#: Deleted with the distributed-CSC module nothing in the product built.
GRAPH_DELETED = {"LocalCSC", "build_local_csc", "global_matrix_from_edges"}
SERDE_EXPORTS = {
    "RecordSpec", "SerdeError", "clear_registry", "packed_size",
    "packed_size_many", "register", "registered",
}
#: Moved beside the PDES wire codec (``repro.pdes.packer``), the only code
#: that writes or reads the bytes; serde keeps the sizes.
SERDE_DELETED = {"pack", "pack_into", "pack_many", "unpack", "unpack_from", "unpack_many"}
#: The scalar deferred-forward path: scalar runs route like record
#: batches, through ``Mailbox._route``.
MAILBOX_DELETED = {"_handle_mixed_run", "_flush_deferred", "_deferred_cols", "_deferred_idx"}
#: The parallel engine's hooks, moved out of the serial layers into
#: ``repro.pdes``: (module, class) -> the names that left it.
PDES_HOOKS_MOVED = {
    ("repro.sim", "Simulator"): {"_enqueue_at", "run_window"},
    ("repro.machine", "Machine"): {"inject_arrival", "on_remote_export"},
    ("repro.machine", "NetworkModel"): {"min_wire_latency"},
    ("repro.core", "Mailbox"): {"term_contribution"},
}
YGM_WORLD_PARAMS = {
    "machine", "scheme", "seed", "mailbox_capacity", "cores_per_node",
    "tracer", "tiebreaker",
}
MAILBOX_FACTORY_PARAMS = {"recv", "recv_batch", "recv_bcast", "capacity", "combiner"}
PDES_WORLD_PARAMS = YGM_WORLD_PARAMS | {
    "workers", "window_timeout", "window_batch", "ring_bytes",
}
PDES_EXPORTS = {
    "CausalityError", "ConformanceError", "NodePartition", "PdesError",
    "PdesStallError", "PdesWorld", "RingError", "RingStats", "ShmTransport",
    "SpscRing", "WireError", "assert_equivalent", "decode_batch",
    "encode_batch", "run_pdes",
}
#: Deleted with the PDES flight recorder.
PDES_DELETED = {
    "DRIVER_PHASES", "DriverFlight", "FlightLog", "FlightSpec",
    "WORKER_PHASES", "WorkerFlight", "estimate_offset",
}
TRACE_EXPORTS = {
    "ALL_CATEGORIES", "BUCKETS", "CallbackSink", "DEFAULT_CATEGORIES",
    "LineageProfiler", "METRIC_COLUMNS", "MemorySink", "STAGES",
    "SchemeProfile", "Sink", "TraceEvent", "Tracer", "WALL_CLOCK_COLUMNS",
    "analyze_profile", "compute_metrics", "export_chrome", "export_metrics",
    "render_html", "report_document", "write_report",
}
#: Deleted with the PDES attribution report and the ``rank_group`` column,
#: and the streaming ``JsonlSink`` nothing constructed.
TRACE_DELETED = {
    "AttributionError", "JsonlSink", "MIN_COVERAGE", "PDES_ATTRIBUTION_SCHEMA",
    "STRING_COLUMNS", "render_attribution_html", "validate_attribution",
    "write_attribution_report",
}
#: Every settable flag of ``python -m repro.bench``, plus its positional.
BENCH_CLI_FLAGS = {
    "FIG", "--fig", "--full", "--seed", "--jobs", "--no-cache",
    "--clear-cache", "--cache-dir", "--job-timeout", "--trace", "--metrics",
    "--profile", "--check", "--fuzz-runs", "--check-app", "--check-scale",
}


def _params(func):
    return set(inspect.signature(func).parameters) - {"self"}


def test_core_surface_stays_within_budget():
    import dataclasses

    from repro import core
    from repro.pdes import PdesWorld

    assert set(core.__all__) <= CORE_EXPORTS
    fields = {f.name for f in dataclasses.fields(core.MailboxConfig)}
    assert fields == {"capacity", "combiner"}
    assert _params(core.YgmWorld.__init__) <= YGM_WORLD_PARAMS
    assert _params(core.YgmContext.mailbox) <= MAILBOX_FACTORY_PARAMS
    assert _params(PdesWorld.__init__) <= PDES_WORLD_PARAMS


def test_routing_surface_stays_within_budget():
    from repro.core import routing

    assert set(routing.__all__) <= ROUTING_EXPORTS  # 13 names


def test_routing_scheme_attributes_stay_within_budget():
    from repro.core.routing import RoutingScheme, get_scheme

    public = {
        name
        for obj in (RoutingScheme, get_scheme("noroute", 2, 2))
        for name in dir(obj)
        if not name.startswith("_")
    }
    assert public <= ROUTING_SCHEME_ATTRS  # 13 names
    assert not public & ROUTING_SCHEME_DELETED


def test_sim_surface_stays_within_budget():
    from repro import sim
    from repro.sim import events

    assert set(sim.__all__) <= SIM_EXPORTS  # 11 names
    for name in SIM_DELETED:
        assert not hasattr(sim, name) and not hasattr(events, name)
    assert not {n for n in dir(sim.Simulator) if not n.startswith("_")} & (
        SIMULATOR_DELETED
    )
    for cls in (sim.Store, sim.StoreGet):
        assert not set(dir(cls)) & STORE_DELETED, cls


def test_graph_surface_stays_within_budget():
    from repro import graph

    assert set(graph.__all__) <= GRAPH_EXPORTS  # 16 names
    assert not {n for n in dir(graph) if not n.startswith("_")} & GRAPH_DELETED


def test_serde_surface_stays_within_budget():
    from repro import serde

    assert set(serde.__all__) <= SERDE_EXPORTS  # 7 names
    assert not {n for n in dir(serde) if not n.startswith("_")} & SERDE_DELETED


def test_mailbox_has_one_routing_rule():
    from repro import YgmWorld
    from repro.core import Mailbox
    from repro.machine import small

    boxes = []

    def rank_main(ctx):
        boxes.append(ctx.mailbox(recv=lambda v: None))
        yield from ()

    YgmWorld(small(nodes=1, cores_per_node=2), scheme="noroute").run(rank_main)
    for obj in (Mailbox, boxes[0]):  # methods, and slots set per instance
        assert not {n for n in MAILBOX_DELETED if hasattr(obj, n)}, obj


def test_pdes_hooks_left_the_serial_layers():
    from repro.machine import Machine, small
    from repro.sim import Simulator

    for (module, name), moved in PDES_HOOKS_MOVED.items():
        cls = getattr(importlib.import_module(module), name)
        assert not {attr for attr in moved if hasattr(cls, attr)}, name
    machine = Machine(Simulator(), small(nodes=2, cores_per_node=2))
    assert not hasattr(machine, "on_remote_export")  # was set per instance


def test_pdes_surface_stays_within_budget():
    from repro import pdes

    assert set(pdes.__all__) <= PDES_EXPORTS  # 15 names
    assert not {n for n in dir(pdes) if not n.startswith("_")} & PDES_DELETED
    assert not hasattr(pdes.PdesWorld(4, workers=2), "flight_log")


def test_trace_surface_stays_within_budget():
    from repro import trace
    from repro.trace import metrics

    assert set(trace.__all__) <= TRACE_EXPORTS  # 20 names
    assert not {n for n in dir(trace) if not n.startswith("_")} & TRACE_DELETED
    assert "rank_group" not in metrics.COLUMNS
    assert not hasattr(trace.Tracer(), "worker_progress")


def test_bench_cli_flags_stay_within_budget():
    from repro.bench.cli import build_parser, main

    flags = set()
    for action in build_parser()._actions:
        if action.dest != "help":
            flags.update(action.option_strings or [action.metavar])
    assert flags == BENCH_CLI_FLAGS  # 15 flags and the positional


#: Run in a fresh interpreter: the sequential references load no
#: correctness pillar and nothing of ``repro.trace``; importing every
#: module of the package must load neither scipy nor networkx; scipy
#: arrives only with the first CombBLAS block, and the blocks it builds
#: are the dense matrix's.
IMPORT_BUDGET_SCRIPT = textwrap.dedent(
    """
    import importlib, pkgutil, sys

    import numpy as np

    import repro.check.sequential

    pillars = ("repro.check.fuzz", "repro.check.invariants", "repro.check.oracle")
    loaded = sorted(
        name for name in sys.modules
        if name.startswith(pillars) or name.split(".")[:2] == ["repro", "trace"]
    )
    assert not loaded, f"loaded by repro.check.sequential: {loaded[:5]}"

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith(".__main__"):
            importlib.import_module(info.name)
    loaded = sorted(
        name for name in sys.modules
        if name.split(".")[0] in ("scipy", "networkx")
    )
    assert not loaded, f"imported on the import path: {loaded[:5]}"

    from repro.baselines import partition_combblas_problem
    from repro.graph.partition import BlockPartition

    n, nranks = 9, 4
    rng = np.random.default_rng(3)
    rows = rng.integers(0, n, 30)
    cols = rng.integers(0, n, 30)
    vals = rng.random(30)
    x = rng.random(n)
    dense = np.zeros((n, n))
    np.add.at(dense, (rows, cols), vals)
    problems = partition_combblas_problem(nranks, n, rows, cols, vals, x)
    assert "scipy.sparse" in sys.modules
    pr, pc = problems[0].pr, problems[0].pc
    for rank, prob in enumerate(problems):
        pi, pj = divmod(rank, pc)
        rlo, rhi = BlockPartition(n, pr).bounds(pi)
        clo, chi = BlockPartition(n, pc).bounds(pj)
        got = prob.block @ x[clo:chi]
        assert np.allclose(got, dense[rlo:rhi, clo:chi] @ x[clo:chi]), rank
    """
)


def test_scipy_and_networkx_stay_off_the_import_path():
    """Only ``partition_combblas_problem`` needs scipy, and nothing in
    the package needs networkx: a rank program that never builds a
    CombBLAS block pays neither's import time nor resident pages.  The
    benchmark's workloads import ``repro.check.sequential``, which pays
    for neither the fuzzer, the invariants, the oracle nor the tracer."""
    src = Path(__file__).parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_BUDGET_SCRIPT],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["--perf"], ["pdes"], ["--attribute"], ["--pdes-workers", "2"],
        ["6a", "--profile-out", "x"], ["6a", "--metrics-interval", "1"],
    ],
    ids=[
        "perf", "pdes", "attribute", "pdes-workers", "profile-out",
        "metrics-interval",
    ],
)
def test_deleted_cli_modes_do_not_parse(argv):
    """The wall-clock harness, the PDES modes and the profile/metrics
    side flags are gone, not hidden."""
    from repro.bench.cli import main

    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
