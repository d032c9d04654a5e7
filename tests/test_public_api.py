"""Public-API hygiene: exports exist, are documented, and are stable."""

import importlib
import inspect

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
SERDE_EXPORTS = {
    "RecordSpec", "SerdeError", "clear_registry", "pack", "pack_into",
    "pack_many", "packed_size", "packed_size_many", "register", "registered",
    "unpack", "unpack_from", "unpack_many",
}
YGM_WORLD_PARAMS = {
    "machine", "scheme", "seed", "mailbox_capacity", "cores_per_node",
    "tracer", "tiebreaker",
}
MAILBOX_FACTORY_PARAMS = {"recv", "recv_batch", "recv_bcast", "capacity", "combiner"}
PDES_WORLD_PARAMS = YGM_WORLD_PARAMS | {
    "workers", "window_timeout", "transport", "window_batch", "ring_bytes",
    "flight",
}
#: Every settable flag of ``python -m repro.bench``, plus its positional.
BENCH_CLI_FLAGS = {
    "FIG", "--fig", "--full", "--seed", "--jobs", "--pdes-workers",
    "--pdes-transport", "--no-cache", "--clear-cache", "--cache-dir",
    "--job-timeout", "--trace", "--metrics", "--metrics-interval",
    "--profile", "--profile-out", "--attribute", "--attribute-out",
    "--check", "--fuzz-runs", "--check-app", "--check-scale",
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


def test_serde_surface_stays_within_budget():
    from repro import serde

    assert set(serde.__all__) <= SERDE_EXPORTS


def test_bench_cli_flags_stay_within_budget():
    from repro.bench.cli import build_parser, main

    flags = set()
    for action in build_parser()._actions:
        if action.dest != "help":
            flags.update(action.option_strings or [action.metavar])
    assert flags == BENCH_CLI_FLAGS  # 21 flags and the positional
    # The wall-clock harness is gone, not hidden: its flag does not parse.
    with pytest.raises(SystemExit) as exc:
        main(["--perf"])
    assert exc.value.code == 2
