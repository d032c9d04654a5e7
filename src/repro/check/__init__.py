"""Deterministic-simulation correctness harness (see TESTING.md).

Three pillars:

* :mod:`~repro.check.invariants` -- runtime invariant checkers that
  attach to any simulation through the trace hooks;
* :mod:`~repro.check.fuzz` -- a schedule fuzzer perturbing the kernel's
  same-timestamp tie-breaking, with failing-seed window minimization;
* :mod:`~repro.check.oracle` -- a differential oracle running every
  application under all routing schemes against in-process sequential
  references.
"""

import importlib

#: Every public name -> the pillar module defining it.  A pillar loads on
#: first use: the oracle imports every app module, and the fuzzer and the
#: invariant checkers import all of :mod:`repro.trace` -- none of which
#: :mod:`~repro.check.sequential`'s references need.
_PILLARS = {
    **dict.fromkeys(
        (
            "FuzzFailure", "FuzzReport", "ShuffledTiebreaker", "fuzz_schedules",
            "fuzz_schedules_sharded", "mailbox_quiescence_scenario",
            "minimize_window", "results_equal",
        ),
        "fuzz",
    ),
    **dict.fromkeys(
        ("CHECK_CATEGORIES", "InvariantChecker", "InvariantViolation", "run_checked"),
        "invariants",
    ),
    **dict.fromkeys(
        ("OracleReport", "run_oracle", "ORACLE_APPS", "ORACLE_SCALES"), "oracle"
    ),
}

#: The oracle's app and scale tables stay out of ``import *``.
__all__ = sorted(set(_PILLARS) - {"ORACLE_APPS", "ORACLE_SCALES"})


def __getattr__(name):
    pillar = _PILLARS.get(name)
    if pillar is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{pillar}", __name__), name)
