"""Serial-vs-parallel equivalence assertions (the conformance contract).

The parallel engine's claim is *bit-identity*: a partitioned run must
reproduce the serial run's application values, event timestamps and
statistics exactly -- not approximately, not "same answer eventually".
:func:`assert_equivalent` is that claim as an executable check, used
by the ``tests/pdes`` battery and ``examples/pdes_quartz_scale.py``.

One field gets a measured carve-out: ``idle_time``.  When two packets
hit their wire instants at the *exact same float timestamp* on
different partitions, serial orders their in-flight events by a global
heap sequence that no partition can reconstruct (it reflects the full
interleaved push history).  The engine orders them by wire time with
partition-index tie order instead.  Both orders are valid schedules of the same
instant; the only observable difference ever measured across the
battery (6 apps x 4 schemes x 4 partition counts) is the association
order of idle-interval sums in the ``idle_time`` diagnostic -- a
last-ulp wobble -- so ``idle_time`` is compared to within
``IDLE_TIME_ULPS`` units in the last place and everything else byte
for byte.  See EXPERIMENTS.md ("Parallel DES") for the derivation.
"""

from __future__ import annotations

import math
from dataclasses import fields
from typing import Any, Callable, Optional

#: Units-in-the-last-place tolerance for ``idle_time`` (see module doc).
IDLE_TIME_ULPS = 4


class ConformanceError(AssertionError):
    """A parallel run diverged from its serial reference."""


def _ulps_apart(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


def _check_stats(rank: Any, par: Any, ser: Any, errors: list) -> None:
    for f in fields(ser):
        pv, sv = getattr(par, f.name), getattr(ser, f.name)
        if pv == sv:
            continue
        if f.name == "idle_time" and _ulps_apart(pv, sv) <= IDLE_TIME_ULPS:
            continue
        errors.append(
            f"per_rank_stats[{rank}].{f.name}: parallel={pv!r} serial={sv!r}"
        )


def assert_equivalent(
    parallel: Any,
    serial: Any,
    values_equal: Optional[Callable[[Any, Any], bool]] = None,
) -> None:
    """Assert a parallel :class:`~repro.core.context.YgmResult` matches
    the serial one bit for bit (``idle_time`` within a few ulps).

    ``values_equal`` compares the per-rank value lists; it defaults to
    ``==``, which is right for picklable scalars/tuples/dicts.  Pass
    :func:`repro.check.fuzz.results_equal` (optionally composed with an
    app-specific gather) for values holding numpy arrays.
    """
    errors: list = []
    if values_equal is None:
        if parallel.values != serial.values:
            errors.append("per-rank values differ")
    elif not values_equal(parallel.values, serial.values):
        errors.append("per-rank values differ (values_equal comparator)")
    if parallel.finish_times != serial.finish_times:
        errors.append(
            f"finish_times: parallel={parallel.finish_times!r} "
            f"serial={serial.finish_times!r}"
        )
    if parallel.elapsed != serial.elapsed:
        errors.append(
            f"elapsed: parallel={parallel.elapsed!r} serial={serial.elapsed!r}"
        )
    if parallel.transport != serial.transport:
        errors.append(
            f"transport: parallel={parallel.transport!r} "
            f"serial={serial.transport!r}"
        )
    if len(parallel.per_rank_stats) != len(serial.per_rank_stats):
        errors.append("per_rank_stats length differs")
    else:
        for r, (p, s) in enumerate(
            zip(parallel.per_rank_stats, serial.per_rank_stats)
        ):
            _check_stats(r, p, s, errors)
        ag_err: list = []
        _check_stats("aggregate", parallel.mailbox_stats, serial.mailbox_stats, ag_err)
        errors += [e.replace("per_rank_stats[aggregate]", "mailbox_stats") for e in ag_err]
    if errors:
        raise ConformanceError(
            "parallel run diverged from serial:\n  " + "\n  ".join(errors)
        )
