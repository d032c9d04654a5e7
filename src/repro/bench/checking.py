"""``python -m repro.bench --check``: the correctness-harness mode.

Runs the active pillars of :mod:`repro.check` and prints their
reports:

1. the routing-differential oracle (every app under every routing
   scheme, invariant-checked, against sequential references),
2. the same oracle at tiny scale with in-network combining enabled
   (bit-exact algebras must stay cross-scheme bit-identical; combined
   SpMV is tolerance-verified), and
3. a schedule-fuzz campaign over the canonical mixed-traffic quiescence
   scenario (perturbed same-timestamp interleavings, invariants plus
   baseline-equality asserted per run).

Both pillars fan out through the job pool when one is supplied
(``--jobs N``): the oracle's 60 configs run as independent cells, the
fuzzer shards its seed range across workers.  Results are merged in
deterministic order, so the verdicts match a serial run exactly.

Returns a process exit code: 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

from typing import Optional, Sequence


def run_check(
    seed: int = 0,
    fuzz_runs: int = 50,
    apps: Optional[Sequence[str]] = None,
    scales: Optional[Sequence[str]] = None,
    pool=None,
) -> int:
    from ..check import fuzz_schedules_sharded, run_oracle

    ok = True

    report = run_oracle(
        apps=apps,
        scales=scales,
        seed=seed,
        pool=pool,
    )
    print(report.render())
    ok &= report.ok

    print()
    print("with in-network combining (tiny scale):")
    combined = run_oracle(
        apps=apps,
        scales=["tiny"] if scales is None else scales,
        seed=seed,
        pool=pool,
        combining=True,
    )
    print(combined.render())
    ok &= combined.ok

    print()
    fuzz = fuzz_schedules_sharded(
        runs=fuzz_runs, seed=seed, scenario={"seed": seed}, pool=pool
    )
    print(fuzz.render())
    ok &= fuzz.ok

    return 0 if ok else 1
