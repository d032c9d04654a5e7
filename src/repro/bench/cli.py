"""Command-line figure harness: ``python -m repro.bench fig6``.

Regenerates any of the paper's figures (as text tables) or the ablation
studies.  Figures can be given positionally (``fig6``, ``6a``) or via
``--fig``; ``--full`` uses the larger sweep (more nodes, 8 cores/node);
the default quick sweep finishes each figure in seconds to a couple of
minutes.

``--trace out.json`` / ``--metrics out.csv`` / ``--profile out.html``
switch to an instrumented run of the first requested figure's own cell
(see :mod:`repro.bench.instrumented`): a Chrome ``trace_event``
timeline, a per-interval metrics table, and a self-contained HTML (plus
JSON) causal profile comparing every routing scheme.  One invocation
writes every output it names.

Every figure and ablation id is one :data:`REGISTRY` entry; ``--fig``,
:func:`expand_figs` and the instrumented runs all read it.

``--check`` switches to the correctness-harness mode (see
:mod:`repro.check` and TESTING.md): the routing-differential oracle and
a schedule-fuzz campaign run instead of any figure; the exit code
reflects whether every check passed.

Nothing here reads a host clock to make a claim: host-time performance
is measured by ``benchmarks/ygmbench`` alone (see its README.md and
EXPERIMENTS.md, "Host-time performance").

Multi-simulation modes (figures, ablations, ``--check``) fan their
independent simulations out over a process pool (:mod:`repro.exec`):
``--jobs N`` sets the worker count (default: all visible CPUs;
``--jobs 1`` is the serial path and produces byte-identical tables).
Completed cells land in an on-disk content-addressed cache
(``.repro-cache/``; keyed by config *and* a hash of the ``repro``
sources, so code edits invalidate it automatically), making re-runs of
unchanged sweeps near-instant.  ``--no-cache`` disables it,
``--clear-cache`` empties it first.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import time
from typing import Callable, Dict, List, NamedTuple, Optional

from ..exec import Pool
from . import ablations, fig5, fig6, fig7, fig8
from .harness import Panel, SweepConfig
from .report import Table


class Figure(NamedTuple):
    """One registry entry: a figure panel or an ablation."""

    #: The group id that runs it: ``all`` (paper figures) or ``ablations``.
    group: str
    #: ``run(sweep, quick, pool)`` -> the figure's table.
    run: Callable[[SweepConfig, bool, Optional[Pool]], Table]
    #: Scaling panels only: the :class:`Panel` instrumented runs read.
    panel: Optional[Callable[[SweepConfig], Panel]] = None


def _figure(driver: Callable[..., Table], panel=None, **kwargs) -> Figure:
    return Figure(
        "all", lambda sweep, quick, pool: driver(sweep, pool=pool, **kwargs), panel
    )


def _ablation(driver: Callable[..., Table]) -> Figure:
    """An ablation runs its driver's one preset at the sweep's seed; it
    has no ``--full`` preset (:func:`main` rejects the combination)."""
    return Figure(
        "ablations", lambda sweep, quick, pool: driver(seed=sweep.seed, pool=pool)
    )


#: Every figure and ablation id, in the order ``all`` / ``ablations``
#: run them.
REGISTRY: Dict[str, Figure] = {
    "5": Figure("all", lambda sweep, quick, pool: fig5.run(quick=quick, pool=pool)),
    "6a": _figure(fig6.run_weak, fig6.weak_panel),
    "6b": _figure(fig6.run_strong, fig6.strong_panel),
    "7a": _figure(fig7.run_weak, fig7.weak_panel),
    "7b": _figure(fig7.run_strong, fig7.strong_panel),
    "8a": _figure(fig8.run_weak, skewed=True),
    "8c": _figure(fig8.run_weak, skewed=False),
    "8d": _figure(fig8.run_strong_webgraph),
    "capacity": _ablation(ablations.run_capacity_sweep),
    "combining": _ablation(ablations.run_combining_sweep),
    "cores": _ablation(ablations.run_cores_sweep),
    "eager": _ablation(ablations.run_eager_threshold_sweep),
    "hybrid": _ablation(ablations.run_hybrid_comparison),
    "straggler": _ablation(ablations.run_straggler_comparison),
}
#: Fig 8b is the delegate column of the 8a sweep.
ALIASES = {"8b": "8a"}
GROUPS = ("all", "ablations")


def expand_figs(figs: List[str]) -> List[str]:
    """Normalize figure ids to :data:`REGISTRY` keys.

    Strips a ``fig`` prefix and resolves aliases; ``fig6`` / ``6``
    expand to every paper figure panel starting with ``6``; ``all`` /
    ``ablations`` expand to their groups.
    """
    expanded: List[str] = []
    for raw in figs:
        f = raw.lower()
        if f.startswith("fig"):
            f = f[3:]
        f = ALIASES.get(f, f)
        if f in GROUPS:
            expanded.extend(k for k, fig in REGISTRY.items() if fig.group == f)
        elif f in REGISTRY:
            expanded.append(f)
        else:
            panels = [
                k for k, fig in REGISTRY.items()
                if fig.group == "all" and k.startswith(f)
            ]
            # "" is a prefix of every id: a bare "fig" names no figure.
            if not f or not panels:
                raise ValueError(
                    f"unknown figure {raw!r}; known: "
                    f"{[*REGISTRY, *ALIASES, *GROUPS]}"
                )
            expanded.extend(panels)
    return expanded


def _check_writable(path: str) -> None:
    """Raise ``OSError`` if ``path`` cannot be written; create nothing."""
    existed = os.path.exists(path)
    with open(path, "a"):
        pass
    if not existed:
        os.remove(path)


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-bench`` parser: every settable flag of the CLI."""
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate the paper's figures on the simulated machine.",
    )
    parser.add_argument(
        "figs_pos",
        nargs="*",
        metavar="FIG",
        help="figure ids, e.g. fig6, 6a, capacity ('all', 'ablations' expand)",
    )
    parser.add_argument(
        "--fig",
        action="append",
        dest="figs",
        choices=[*REGISTRY, *ALIASES, *GROUPS],
        help="figure id (repeatable); 'all' runs every paper figure, "
        "'ablations' every ablation",
    )
    parser.add_argument(
        "--full", action="store_true", help="larger sweep (slower, cleaner asymptotics)"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for multi-simulation modes (default: all "
        "visible CPUs; 1 = serial, same output byte for byte)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache for this invocation",
    )
    parser.add_argument(
        "--clear-cache",
        action="store_true",
        help="empty the result cache before running anything",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="PATH",
        default=None,
        help="result-cache directory (default: ./.repro-cache or "
        "$REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job wall-clock limit; a job exceeding it is killed and "
        "retried once, then reported as failed (default: no limit)",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="instrumented run: write a Chrome trace_event JSON timeline of "
        "the first requested figure's NLNR cell",
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        help="instrumented run: write the same cell's per-interval metrics "
        "table (CSV)",
    )
    parser.add_argument(
        "--profile",
        metavar="PATH",
        help="instrumented run: profile the first requested figure's cell "
        "under every routing scheme and write a self-contained HTML report "
        "to PATH (plus JSON next to it) with the critical path to "
        "quiescence, per-rank utilization and per-hop latency histograms",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="correctness-harness mode: run the routing-differential "
        "oracle and a schedule-fuzz campaign instead of figures",
    )
    parser.add_argument(
        "--fuzz-runs",
        type=int,
        default=50,
        help="perturbed interleavings in the --check fuzz campaign",
    )
    parser.add_argument(
        "--check-app",
        action="append",
        dest="check_apps",
        metavar="APP",
        help="restrict the --check oracle to an app (repeatable)",
    )
    parser.add_argument(
        "--check-scale",
        action="append",
        dest="check_scales",
        metavar="SCALE",
        help="restrict the --check oracle to a machine scale (repeatable)",
    )
    return parser


def main(argv: List[str] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.jobs is not None and args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.job_timeout is not None and not (
        math.isfinite(args.job_timeout) and args.job_timeout > 0
    ):
        parser.error("--job-timeout must be a finite number of seconds > 0")

    from ..exec import make_pool, stderr_progress

    if args.clear_cache:
        from ..exec import ResultCache

        removed = ResultCache(args.cache_dir).clear()
        print(f"# cleared {removed} cache entr{'y' if removed == 1 else 'ies'}",
              file=sys.stderr)

    pool = make_pool(
        jobs=args.jobs,
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
        default_timeout=args.job_timeout,
        progress=stderr_progress,
    )

    if args.check:
        from ..check import ORACLE_APPS, ORACLE_SCALES
        from .checking import run_check

        for app in args.check_apps or ():
            if app not in ORACLE_APPS:
                parser.error(
                    f"unknown --check-app {app!r}; known: {sorted(ORACLE_APPS)}"
                )
        for scale in args.check_scales or ():
            if scale not in ORACLE_SCALES:
                parser.error(
                    f"unknown --check-scale {scale!r}; "
                    f"known: {sorted(ORACLE_SCALES)}"
                )
        try:
            return run_check(
                seed=args.seed,
                fuzz_runs=args.fuzz_runs,
                apps=args.check_apps,
                scales=args.check_scales,
                pool=pool,
            )
        except KeyboardInterrupt:
            print("\n# interrupted; workers terminated", file=sys.stderr)
            return 130

    figs = (args.figs or []) + args.figs_pos
    if not figs:
        figs = ["all"]
    try:
        expanded = expand_figs(figs)
    except ValueError as exc:
        parser.error(str(exc))
    no_full = [f for f in expanded if REGISTRY[f].group == "ablations"]
    if args.full and no_full:
        parser.error(f"--full: no full preset for ablation(s) {', '.join(no_full)}")

    sweep = SweepConfig.full() if args.full else SweepConfig.quick()
    sweep = dataclasses.replace(sweep, seed=args.seed)

    if args.trace or args.metrics or args.profile:
        from .instrumented import json_path, run_instrumented

        panel = REGISTRY[expanded[0]].panel
        if panel is None:
            parser.error(
                f"figure {expanded[0]!r} has no instrumented run; "
                f"instrumented figures: "
                f"{[k for k, fig in REGISTRY.items() if fig.panel]}"
            )
        outputs = [args.trace, args.metrics]
        if args.profile:
            outputs += [args.profile, json_path(args.profile)]
        # Fail fast on unwritable output paths -- before the simulation.
        for path in filter(None, outputs):
            try:
                _check_writable(path)
            except OSError as exc:
                parser.error(f"cannot write {path}: {exc}")
        start = time.perf_counter()
        try:
            tables = run_instrumented(
                panel(sweep),
                trace_path=args.trace,
                metrics_path=args.metrics,
                profile_path=args.profile,
            )
        except (ValueError, OSError) as exc:
            parser.error(str(exc))
        wall = time.perf_counter() - start
        print("\n\n".join(table.render() for table in tables))
        print(f"# harness wall-clock: {wall:.1f}s")
        return 0

    # Every figure runs even if an earlier one fails; failures are
    # reported together at the end and the exit code reflects them.
    failed: List[str] = []
    for fig in expanded:
        start = time.perf_counter()
        try:
            table = REGISTRY[fig].run(sweep, not args.full, pool)
        except KeyboardInterrupt:
            print("\n# interrupted; workers terminated", file=sys.stderr)
            return 130
        except Exception as exc:
            failed.append(fig)
            print(f"# figure {fig} FAILED: {exc}", file=sys.stderr)
            continue
        wall = time.perf_counter() - start
        print(table.render())
        print(f"# harness wall-clock: {wall:.1f}s")
        print()
    if failed:
        print(
            f"# {len(failed)} figure(s) failed: {', '.join(failed)}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
