"""Command-line figure harness: ``python -m repro.bench fig6``.

Regenerates any of the paper's figures (as text tables) or the ablation
studies.  Figures can be given positionally (``fig6``, ``6a``) or via
``--fig``; ``--full`` uses the larger sweep (more nodes, 8 cores/node);
the default quick sweep finishes each figure in seconds to a couple of
minutes.

``--trace out.json`` / ``--metrics out.csv`` switch to the traced
single-run mode (see :mod:`repro.bench.tracing`): one representative
configuration of the first requested figure runs with the observability
layer enabled, emitting a Chrome ``trace_event`` timeline (one lane per
rank plus NIC lanes; load in chrome://tracing or Perfetto) and a
per-interval metrics table.

``--profile`` switches to the causal-profile mode (see
:mod:`repro.bench.profiling`): one representative configuration of the
first requested figure runs under *every* routing scheme with the
lineage profiler enabled, and a self-contained HTML report (plus a JSON
document; ``--profile-out`` sets the path) compares the schemes'
critical paths to quiescence, per-rank utilization and per-hop latency.

``--check`` switches to the correctness-harness mode (see
:mod:`repro.check` and TESTING.md): the routing-differential oracle and
a schedule-fuzz campaign run instead of any figure; the exit code
reflects whether every check passed.

``--pdes-workers N`` runs each YGM simulation partitioned across ``N``
worker processes through the parallel DES engine (:mod:`repro.pdes`;
results are bit-identical to serial, so figure tables do not change).
Under ``--check`` it additionally turns every oracle cell into a
serial-vs-parallel differential test.  ``--pdes-transport {shm,pipe}``
selects the export transport (shared-memory rings by default; the
pickle-over-pipe path is kept for differential testing).

``pdes --attribute`` (the bare positional ``pdes`` implies
``--attribute``) switches to the flight-recorded attribution mode (see
:mod:`repro.bench.attribution`): one representative configuration of
the first requested figure (default ``6a``) runs partitioned across
``--pdes-workers`` processes (default 4) with the PDES flight recorder
on, and the overhead-attribution report (JSON + self-contained HTML;
``--attribute-out`` sets the path) tiles every process's wall clock
into named phase buckets.  Adding ``--trace out.json`` also writes the
merged Chrome trace with one host wall-clock process group per worker.

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
import os
import sys
import time
from typing import List, Optional

from ..exec import Pool
from .harness import SweepConfig

FIGS = ["5", "6a", "6b", "7a", "7b", "8a", "8c", "8d"]
ABLATIONS = ["capacity", "combining", "cores", "eager", "hybrid", "straggler"]


def run_figure(
    fig: str,
    sweep: SweepConfig,
    quick: bool,
    pool: Optional[Pool] = None,
    pdes_workers: int = 0,
):
    from . import ablations, fig5, fig6, fig7, fig8

    pw = pdes_workers
    if fig == "5":
        return [fig5.run(quick=quick, pool=pool)]
    if fig == "6a":
        return [fig6.run_weak(sweep, pool=pool, pdes_workers=pw)]
    if fig == "6b":
        return [fig6.run_strong(sweep, pool=pool, pdes_workers=pw)]
    if fig == "7a":
        return [fig7.run_weak(sweep, pool=pool, pdes_workers=pw)]
    if fig == "7b":
        return [fig7.run_strong(sweep, pool=pool, pdes_workers=pw)]
    if fig == "8a" or fig == "8b":
        return [fig8.run_weak(sweep, skewed=True, pool=pool, pdes_workers=pw)]
    if fig == "8c":
        return [fig8.run_weak(sweep, skewed=False, pool=pool, pdes_workers=pw)]
    if fig == "8d":
        return [fig8.run_strong_webgraph(sweep, pool=pool, pdes_workers=pw)]
    if fig == "capacity":
        return [ablations.run_capacity_sweep(pool=pool)]
    if fig == "combining":
        return [ablations.run_combining_sweep(pool=pool)]
    if fig == "cores":
        return [ablations.run_cores_sweep(pool=pool)]
    if fig == "eager":
        return [ablations.run_eager_threshold_sweep(pool=pool)]
    if fig == "hybrid":
        return [ablations.run_hybrid_comparison(pool=pool)]
    if fig == "straggler":
        return [ablations.run_straggler_comparison(pool=pool)]
    raise ValueError(f"unknown figure {fig!r}")


def expand_figs(figs: List[str]) -> List[str]:
    """Normalize figure ids: strip a ``fig`` prefix, expand groups.

    ``fig6`` / ``6`` expand to every figure panel starting with ``6``;
    ``all`` / ``ablations`` expand to their full lists.
    """
    known = FIGS + ["8b"] + ABLATIONS
    expanded: List[str] = []
    for raw in figs:
        f = raw.lower()
        if f.startswith("fig"):
            f = f[3:]
        if f == "all":
            expanded.extend(FIGS)
        elif f == "ablations":
            expanded.extend(ABLATIONS)
        elif f in known:
            expanded.append(f)
        else:
            panels = [k for k in FIGS if k.startswith(f)]
            # "" is a prefix of every id: a bare "fig" names no figure.
            if not f or not panels:
                raise ValueError(
                    f"unknown figure {raw!r}; known: {known + ['all', 'ablations']}"
                )
            expanded.extend(panels)
    return expanded


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
        choices=FIGS + ["8b"] + ABLATIONS + ["all", "ablations"],
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
        "--pdes-workers",
        type=int,
        default=0,
        metavar="N",
        help="run each YGM simulation partitioned across N processes "
        "(the parallel DES engine, repro.pdes; bit-identical results, "
        "clamped to the simulated node count).  Applies to figure cells "
        "(fig5 and the MPI comparator stay serial) and to the --check "
        "oracle, where every cell gains a serial-vs-parallel differential",
    )
    parser.add_argument(
        "--pdes-transport",
        choices=("shm", "pipe"),
        default=None,
        help="export transport for --pdes-workers runs: shm (shared-memory "
        "SPSC rings, the default) or pipe (pickle over os.pipe; slower, "
        "kept for differential testing).  Sets PDES_TRANSPORT for this "
        "process and every forked worker",
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
        help="traced mode: write a Chrome trace_event JSON timeline of one "
        "representative configuration of the first requested figure",
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        help="traced mode: write the per-interval metrics table (CSV)",
    )
    parser.add_argument(
        "--metrics-interval",
        type=float,
        default=None,
        help="metrics bucket width in simulated seconds (default: run/50)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="causal-profile mode: run one representative configuration of "
        "the first requested figure under every routing scheme with the "
        "lineage profiler, and write a self-contained HTML report (plus "
        "JSON) with the critical path to quiescence, per-rank utilization "
        "and per-hop latency histograms",
    )
    parser.add_argument(
        "--profile-out",
        metavar="PATH",
        default=None,
        help="with --profile: HTML output path (default: profile_<fig>.html; "
        "the JSON document lands next to it with a .json suffix)",
    )
    parser.add_argument(
        "--attribute",
        action="store_true",
        help="flight-recorded PDES attribution mode: run one partitioned "
        "configuration of the first requested figure (default 6a) with "
        "the cross-process flight recorder and write the overhead-"
        "attribution report (HTML + JSON); the positional figure id "
        "'pdes' implies this flag.  --pdes-workers sets the partition "
        "count (default 4 here), --trace adds the merged Chrome trace",
    )
    parser.add_argument(
        "--attribute-out",
        metavar="PATH",
        default=None,
        help="with --attribute: HTML output path (default: "
        "pdes_attr_<fig>.html; the JSON document lands next to it with "
        "a .json suffix)",
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
    if args.pdes_workers < 0:
        parser.error("--pdes-workers must be >= 0")
    if args.pdes_transport is not None:
        # Environment rather than plumbing: forked pdes workers and pool
        # subprocesses both inherit it.
        os.environ["PDES_TRANSPORT"] = args.pdes_transport

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
                pdes_workers=args.pdes_workers,
            )
        except KeyboardInterrupt:
            print("\n# interrupted; workers terminated", file=sys.stderr)
            return 130

    figs = (args.figs or []) + args.figs_pos
    attribute = args.attribute
    if any(f.lower() == "pdes" for f in figs):
        # The bare positional "pdes" selects the attribution mode.
        attribute = True
        figs = [f for f in figs if f.lower() != "pdes"]
    if not figs:
        figs = ["6a"] if attribute else ["all"]
    try:
        expanded = expand_figs(figs)
    except ValueError as exc:
        parser.error(str(exc))

    sweep = SweepConfig.full() if args.full else SweepConfig.quick()
    if args.seed != sweep.seed:
        sweep = SweepConfig(
            cores_per_node=sweep.cores_per_node,
            node_counts=sweep.node_counts,
            mailbox_capacity=sweep.mailbox_capacity,
            seed=args.seed,
        )

    if attribute:
        from .attribution import run_attribution

        html_path = args.attribute_out or f"pdes_attr_{expanded[0]}.html"
        json_path = (
            html_path[: -len(".html")] + ".json"
            if html_path.endswith(".html")
            else html_path + ".json"
        )
        for path in (html_path, json_path, args.trace):
            if path:
                try:
                    with open(path, "a"):
                        pass
                except OSError as exc:
                    parser.error(f"cannot write {path}: {exc}")
        start = time.perf_counter()
        try:
            table = run_attribution(
                expanded[0],
                sweep,
                html_path,
                json_path,
                trace_path=args.trace,
                workers=args.pdes_workers or 4,
                transport=args.pdes_transport,
            )
        except (ValueError, OSError) as exc:
            parser.error(str(exc))
        wall = time.perf_counter() - start
        print(table.render())
        print(f"# harness wall-clock: {wall:.1f}s")
        return 0

    if args.profile:
        from .profiling import run_profiled

        html_path = args.profile_out or f"profile_{expanded[0]}.html"
        json_path = (
            html_path[: -len(".html")] + ".json"
            if html_path.endswith(".html")
            else html_path + ".json"
        )
        for path in (html_path, json_path):
            try:
                with open(path, "a"):
                    pass
            except OSError as exc:
                parser.error(f"cannot write {path}: {exc}")
        start = time.perf_counter()
        try:
            table = run_profiled(expanded[0], sweep, html_path, json_path)
        except (ValueError, OSError) as exc:
            parser.error(str(exc))
        wall = time.perf_counter() - start
        print(table.render())
        print(f"# harness wall-clock: {wall:.1f}s")
        return 0

    if args.trace or args.metrics:
        from .tracing import run_traced

        # Fail fast on unwritable output paths -- before the simulation.
        for path in (args.trace, args.metrics):
            if path:
                try:
                    with open(path, "a"):
                        pass
                except OSError as exc:
                    parser.error(f"cannot write {path}: {exc}")
        start = time.perf_counter()
        try:
            table = run_traced(
                expanded[0],
                sweep,
                trace_path=args.trace,
                metrics_path=args.metrics,
                metrics_interval=args.metrics_interval,
            )
        except (ValueError, OSError) as exc:
            parser.error(str(exc))
        wall = time.perf_counter() - start
        print(table.render())
        print(f"# harness wall-clock: {wall:.1f}s")
        return 0

    # Every figure runs even if an earlier one fails; failures are
    # reported together at the end and the exit code reflects them.
    failed: List[str] = []
    for fig in expanded:
        start = time.perf_counter()
        try:
            tables = run_figure(
                fig,
                sweep,
                quick=not args.full,
                pool=pool,
                pdes_workers=args.pdes_workers,
            )
        except KeyboardInterrupt:
            print("\n# interrupted; workers terminated", file=sys.stderr)
            return 130
        except Exception as exc:
            failed.append(fig)
            print(f"# figure {fig} FAILED: {exc}", file=sys.stderr)
            continue
        wall = time.perf_counter() - start
        for table in tables:
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
