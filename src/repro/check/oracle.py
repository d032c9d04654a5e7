"""Routing-differential oracle: every app x every scheme x references.

For each application and graph scale, the oracle runs the distributed
YGM program under all six routing policies (``noroute``,
``node_local``, ``node_remote``, ``nlnr``, ``node_aware``,
``adaptive``) with full invariant checking
(:mod:`repro.check.invariants`) and asserts that

1. every scheme's gathered global output is **bit-identical** to every
   other scheme's (routing must never change answers), and
2. the output matches the sequential in-process reference
   (:mod:`repro.check.sequential`) -- bit-exactly for the integer and
   fixpoint apps, within tight tolerance for SpMV (whose distributed
   float-sum decomposition a sequential pass cannot replicate).

``combining=True`` re-runs the sweep with each app's in-network
combiner enabled (:mod:`repro.core.routing.combiner`): the integer and
min-relax algebras remain bit-exact and cross-scheme bit-identical,
while combined SpMV -- whose windowed partial sums are rounding-order
dependent -- is verified to tolerance only and excluded from the
cross-scheme digest comparison.

Run it from the benchmark CLI as ``python -m repro.bench --check`` or
programmatically via :func:`run_oracle`.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..apps.bfs import gather_global_distances, make_bfs
from ..apps.connected_components import (
    gather_global_labels,
    make_connected_components,
)
from ..apps.degree_count import gather_global_degrees, make_degree_counting
from ..apps.kmer_count import make_kmer_counting, merge_counts
from ..apps.sssp import gather_global_sssp, make_sssp
from ..bench.harness import schemes_for
from ..core.routing import EXTENDED_SCHEMES
from ..graph.delegates import DelegateSet
from ..graph.generators import er_stream, rmat_stream
from ..linalg.spmv import gather_global_y, make_spmv, partition_spmv_problem
from ..machine import bench_machine
from . import sequential
from .fuzz import results_equal
from .invariants import InvariantViolation, run_checked

#: Scale name -> (nodes, cores_per_node) of the simulated machine.
ORACLE_SCALES: Dict[str, Tuple[int, int]] = {
    "tiny": (2, 2),
    "small": (4, 2),
}

#: All oracle-covered applications.
ORACLE_APPS: Tuple[str, ...] = (
    "degree_count",
    "connected_components",
    "bfs",
    "sssp",
    "kmer_count",
    "spmv",
)

#: Mailbox capacity used by oracle runs: small enough that every
#: scenario exercises mid-stream flushes and intermediary re-binning.
_CAPACITY = 32
_BATCH = 48


@dataclass
class _Case:
    """One (app, scale) oracle case."""

    app: str
    make: Callable[[], Callable]  # fresh rank_main per run
    gather: Callable[[List[Any]], Any]  # values -> canonical global output
    reference: Callable[[], Any]
    exact: bool = True  # bit-exact vs tolerance comparison


def _graph_sizes(scale: str) -> Tuple[int, int]:
    """(num_vertices, edges_per_rank) for the oracle's ER graphs."""
    return {"tiny": (64, 40), "small": (128, 60)}[scale]


def _build_case(
    app: str, scale: str, nranks: int, seed: int, combining: bool = False
) -> _Case:
    n, epr = _graph_sizes(scale)
    if app == "degree_count":
        stream = er_stream(n, epr, seed=seed + 7)
        return _Case(
            app,
            make=lambda: make_degree_counting(
                stream,
                batch_size=_BATCH,
                capacity=_CAPACITY,
                combining=combining,
            ),
            gather=lambda vals: gather_global_degrees(vals, n, nranks),
            reference=lambda: sequential.ref_degrees(stream, nranks),
        )
    if app == "connected_components":
        # RMAT for skewed degrees so the delegate threshold actually
        # promotes hubs and broadcasts flow.
        stream = rmat_stream(6 if scale == "tiny" else 7, epr, seed=seed + 11)
        nv = stream.num_vertices
        return _Case(
            app,
            make=lambda: make_connected_components(
                stream,
                delegate_threshold=8.0,
                batch_size=_BATCH,
                capacity=_CAPACITY,
                combining=combining,
            ),
            gather=lambda vals: gather_global_labels(vals, nv, nranks),
            reference=lambda: sequential.ref_connected_components(
                stream, nranks
            ),
        )
    if app == "bfs":
        stream = er_stream(n, epr, seed=seed + 13)
        return _Case(
            app,
            make=lambda: make_bfs(
                stream,
                source=0,
                batch_size=_BATCH,
                capacity=_CAPACITY,
                combining=combining,
            ),
            gather=lambda vals: gather_global_distances(vals, n, nranks),
            reference=lambda: sequential.ref_bfs(stream, 0, nranks),
        )
    if app == "sssp":
        stream = er_stream(n, epr, seed=seed + 17)
        return _Case(
            app,
            make=lambda: make_sssp(
                stream,
                source=0,
                batch_size=_BATCH,
                capacity=_CAPACITY,
                weight_seed=seed + 3,
                combining=combining,
            ),
            gather=lambda vals: gather_global_sssp(vals, n, nranks),
            reference=lambda: sequential.ref_sssp(
                stream, 0, nranks, weight_seed=seed + 3
            ),
        )
    if app == "kmer_count":
        n_reads = 24 if scale == "tiny" else 40
        params = dict(
            n_reads_per_rank=n_reads,
            read_len=18,
            k=8,
            frequent_threshold=1,
            skew=0.6,
        )

        def gather_kmer(vals):
            counts = merge_counts(vals)
            frequent: List[int] = sorted(
                km for _, freq in vals for km in freq
            )
            return (tuple(sorted(counts.items())), tuple(frequent))

        def ref_kmer():
            counts, frequent = sequential.ref_kmer_counts(
                nranks=nranks, seed=seed, **params
            )
            return (tuple(sorted(counts.items())), tuple(frequent))

        return _Case(
            app,
            make=lambda: make_kmer_counting(
                batch_size=_BATCH,
                capacity=_CAPACITY,
                combining=combining,
                **params,
            ),
            gather=gather_kmer,
            reference=ref_kmer,
        )
    if app == "spmv":
        rng = np.random.default_rng(seed + 23)
        nnz = n * 5
        rows = rng.integers(0, n, nnz)
        cols = rng.integers(0, n, nnz)
        vals = rng.standard_normal(nnz)
        x = rng.standard_normal(n)
        # Delegate the densest columns so the replica paths are covered.
        top = np.argsort(np.bincount(cols, minlength=n))[-3:]
        delegates = DelegateSet(np.sort(top).astype(np.int64))
        problems = [
            partition_spmv_problem(
                r, nranks, n, rows, cols, vals, x, delegates=delegates
            )
            for r in range(nranks)
        ]
        return _Case(
            app,
            make=lambda: make_spmv(
                problems,
                batch_size=_BATCH,
                capacity=_CAPACITY,
                combining=combining,
            ),
            gather=lambda vs: gather_global_y(vs, n, nranks),
            reference=lambda: sequential.ref_spmv(n, rows, cols, vals, x),
            exact=False,
        )
    raise ValueError(f"unknown oracle app {app!r}")


def _feed_digest(h, obj: Any) -> None:
    """Canonical byte-feed mirroring :func:`~repro.check.fuzz.results_equal`:
    two outputs that compare equal feed identical bytes (ndarrays by
    dtype+shape+raw data, floats as float64 bits, list==tuple)."""
    if isinstance(obj, np.ndarray):
        h.update(b"nd:")
        h.update(str(obj.dtype).encode())
        h.update(repr(obj.shape).encode())
        h.update(obj.tobytes())
    elif isinstance(obj, dict):
        h.update(b"map:")
        for key in sorted(obj, key=repr):
            h.update(repr(key).encode())
            _feed_digest(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        h.update(b"seq:%d:" % len(obj))
        for item in obj:
            _feed_digest(h, item)
    elif isinstance(obj, (bool, np.bool_)):
        h.update(b"b:%d" % int(obj))
    elif isinstance(obj, (float, np.floating)):
        h.update(b"f:")
        h.update(np.float64(obj).tobytes())
    elif isinstance(obj, (int, np.integer)):
        h.update(b"i:" + repr(int(obj)).encode())
    else:
        h.update(b"o:" + repr(obj).encode())


def canonical_digest(obj: Any) -> str:
    """Hex digest of a gathered oracle output; equal outputs (in the
    :func:`results_equal` sense) hash identically, so workers can check
    cross-scheme bit-identity without shipping arrays back."""
    h = hashlib.sha256()
    _feed_digest(h, obj)
    return h.hexdigest()


def oracle_cell(
    *,
    app: str,
    scale: str,
    scheme: str,
    seed: int,
    combining: bool = False,
) -> dict:
    """One (app, scale, scheme) oracle run, self-contained for a worker.

    Rebuilds the case, runs it with full invariant checking, compares
    against the sequential reference *inside the worker*, and returns
    only JSON scalars: the pass/fail verdict plus a canonical digest of
    the gathered output for the driver's cross-scheme comparison.

    ``combining=True`` enables the app's in-network combiner.  A
    combined tolerance-verified app (SpMV) returns ``digest=None``:
    its windowed partial sums are rounding-order dependent, so
    cross-scheme bit-identity is not a claim it makes.
    """
    nodes, cores = ORACLE_SCALES[scale]
    machine = bench_machine(nodes, cores_per_node=cores)
    case = _build_case(app, scale, machine.nranks, seed, combining=combining)
    try:
        result, _ = run_checked(machine, case.make(), scheme=scheme, seed=seed)
        out = case.gather(result.values)
    except InvariantViolation as exc:
        return {"ok": False, "detail": f"invariant: {exc}", "digest": None}
    ref = case.reference()
    if case.exact:
        ok = results_equal(out, ref)
        detail = "" if ok else "differs from sequential reference"
    else:
        ok = bool(np.allclose(out, ref, rtol=1e-9, atol=1e-12))
        detail = "" if ok else (
            f"max |delta| = {np.abs(out - ref).max():.3e} "
            "vs sequential reference"
        )
    digest = None if (combining and not case.exact) else canonical_digest(out)
    return {"ok": ok, "detail": detail, "digest": digest}


@dataclass
class OracleEntry:
    app: str
    scale: str
    check: str  # scheme name, or "cross-scheme"
    ok: bool
    detail: str = ""


@dataclass
class OracleReport:
    entries: List[OracleEntry] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def raise_if_failed(self) -> None:
        if not self.ok:
            raise InvariantViolation(self.render())

    def render(self) -> str:
        lines = []
        failures = [e for e in self.entries if not e.ok]
        by_case: Dict[Tuple[str, str], List[OracleEntry]] = {}
        for e in self.entries:
            by_case.setdefault((e.app, e.scale), []).append(e)
        for (app, scale), group in sorted(by_case.items()):
            bad = [e for e in group if not e.ok]
            status = "ok" if not bad else "FAIL"
            lines.append(f"  {app:22s} {scale:6s} [{status}] "
                         f"{len(group) - len(bad)}/{len(group)} checks")
            for e in bad:
                lines.append(f"    {e.check}: {e.detail}")
        header = (
            f"differential oracle: {len(self.entries) - len(failures)}"
            f"/{len(self.entries)} checks passed in {self.elapsed:.1f}s"
        )
        return "\n".join([header, *lines])


def _case_grid(
    apps: Optional[Sequence[str]],
    scales: Optional[Sequence[str]],
    schemes: Optional[Sequence[str]],
) -> List[Tuple[str, str, Tuple[str, ...]]]:
    """The (scale, app, run_schemes) sweep in canonical report order."""
    apps = tuple(apps) if apps else ORACLE_APPS
    scales = tuple(scales) if scales else tuple(ORACLE_SCALES)
    # Validate eagerly, before any job fans out to a worker.
    for app in apps:
        if app not in ORACLE_APPS:
            raise ValueError(f"unknown oracle app {app!r}")
    grid = []
    for scale in scales:
        nodes, cores = ORACLE_SCALES[scale]
        run_schemes = (
            tuple(schemes)
            if schemes
            else tuple(schemes_for(nodes, cores, EXTENDED_SCHEMES))
        )
        for app in apps:
            grid.append((scale, app, run_schemes))
    return grid


def run_oracle(
    apps: Optional[Sequence[str]] = None,
    scales: Optional[Sequence[str]] = None,
    schemes: Optional[Sequence[str]] = None,
    seed: int = 0,
    tiebreaker=None,
    pool=None,
    combining: bool = False,
) -> OracleReport:
    """Run the differential oracle; see the module docstring.

    ``tiebreaker`` optionally perturbs the kernel schedule of every
    simulated run (the oracle's assertions must hold under any legal
    schedule -- composing it with the fuzzer's
    :class:`~repro.check.fuzz.ShuffledTiebreaker` checks exactly that).
    Tiebreakers are arbitrary callables, so a perturbed oracle always
    runs in-process; otherwise the per-scheme runs fan out through
    ``pool`` (a :class:`repro.exec.Pool`; None runs them inline) as
    :func:`oracle_cell` jobs, with cross-scheme bit-identity checked via
    canonical output digests.
    """
    report = OracleReport()
    start = time.perf_counter()
    if tiebreaker is not None:
        _run_oracle_perturbed(
            report, apps, scales, schemes, seed, tiebreaker, combining
        )
        report.elapsed = time.perf_counter() - start
        return report

    from ..exec import Job, run_jobs

    grid = _case_grid(apps, scales, schemes)
    jobs = [
        Job(
            fn="repro.check.oracle:oracle_cell",
            kwargs=dict(
                app=app,
                scale=scale,
                scheme=scheme,
                seed=seed,
                combining=combining,
            ),
            label=f"oracle {app}/{scale}/{scheme}"
            + ("/combining" if combining else ""),
        )
        for scale, app, run_schemes in grid
        for scheme in run_schemes
    ]
    cells = iter(run_jobs(jobs, pool))
    for scale, app, run_schemes in grid:
        digests: Dict[str, str] = {}
        for scheme in run_schemes:
            cell = next(cells)
            report.entries.append(
                OracleEntry(app, scale, scheme, cell["ok"], cell["detail"])
            )
            if cell["digest"] is not None:
                digests[scheme] = cell["digest"]
        if len(digests) > 1:
            baseline_scheme = next(iter(digests))
            baseline = digests[baseline_scheme]
            bad = [s for s, d in digests.items() if d != baseline]
            report.entries.append(
                OracleEntry(
                    app,
                    scale,
                    "cross-scheme",
                    not bad,
                    ""
                    if not bad
                    else f"{bad} differ bitwise from {baseline_scheme}",
                )
            )
    report.elapsed = time.perf_counter() - start
    return report


def _run_oracle_perturbed(
    report: OracleReport,
    apps: Optional[Sequence[str]],
    scales: Optional[Sequence[str]],
    schemes: Optional[Sequence[str]],
    seed: int,
    tiebreaker,
    combining: bool = False,
) -> None:
    """In-process oracle sweep under a custom kernel tiebreaker."""
    for scale, app, run_schemes in _case_grid(apps, scales, schemes):
        nodes, cores = ORACLE_SCALES[scale]
        machine = bench_machine(nodes, cores_per_node=cores)
        case = _build_case(
            app, scale, machine.nranks, seed, combining=combining
        )
        ref = case.reference()
        outputs: Dict[str, Any] = {}
        for scheme in run_schemes:
            try:
                result, _ = run_checked(
                    machine,
                    case.make(),
                    scheme=scheme,
                    seed=seed,
                    tiebreaker=tiebreaker,
                )
                out = case.gather(result.values)
            except InvariantViolation as exc:
                report.entries.append(
                    OracleEntry(app, scale, scheme, False,
                                f"invariant: {exc}")
                )
                continue
            if not (combining and not case.exact):
                outputs[scheme] = out
            if case.exact:
                ok = results_equal(out, ref)
                detail = "" if ok else "differs from sequential reference"
            else:
                ok = bool(
                    np.allclose(out, ref, rtol=1e-9, atol=1e-12)
                )
                detail = "" if ok else (
                    f"max |delta| = {np.abs(out - ref).max():.3e} "
                    "vs sequential reference"
                )
            report.entries.append(
                OracleEntry(app, scale, scheme, ok, detail)
            )
        if len(outputs) > 1:
            baseline_scheme = next(iter(outputs))
            baseline = outputs[baseline_scheme]
            bad = [
                s
                for s, o in outputs.items()
                if not results_equal(o, baseline)
            ]
            report.entries.append(
                OracleEntry(
                    app,
                    scale,
                    "cross-scheme",
                    not bad,
                    ""
                    if not bad
                    else f"{bad} differ bitwise from {baseline_scheme}",
                )
            )
