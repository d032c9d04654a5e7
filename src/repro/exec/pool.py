"""Multi-core job pool with caching, timeouts and crash containment.

``Pool.run(jobs)`` executes a list of :class:`~repro.exec.job.Job`
cells and returns their results **in submission order**, regardless of
completion order -- aggregation downstream is therefore identical for
``--jobs 1`` and ``--jobs N`` and the rendered tables are byte-for-byte
the same.  Per-cell determinism is the cells' own contract (they
rebuild workloads from scalar kwargs); the pool adds:

* a content-addressed result cache (:class:`~repro.exec.cache.ResultCache`)
  consulted before submission and populated after completion, with
  results round-tripped through JSON so cache hits and fresh runs
  yield identical values;
* per-job wall-clock **timeouts** (measured from the moment a worker
  picks the job up, polled at ``TICK`` granularity) -- on expiry the
  worker processes are killed, the job is retried or failed, and the
  remaining jobs are resubmitted to a fresh pool;
* bounded **retries** for jobs whose worker died (crash or timeout);
  a job that raises an ordinary exception is *not* retried -- cells
  are deterministic, so the error would just repeat;
* **Ctrl-C containment**: ``KeyboardInterrupt`` kills outstanding
  workers before propagating, so no orphan processes survive and (via
  the cache's write-to-temp + atomic rename) no half-written cache
  entries either;
* per-job :class:`~repro.exec.job.JobRecord` observability
  (queued/started/finished/wall/cache-hit), optionally mirrored to a
  :class:`repro.trace.Tracer` under the ``"exec"`` category.

``jobs=1`` (the default when only one CPU is visible) runs every cell
inline in this process -- no subprocesses, same cache, same ordering,
same results; timeouts are not enforced on the inline path.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .cache import ResultCache
from .job import Job, JobError, JobRecord, call_job

#: Scheduling/timeout poll granularity (seconds).
TICK = 0.05

ProgressFn = Callable[[int, int, int, int], None]


def default_jobs() -> int:
    """Default worker count: every visible CPU."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


def stderr_progress(done: int, total: int, hits: int, running: int) -> None:
    """Single-line live progress on stderr (stdout stays table-clean)."""
    msg = f"[pool] {done}/{total} done, {running} running, {hits} cache hits"
    if sys.stderr.isatty():
        end = "\n" if done == total else "\r"
        print(f"\x1b[2K{msg}", end=end, file=sys.stderr, flush=True)
    elif done == total:
        print(msg, file=sys.stderr, flush=True)


class Pool:
    """Run job cells serially or across worker processes; see module doc."""

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        tracer=None,
        default_timeout: Optional[float] = None,
        default_retries: int = 1,
        progress: Optional[ProgressFn] = None,
    ) -> None:
        self.jobs = max(1, jobs if jobs is not None else default_jobs())
        self.cache = cache
        self.tracer = tracer
        self.default_timeout = default_timeout
        self.default_retries = default_retries
        self.progress = progress
        #: JobRecords of the most recent :meth:`run`, in submission order.
        self.records: List[JobRecord] = []

    # -- public API --------------------------------------------------------
    def run(self, jobs: Sequence[Job]) -> List[Any]:
        """Execute ``jobs``; results in submission order.

        Raises :class:`~repro.exec.job.JobError` listing *every* failed
        cell after all jobs have settled (successes keep their results).
        """
        jobs = list(jobs)
        t0 = time.perf_counter()
        self.records = [JobRecord(label=j.label or j.fn) for j in jobs]
        results: List[Any] = [None] * len(jobs)
        failures: List[Tuple[str, str]] = []
        self._done = 0
        self._total = len(jobs)

        pending: List[int] = []
        for i, job in enumerate(jobs):
            hit, value = (False, None)
            if self.cache is not None:
                hit, value = self.cache.get(job)
            if hit:
                results[i] = value
                rec = self.records[i]
                rec.cache_hit = True
                # A hit never queues or runs: anchor all three stamps at
                # the lookup time so downstream consumers (the trace
                # mirror's ``finished - started`` duration, the progress
                # callback's running count) see a zero-length execution
                # instead of one stretching back to the run start.
                rec.queued = rec.started = rec.finished = (
                    time.perf_counter() - t0
                )
                self._finish_one(rec)
            else:
                pending.append(i)

        if pending:
            if self.jobs == 1:
                self._run_serial(jobs, pending, results, failures, t0)
            else:
                self._run_parallel(jobs, pending, results, failures, t0)

        if failures:
            raise JobError(failures)
        return results

    # -- shared helpers ----------------------------------------------------
    def _finish_one(self, rec: JobRecord) -> None:
        self._done += 1
        if self.progress is not None:
            hits = sum(1 for r in self.records if r.cache_hit)
            running = sum(
                1 for r in self.records if r.started and not r.finished
            )
            self.progress(self._done, self._total, hits, running)
        tr = self.tracer
        if tr is not None and tr.wants("exec"):
            tr.complete(
                rec.started,
                max(0.0, rec.finished - rec.started),
                "exec",
                rec.label,
                "pool",
                queued=rec.queued,
                wall_ms=rec.wall_ms,
                cache_hit=rec.cache_hit,
                retries=rec.retries,
                error=rec.error or None,
            )

    def _complete(
        self,
        idx: int,
        job: Job,
        value: Any,
        results: List[Any],
        wall_ms: float,
        t0: float,
    ) -> None:
        value = self._normalize(value)
        if self.cache is not None:
            self.cache.put(job, value, wall_ms=wall_ms)
        results[idx] = value
        rec = self.records[idx]
        rec.finished = time.perf_counter() - t0
        rec.wall_ms = wall_ms
        self._finish_one(rec)

    def _fail(
        self,
        idx: int,
        job: Job,
        message: str,
        failures: List[Tuple[str, str]],
        t0: float,
    ) -> None:
        rec = self.records[idx]
        rec.error = message
        rec.finished = time.perf_counter() - t0
        failures.append((job.label or job.fn, message))
        self._finish_one(rec)

    @staticmethod
    def _normalize(value: Any) -> Any:
        """JSON round-trip results so a fresh computation and a later
        cache hit hand identical Python values to the aggregator."""
        try:
            return json.loads(json.dumps(value))
        except (TypeError, ValueError):
            return value

    def _retries_for(self, job: Job) -> int:
        return self.default_retries if job.retries is None else job.retries

    def _timeout_for(self, job: Job) -> Optional[float]:
        return self.default_timeout if job.timeout is None else job.timeout

    # -- serial path -------------------------------------------------------
    def _run_serial(
        self,
        jobs: Sequence[Job],
        pending: List[int],
        results: List[Any],
        failures: List[Tuple[str, str]],
        t0: float,
    ) -> None:
        for idx in pending:
            job = jobs[idx]
            rec = self.records[idx]
            rec.queued = rec.started = time.perf_counter() - t0
            start = time.perf_counter()
            try:
                value = job.run_inline()
            except KeyboardInterrupt:
                raise
            except Exception as exc:
                self._fail(
                    idx, job, f"{type(exc).__name__}: {exc}", failures, t0
                )
                continue
            self._complete(
                idx, job, value, results,
                (time.perf_counter() - start) * 1e3, t0,
            )

    # -- parallel path -----------------------------------------------------
    def _run_parallel(
        self,
        jobs: Sequence[Job],
        pending: List[int],
        results: List[Any],
        failures: List[Tuple[str, str]],
        t0: float,
    ) -> None:
        from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
        from concurrent.futures.process import BrokenProcessPool

        retries_left: Dict[int, int] = {
            i: self._retries_for(jobs[i]) for i in pending
        }
        todo = list(pending)
        while todo:
            executor = ProcessPoolExecutor(max_workers=self.jobs)
            fut_idx: Dict[Any, int] = {}
            started_at: Dict[int, float] = {}
            rebuild: List[int] = []
            try:
                now = time.perf_counter() - t0
                for idx in todo:
                    job = jobs[idx]
                    self.records[idx].queued = now
                    fut = executor.submit(call_job, job.fn, dict(job.kwargs))
                    fut_idx[fut] = idx
                todo = []
                while fut_idx:
                    done, _ = wait(
                        set(fut_idx), timeout=TICK,
                        return_when=FIRST_COMPLETED,
                    )
                    now = time.perf_counter()
                    # Record start times as workers pick jobs up.
                    for fut, idx in fut_idx.items():
                        if idx not in started_at and (
                            fut.running() or fut in done
                        ):
                            started_at[idx] = now
                            self.records[idx].started = now - t0
                    broken = False
                    for fut in done:
                        idx = fut_idx.pop(fut)
                        job = jobs[idx]
                        exc = fut.exception()
                        if exc is None:
                            wall = (now - started_at.get(idx, now)) * 1e3
                            self._complete(
                                idx, job, fut.result(), results, wall, t0
                            )
                        elif isinstance(exc, BrokenProcessPool):
                            broken = True
                            rebuild.append(idx)
                        else:
                            # Deterministic cell error: no point retrying.
                            self._fail(
                                idx, job,
                                f"{type(exc).__name__}: {exc}", failures, t0,
                            )
                    if broken:
                        rebuild.extend(fut_idx.values())
                        fut_idx.clear()
                        raise BrokenProcessPool("worker process died")
                    # Enforce per-job wall-clock timeouts.
                    expired = [
                        (fut, idx)
                        for fut, idx in fut_idx.items()
                        if idx in started_at
                        and self._timeout_for(jobs[idx]) is not None
                        and now - started_at[idx] > self._timeout_for(jobs[idx])
                    ]
                    if expired:
                        for fut, idx in expired:
                            del fut_idx[fut]
                            rebuild.append(idx)
                        rebuild.extend(fut_idx.values())
                        fut_idx.clear()
                        raise _JobTimeout(
                            [idx for _, idx in expired]
                        )
            except (BrokenProcessPool, _JobTimeout) as exc:
                self._kill(executor)
                timed_out = set(exc.indices) if isinstance(exc, _JobTimeout) else set()
                # A BrokenProcessPool raised by submit()/the executor
                # itself (rather than our re-raise) leaves in-flight
                # futures out of ``rebuild``; fold them in (deduplicated,
                # order-preserving) so no job is silently dropped.
                rebuild.extend(fut_idx.values())
                fut_idx.clear()
                for idx in dict.fromkeys(rebuild):
                    job = jobs[idx]
                    # Charge the retry budget of jobs that were actually
                    # running (their worker died / they timed out); jobs
                    # still queued resubmit for free.
                    charged = idx in timed_out or (
                        not timed_out and idx in started_at
                    )
                    if charged:
                        retries_left[idx] -= 1
                        self.records[idx].retries += 1
                    if retries_left[idx] < 0:
                        kind = (
                            "timed out after "
                            f"{self._timeout_for(job):g}s"
                            if idx in timed_out
                            else "worker process crashed"
                        )
                        self._fail(
                            idx, job, f"{kind} (retries exhausted)",
                            failures, t0,
                        )
                    else:
                        todo.append(idx)
                        started_at.pop(idx, None)
                        # The record must describe the attempt that will
                        # actually produce the result: clear the dead
                        # attempt's start stamp (re-set when a worker
                        # picks the retry up) so the job is not reported
                        # as running while it waits for resubmission.
                        self.records[idx].started = 0.0
                todo.sort()
            except BaseException:
                # KeyboardInterrupt (or anything unexpected): kill all
                # outstanding workers so nothing is orphaned, then
                # propagate to the caller.
                self._kill(executor)
                raise
            else:
                executor.shutdown(wait=True)

    @staticmethod
    def _kill(executor) -> None:
        """Terminate worker processes and abandon the executor."""
        processes = list(getattr(executor, "_processes", {}).values())
        for proc in processes:
            try:
                proc.terminate()
            except Exception:
                pass
        executor.shutdown(wait=False, cancel_futures=True)
        for proc in processes:
            try:
                proc.join(timeout=1.0)
            except Exception:
                pass


class _JobTimeout(Exception):
    """Internal control flow: one or more running jobs exceeded their
    wall-clock budget (``indices`` names them)."""

    def __init__(self, indices: List[int]) -> None:
        super().__init__(f"jobs timed out: {indices}")
        self.indices = indices


def make_pool(
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    use_cache: bool = True,
    cache_dir: Optional[str] = None,
    **kwargs,
) -> Pool:
    """Convenience factory used by the CLI and the sweep drivers."""
    if cache is None and use_cache:
        cache = ResultCache(cache_dir)
    return Pool(jobs=jobs, cache=cache, **kwargs)


def run_jobs(jobs: Sequence[Job], pool: Optional[Pool] = None) -> List[Any]:
    """Run jobs through ``pool``, or inline+uncached when ``pool`` is None.

    The drivers' default: calling ``fig6.run_weak(sweep)`` from a test
    or a notebook with no pool behaves exactly like the pre-pool serial
    code path (no worker processes, no cache directory created).
    """
    if pool is None:
        pool = Pool(jobs=1, cache=None)
    return pool.run(jobs)
