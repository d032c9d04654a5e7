"""Pool semantics: ordering, caching, failures, timeouts, retries.

The worker-process tests use tiny sleeps/crashes from
``tests.exec.cells``; everything is bounded to keep the suite fast.
"""

import pytest

from repro.exec import Job, JobError, Pool, ResultCache, run_jobs

CELLS = "tests.exec.cells"


def _adders(n):
    return [
        Job(fn=f"{CELLS}:adder", kwargs={"a": i, "b": i}, label=f"add-{i}")
        for i in range(n)
    ]


# ------------------------------------------------------------- ordering
def test_serial_and_parallel_agree_in_submission_order():
    jobs = _adders(6)
    assert Pool(jobs=1, cache=None).run(jobs) == [0, 2, 4, 6, 8, 10]
    assert Pool(jobs=2, cache=None).run(jobs) == [0, 2, 4, 6, 8, 10]


def test_results_ordered_by_submission_not_completion():
    # The slow job is submitted first; the fast one finishes first.
    jobs = [
        Job(fn=f"{CELLS}:sleeper", kwargs={"seconds": 0.4, "value": "slow"}),
        Job(fn=f"{CELLS}:sleeper", kwargs={"seconds": 0.0, "value": "fast"}),
    ]
    assert Pool(jobs=2, cache=None).run(jobs) == ["slow", "fast"]


def test_run_jobs_without_pool_is_plain_inline_execution(tmp_path):
    assert run_jobs(_adders(3), None) == [0, 2, 4]


# ------------------------------------------------------------- caching
@pytest.mark.parametrize("workers", [1, 2])
def test_second_run_is_all_cache_hits(tmp_path, workers):
    cache = ResultCache(str(tmp_path / "c"))
    jobs = _adders(4)
    pool = Pool(jobs=workers, cache=cache)
    cold = pool.run(jobs)
    assert not any(r.cache_hit for r in pool.records)
    warm = pool.run(jobs)
    assert warm == cold
    assert all(r.cache_hit for r in pool.records)
    assert cache.hits == 4


def test_fresh_and_cached_results_are_identical_values(tmp_path):
    # The cell returns a tuple; JSON normalization must make the fresh
    # run hand the aggregator the same list a later cache hit would.
    cache = ResultCache(str(tmp_path / "c"))
    job = Job(fn=f"{CELLS}:pair", kwargs={"a": 1, "b": 2})
    pool = Pool(jobs=1, cache=cache)
    (fresh,) = pool.run([job])
    (cached,) = pool.run([job])
    assert fresh == cached == {"pair": [1, 2]}


# ------------------------------------------------------------- failures
@pytest.mark.parametrize("workers", [1, 2])
def test_all_failures_reported_after_settling(workers):
    jobs = [
        Job(fn=f"{CELLS}:boom", kwargs={"msg": "first"}, label="boom-1"),
        Job(fn=f"{CELLS}:adder", kwargs={"a": 1, "b": 1}, label="ok"),
        Job(fn=f"{CELLS}:boom", kwargs={"msg": "second"}, label="boom-2"),
    ]
    pool = Pool(jobs=workers, cache=None)
    with pytest.raises(JobError) as excinfo:
        pool.run(jobs)
    labels = sorted(label for label, _ in excinfo.value.failures)
    assert labels == ["boom-1", "boom-2"]
    assert all("ValueError" in msg for _, msg in excinfo.value.failures)
    # The healthy sibling still ran to completion.
    ok = next(r for r in pool.records if r.label == "ok")
    assert ok.error == "" and ok.finished > 0


def test_cell_exceptions_are_not_retried():
    pool = Pool(jobs=2, cache=None, default_retries=3)
    with pytest.raises(JobError):
        pool.run([Job(fn=f"{CELLS}:boom", kwargs={"msg": "x"}, label="b")])
    assert pool.records[0].retries == 0


# ------------------------------------------------------------- timeouts
def test_hanging_job_times_out_and_sibling_survives():
    jobs = [
        Job(
            fn=f"{CELLS}:sleeper",
            kwargs={"seconds": 30.0},
            label="hang",
            timeout=0.5,
            retries=0,
        ),
        Job(fn=f"{CELLS}:adder", kwargs={"a": 2, "b": 2}, label="ok"),
    ]
    pool = Pool(jobs=2, cache=None)
    with pytest.raises(JobError) as excinfo:
        pool.run(jobs)
    (failure,) = excinfo.value.failures
    assert failure[0] == "hang"
    assert "timed out after 0.5s" in failure[1]
    ok = next(r for r in pool.records if r.label == "ok")
    assert ok.error == ""


def test_timeout_retry_budget_is_charged_per_attempt():
    job = Job(
        fn=f"{CELLS}:sleeper",
        kwargs={"seconds": 30.0},
        label="hang",
        timeout=0.3,
        retries=1,
    )
    pool = Pool(jobs=2, cache=None)
    with pytest.raises(JobError, match="retries exhausted"):
        pool.run([job])
    assert pool.records[0].retries == 2  # initial attempt + one retry


def test_worker_crash_is_contained_and_reported():
    jobs = [
        Job(fn=f"{CELLS}:crasher", kwargs={}, label="crash", retries=0),
        Job(fn=f"{CELLS}:adder", kwargs={"a": 3, "b": 3}, label="ok"),
    ]
    pool = Pool(jobs=2, cache=None)
    with pytest.raises(JobError) as excinfo:
        pool.run(jobs)
    (failure,) = excinfo.value.failures
    assert failure[0] == "crash"
    assert "worker process crashed" in failure[1]
    ok = next(r for r in pool.records if r.label == "ok")
    assert ok.error == ""


def test_crash_retry_stats_reflect_the_successful_attempt(tmp_path):
    """A retried crash must not double-count in the job's record.

    The record describes the attempt that produced the result: one
    charged retry, ``queued <= started <= finished`` from the second
    attempt, a wall time far below the whole run (the first attempt's
    lifetime is not folded in), and exactly one trace mirror carrying
    the final stats.
    """
    from repro.trace import Tracer

    tracer = Tracer(categories=("exec",))
    jobs = [
        Job(
            fn=f"{CELLS}:crash_once",
            kwargs={"sentinel": str(tmp_path / "marker"), "a": 20, "b": 22},
            label="flaky",
            retries=1,
        ),
        Job(fn=f"{CELLS}:adder", kwargs={"a": 1, "b": 1}, label="ok"),
    ]
    pool = Pool(jobs=2, cache=None, tracer=tracer)
    assert pool.run(jobs) == [42, 2]

    rec = next(r for r in pool.records if r.label == "flaky")
    assert rec.retries == 1  # the crash charged exactly one retry
    assert rec.error == "" and not rec.cache_hit
    assert 0.0 <= rec.queued <= rec.started <= rec.finished
    assert rec.wall_ms >= 0.0
    # The record is mirrored to the tracer exactly once, with the final
    # (retried) stats -- not once per attempt.
    mirrored = [e for e in tracer.events if e.name == "flaky"]
    assert len(mirrored) == 1
    assert mirrored[0].args["retries"] == 1
    assert mirrored[0].args["error"] is None


def test_cache_hit_records_do_not_stretch_back_to_run_start(tmp_path):
    """A cache hit's trace span must have (near-)zero duration.

    Before the fix, hits left ``queued``/``started`` at 0.0, so the
    mirrored span covered the whole interval from run start to lookup.
    """
    from repro.trace import Tracer

    cache = ResultCache(str(tmp_path / "c"))
    pool = Pool(jobs=1, cache=cache)
    pool.run(_adders(3))  # cold: populate the cache

    tracer = Tracer(categories=("exec",))
    warm = Pool(jobs=1, cache=cache, tracer=tracer)
    warm.run(_adders(3))
    assert all(r.cache_hit for r in warm.records)
    for rec in warm.records:
        assert rec.queued == rec.started == rec.finished > 0.0
    for ev in tracer.events:
        assert ev.args["cache_hit"] is True
        assert ev.dur == 0.0


# ------------------------------------------------------------- observability
def test_records_and_progress_callback(tmp_path):
    calls = []
    cache = ResultCache(str(tmp_path / "c"))
    pool = Pool(
        jobs=1,
        cache=cache,
        progress=lambda done, total, hits, running: calls.append(
            (done, total, hits, running)
        ),
    )
    pool.run(_adders(3))
    assert calls[-1] == (3, 3, 0, 0)
    for rec in pool.records:
        assert rec.finished >= rec.started >= rec.queued >= 0.0
        assert rec.wall_ms >= 0.0 and not rec.cache_hit

    calls.clear()
    pool.run(_adders(3))
    assert calls[-1] == (3, 3, 3, 0)
    assert all(r.cache_hit and r.wall_ms == 0.0 for r in pool.records)
