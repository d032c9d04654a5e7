"""``repro.exec``: parallel sweep execution for the repo's drivers.

Every top-level workload here -- figure sweeps, the routing-differential
oracle, the schedule fuzzer -- is a bag of independent
deterministic simulations.  This package turns those bags into
:class:`Job` cells and runs them on a :class:`Pool` of worker processes
with an on-disk content-addressed :class:`ResultCache`, so sweeps scale
with available cores and unchanged cells re-run in milliseconds.  See
EXPERIMENTS.md ("Parallel sweeps and the result cache").
"""

from .cache import CACHE_DIR_ENV, DEFAULT_CACHE_DIR, ResultCache, default_cache_dir
from .fingerprint import code_fingerprint
from .job import CACHE_SCHEMA, Job, JobError, JobRecord, canonical_json, resolve
from .pool import Pool, default_jobs, make_pool, run_jobs, stderr_progress

__all__ = [
    "CACHE_DIR_ENV",
    "CACHE_SCHEMA",
    "DEFAULT_CACHE_DIR",
    "Job",
    "JobError",
    "JobRecord",
    "Pool",
    "ResultCache",
    "canonical_json",
    "code_fingerprint",
    "default_cache_dir",
    "default_jobs",
    "make_pool",
    "resolve",
    "run_jobs",
    "stderr_progress",
]
