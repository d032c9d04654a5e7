"""The :class:`Job` abstraction: a picklable, hashable unit of sweep work.

A job names a module-level *cell function* by dotted path
(``"repro.bench.ablations:degree_cell"``) plus JSON-serializable keyword
arguments.  That representation serves three masters at once:

* **picklability** -- only the path string and plain data cross the
  process boundary, so any cell function works under any
  ``multiprocessing`` start method;
* **content addressing** -- the canonical JSON of ``(fn, kwargs)``
  plus the :func:`~repro.exec.fingerprint.code_fingerprint` hashes to a
  stable cache key (:meth:`Job.cache_key`), and
* **determinism** -- a cell rebuilds its workload from scalar kwargs
  (seeds, sizes, scheme names), never from ambient driver state, so the
  same job always computes the same result.

Cacheable cell results must be JSON-serializable; results are
round-tripped through JSON even on a cache miss so that fresh and
cached runs produce *identical* Python values (tuples become lists in
both cases, never in just one).
"""

from __future__ import annotations

import hashlib
import importlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional

from .fingerprint import code_fingerprint

#: Bump when the job/cache entry layout changes shape: old entries
#: stop matching and are simply never read again.
CACHE_SCHEMA = 1


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, no NaN."""
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def _check_jsonable(kwargs: Mapping[str, Any], label: str) -> None:
    try:
        canonical_json(dict(kwargs))
    except (TypeError, ValueError) as exc:
        raise TypeError(
            f"job {label or '<unnamed>'}: kwargs must be JSON-serializable "
            f"(got {exc})"
        ) from None


def resolve(fn_path: str) -> Callable[..., Any]:
    """Import ``"pkg.mod:func"`` and return the callable."""
    mod_name, sep, attr = fn_path.partition(":")
    if not mod_name or not sep or not attr:
        raise ValueError(
            f"job fn {fn_path!r} must look like 'package.module:function'"
        )
    fn = getattr(importlib.import_module(mod_name), attr, None)
    if not callable(fn):
        raise ValueError(f"job fn {fn_path!r} does not resolve to a callable")
    return fn


@dataclass(frozen=True)
class Job:
    """One unit of work for :class:`repro.exec.pool.Pool`.

    ``fn`` is a ``"module:function"`` dotted path; ``kwargs`` must be
    JSON-serializable.  ``label`` is for progress/trace display only
    and does not participate in the cache key.
    ``timeout``/``retries`` override the pool defaults for this job.
    """

    fn: str
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    label: str = ""
    timeout: Optional[float] = None
    retries: Optional[int] = None

    def __post_init__(self) -> None:
        _check_jsonable(self.kwargs, self.label or self.fn)

    def cache_key(self) -> str:
        """Content address: hash of (schema, code fingerprint, fn, kwargs)."""
        payload = canonical_json(
            {
                "schema": CACHE_SCHEMA,
                "code": code_fingerprint(),
                "fn": self.fn,
                "kwargs": dict(self.kwargs),
            }
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def run_inline(self) -> Any:
        """Execute the cell in this process (the ``--jobs 1`` path)."""
        return resolve(self.fn)(**self.kwargs)


def call_job(fn: str, kwargs: Dict[str, Any]) -> Any:
    """Worker-side entry point: resolve and call one cell function.

    Module-level (hence picklable) on purpose; this is the only
    function the process pool ever submits.
    """
    return resolve(fn)(**kwargs)


@dataclass
class JobRecord:
    """Observability record for one job execution (host wall clock).

    ``queued``/``started``/``finished`` are ``time.perf_counter()``
    readings relative to the pool run's start; ``wall_ms`` is the
    execution time observed by the pool (0 for cache hits).
    """

    label: str
    queued: float = 0.0
    started: float = 0.0
    finished: float = 0.0
    wall_ms: float = 0.0
    cache_hit: bool = False
    retries: int = 0
    error: str = ""


class JobError(RuntimeError):
    """One or more jobs failed; carries every failed cell, not just one."""

    def __init__(self, failures):
        self.failures = list(failures)  # (label, message) pairs
        lines = [f"{len(self.failures)} job(s) failed:"]
        lines += [f"  {label}: {msg}" for label, msg in self.failures]
        super().__init__("\n".join(lines))
