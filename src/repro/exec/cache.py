"""On-disk content-addressed result cache for sweep cells.

Layout: ``<dir>/<key[:2]>/<key>.json`` where ``key`` is
:meth:`repro.exec.job.Job.cache_key` -- a hash over the cell function,
its kwargs, the cache schema version and the
:func:`~repro.exec.fingerprint.code_fingerprint` of the whole ``repro``
source tree.  Editing any source file therefore changes every key and
old entries silently stop matching; ``clear()`` (or deleting the
directory) reclaims the space.

Writes go to a temp file in the same directory followed by
``os.replace``, so a Ctrl-C or worker crash can never leave a
half-written entry behind; a concurrent writer of the same key just
wins the rename race with an identical payload.  Reads that hit a
corrupt or mismatched entry are treated as misses.

The default location is ``.repro-cache/`` under the current working
directory, overridable with ``REPRO_CACHE_DIR``.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from typing import Any, Optional, Tuple

from .job import CACHE_SCHEMA, Job

#: Environment variable overriding the cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default directory (relative to the current working directory).
DEFAULT_CACHE_DIR = ".repro-cache"

_MISS = object()


def default_cache_dir() -> str:
    return os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR


class ResultCache:
    """Content-addressed store of JSON cell results."""

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = path or default_cache_dir()
        self.hits = 0
        self.misses = 0

    # -- key layout --------------------------------------------------------
    def _entry_path(self, key: str) -> str:
        return os.path.join(self.path, key[:2], key + ".json")

    # -- read --------------------------------------------------------------
    def get(self, job: Job) -> Tuple[bool, Any]:
        """``(hit, result)``."""
        key = job.cache_key()
        entry = self._read_entry(self._entry_path(key))
        if entry is _MISS:
            self.misses += 1
            return False, None
        self.hits += 1
        return True, entry["result"]

    def _read_entry(self, path: str) -> Any:
        try:
            with open(path) as f:
                entry = json.load(f)
        except (OSError, ValueError):
            return _MISS
        if not isinstance(entry, dict) or entry.get("schema") != CACHE_SCHEMA:
            return _MISS
        if "result" not in entry:
            return _MISS
        return entry

    # -- write -------------------------------------------------------------
    def put(self, job: Job, result: Any, wall_ms: float = 0.0) -> bool:
        """Store a result; returns False (and stores nothing) when the
        result is not JSON-serializable."""
        try:
            body = json.dumps(
                {
                    "schema": CACHE_SCHEMA,
                    "fn": job.fn,
                    "kwargs": dict(job.kwargs),
                    "created_unix": time.time(),
                    "wall_ms": wall_ms,
                    "result": result,
                },
                sort_keys=True,
            )
        except (TypeError, ValueError):
            return False
        path = self._entry_path(job.cache_key())
        os.makedirs(os.path.dirname(path), exist_ok=True)
        # Atomic publish: temp file in the target dir, then rename.
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path), prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w") as f:
                f.write(body)
                f.write("\n")
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return True

    # -- maintenance -------------------------------------------------------
    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        if not os.path.isdir(self.path):
            return removed
        for dirpath, _dirnames, filenames in os.walk(self.path, topdown=False):
            for name in filenames:
                if name.endswith(".json"):
                    try:
                        os.unlink(os.path.join(dirpath, name))
                        removed += 1
                    except OSError:
                        pass
            if dirpath != self.path:
                try:
                    os.rmdir(dirpath)
                except OSError:
                    pass
        return removed

    def size(self) -> int:
        """Number of entries currently stored."""
        count = 0
        for _dirpath, _dirnames, filenames in os.walk(self.path):
            count += sum(1 for n in filenames if n.endswith(".json"))
        return count
