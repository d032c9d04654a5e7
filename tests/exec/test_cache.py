"""Result cache: hit/miss, invalidation, atomicity, maintenance."""

import json
import os

import repro.exec.fingerprint as fingerprint
import repro.exec.job as job_mod
from repro.exec import Job, ResultCache, code_fingerprint

CELLS = "tests.exec.cells"


def _job(**kwargs):
    return Job(fn=f"{CELLS}:adder", kwargs=kwargs or {"a": 1, "b": 2})


# ------------------------------------------------------------- basics
def test_roundtrip_and_counters(tmp_path):
    cache = ResultCache(str(tmp_path / "c"))
    job = _job()
    hit, _ = cache.get(job)
    assert not hit and cache.misses == 1
    assert cache.put(job, {"sum": 3}, wall_ms=1.5)
    hit, value = cache.get(job)
    assert hit and value == {"sum": 3}
    assert cache.hits == 1 and cache.size() == 1


def test_unserializable_result_is_not_stored(tmp_path):
    cache = ResultCache(str(tmp_path / "c"))
    assert not cache.put(_job(), object())
    assert cache.size() == 0


def test_corrupt_or_mismatched_entries_read_as_misses(tmp_path):
    cache = ResultCache(str(tmp_path / "c"))
    job = _job()
    cache.put(job, {"sum": 3})
    path = cache._entry_path(job.cache_key())

    with open(path, "w") as f:
        f.write("{ not json")
    assert cache.get(job) == (False, None)

    with open(path, "w") as f:
        json.dump({"schema": -1, "result": {"sum": 3}}, f)
    assert cache.get(job) == (False, None)


def test_clear_removes_entries_and_subdirs(tmp_path):
    cache = ResultCache(str(tmp_path / "c"))
    for a in range(4):
        cache.put(_job(a=a, b=0), {"sum": a})
    assert cache.size() == 4
    assert cache.clear() == 4
    assert cache.size() == 0
    hit, _ = cache.get(_job(a=0, b=0))
    assert not hit


# ------------------------------------------------------------- invalidation
def test_code_fingerprint_change_busts_the_cache(tmp_path, monkeypatch):
    cache = ResultCache(str(tmp_path / "c"))
    job = _job()
    cache.put(job, {"sum": 3})
    assert cache.get(job) == (True, {"sum": 3})

    # Simulate an edit to the simulator source: every key changes, the
    # old entry silently stops matching.
    monkeypatch.setattr(job_mod, "code_fingerprint", lambda: "f" * 64)
    assert cache.get(job) == (False, None)


def test_code_fingerprint_tracks_source_edits(tmp_path, monkeypatch):
    # Point the fingerprint at a throwaway tree so the test never
    # touches the real src/repro files.
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "a.py").write_text("x = 1\n")
    monkeypatch.setattr(fingerprint, "_package_root", lambda: str(pkg))
    monkeypatch.setattr(fingerprint, "_CACHED", None)

    first = code_fingerprint(refresh=True)
    assert code_fingerprint() == first  # memoised

    (pkg / "a.py").write_text("x = 2\n")
    assert code_fingerprint() == first  # memo hides the edit...
    assert code_fingerprint(refresh=True) != first  # ...refresh sees it

    # Non-.py files and __pycache__ are outside the fingerprint.
    edited = code_fingerprint(refresh=True)
    (pkg / "notes.txt").write_text("ignored\n")
    (pkg / "__pycache__").mkdir()
    (pkg / "__pycache__" / "a.cpython-311.pyc").write_text("ignored")
    assert code_fingerprint(refresh=True) == edited


# ------------------------------------------------------------- atomicity
def test_writes_leave_no_temp_files_behind(tmp_path):
    cache = ResultCache(str(tmp_path / "c"))
    job = _job()
    cache.put(job, {"sum": 3})
    leftovers = [
        name
        for _, _, names in os.walk(cache.path)
        for name in names
        if name.startswith(".tmp-")
    ]
    assert leftovers == []
