"""No shared-memory segment outlives a run (satellite: shm lifecycle).

The driver creates one segment before forking and must unlink it on
*every* exit path -- normal completion, worker crash, stall kill,
KeyboardInterrupt -- or repeated runs leak /dev/shm until the host
starves.  The subprocess test additionally proves the interpreter
shuts down without ``resource_tracker`` leak warnings: only the driver
ever registers the segment, so the one unlink leaves the tracker quiet.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.pdes import PdesError, PdesStallError, PdesWorld

SHM_DIR = Path("/dev/shm")

pytestmark = pytest.mark.skipif(
    not SHM_DIR.is_dir(), reason="no /dev/shm on this platform"
)


def segments():
    return sorted(p.name for p in SHM_DIR.glob("repro_pdes_*"))


def ping_all(ctx):
    got = []
    mb = ctx.mailbox(recv=lambda m: got.append(m))
    for i in range(10):
        yield from mb.send((ctx.rank + 1 + i) % ctx.nranks, (ctx.rank, i))
    yield from mb.wait_empty()
    return sorted(got)


def test_normal_run_leaves_no_segment():
    before = segments()
    engine = PdesWorld(4, cores_per_node=2, workers=2)
    engine.run(ping_all)
    assert segments() == before


def test_segment_exists_during_the_run_and_is_gone_after():
    # The transport object records its name; verify the file truly hit
    # /dev/shm and truly left (not merely that close() was called).
    engine = PdesWorld(4, cores_per_node=2, workers=2, transport="shm")
    seen = {}
    orig_spawn = PdesWorld._spawn

    def spying_spawn(self, rank_main):
        out = orig_spawn(self, rank_main)
        seen["name"] = self._rings.name
        assert (SHM_DIR / self._rings.name).exists()
        return out

    engine._spawn = spying_spawn.__get__(engine)
    engine.run(ping_all)
    assert not (SHM_DIR / seen["name"]).exists()


def test_worker_crash_leaves_no_segment():
    def rank_main(ctx):
        if ctx.rank == 3:
            os._exit(13)
        return ctx.rank
        yield

    before = segments()
    with pytest.raises(PdesError):
        PdesWorld(4, cores_per_node=1, workers=2).run(rank_main)
    assert segments() == before


def test_stall_kill_leaves_no_segment():
    def rank_main(ctx):
        if ctx.rank == 0:
            time.sleep(600.0)
        return ctx.rank
        yield

    before = segments()
    with pytest.raises(PdesStallError):
        PdesWorld(
            4, cores_per_node=1, workers=2, window_timeout=1.0
        ).run(rank_main)
    assert segments() == before


def test_keyboard_interrupt_leaves_no_segment():
    engine = PdesWorld(4, cores_per_node=2, workers=2)
    orig_recv = PdesWorld._recv
    calls = {"n": 0}

    def interrupted_recv(self, conns, procs, expect, round_no):
        calls["n"] += 1
        if calls["n"] == 2:  # past spawn, mid-protocol
            raise KeyboardInterrupt
        return orig_recv(self, conns, procs, expect, round_no)

    engine._recv = interrupted_recv.__get__(engine)
    before = segments()
    with pytest.raises(KeyboardInterrupt):
        engine.run(ping_all)
    assert segments() == before
    assert engine._rings is None  # torn down, not merely unlinked


def test_interpreter_exit_is_quiet_after_runs(tmp_path):
    # resource_tracker leak warnings surface at interpreter shutdown;
    # run a full engine lifecycle (normal + crashed) in a child python
    # and require a silent stderr.
    script = tmp_path / "driver.py"
    script.write_text(
        "import os\n"
        "from repro.pdes import PdesError, PdesWorld\n"
        "def ok(ctx):\n"
        "    return ctx.rank\n"
        "    yield\n"
        "def crash(ctx):\n"
        "    if ctx.rank == 3:\n"
        "        os._exit(13)\n"
        "    return ctx.rank\n"
        "    yield\n"
        "PdesWorld(4, cores_per_node=1, workers=2).run(ok)\n"
        "try:\n"
        "    PdesWorld(4, cores_per_node=1, workers=2).run(crash)\n"
        "except PdesError:\n"
        "    pass\n"
        "print('done')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[2] / "src"))
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "done" in proc.stdout
    assert "leaked" not in proc.stderr
    assert "resource_tracker" not in proc.stderr
    assert segments() == []
