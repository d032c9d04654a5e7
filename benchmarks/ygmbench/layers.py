"""Per-layer host-time ledger taken from outside the program.

The benchmark may not edit ``src/``, so the trace is a ``cProfile`` run of
one repetition.  Every function's self time is charged to the layer that
owns its source file; the self time of a foreign callee (a built-in,
NumPy/SciPy, the standard library) is charged to its nearest ``repro``
caller along the profiler's caller edges, in proportion to the self time
each edge recorded.  ``cProfile`` taxes every Python call and no native
work, so shares lean toward call-heavy layers: use them to rank layers,
not to subtract seconds.
"""

from __future__ import annotations

import cProfile
import heapq
import os
import pstats
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: The repo's modules, the two big ones (``sim``, ``core``) split by file.
LAYERS = [
    "sim.kernel", "sim.events", "sim.process", "sim.resources", "sim.stores",
    "machine", "mpi", "serde",
    "core.mailbox", "core.coalescing", "core.routing", "core.termination",
    "core.context",
    "graph", "linalg", "apps", "baselines", "exec", "bench", "trace",
]

OTHER = "other"

_SPLIT_FILES = {
    ("sim", "kernel.py"): "sim.kernel",
    ("sim", "errors.py"): "sim.kernel",
    ("sim", "__init__.py"): "sim.kernel",
    ("sim", "events.py"): "sim.events",
    ("sim", "process.py"): "sim.process",
    ("sim", "resources.py"): "sim.resources",
    ("sim", "stores.py"): "sim.stores",
    ("core", "mailbox.py"): "core.mailbox",
    ("core", "coalescing.py"): "core.coalescing",
    ("core", "routing"): "core.routing",
    ("core", "termination.py"): "core.termination",
    # World wiring, configuration and result aggregation.
    ("core", "context.py"): "core.context",
    ("core", "config.py"): "core.context",
    ("core", "stats.py"): "core.context",
    ("core", "__init__.py"): "core.context",
}

_REPRO = os.sep + os.path.join("src", "repro") + os.sep
_HERE = os.path.dirname(os.path.abspath(__file__))
#: Rank programs the benchmark defines itself are applications.
_BENCH_APPS_FILE = os.path.join(_HERE, "workloads.py")
_BENCH_APP_FUNCS = {"rank_main", "on_recv"}

Func = Tuple[str, int, str]


def layer_of(func: Func) -> Optional[str]:
    """The layer owning ``func``'s source file, or ``None`` if foreign."""
    path, _, name = func
    if path == _BENCH_APPS_FILE:
        return "apps" if name in _BENCH_APP_FUNCS else None
    at = path.find(_REPRO)
    if at < 0:
        return None
    parts = path[at + len(_REPRO):].split(os.sep)
    if parts[0] in ("sim", "core"):
        return _SPLIT_FILES.get((parts[0], parts[1]))
    return parts[0] if parts[0] in LAYERS else None


def _label(func: Func) -> str:
    path, line, name = func
    if path == "~":
        return name
    at = path.find(_REPRO)
    short = path[at + len(_REPRO):] if at >= 0 else os.path.basename(path)
    return f"{short}:{line}:{name}"


def profiled(fn: Callable[[], Any]) -> Tuple[Any, float, Dict[Func, tuple]]:
    """Run ``fn`` under cProfile; return its value, the traced wall and
    the raw ``pstats`` table."""
    prof = cProfile.Profile()
    start = time.perf_counter()
    prof.enable()
    try:
        value = fn()
    finally:
        prof.disable()
    wall = time.perf_counter() - start
    return value, wall, pstats.Stats(prof).stats


def attribute(stats: Dict[Func, tuple]) -> Dict[str, Any]:
    """Tile a ``pstats`` table over :data:`LAYERS`.

    Returns ``self_s`` and ``calls`` per layer (plus :data:`OTHER`), the
    ``top`` 15 charged functions of each layer and the caller-layer ->
    callee-layer call-count ``matrix``.
    """
    own = {f: layer_of(f) for f in stats}
    memo: Dict[Func, Dict[str, float]] = {}

    def shares(func: Func, stack: frozenset) -> Dict[str, float]:
        """Layer -> fraction of ``func``'s self time."""
        layer = own.get(func)
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        if func in stack or func not in stats:
            return {}  # a foreign cycle or the profile root: uncharged
        callers = stats[func][4]
        total = sum(edge[2] for edge in callers.values())
        dist: Dict[str, float] = defaultdict(float)
        if total > 0:
            for caller, edge in callers.items():
                for lay, frac in shares(caller, stack | {func}).items():
                    dist[lay] += edge[2] / total * frac
        memo[func] = dict(dist)
        return memo[func]

    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    charged: Dict[str, List[Tuple[float, int, str]]] = defaultdict(list)
    matrix: Dict[str, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for func, (_cc, ncalls, tt, _ct, callers) in stats.items():
        dist = shares(func, frozenset())
        for lay, frac in dist.items():
            self_s[lay] += tt * frac
            charged[lay].append((tt * frac, ncalls, _label(func)))
        rest = tt * (1.0 - sum(dist.values()))
        if rest > 0:
            self_s[OTHER] += rest
            charged[OTHER].append((rest, ncalls, _label(func)))
        layer = own[func]
        if layer is not None:
            calls[layer] += ncalls
            for caller, edge in callers.items():
                matrix[own.get(caller) or OTHER][layer] += edge[0]
    return {
        "self_s": {lay: self_s.get(lay, 0.0) for lay in LAYERS + [OTHER]},
        "calls": {lay: calls.get(lay, 0) for lay in LAYERS},
        "top": {
            lay: [
                {"function": name, "self_s": secs, "calls": n}
                for secs, n, name in heapq.nlargest(15, rows)
            ]
            for lay, rows in charged.items()
        },
        "matrix": {src: dict(dst) for src, dst in matrix.items()},
    }


def calibrate() -> float:
    """Host seconds of a fixed heapq + ``np.argsort`` probe.

    Timed before and after the repetitions: a session whose two readings
    differ by more than a tenth had a host that changed speed under it.
    The fastest of three passes is kept, so that page faults of the first
    pass and a short burst of interference do not read as a speed change.
    """
    import numpy as np

    values = np.random.default_rng(12345).integers(0, 1 << 40, size=1 << 19)
    items = values[: 1 << 15].tolist()
    passes = []
    for _ in range(3):
        start = time.perf_counter()
        heap: List[int] = []
        for v in items:
            heapq.heappush(heap, v)
        while heap:
            heapq.heappop(heap)
        np.argsort(values, kind="stable")
        passes.append(time.perf_counter() - start)
    return min(passes)
