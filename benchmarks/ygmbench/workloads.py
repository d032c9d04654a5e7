"""The six ygmbench workloads: inputs from a seed, one repetition, its check.

Every workload is a fixed input run to quiescence (the system is a batch
simulator, so there is no arrival process).  The program under test is
driven only through public entry points and receives nothing but the
inputs generated here from ``--seed``.  ``shrink`` divides the input size
(``--smoke`` uses 16); measurements are only meaningful at ``shrink=1``.
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import YgmWorld, bench_machine
from repro.apps import make_connected_components, make_degree_counting
from repro.baselines import (
    gather_combblas_y,
    make_combblas_spmv,
    partition_combblas_problem,
)
from repro.check.sequential import ref_connected_components, ref_degrees, ref_spmv
from repro.graph import (
    GRAPH500_PARAMS,
    CyclicPartition,
    build_delegates,
    er_stream,
    rmat_edges,
    rmat_stream,
    scaled_delegate_threshold,
)
from repro.linalg import make_spmv, partition_spmv_problem
from repro.mpi import World


@dataclass
class Sim:
    """What one simulation of a repetition exposes through public results."""

    elapsed: float
    steps: int
    transport: Dict[str, Any]
    stats: Optional[Any] = None  # MailboxStats of a YGM run
    utilization: Optional[List[float]] = None


def run_ygm(machine, scheme: str, capacity: int, seed: int, program) -> Tuple[Sim, List[Any]]:
    world = YgmWorld(machine, scheme=scheme, seed=seed, mailbox_capacity=capacity)
    res = world.run(program)
    sim = Sim(
        res.elapsed, world.world.sim.steps, res.transport,
        res.mailbox_stats, res.utilization(),
    )
    return sim, res.values


def run_mpi(machine, seed: int, program) -> Tuple[Sim, List[Any]]:
    world = World(machine, seed=seed)
    res = world.run(program)
    return Sim(res.elapsed, world.sim.steps, res.transport), res.values


def gather_cyclic(values: List[np.ndarray], n: int, dtype) -> np.ndarray:
    """Per-rank arrays of owned entries -> one global array."""
    part = CyclicPartition(n, len(values))
    out = np.zeros(n, dtype=dtype)
    for rank, local in enumerate(values):
        out[part.local_vertices(rank)] = local
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``(seed, shrink) -> inputs``; timed as part of ``setup_s``.
    setup: Callable[[int, int], Dict[str, Any]]
    #: ``inputs -> (simulations, output)``; one timed repetition.
    run: Callable[[Dict[str, Any]], Tuple[List[Sim], Any]]
    #: ``(inputs, output) -> problem or None``; the reference is computed
    #: on first use and kept in ``inputs`` (after the timed region).
    verify: Callable[[Dict[str, Any], Any], Optional[str]]


# ------------------------------------------------------------ degree_*

def _degree_workload(name, why, nodes, scheme, capacity, edges_per_rank_log2):
    def setup(seed: int, shrink: int) -> Dict[str, Any]:
        machine = bench_machine(nodes, cores_per_node=4)
        stream = er_stream(
            num_vertices=2**16,
            edges_per_rank=2**edges_per_rank_log2 // shrink,
            seed=seed,
        )
        return {
            "seed": seed,
            "machine": machine,
            "stream": stream,
            "expected_msgs": 2 * stream.edges_per_rank * machine.nranks,
        }

    def run(inp):
        sim, values = run_ygm(
            inp["machine"], scheme, capacity, inp["seed"],
            make_degree_counting(inp["stream"]),
        )
        return [sim], gather_cyclic(values, inp["stream"].num_vertices, np.int64)

    def verify(inp, degrees) -> Optional[str]:
        if "ref" not in inp:
            inp["ref"] = ref_degrees(inp["stream"], inp["machine"].nranks)
        if not np.array_equal(degrees, inp["ref"]):
            return "degree array differs from ref_degrees"
        return None

    return Workload(name, why, setup, run, verify)


# -------------------------------------------------------- cc_delegates

def _cc_setup(seed: int, shrink: int) -> Dict[str, Any]:
    machine = bench_machine(16, cores_per_node=4)
    scale, edges_per_rank = 13, 8192 // shrink
    stream = rmat_stream(scale, edges_per_rank, seed=seed)
    threshold = scaled_delegate_threshold(
        scale, edges_per_rank * machine.nranks,
        GRAPH500_PARAMS[0], GRAPH500_PARAMS[1], fraction=0.05,
    )
    return {"seed": seed, "machine": machine, "stream": stream, "threshold": threshold}


def _cc_run(inp):
    sim, values = run_ygm(
        inp["machine"], "nlnr", 2**12, inp["seed"],
        make_connected_components(
            inp["stream"], delegate_threshold=inp["threshold"], batch_size=2**12
        ),
    )
    labels = gather_cyclic(
        [v.labels for v in values], inp["stream"].num_vertices, np.int64
    )
    return [sim], labels


def same_partition(a: np.ndarray, b: np.ndarray) -> bool:
    """Do two label arrays induce the same partition of the vertices?"""
    ua, ia = np.unique(a, return_inverse=True)
    ub, ib = np.unique(b, return_inverse=True)
    pairs = np.unique(ia.astype(np.int64) * len(ub) + ib)
    return len(ua) == len(ub) == len(pairs)


def _cc_verify(inp, labels) -> Optional[str]:
    if "ref" not in inp:
        inp["ref"] = ref_connected_components(inp["stream"], inp["machine"].nranks)
    if not same_partition(labels, inp["ref"]):
        return "component partition differs from ref_connected_components"
    return None


# ---------------------------------------------------------- scalar_rpc

#: Share of each payload kind in the plan: int, tuple, str, list, dict.
_KIND_WEIGHTS = (0.30, 0.30, 0.15, 0.15, 0.10)


def _rpc_setup(seed: int, shrink: int) -> Dict[str, Any]:
    machine = bench_machine(4, cores_per_node=4)
    nranks, per_rank = machine.nranks, 30_000 // shrink
    rng = np.random.default_rng(seed)
    dests, payloads = [], []
    count = np.zeros(nranks, dtype=np.int64)
    checksum = np.zeros(nranks, dtype=np.int64)
    for rank in range(nranks):
        dest = rng.integers(0, nranks, size=per_rank)
        kind = rng.choice(5, size=per_rank, p=_KIND_WEIGHTS)
        ident = rng.integers(0, 1 << 40, size=per_rank)
        # What the receiver adds to its checksum for each payload kind.
        weight = np.where(kind == 2, 1 + ident % 24, ident)
        np.add.at(count, dest, 1)
        np.add.at(checksum, dest, weight)
        # One tuple in four asks its receiver for an int reply.
        replies = ident[(kind == 1) & (ident & 3 == 0)]
        count[rank] += len(replies)
        checksum[rank] += int(replies.sum())
        plan = []
        for k, i in zip(kind.tolist(), ident.tolist()):
            if k == 0:
                plan.append(i)
            elif k == 1:
                plan.append((i, rank, "rpc"))
            elif k == 2:
                plan.append("x" * (1 + i % 24))
            elif k == 3:
                plan.append([i, i & 0xFF, i >> 20])
            else:
                plan.append({"k": i, "tag": "put", "w": 0.5})
        dests.append(dest.tolist())
        payloads.append(plan)
    return {
        "seed": seed, "machine": machine, "dests": dests, "payloads": payloads,
        "ref": (count, checksum), "expected_msgs": int(count.sum()),
    }


def _rpc_program(dests, payloads):
    def rank_main(ctx):
        state = [0, 0]  # deliveries, checksum

        def on_recv(payload) -> None:
            state[0] += 1
            kind = type(payload)
            if kind is int:
                state[1] += payload
            elif kind is tuple:
                ident = payload[0]
                state[1] += ident
                if ident & 3 == 0:
                    mb.post(payload[1], ident)
            elif kind is str:
                state[1] += len(payload)
            elif kind is list:
                state[1] += payload[0]
            else:
                state[1] += payload["k"]

        mb = ctx.mailbox(recv=on_recv)
        for dest, payload in zip(dests[ctx.rank], payloads[ctx.rank]):
            yield from mb.send(dest, payload)
        yield from mb.wait_empty()
        return tuple(state)

    return rank_main


def _rpc_run(inp):
    sim, values = run_ygm(
        inp["machine"], "node_remote", 2**10, inp["seed"],
        _rpc_program(inp["dests"], inp["payloads"]),
    )
    return [sim], np.array(values, dtype=np.int64).T


def _rpc_verify(inp, got) -> Optional[str]:
    count, checksum = inp["ref"]
    if not np.array_equal(got[0], count):
        return "per-rank delivery counts differ from the plan"
    if not np.array_equal(got[1], checksum):
        return "per-rank payload checksums differ from the plan"
    return None


# ---------------------------------------------------------- spmv_setup

def _spmv_setup(seed: int, shrink: int) -> Dict[str, Any]:
    machine = bench_machine(8, cores_per_node=4)
    nranks = machine.nranks
    scale = 16 - int(np.log2(shrink))
    n, nnz = 1 << scale, 16 << scale
    rng = np.random.default_rng(seed)
    rows, cols = rmat_edges(scale, nnz, rng, params=GRAPH500_PARAMS)
    vals = rng.standard_normal(nnz)
    x = rng.standard_normal(n)
    threshold = scaled_delegate_threshold(
        scale, nnz, GRAPH500_PARAMS[0], GRAPH500_PARAMS[1], fraction=0.05
    )
    delegates = build_delegates(rows, cols, n, threshold)
    ygm = [
        partition_spmv_problem(r, nranks, n, rows, cols, vals, x, delegates)
        for r in range(nranks)
    ]
    combblas = partition_combblas_problem(nranks, n, rows, cols, vals, x)
    return {
        "seed": seed, "machine": machine, "n": n, "coo": (rows, cols, vals, x),
        "ygm": ygm, "combblas": combblas,
    }


def _spmv_run(inp):
    machine, n, seed = inp["machine"], inp["n"], inp["seed"]
    sims, ys = [], {}
    for scheme in ("node_remote", "nlnr"):
        sim, values = run_ygm(machine, scheme, 2**12, seed, make_spmv(inp["ygm"]))
        sims.append(sim)
        ys[scheme] = gather_cyclic([v.y_local for v in values], n, np.float64)
    sim, values = run_mpi(machine, seed, make_combblas_spmv(inp["combblas"]))
    sims.append(sim)
    first = inp["combblas"][0]
    ys["combblas2d"] = gather_combblas_y(values, n, first.pr, first.pc)
    return sims, ys


def _spmv_verify(inp, ys) -> Optional[str]:
    if "ref" not in inp:
        inp["ref"] = ref_spmv(inp["n"], *inp["coo"])
    ref = inp["ref"]
    tol = 1e-9 * float(np.abs(ref).max())
    for impl, y in ys.items():
        if not float(np.abs(y - ref).max()) <= tol:
            return f"{impl} y differs from ref_spmv by more than 1e-9 relative"
    return None


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        _degree_workload(
            "degree_bulk",
            "few large packets: NLNR, capacity 2^12; host work is per message "
            "and vectorised, so mailbox, routing and coalescing changes show here",
            nodes=16, scheme="nlnr", capacity=2**12, edges_per_rank_log2=15,
        ),
        _degree_workload(
            "degree_packets",
            "many small packets: NoRoute, capacity 2^7; host work is per packet "
            "and event, so kernel, NIC and MPI matching changes show here",
            nodes=32, scheme="noroute", capacity=2**7, edges_per_rank_log2=13,
        ),
        Workload(
            "cc_delegates",
            "the slowest macro: broadcasts, handlers that post from inside "
            "delivery and several passes each ended by termination detection",
            _cc_setup, _cc_run, _cc_verify,
        ),
        Workload(
            "scalar_rpc",
            "scalar send/post of mixed Python payloads sized through serde; "
            "the object path that the degree workloads never touch",
            _rpc_setup, _rpc_run, _rpc_verify,
        ),
        Workload(
            "spmv_setup",
            "set-up (graph generation, delegates, partitioning) outweighs the "
            "simulation; only user of MPI collectives and float records",
            _spmv_setup, _spmv_run, _spmv_verify,
        ),
    )
}


# ----------------------------------------------------------- sweep_cli
# What a user types: ``python -m repro.bench`` cold then warm -- interpreter
# start, pool fan-out, result cache and table rendering.

def cli_args(seed: int, shrink: int) -> List[str]:
    figs = ["--fig", "6a"] if shrink > 1 else ["--fig", "6a", "--fig", "8c"]
    return figs + ["--seed", str(seed)]


_POOL_LINE = re.compile(r"\[pool\] (\d+)/(\d+) done, \d+ running, (\d+) cache hits")
_WALL_LINE = "# harness wall-clock"


def _tables(stdout: str) -> str:
    return "\n".join(
        line for line in stdout.splitlines() if not line.startswith(_WALL_LINE)
    )


_FIG6A_TITLE = re.compile(r"== Fig 6a: .*\((\d+) edges/rank, .* C=(\d+),")


def table_totals(stdout: str) -> Tuple[float, int]:
    """Simulated seconds and app messages summed over the printed cells.

    Fig 6a prints no message column: each of its cells sends both
    endpoints of every edge, and its title gives edges/rank and cores.
    """
    sim_s, msgs, columns, per_node = 0.0, 0, [], 0
    for line in stdout.splitlines():
        cells = line.split()
        if line.startswith("== "):
            title = _FIG6A_TITLE.match(line)
            per_node = 2 * int(title[1]) * int(title[2]) if title else 0
            columns = []
        elif cells and cells[0] == "nodes":
            columns = cells
        elif columns and cells and cells[0].isdigit():
            row = dict(zip(columns, cells))
            sim_s += float(row["seconds"])
            if per_node:
                msgs += per_node * int(row["nodes"])
            elif row.get("ygm_messages", "-") != "-":
                msgs += int(row["ygm_messages"])
    return sim_s, msgs


#: Warm runs after each cold one: they are cheap, and ``setup_s`` is their median.
WARM_RUNS = 3


def cli_pair(seed: int, shrink: int, workdir: str) -> Dict[str, Any]:
    """One cold ``python -m repro.bench`` on a fresh cache, then warm ones."""
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=workdir)
    cmd = [
        sys.executable, "-m", "repro.bench", *cli_args(seed, shrink),
        "--jobs", "2", "--cache-dir", cache_dir,
    ]
    try:
        runs = []
        for _ in range(1 + WARM_RUNS):
            start = time.perf_counter()
            proc = subprocess.run(
                cmd, capture_output=True, text=True, timeout=150, cwd=workdir
            )
            runs.append((time.perf_counter() - start, proc))
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    procs = [proc for _, proc in runs]
    cold = procs[0]
    pools = [
        [tuple(map(int, m.groups())) for m in _POOL_LINE.finditer(p.stderr)]
        for p in procs
    ]
    jobs = sum(total for _, total, _ in pools[0])
    problem = None
    if any(p.returncode for p in procs):
        codes = "/".join(str(p.returncode) for p in procs)
        problem = f"exit codes {codes}: {cold.stderr[-300:]}"
    elif any(_tables(p.stdout) != _tables(cold.stdout) for p in procs[1:]):
        problem = "cold and warm tables differ"
    elif not jobs or any(done != total for pool in pools for done, total, _ in pool):
        problem = "pool did not report every job done"
    sim_s, msgs = table_totals(cold.stdout)
    return {
        "cold_s": runs[0][0], "warm_s": [wall for wall, _ in runs[1:]], "jobs": jobs,
        "cache_hits": sum(hits for _, _, hits in pools[1]),
        "sim_s": sim_s, "msgs": msgs, "problem": problem,
    }


def cli_inprocess(seed: int, shrink: int) -> None:
    """The same sweep, serial and uncached, in this process (traced run)."""
    import contextlib
    import io

    from repro.bench.cli import main

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([*cli_args(seed, shrink), "--jobs", "1", "--no-cache"])
    if code:
        raise RuntimeError(f"repro.bench exited {code}")
