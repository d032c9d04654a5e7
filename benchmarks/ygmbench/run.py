#!/usr/bin/env python3
"""ygmbench: end-to-end and per-layer host-time benchmark of the serial YGM stack.

    python3 benchmarks/ygmbench/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace [0|1]] [--selftest] [--smoke] [--out DIR]

One run = one workload in one fresh child process (``PYTHONHASHSEED=0``,
``PYTHONPATH=src``): imports -> build inputs (``setup_s``) -> one untimed
warm-up repetition -> timed repetitions for ``--seconds``, each a fresh
world on the same inputs with ``gc.collect()`` before the clock starts.
Every metric is printed as a ``workload metric value unit`` line; the last
line of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``).  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from layers import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Scratch space inside the checkout (result caches of ``sweep_cli``, TMPDIR).
WORK = ROOT / ".ygmbench-work"

NAMES = [
    "degree_bulk", "degree_packets", "cc_delegates",
    "scalar_rpc", "spmv_setup", "sweep_cli",
]
SWEEP_CLI = "sweep_cli"

#: name -> (unit, better, bound).  The bound is the share by which a metric
#: may worsen before it counts as a regression, and the A/A agreement bound.
#: Host-time bounds are about three times the widest run-to-run spread
#: (quartile distance over the median of ten runs) seen on the shared host,
#: capped at the 0.25 the driver's contract allows.
END_TO_END = {
    "wall_s": ("s", "lower", 0.25),
    "msgs_per_s": ("1/s", "higher", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.10),
    "sim_s": ("s", "lower", 0.05),
}

SETUP_LAYERS = ["graph", "linalg", "baselines"]

#: Counters read from public results; exact unless marked otherwise below.
COUNTERS = {
    "sim.events": "count",
    "sim.events_per_msg": "ratio",
    "machine.remote_packets": "count",
    "machine.local_packets": "count",
    "machine.remote_bytes": "B",
    "machine.local_bytes": "B",
    "machine.nic_tx_busy_sim_s": "s",
    "machine.nic_rx_busy_sim_s": "s",
    "core.mailbox.msgs_sent": "count",
    "core.mailbox.msgs_delivered": "count",
    "core.mailbox.entries_forwarded": "count",
    "core.mailbox.entries_combined": "count",
    "core.mailbox.hops_per_msg": "ratio",
    "core.mailbox.bcasts": "count",
    "core.mailbox.bcast_deliveries": "count",
    "core.mailbox.idle_sim_s": "s",
    "core.coalescing.flushes": "count",
    "core.coalescing.avg_remote_packet_bytes": "B",
    "core.coalescing.msgs_per_packet": "ratio",
    "core.termination.rounds": "count",
    "core.context.utilization_mean": "ratio",
    "exec.jobs": "count",
    "exec.cache_hits": "count",
}
#: Host-time figures of the traced run; never exact.
HOST_TIMES = {
    "sim.host_us_per_event": "us",
    "core.mailbox.host_us_per_msg": "us",
    "bench.import_s": "s",
    "profile.other_self_s": "s",
    "profile.coverage": "ratio",
    "profile.overhead_x": "x",
    "host.calib_s": "s",
}


def per_layer_units() -> Dict[str, str]:
    units: Dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
    for layer in SETUP_LAYERS:
        units[f"{layer}.setup_self_s"] = "s"
    units.update(COUNTERS)
    units.update(HOST_TIMES)
    return units


MIN_COVERAGE = 0.95
#: Host seconds one run may spend on repeating its set-up in fresh processes.
SETUP_BUDGET_S = 4.0
CHILD_TIMEOUT_S = 170


# ------------------------------------------------------------------ child

def _counters(sims) -> Dict[str, Any]:
    """Exact counters of one repetition, summed over its simulations."""
    from dataclasses import fields

    ygm = [s.stats for s in sims if s.stats is not None]
    stat = {f.name: sum(getattr(s, f.name) for s in ygm) for f in fields(ygm[0])}
    transport: Dict[str, Any] = {}
    for sim in sims:
        for key, value in sim.transport.items():
            transport[key] = transport.get(key, 0) + value
    events = sum(s.steps for s in sims)
    msgs = stat["app_messages_delivered"] + stat["entries_combined"]
    packets = stat["local_packets_sent"] + stat["remote_packets_sent"]
    util = [u for s in sims if s.utilization for u in s.utilization]
    return {
        "sim_s": sum(s.elapsed for s in sims),
        "msgs": msgs,
        "sim.events": events,
        "sim.events_per_msg": events / msgs,
        "machine.remote_packets": transport["remote_packets"],
        "machine.local_packets": transport["local_packets"],
        "machine.remote_bytes": transport["remote_bytes"],
        "machine.local_bytes": transport["local_bytes"],
        "machine.nic_tx_busy_sim_s": transport["tx_busy"],
        "machine.nic_rx_busy_sim_s": transport["rx_busy"],
        "core.mailbox.msgs_sent": stat["app_messages_sent"],
        "core.mailbox.msgs_delivered": stat["app_messages_delivered"],
        "core.mailbox.entries_forwarded": stat["entries_forwarded"],
        "core.mailbox.entries_combined": stat["entries_combined"],
        "core.mailbox.hops_per_msg": stat["entries_sent"] / stat["app_messages_sent"],
        "core.mailbox.bcasts": stat["bcasts_initiated"],
        "core.mailbox.bcast_deliveries": stat["bcast_deliveries"],
        "core.mailbox.idle_sim_s": stat["idle_time"],
        "core.coalescing.flushes": stat["flushes"],
        "core.coalescing.avg_remote_packet_bytes": (
            stat["remote_bytes_sent"] / max(1, stat["remote_packets_sent"])
        ),
        "core.coalescing.msgs_per_packet": stat["entries_sent"] / max(1, packets),
        "core.termination.rounds": stat["term_rounds"],
        "core.context.utilization_mean": sum(util) / len(util),
        "exec.jobs": 0,
        "exec.cache_hits": 0,
    }


def _timed(fn) -> Tuple[float, Any]:
    gc.collect()
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def child_inprocess(args) -> Dict[str, Any]:
    start = time.perf_counter()
    import layers
    import workloads

    import_s = time.perf_counter() - start
    wl = workloads.WORKLOADS[args.workload]
    shrink = 16 if args.smoke else 1
    doc: Dict[str, Any] = {"import_s": import_s}
    if args.mode == "trace":
        inputs, _, setup_stats = layers.profiled(lambda: wl.setup(args.seed, shrink))
        doc["setup_layers"] = layers.attribute(setup_stats)["self_s"]
    else:
        inputs = wl.setup(args.seed, shrink)
    doc["setup_s"] = [time.time() - args.spawned_at]
    if args.mode == "setup":
        return doc

    calib = [layers.calibrate()]
    wl.run(inputs)  # warm-up: memo tables, lazy imports, allocator
    min_reps = 1 if args.smoke else (2 if args.mode == "trace" else 3)
    seconds = 0.0 if (args.smoke or args.mode == "trace") else args.seconds
    walls: List[float] = []
    reps: List[Tuple[Dict[str, Any], Any]] = []
    deadline = time.perf_counter() + seconds
    # Past the minimum, start a repetition only if the fastest one so far
    # would end inside the window: a run takes the time it was given.
    while len(walls) < min_reps or time.perf_counter() + min(walls) < deadline:
        wall, (sims, output) = _timed(lambda: wl.run(inputs))
        walls.append(wall)
        reps.append((_counters(sims), output))
    if args.mode == "trace":
        (sims, output), traced_wall, stats = layers.profiled(lambda: wl.run(inputs))
        reps.append((_counters(sims), output))
        doc["traced_wall_s"] = traced_wall
        doc["layers"] = layers.attribute(stats)
    calib.append(layers.calibrate())
    # Read before the references are built: they are the checker's memory.
    doc["peak_rss_mb"] = _rss_mb(resource.RUSAGE_SELF)

    counters = reps[0][0]
    problems = []
    if any(c != counters for c, _ in reps[1:]):
        problems.append("nondeterministic: exact counters differ between repetitions")
    attempted = failed = 0
    for c, output in reps:
        expected = inputs.get("expected_msgs", c["core.mailbox.msgs_sent"])
        bad = wl.verify(inputs, output)
        if bad:
            problems.append(bad)
        attempted += expected
        failed += expected if bad else abs(expected - c["msgs"])
    doc.update(
        wall_s=walls, counters=counters, calib_s=calib,
        attempted=attempted, failed=failed, problems=sorted(set(problems)),
    )
    return doc


def child_sweep_cli(args) -> Dict[str, Any]:
    start = time.perf_counter()
    if args.mode == "trace":
        import repro.bench.cli  # noqa: F401  (bench.import_s: start-up imports)
        import repro.bench.fig6  # noqa: F401
        import repro.bench.fig8  # noqa: F401
    import_s = time.perf_counter() - start
    import layers
    import workloads

    shrink = 16 if args.smoke else 1
    calib = [layers.calibrate()]
    pairs = []
    min_pairs = 1 if (args.smoke or args.mode == "trace") else 3
    deadline = time.perf_counter() + (0.0 if min_pairs == 1 else args.seconds)
    while len(pairs) < min_pairs or time.perf_counter() < deadline:
        pairs.append(workloads.cli_pair(args.seed, shrink, str(WORK)))
    doc: Dict[str, Any] = {"import_s": import_s}
    doc["peak_rss_mb"] = _rss_mb(resource.RUSAGE_CHILDREN)
    walls = [p["cold_s"] for p in pairs]
    if args.mode == "trace":
        run = lambda: workloads.cli_inprocess(args.seed, shrink)  # noqa: E731
        walls = [_timed(run)[0]]  # the serial in-process sweep, untraced
        _, doc["traced_wall_s"], stats = layers.profiled(run)
        doc["layers"] = layers.attribute(stats)
        doc["setup_layers"] = {}
    calib.append(layers.calibrate())

    exact = [(p["jobs"], p["cache_hits"], p["sim_s"], p["msgs"]) for p in pairs]
    problems = [p["problem"] for p in pairs if p["problem"]]
    if any(e != exact[0] for e in exact[1:]):
        problems.append("nondeterministic: tables or job counts differ between pairs")
    first = pairs[0]
    counters = dict.fromkeys(COUNTERS, 0)
    counters.update({
        "sim_s": first["sim_s"], "msgs": first["msgs"],
        "exec.jobs": first["jobs"], "exec.cache_hits": first["cache_hits"],
    })
    doc.update(
        setup_s=[warm for p in pairs for warm in p["warm_s"]],
        wall_s=walls, counters=counters, calib_s=calib,
        attempted=sum(max(1, p["jobs"]) for p in pairs),
        failed=sum(max(1, p["jobs"]) for p in pairs if p["problem"]),
        problems=sorted(set(problems)),
    )
    return doc


# ----------------------------------------------------------------- parent

def _spawn(workload: str, mode: str, args) -> Dict[str, Any]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["TMPDIR"] = str(WORK)
    cmd = [
        sys.executable, str(HERE / "run.py"), "--child", mode,
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--spawned-at", repr(time.time()),
    ] + (["--smoke"] if args.smoke else [])
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{workload}: {mode} child exceeded {CHILD_TIMEOUT_S} s")
    lines = out.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"{workload}: {mode} child exited {proc.returncode}")
    return json.loads(lines[-1])


def _summary(samples: List[float]) -> Dict[str, Any]:
    """Fastest, median, p25/p75 and the count; too few samples for a tail."""
    out = {"min": min(samples), "median": statistics.median(samples), "n": len(samples)}
    if len(samples) >= 2:
        q = statistics.quantiles(samples, n=4, method="inclusive")
        out.update(p25=q[0], p75=q[2])
    return out


def measure(workload: str, args) -> Dict[str, Any]:
    """One untraced run: the end-to-end metrics of ``workload``."""
    doc = _spawn(workload, "measure", args)
    setups = doc["setup_s"]
    if workload != SWEEP_CLI and not args.smoke:
        # Set-up includes the imports, so each sample needs its own process:
        # at least 3, up to 5 while they fit the set-up budget.
        while len(setups) < 3 or (len(setups) < 5 and sum(setups) < SETUP_BUDGET_S):
            setups += _spawn(workload, "setup", args)["setup_s"]
    wall = _summary(doc["wall_s"])
    counters = doc["counters"]
    metrics = {
        "wall_s": wall["min"],
        "msgs_per_s": counters["msgs"] / wall["min"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": doc["peak_rss_mb"],
        "sim_s": counters["sim_s"],
    }
    return {
        "workload": workload, "seed": args.seed, "trace": 0,
        "metrics": metrics, "units": {k: v[0] for k, v in END_TO_END.items()},
        "wall_s": wall, "setup_s_samples": setups, "exact": counters,
        "calib_s": doc["calib_s"], "attempted": doc["attempted"],
        "failed": doc["failed"], "problems": doc["problems"],
    }


def trace(workload: str, args) -> Dict[str, Any]:
    """One traced run: the per-layer metrics of ``workload``."""
    doc = _spawn(workload, "trace", args)
    layers, counters = doc["layers"], doc["counters"]
    untraced = min(doc["wall_s"])
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layers["self_s"][layer]
        metrics[f"{layer}.calls"] = layers["calls"][layer]
    for layer in SETUP_LAYERS:
        metrics[f"{layer}.setup_self_s"] = doc["setup_layers"].get(layer, 0.0)
    metrics.update({name: counters[name] for name in COUNTERS})
    coverage = sum(layers["self_s"][lay] for lay in LAYERS) / doc["traced_wall_s"]
    # No simulation counters (``sweep_cli``): no per-event or per-message cost.
    events, msgs = counters["sim.events"], counters["msgs"]
    metrics.update({
        "sim.host_us_per_event": 1e6 * untraced / events if events else 0.0,
        "core.mailbox.host_us_per_msg": 1e6 * untraced / msgs if events else 0.0,
        "bench.import_s": doc["import_s"],
        "profile.other_self_s": layers["self_s"]["other"],
        "profile.coverage": coverage,
        "profile.overhead_x": doc["traced_wall_s"] / untraced,
        "host.calib_s": statistics.median(doc["calib_s"]),
    })
    problems = list(doc["problems"])
    if coverage < MIN_COVERAGE:
        problems.append(f"profile.coverage {coverage:.3f} < {MIN_COVERAGE}")
    exact = {k: v for k, v in metrics.items() if k.endswith(".calls") or k in COUNTERS}
    exact["sim_s"] = counters["sim_s"]
    return {
        "workload": workload, "seed": args.seed, "trace": 1,
        "metrics": metrics, "units": per_layer_units(), "exact": exact,
        "top_functions": layers["top"], "call_matrix": layers["matrix"],
        "calib_s": doc["calib_s"], "attempted": doc["attempted"],
        "failed": doc["failed"], "problems": problems,
    }


def report(res: Dict[str, Any]) -> None:
    """Every metric by name with its unit, one line each."""
    name = res["workload"]
    for metric, value in res["metrics"].items():
        print(f"{name} {metric} {value!r} {res['units'][metric]}")
        if metric == "wall_s":
            for key in ("median", "p25", "p75", "n"):
                if key in res["wall_s"]:
                    unit = "count" if key == "n" else "s"
                    print(f"{name} wall_s.{key} {res['wall_s'][key]!r} {unit}")
    print(f"{name} failed_share {res['failed'] / res['attempted']!r} ratio")
    for problem in res["problems"]:
        print(f"{name} FAILED: {problem}", file=sys.stderr)


def contract(res: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "correct": not res["problems"] and res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {
            k: {"value": v, "unit": res["units"][k]} for k, v in res["metrics"].items()
        },
    }


def run_set(names: List[str], args) -> List[Dict[str, Any]]:
    results = []
    for name in names:
        res = (trace if args.trace else measure)(name, args)
        report(res)
        if args.out:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            suffix = ".trace.json" if args.trace else ".json"
            (out / f"{name}{suffix}").write_text(json.dumps(res, indent=1))
        results.append(res)
    return results


def calib_drift(res: Dict[str, Any]) -> float:
    before, after = res["calib_s"]
    return abs(after - before) / before


def selftest(names: List[str], args) -> int:
    """A/A: two complete sets of runs of the same code must agree."""
    first, second = run_set(names, args), run_set(names, args)
    bad = unusable = False
    for a, b in zip(first, second):
        name = a["workload"]
        if max(calib_drift(a), calib_drift(b)) > 0.10:
            unusable = True
            print(f"{name} host.calib_s drifted by more than 0.10 within a run")
        if a["exact"] != b["exact"] or a["problems"] or b["problems"]:
            bad = True
            print(f"{name} nondeterministic or failed: exact metrics must repeat")
        if args.trace:
            continue
        for metric, (_, _, bound) in END_TO_END.items():
            diff = abs(b["metrics"][metric] - a["metrics"][metric]) / a["metrics"][metric]
            # ``sim_s`` is simulated time: it must repeat exactly.
            limit = 0.0 if metric == "sim_s" else bound
            verdict = "ok" if diff <= limit else "EXCEEDED"
            bad |= diff > limit
            print(f"{name} {metric} A/A diff {diff:.4f} bound {limit} {verdict}")
    if unusable:
        print("session unusable: the host changed speed during the runs")
    print("selftest " + ("FAILED" if bad or unusable else "passed"))
    return 1 if bad or unusable else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES, help="default: all six")
    parser.add_argument("--seed", type=int, default=1, help="default 1; 7 is held out")
    parser.add_argument("--seconds", type=float, default=24.0,
                        help="how long one run measures (BENCHMARK.json: run_seconds)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1), help="per-layer metrics from a traced run")
    parser.add_argument("--selftest", action="store_true",
                        help="run the set twice and compare (first thing on a new host)")
    parser.add_argument("--smoke", action="store_true",
                        help="1/16 size, one repetition: checks the harness, not speed")
    parser.add_argument("--out", metavar="DIR", help="write one JSON per workload")
    parser.add_argument("--child", dest="mode", choices=("measure", "trace", "setup"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.mode:
        child = child_sweep_cli if args.workload == SWEEP_CLI else child_inprocess
        print(json.dumps(child(args)))
        return 0
    if not (SRC / "repro").is_dir():
        print(f"ygmbench: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else NAMES
    WORK.mkdir(exist_ok=True)
    try:
        if args.selftest:
            return selftest(names, args)
        results = run_set(names, args)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    if args.workload:
        print(json.dumps(contract(results[0])))
    else:
        print(json.dumps({r["workload"]: contract(r) for r in results}))
    failed = [r["workload"] for r in results if r["problems"] or r["failed"]]
    if failed:
        print(f"ygmbench: FAILED workloads: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
