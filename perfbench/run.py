"""Benchmark for hamparts: one workload per run, timed or traced.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the program is imported from ``src/`` there.
A timed run (``--trace 0``) repeats passes over the workload until
``--seconds`` have elapsed (at least one pass) and reports the end-to-end
metrics.  A traced run (``--trace 1``) makes one pass with every layer entry
point wrapped and reports the per-layer metrics.  Either prints one
``name = value unit`` line per metric and, as its last line, a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from speed import REF_PROBE_S, speed_probe

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
IMPORT_REPEATS = 15
END_TO_END = {
    # name -> (unit, better)
    "wall_ref_s": ("s", "lower"),
    "graphs_per_ref_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
# How many probe calls the import probe makes on each side of the import.
IMPORT_PROBE_CALLS = 6
# A fresh interpreter times the import, and the speed probe just before and
# after it, in wall time: the import then needs no scaling from outside, and
# time the machine takes away from the process slows both alike.
IMPORT_PROBE = f"""
import sys, time
sys.path.insert(0, {str(HERE)!r})
from speed import REF_PROBE_S, speed_probe

def probe_cost():
    start = time.perf_counter()
    speed_probe()
    return time.perf_counter() - start

costs = [probe_cost() for _ in range({IMPORT_PROBE_CALLS})][1:]
start = time.perf_counter()
import hamparts.harness, hamparts.conditions
took = time.perf_counter() - start
costs = sorted(costs + [probe_cost() for _ in range({IMPORT_PROBE_CALLS})])
print(took / costs[len(costs) // 2] * REF_PROBE_S)
"""
PROBE_INTERVAL = 0.05
PROBE_PAD = 0.25
# Time the traced characterize run may leave outside its shard and finish
# spans besides the wrappers' own cost: argument checks in exhaustive_verify.
ACCOUNTING_SLACK_S = 0.01


class SpeedProbe:
    """Samples how fast the CPU runs for this process during a timed run.

    The machine's speed drifts by tens of percent over seconds when other
    tenants load it, and pass times drift with it.  A background thread runs
    ``speed_probe`` every PROBE_INTERVAL seconds and records its CPU time;
    ``scaled`` divides a step's time by the slowdown seen around it.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        # Keep sampling for PROBE_PAD after the last step, so its window fills.
        self._stop.wait(PROBE_PAD)
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(PROBE_INTERVAL):
            start = time.thread_time()
            speed_probe()
            self.samples.append((time.perf_counter(), time.thread_time() - start))

    def scaled(self, window: tuple[float, float]) -> float:
        """The window's length divided by the slowdown: the mean probe cost
        over ``REF_PROBE_S``, from PROBE_PAD before the window to PROBE_PAD
        after it, so short steps get enough samples."""
        start, end = window
        costs = [cost for at, cost in self.samples if start - PROBE_PAD <= at <= end + PROBE_PAD]
        slowdown = statistics.mean(costs) / REF_PROBE_S if costs else 1.0
        return (end - start) / slowdown


def import_seconds() -> float:
    """Seconds to import the package in a fresh interpreter, at the
    reference speed."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return float(done.stdout.strip().splitlines()[-1])


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus ``workers`` times the largest peak among
    the child processes waited for so far (the pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workers else 0
    return (own + workers * child) / 1024


def timed(workload, seed: int, seconds: float) -> tuple[dict, int, list[str]]:
    """Every time is scaled to the reference speed by the probe's samples
    around it."""
    from workloads import Gate

    def step(fn):
        start = time.perf_counter()
        result = fn()
        return result, (start, time.perf_counter())

    gate = Gate()
    builds, passes, imports = [], [], []
    attempted = 0
    generated = workload.generate(seed)
    inputs = None
    cpus = os.sched_getaffinity(0)
    if not workload.workers:
        # A workload without a pool runs on one thread; keep it and the probe
        # thread on the same CPU, so the probe sees the speed the work gets.
        os.sched_setaffinity(0, {min(cpus)})
    with SpeedProbe() as probe:
        for _ in range(SETUP_REPEATS):
            # Drop the last build first, so two copies are never alive at once.
            # The sweep's recursive closure keeps its visit callback, and with
            # it a domlemma build, alive until the cycle collector runs.
            inputs = None
            gc.collect()
            inputs, window = step(lambda: workload.build(generated))
            builds.append(window)
        began = time.perf_counter()
        while not passes or time.perf_counter() - began < seconds:
            graphs, window = step(lambda: workload.run(inputs, gate))
            attempted += graphs
            passes.append(window)
        peak = peak_rss_mb(workload.workers)
        # The import probes are child processes too; they start after the
        # pool workers' peak is read, so they do not count towards it.
        for _ in range(IMPORT_REPEATS):
            imports.append(import_seconds())
    os.sched_setaffinity(0, cpus)
    wall = statistics.median(end - start for start, end in passes)
    wall_ref = statistics.median(probe.scaled(window) for window in passes)
    print(f"wall_s = {wall} s (raw, median of {len(passes)} passes)")
    print(f"slowdown = {wall / wall_ref}")
    metrics = {
        "wall_ref_s": wall_ref,
        "graphs_per_ref_s": attempted / len(passes) / wall_ref,
        "setup_s": statistics.median(probe.scaled(window) for window in builds)
        + statistics.median(imports),
        "peak_rss_mb": peak,
    }
    return {name: (value, END_TO_END[name][0]) for name, value in metrics.items()}, attempted, gate.failures


def traced(workload, name: str, seed: int) -> tuple[dict, int, list[str]]:
    import layers
    from tracing import Tracer, per_call_overhead
    from workloads import Gate

    inputs = workload.build(workload.generate(seed))
    overhead = per_call_overhead()
    tracer = Tracer()
    stats = layers.install(tracer)
    gate = Gate()
    try:
        start = time.perf_counter()
        attempted = workload.traced_run(inputs, gate)
        total = time.perf_counter() - start
    finally:
        tracer.restore()
    values = layers.metrics(tracer, stats, overhead)
    if tracer.num_calls("harness.verify"):
        # Enumerate + decide (the shard spans) and finish must account for
        # the serial shard total, to within the cost of their wrappers.
        shards = tracer.seconds("harness.verify")
        accounted = tracer.seconds("harness.shard") + tracer.seconds("harness.finish")
        gap = shards - accounted
        allowed = overhead * tracer.num_child_calls("harness.verify") + ACCOUNTING_SLACK_S
        gate.check(
            0 <= gap <= allowed,
            f"shard spans leave {gap:.4f} s of {shards:.3f} s unaccounted (allowed {allowed:.4f} s)",
        )
    tracer.write(OUT / f"trace-{name}")
    print(f"traced_pass_s = {total} s ({tracer.span_count()} spans)", flush=True)
    metrics = {key: (value, layers.PER_LAYER[key][0]) for key, value in values.items()}
    return metrics, attempted, gate.failures


def measure(workload, name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return the result object the benchmark prints."""
    if trace:
        metrics, attempted, failures = traced(workload, name, seed)
    else:
        metrics, attempted, failures = timed(workload, seed, seconds)
    for failure in failures:
        print(f"GATE FAILED: {failure}", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hamparts" / "__init__.py").is_file():
        print(f"hamparts sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    catalogue = workloads.full_workloads()
    if args.workload not in catalogue:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(catalogue)}")
    workload = catalogue[args.workload]
    result = measure(workload, args.workload, args.seed, args.seconds, bool(args.trace))
    for key, metric in result["metrics"].items():
        print(f"{key} = {metric['value']} {metric['unit']}")
    if hasattr(workload, "latency_ms"):
        for key, (value, samples) in workload.latency_ms().items():
            print(f"{key} = {value} ms (n = {samples})")
    print(f"failed_frac = {result['failed'] / result['attempted']}")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
