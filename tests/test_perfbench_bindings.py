"""The benchmark's traced run wraps program entry points by name; every
binding it wraps must exist, and restoring must put the originals back.  The
benchmark's reduced self-test must pass against the program as it is."""

import subprocess
import sys
from pathlib import Path

from hamparts import conditions, harness, solver

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_run_bindings_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import tracing
    import workloads

    modules = (harness, solver, conditions, workloads)
    before = [dict(vars(module)) for module in modules]
    tracer = tracing.Tracer()
    try:
        stats = layers.install(tracer)
        # A small sweep through the wrapped shard worker, which reads the
        # shard id from its tuple argument.
        report = workloads.exhaustive_verify(6, 3, shards=workloads.SHARDS)
        assert sum(stats.shard_graphs) == report.counters["graphs_above_threshold"] == 51
        metrics = layers.metrics(tracer, stats, 0.0)
        assert list(metrics) == list(layers.PER_LAYER)
    finally:
        tracer.restore()
    assert [dict(vars(module)) for module in modules] == before


def test_perfbench_selftest_passes():
    # The self-test imports the program from src/ beside perfbench/ and checks
    # its frozen answers, the metric names and that the gates trip.
    result = subprocess.run(
        [sys.executable, str(PERFBENCH / "selftest.py")],
        cwd=PERFBENCH.parent,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stdout[-3000:] + result.stderr[-3000:]
