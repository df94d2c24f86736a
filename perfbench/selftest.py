"""Reduced-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at a small size through the benchmark's own code, timed
and traced.  Checks that the frozen answers pass the correctness gate, that
each run emits exactly the metrics BENCHMARK.json names, that the gate trips
when one verdict is corrupted inside the benchmark, and that the traced run's
accounting check trips on work outside the spans it accounts for.  Takes about
ten seconds.
"""

from __future__ import annotations

import json
import sys
import time

import run

sys.path.insert(0, str(run.SRC))

import layers  # noqa: E402
import workloads  # noqa: E402
from hamparts.conditions import HOLDS, NOT_APPLICABLE, VIOLATED, DomCycleOutcome  # noqa: E402


def reduced() -> dict:
    return {
        "characterize-8-2": workloads.Characterize(
            n=8,
            k=2,
            floor=2,
            counters={
                "graphs_enumerated": 65_536,
                "graphs_above_threshold": 7_343,
                "hamiltonian_found": 6_593,
                "witnesses_found": 750,
            },
            tally={None: 750},
            digest="f5189e5a8d8b3e9ffe8cdec2658bdecfc5bfc4dc3f2c8420cebe62fb837562e8",
            characterization=False,
        ),
        "decide-sparse-36": workloads.DecideSparse(
            graphs=36,
            verdicts={"hamiltonian": 22, "ExhaustiveSearch": 12, "SmallCut": 2},
        ),
        "domlemma-6": workloads.DomLemma(
            n=6, statuses={HOLDS: 1_858, NOT_APPLICABLE: 0, VIOLATED: 0}
        ),
    }


def _corrupt_sweep(sweep):
    """The sweep's report with one non-Hamiltonian graph counted as Hamiltonian."""

    def corrupted(*args, **kwargs):
        report = sweep(*args, **kwargs)
        report.exceptional.pop()
        report.counters["hamiltonian_found"] += 1
        return report

    return corrupted


def _corrupt_find(find):
    """Reports no cycle for the first Hamiltonian graph."""
    spent = []

    def corrupted(g):
        cycle = find(g)
        if cycle is not None and not spent:
            spent.append(g)
            return None
        return cycle

    return corrupted


def _corrupt_lemma(lemma):
    """Reports the first graph as a violation of the lemma."""
    spent = []

    def corrupted(g):
        outcome = lemma(g)
        if not spent:
            spent.append(g)
            return DomCycleOutcome(VIOLATED)
        return outcome

    return corrupted


def _untraced_work(sweep):
    """Each shard sweep with 50 ms of work outside the spans the traced run
    wraps inside it, which the trace accounting check must catch."""

    def slowed(*args, **kwargs):
        time.sleep(0.05)
        return sweep(*args, **kwargs)

    return slowed


CORRUPTIONS = {
    "characterize-8-2": ("exhaustive_verify", _corrupt_sweep),
    "decide-sparse-36": ("find_hamiltonian_cycle", _corrupt_find),
    "domlemma-6": ("check_domcycle_lemma", _corrupt_lemma),
}


def main() -> int:
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    end_to_end = [metric["name"] for metric in spec["end_to_end"]]
    per_layer = [metric["name"] for metric in spec["per_layer"]]
    assert end_to_end == list(run.END_TO_END), end_to_end
    assert per_layer == list(layers.PER_LAYER), per_layer
    for name in reduced():
        for trace, expected in ((False, end_to_end), (True, per_layer)):
            result = run.measure(reduced()[name], f"selftest-{name}", 1, 0.0, trace)
            assert result["correct"] and result["failed"] == 0, (name, trace, result)
            assert list(result["metrics"]) == expected, (name, trace)
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
            print(f"ok   {name} trace={int(trace)} attempted={result['attempted']}")
        attr, corrupt = CORRUPTIONS[name]
        original = getattr(workloads, attr)
        setattr(workloads, attr, corrupt(original))
        try:
            result = run.measure(reduced()[name], f"selftest-{name}", 1, 0.0, False)
        finally:
            setattr(workloads, attr, original)
        assert not result["correct"] and result["failed"] >= 1, (name, result)
        print(f"ok   {name} gate trips on a corrupted verdict ({result['failed']} checks)")
    original = workloads.exhaustive_verify
    workloads.exhaustive_verify = _untraced_work(original)
    try:
        result = run.measure(reduced()["characterize-8-2"], "selftest-accounting", 1, 0.0, True)
    finally:
        workloads.exhaustive_verify = original
    assert not result["correct"] and result["failed"] == 1, result
    print("ok   characterize-8-2 trace accounting trips on untraced work")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
