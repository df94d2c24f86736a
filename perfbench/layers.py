"""Which hamparts entry points the traced run wraps, and the per-layer metrics
read off the resulting spans.

Each entry point is wrapped under the name its calling module binds it to, so
a span shows which layer called which.  The benchmark's own calls into the
program go through the bindings in ``workloads`` and are wrapped there.
"""

from __future__ import annotations

from hamparts import conditions, harness, solver
from hamparts.solver import (
    BipartiteDegreeOne,
    ExhaustiveSearch,
    IndependentSetTooLarge,
    SmallCut,
)

import workloads
from tracing import Tracer
from workloads import SHARDS

WITNESS_TYPES = {
    SmallCut: "small_cut",
    IndependentSetTooLarge: "independent_set",
    BipartiteDegreeOne: "bipartite_degree_one",
    ExhaustiveSearch: "exhaustive_search",
}
STATUSES = (conditions.HOLDS, conditions.NOT_APPLICABLE, conditions.VIOLATED)

# name -> (unit, better); the order is the order of BENCHMARK.json.
PER_LAYER = {
    "solver.decide_s": ("s", "lower"),
    "solver.decide_calls": ("count", "lower"),
    "solver.search_s": ("s", "lower"),
    "solver.search_calls": ("count", "lower"),
    "solver.nodes_total": ("count", "lower"),
    "solver.nodes_max": ("count", "lower"),
    "solver.nodes_ham_mean": ("nodes", "lower"),
    "solver.nodes_nonham_mean": ("nodes", "lower"),
    "solver.searches_per_refutation": ("ratio", "lower"),
    "solver.ham_s": ("s", "lower"),
    "solver.ham_calls": ("count", "lower"),
    "solver.find_s": ("s", "lower"),
    "solver.refute_s": ("s", "lower"),
    "solver.witness_s": ("s", "lower"),
    **{f"solver.witness.{kind}": ("count", "lower") for kind in WITNESS_TYPES.values()},
    "solver.witness.none": ("count", "lower"),
    "solver.certify_s": ("s", "lower"),
    "solver.longest_enum_s": ("s", "lower"),
    "solver.longest_enum_calls": ("count", "lower"),
    "graphs.build_s": ("s", "lower"),
    "graphs.encode_s": ("s", "lower"),
    "graphs.decode_s": ("s", "lower"),
    "graphs.components_s": ("s", "lower"),
    "graphs.components_calls": ("count", "lower"),
    "families.recognize_s": ("s", "lower"),
    "harness.enumerate_s": ("s", "lower"),
    "harness.finish_s": ("s", "lower"),
    "harness.self_check_s": ("s", "lower"),
    **{f"harness.shard_s.{i}": ("s", "lower") for i in range(SHARDS)},
    **{f"harness.shard_graphs.{i}": ("count", "lower") for i in range(SHARDS)},
    "harness.shard_imbalance": ("ratio", "lower"),
    "conditions.lemma_s": ("s", "lower"),
    **{f"conditions.status.{status}": ("count", "lower") for status in STATUSES},
    "trace.overhead_s": ("s", "lower"),
}


class LayerStats:
    """Counts gathered by the result hooks of the wrapped entry points."""

    def __init__(self) -> None:
        self.nodes_total = 0
        self.nodes_max = 0
        self.nodes_by_verdict = {True: 0, False: 0}
        self.searches_by_verdict = {True: 0, False: 0}
        self.find_s = 0.0
        self.refute_s = 0.0
        self.refutations = 0
        self.witness = dict.fromkeys([*WITNESS_TYPES.values(), "none"], 0)
        self.status = dict.fromkeys(STATUSES, 0)
        self.shard_s = [0.0] * SHARDS
        self.shard_graphs = [0] * SHARDS

    def on_search(self, result, args, seconds) -> None:
        order, nodes = result
        self.nodes_total += nodes
        if nodes > self.nodes_max:
            self.nodes_max = nodes
        found = order is not None
        self.nodes_by_verdict[found] += nodes
        self.searches_by_verdict[found] += 1

    def on_find(self, result, args, seconds) -> None:
        if result is None:
            self.refute_s += seconds
            self.refutations += 1
        else:
            self.find_s += seconds

    def on_witness(self, result, args, seconds) -> None:
        self.witness[WITNESS_TYPES.get(type(result), "none")] += 1

    def on_lemma(self, result, args, seconds) -> None:
        self.status[result.status] += 1

    def on_shard(self, result, args, seconds) -> None:
        shard_id = args[0][4]
        self.shard_s[shard_id] += seconds
        self.shard_graphs[shard_id] += result["meeting_floor"]


def install(tracer: Tracer) -> LayerStats:
    """Wrap every traced entry point; ``tracer.restore()`` undoes it."""
    stats = LayerStats()
    entry_points = [
        # (span name, hook, [(module, attribute), ...])
        ("harness.shard", stats.on_shard, [(harness, "_run_exhaustive_shard")]),
        ("harness.finish", None, [(harness, "_finish_exhaustive")]),
        ("harness.self_check", None, [(harness, "_self_check")]),
        ("harness.verify", None, [(workloads, "exhaustive_verify")]),
        ("solver.decide", stats.on_search, [(harness, "_ham_search")]),
        ("solver.search", stats.on_search, [(solver, "_ham_search")]),
        (
            "solver.ham",
            stats.on_find,
            [
                (workloads, "find_hamiltonian_cycle"),
                (harness, "find_hamiltonian_cycle"),
                (conditions, "find_hamiltonian_cycle"),
            ],
        ),
        (
            "solver.witness",
            stats.on_witness,
            [(workloads, "non_hamiltonicity_witness"), (harness, "non_hamiltonicity_witness")],
        ),
        ("solver.certify", None, [(workloads, "witness_certifies"), (harness, "witness_certifies")]),
        ("solver.longest_enum", None, [(conditions, "enumerate_longest_cycles")]),
        ("graphs.build", None, [(workloads, "KPartiteGraph"), (harness, "KPartiteGraph")]),
        ("graphs.encode", None, [(harness, "encode")]),
        ("graphs.decode", None, [(harness, "decode")]),
        (
            "graphs.components",
            None,
            [(solver, "connected_components"), (conditions, "connected_components")],
        ),
        ("families.recognize", None, [(harness, "recognize")]),
        ("conditions.lemma", stats.on_lemma, [(workloads, "check_domcycle_lemma")]),
    ]
    for name, hook, bindings in entry_points:
        for module, attr in bindings:
            tracer.patch(module, attr, name, hook)
    return stats


def metrics(tracer: Tracer, stats: LayerStats, overhead_per_call: float) -> dict[str, float]:
    """Every per-layer metric; a layer the workload never calls reads 0."""
    shard_s = stats.shard_s
    mean_shard = sum(shard_s) / SHARDS
    ham_searches = stats.searches_by_verdict[True]
    nonham_searches = stats.searches_by_verdict[False]
    values = {
        "solver.decide_s": tracer.seconds("solver.decide"),
        "solver.decide_calls": tracer.num_calls("solver.decide"),
        "solver.search_s": tracer.seconds("solver.search"),
        "solver.search_calls": tracer.num_calls("solver.search"),
        "solver.nodes_total": stats.nodes_total,
        "solver.nodes_max": stats.nodes_max,
        "solver.nodes_ham_mean": stats.nodes_by_verdict[True] / ham_searches if ham_searches else 0.0,
        "solver.nodes_nonham_mean": (
            stats.nodes_by_verdict[False] / nonham_searches if nonham_searches else 0.0
        ),
        "solver.searches_per_refutation": (
            nonham_searches / stats.refutations if stats.refutations else 0.0
        ),
        "solver.ham_s": tracer.seconds("solver.ham"),
        "solver.ham_calls": tracer.num_calls("solver.ham"),
        "solver.find_s": stats.find_s,
        "solver.refute_s": stats.refute_s,
        "solver.witness_s": tracer.seconds("solver.witness"),
        **{f"solver.witness.{kind}": count for kind, count in stats.witness.items()},
        "solver.certify_s": tracer.seconds("solver.certify"),
        "solver.longest_enum_s": tracer.seconds("solver.longest_enum"),
        "solver.longest_enum_calls": tracer.num_calls("solver.longest_enum"),
        "graphs.build_s": tracer.seconds("graphs.build"),
        "graphs.encode_s": tracer.seconds("graphs.encode"),
        "graphs.decode_s": tracer.seconds("graphs.decode"),
        "graphs.components_s": tracer.seconds("graphs.components"),
        "graphs.components_calls": tracer.num_calls("graphs.components"),
        "families.recognize_s": tracer.seconds("families.recognize"),
        "harness.enumerate_s": tracer.self_seconds("harness.shard", overhead_per_call),
        "harness.finish_s": tracer.seconds("harness.finish"),
        "harness.self_check_s": tracer.seconds("harness.self_check"),
        **{f"harness.shard_s.{i}": s for i, s in enumerate(shard_s)},
        **{f"harness.shard_graphs.{i}": g for i, g in enumerate(stats.shard_graphs)},
        "harness.shard_imbalance": max(shard_s) / mean_shard if mean_shard else 0.0,
        "conditions.lemma_s": tracer.self_seconds("conditions.lemma", overhead_per_call),
        **{f"conditions.status.{status}": count for status, count in stats.status.items()},
        "trace.overhead_s": overhead_per_call * tracer.span_count(),
    }
    assert list(values) == list(PER_LAYER)
    return values
