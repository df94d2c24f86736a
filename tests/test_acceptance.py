"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  The heaviest case (the full 2^24 sweep classifying the
exceptional 8-vertex graphs) takes a few minutes on two cores.
"""

import os
import random
import time
from collections import Counter

from hamparts import conditions
from hamparts.conditions import (
    HOLDS,
    NOT_APPLICABLE,
    VIOLATED,
    check_domcycle_lemma,
    chvatal_bipartite_condition,
)
from hamparts.families import build_F2, build_family_F
from hamparts.graphs import (
    blocks_partition,
    connected_components,
    decode,
    encode,
    independence_number,
    is_independent,
    vertex_connectivity,
)
from hamparts.harness import (
    _enumerate_shard,
    exhaustive_verify,
    facts_report,
    tightness_scan,
)
from hamparts.graphs import KPartiteGraph
from hamparts.solver import (
    IndependentSetTooLarge,
    find_hamiltonian_cycle,
    longest_cycle,
    witness_certifies,
)
from hamparts.thresholds import (
    check_appendix_facts,
    scan_domcycle_threshold,
    scan_eq4_identity,
    theorem_threshold,
)
from _util import perm_oracle_hamiltonian, random_graph, random_kpartite

JOBS = min(8, os.cpu_count() or 1)


def _report(number: int, label: str, ok: bool, started: float) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"{verdict} criterion {number}: {label} ({time.monotonic() - started:.1f}s)")
    assert ok, f"criterion {number}: {label}"


def test_criterion_01_threshold_anchors():
    started = time.monotonic()
    ok = theorem_threshold(8, 4) == 3
    for n in range(3, 401):
        ok = ok and theorem_threshold(n, n) == (n + 1) // 2
        if n % 2 == 0 and n >= 4:
            ok = ok and theorem_threshold(n, 2) == (n + 2) // 4
    _report(1, "threshold anchors up to n = 400", ok, started)


def test_criterion_02_appendix_scan():
    started = time.monotonic()
    facts = check_appendix_facts(200, 50)
    eq4 = scan_eq4_identity(200, 50)
    dom = scan_domcycle_threshold(200, 50)
    ok = facts.ok and eq4 == [] and dom == [(8, 4)]
    _report(2, "appendix facts, floor identity, long-cycle threshold", ok, started)


def test_criterion_03_exhaustive_6_3():
    started = time.monotonic()
    report = exhaustive_verify(6, 3, 3)
    ok = (
        report.counters["graphs_enumerated"] == 4096
        and report.counterexamples == []
        and report.counters["graphs_above_threshold"]
        == report.counters["hamiltonian_found"]
        == 51
    )
    _report(3, "all (6,3) graphs at the threshold are Hamiltonian", ok, started)


def test_criterion_04_exceptional_8_2():
    started = time.monotonic()
    above = exhaustive_verify(8, 2, 3)
    ok = above.counters["graphs_enumerated"] == 65536
    ok = ok and above.counterexamples == [] and above.counters["hamiltonian_found"] == 209
    at_threshold = exhaustive_verify(8, 2, 2)
    ok = ok and len(at_threshold.exceptional) == 750
    # The threshold-minus-one family member with carve-out sizes (3, 2): its
    # minimum degree is one below the threshold, and it is certified
    # non-Hamiltonian by its designated independent set and by the solver.
    member = build_family_F(2, 4, sizes=(3, 2))
    ok = ok and member.min_degree() == theorem_threshold(8, 2) - 1
    witness = IndependentSetTooLarge(frozenset(member.meta["independent_set"]))
    ok = ok and witness_certifies(member, witness)
    ok = ok and find_hamiltonian_cycle(member) is None
    _report(4, "(8,2): threshold+1 forces a cycle, threshold does not", ok, started)


def test_criterion_05_characterization_8_4():
    started = time.monotonic()
    report = exhaustive_verify(
        8, 4, 3, shards=8, jobs=JOBS, _kind="characterization"
    )
    ok = report.counters["graphs_enumerated"] == 1 << 24
    ok = ok and report.counters["graphs_above_threshold"] == 1393734
    ok = ok and report.counters["hamiltonian_found"] == 1391422
    tally: dict = {}
    for entry in report.exceptional:
        tally[entry["classification"]] = tally.get(entry["classification"], 0) + 1
    ok = ok and tally == {"F1": 744, "F2": 32, "F3": 1536}
    above = exhaustive_verify(8, 4, 4, shards=8, jobs=JOBS)
    ok = ok and above.counterexamples == [] and above.exceptional == []
    ok = ok and above.counters["hamiltonian_found"] == above.counters["graphs_above_threshold"]
    _report(
        5,
        f"(8,4): every non-Hamiltonian graph classifies ({tally}), threshold+1 forces",
        ok,
        started,
    )


def test_criterion_06_tightness():
    started = time.monotonic()
    report = tightness_scan(12, 6)
    ok = report.counterexamples == [] and report.counters["infeasible_specs"] == 0
    ok = ok and report.counters["members_checked"] == report.counters["certificates_valid"]
    ok = ok and report.counters["solver_confirmed"] > 0
    _report(6, "family members sit exactly one below the threshold", ok, started)


def test_criterion_07_f2_structure():
    started = time.monotonic()
    g = build_F2()
    ok = g.edge_count() == 15
    ok = ok and g.min_degree() == 3
    ok = ok and independence_number(g) == 3
    ok = ok and vertex_connectivity(g) == 2
    ok = ok and len(longest_cycle(g)) == 6
    ok = ok and find_hamiltonian_cycle(g) is None
    ok = ok and len(connected_components(g, removed=(1 << 0) | (1 << 3))) == 3
    _report(7, "the 8-vertex exceptional graph has its stated invariants", ok, started)


def test_criterion_08_dominating_cycle_lemma(monkeypatch):
    started = time.monotonic()
    violations = 0
    small = Counter()
    searches = Counter()

    def counted_search(g):
        searches[g.n] += 1
        return find_hamiltonian_cycle(g)

    monkeypatch.setattr(conditions, "find_hamiltonian_cycle", counted_search)
    # The lemma check keeps cycles in module state, and the autouse fixture
    # in conftest.py starts every test with none, so the search count below
    # does not depend on the tests run before.
    # Exhaustive over all graphs on n <= 7 meeting the degree hypothesis.
    for n in range(3, 8):
        floor = -((-(n + 2)) // 3)
        part_of = blocks_partition(n, n)
        outcomes = []

        def visit(sid, adj):
            outcomes.append(tuple(adj))

        _enumerate_shard(n, n, floor, 1, 0, visit)
        for adj in outcomes:
            small[check_domcycle_lemma(KPartiteGraph(part_of, adj)).status] += 1
    # The graphs no kept cycle settled: 1, 3, 6, 39 and 622 for n = 3..7.
    sweep_searches = sum(searches.values())
    # Plus seeded random graphs at n in {8, 9, 10}.
    rng = random.Random(20240 + 8)
    trials = 100_000
    produced = 0
    while produced < trials:
        n = 8 + produced % 3
        g = random_graph(rng, n, rng.choice([0.55, 0.7, 0.85]))
        produced += 1
        if g.min_degree() < 4:
            continue
        result = check_domcycle_lemma(g)
        if result.status == VIOLATED:
            violations += 1
    # The README's count of graphs with n <= 7, and their statuses.
    ok = (
        violations == 0
        and sweep_searches == 671
        and sum(small.values()) == 238_821
        and small == Counter({HOLDS: 238_751, NOT_APPLICABLE: 70, VIOLATED: 0})
    )
    _report(8, "no longest cycle fails strong domination", ok, started)


def test_criterion_09_chvatal_oracle_pairing():
    started = time.monotonic()
    rng = random.Random(909)
    trials = 100_000
    positives = 0
    bad = 0
    for trial in range(trials):
        m = 2 + trial % 6  # sides of 2..7, so n <= 14
        g = random_kpartite(rng, 2 * m, 2, rng.choice([0.35, 0.55, 0.75, 0.95]))
        if chvatal_bipartite_condition(g, u_part=trial % 2):
            positives += 1
            if find_hamiltonian_cycle(g) is None:
                bad += 1
    ok = bad == 0 and positives > 1000
    _report(
        9,
        f"degree test implies Hamiltonicity ({positives} positives of {trials})",
        ok,
        started,
    )


def test_criterion_10_solver_permutation_oracle():
    started = time.monotonic()
    rng = random.Random(1010)
    disagreements = 0
    for trial in range(10_000):
        n = 3 + trial % 6  # n in 3..8
        g = random_graph(rng, n, rng.choice([0.2, 0.35, 0.5, 0.65, 0.8]))
        if (find_hamiltonian_cycle(g) is not None) != perm_oracle_hamiltonian(g):
            disagreements += 1
    ok = disagreements == 0
    _report(10, "solver matches the permutation oracle on 10^4 graphs", ok, started)
