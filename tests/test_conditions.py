"""Condition checkers: bipartite degree test, dominating cycles, diagnostics."""

import hashlib
import json
import random
from collections import Counter
from itertools import combinations, permutations

import pytest

from hamparts import conditions
from hamparts.conditions import (
    HOLDS,
    NOT_APPLICABLE,
    VIOLATED,
    check_domcycle_lemma,
    chvatal_bipartite_condition,
    is_strongly_dominating,
    successor_profile,
)
from hamparts.families import build_F2, build_family_F3
from hamparts.graphs import (
    CycleCertificate,
    GraphError,
    KPartiteGraph,
    SizeGuardError,
    blocks_partition,
    build_graph,
    complete_kpartite,
    induced_bipartite,
)
from hamparts.harness import _enumerate_shard
from hamparts.solver import (
    enumerate_longest_cycles,
    find_hamiltonian_cycle,
    longest_cycle,
    verify_cycle,
)
from _util import random_kpartite


def test_chvatal_complete_bipartite():
    assert chvatal_bipartite_condition(complete_kpartite(2, 4))


def test_chvatal_f3_bipartite_reduction_fails():
    g = build_family_F3(4)
    x_side = g.meta["x_side"]
    y_side = [v for v in range(g.n) if v not in x_side]
    h = induced_bipartite(g, x_side, y_side)
    # The throttled vertex sits on the V side (part 1 of h).
    assert not chvatal_bipartite_condition(h, u_part=0)


def test_chvatal_isolated_vertex_fails():
    g = build_graph(4, 2, (0, 0, 1, 1), [(0, 2)])
    assert not chvatal_bipartite_condition(g)


def test_chvatal_rejects_unbalanced_sides():
    g = complete_kpartite(3, 2)
    h = induced_bipartite(g, [0, 1, 2, 3], [4, 5])
    with pytest.raises(GraphError, match="equal size"):
        chvatal_bipartite_condition(h)


def test_chvatal_implies_hamiltonian_on_corpus():
    rng = random.Random(404)
    positives = 0
    for trial in range(300):
        m = rng.choice([2, 3, 4])
        g = random_kpartite(rng, 2 * m, 2, rng.choice([0.4, 0.6, 0.8, 0.95]))
        for side in (0, 1):
            if chvatal_bipartite_condition(g, u_part=side):
                assert find_hamiltonian_cycle(g) is not None
                positives += 1
                break
    assert positives > 30


def test_strongly_dominating_hamiltonian_cycle():
    g = complete_kpartite(3, 2)
    cert = find_hamiltonian_cycle(g)
    assert is_strongly_dominating(g, cert)


def test_strongly_dominating_f2_six_cycle_fails():
    g = build_F2()
    # The outside pair {6, 7} is joined by an edge, so the 6-cycle on the rim
    # is not strongly dominating.
    assert not is_strongly_dominating(g, CycleCertificate((0, 1, 2, 3, 4, 5)))


def test_strongly_dominating_c4_plus_apex():
    g = build_graph(
        5, 5, (0, 1, 2, 3, 4), [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 2)]
    )
    assert is_strongly_dominating(g, CycleCertificate((0, 1, 2, 3)))
    # Make the outside vertex's neighbours consecutive instead.
    g2 = build_graph(
        5, 5, (0, 1, 2, 3, 4), [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1)]
    )
    assert not is_strongly_dominating(g2, CycleCertificate((0, 1, 2, 3)))


def test_strongly_dominating_invariant_under_rotation_reflection():
    g = build_graph(
        5, 5, (0, 1, 2, 3, 4), [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 2)]
    )
    base = (0, 1, 2, 3)
    results = set()
    for shift in range(4):
        rotated = tuple(base[(i + shift) % 4] for i in range(4))
        results.add(is_strongly_dominating(g, CycleCertificate(rotated)))
        results.add(is_strongly_dominating(g, CycleCertificate(rotated[::-1])))
    assert results == {True}


def test_strongly_dominating_rejects_invalid_cycle():
    g = complete_kpartite(2, 2)
    # An intra-part edge, a repeated vertex, too few vertices.
    for walk in ((0, 1, 2, 3), (0, 2, 1, 2), (0, 2)):
        with pytest.raises(GraphError, match="not a cycle"):
            is_strongly_dominating(g, CycleCertificate(walk))


def _reference_strongly_dominating(g, vertices):
    """The definition, written out with sets: the vertices off the cycle are
    pairwise non-adjacent, and no two cycle-consecutive vertices both have a
    neighbour off the cycle."""
    outside = set(range(g.n)) - set(vertices)
    if any(g.has_edge(a, b) for a, b in combinations(sorted(outside), 2)):
        return False
    touched = {w for z in outside for w in range(g.n) if g.has_edge(z, w)}
    length = len(vertices)
    return not any(
        vertices[i] in touched and vertices[(i + 1) % length] in touched for i in range(length)
    )


def _turns(vertices):
    """Every rotation of the cycle order, in both directions."""
    for order in (vertices, vertices[::-1]):
        for shift in range(len(order)):
            yield order[shift:] + order[:shift]


def test_strongly_dominating_agrees_with_reference_on_the_lemma_graphs(monkeypatch):
    # Every longest cycle the lemma check tests on the n = 7 sweep: those of
    # its 280 non-Hamiltonian 2-connected graphs.
    checked = []

    def enumerate_spy(g):
        cycles = enumerate_longest_cycles(g)
        checked.append((g, cycles))
        return cycles

    monkeypatch.setattr(conditions, "enumerate_longest_cycles", enumerate_spy)
    rows = []
    _enumerate_shard(7, 7, 3, 1, 0, lambda sid, adj: rows.append(tuple(adj)))
    part_of = blocks_partition(7, 7)
    for adj in rows:
        assert check_domcycle_lemma(KPartiteGraph(part_of, adj)).status != VIOLATED
    assert len(checked) == 280
    assert sum(len(cycles) for _, cycles in checked) == 6_720
    for g, cycles in checked:
        for cycle in cycles:
            assert is_strongly_dominating(g, cycle) == _reference_strongly_dominating(g, cycle.vertices)


def test_strongly_dominating_agrees_with_reference_on_random_graphs():
    rng = random.Random(2718)
    verdicts = Counter()
    for _ in range(600):
        n = rng.randint(5, 10)
        g = random_kpartite(rng, n, n, rng.choice([0.25, 0.35, 0.5]))
        try:
            cycles = enumerate_longest_cycles(g)
        except GraphError:
            continue
        for cycle in cycles[:20]:
            expected = _reference_strongly_dominating(g, cycle.vertices)
            for turned in _turns(cycle.vertices):
                assert is_strongly_dominating(g, CycleCertificate(turned)) == expected
            verdicts[expected] += 1
    assert verdicts[True] >= 300 and verdicts[False] >= 150


def test_strongly_dominating_rejects_crafted_cycles():
    # Vertices 6 and 7 lie off the 6-cycle 0-1-2-3-4-5.
    ring = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]
    cycle = CycleCertificate((0, 1, 2, 3, 4, 5))
    # They touch 0, 2 and 4, no two of them in a row.
    apart = build_graph(8, 8, range(8), ring + [(6, 0), (6, 2), (7, 0), (7, 4)])
    assert is_strongly_dominating(apart, cycle)
    # The outside set {6, 7} is not independent.
    joined = build_graph(8, 8, range(8), ring + [(6, 0), (6, 2), (7, 0), (7, 4), (6, 7)])
    # Touched 2 and 3 are consecutive on the cycle, though neither outside
    # vertex alone touches two in a row.
    split = build_graph(8, 8, range(8), ring + [(6, 0), (6, 2), (7, 3)])
    for g in (apart, joined, split):
        for turned in _turns(cycle.vertices):
            assert is_strongly_dominating(g, CycleCertificate(turned)) == (g is apart)


def test_domcycle_lemma_reports_a_non_dominating_longest_cycle(monkeypatch):
    # K_{3,4} is 2-connected, non-Hamiltonian and meets the degree
    # hypothesis; offer it a 4-cycle whose outside set {2, 5, 6} holds the
    # edge 2-5, as if it were a longest cycle.
    k34 = build_graph(7, 7, range(7), [(a, b) for a in (0, 1, 2) for b in (3, 4, 5, 6)])
    square = CycleCertificate((0, 3, 1, 4))
    monkeypatch.setattr(conditions, "enumerate_longest_cycles", lambda g: [square])
    outcome = check_domcycle_lemma(k34)
    assert outcome.status == VIOLATED
    assert outcome.counter_cycle is square


def test_domcycle_lemma_k4():
    assert check_domcycle_lemma(complete_kpartite(4, 1)).status == HOLDS


def test_domcycle_lemma_f2_not_applicable():
    assert check_domcycle_lemma(build_F2()).status == NOT_APPLICABLE


def test_domcycle_lemma_low_degree_not_applicable():
    # C5 is 2-connected but its degree 2 falls below (5+2)/3.
    g = build_graph(
        5, 5, (0, 1, 2, 3, 4), [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    )
    assert check_domcycle_lemma(g).status == NOT_APPLICABLE


def test_domcycle_lemma_size_guard():
    with pytest.raises(SizeGuardError, match="lemma check guarded at n <= 14"):
        check_domcycle_lemma(complete_kpartite(15, 1))


def test_domcycle_lemma_random_sample():
    rng = random.Random(808)
    applicable = 0
    for trial in range(150):
        n = rng.randint(5, 9)
        g = random_kpartite(rng, n, n, rng.choice([0.5, 0.7, 0.9]))
        outcome = check_domcycle_lemma(g)
        assert outcome.status != VIOLATED
        if outcome.status == HOLDS:
            applicable += 1
    assert applicable > 30


# SHA-256 of the JSON list of lemma statuses over every graph on 6 vertices
# with minimum degree >= 3, in enumeration order, as the check returned them
# before it reused cycles.
SWEEP_6_STATUS_DIGEST = "a82e7e5077c336a49dbf1a5b6e769e55a6ef519d33408a7cbdfaef547cab6194"


def test_domcycle_lemma_status_ignores_cycle_reuse():
    rows = []
    _enumerate_shard(6, 6, 3, 1, 0, lambda sid, adj: rows.append(tuple(adj)))
    assert len(rows) == 1_858
    graphs = [KPartiteGraph(blocks_partition(6, 6), adj) for adj in rows]

    def statuses(order, cold=False):
        got = {}
        for i in order:
            if cold:
                conditions._recent_cycles.clear()
            got[i] = check_domcycle_lemma(graphs[i]).status
        return [got[i] for i in range(len(graphs))]

    forward = statuses(range(len(graphs)))
    payload = json.dumps(forward)
    assert hashlib.sha256(payload.encode()).hexdigest() == SWEEP_6_STATUS_DIGEST
    assert statuses(reversed(range(len(graphs)))) == forward
    assert statuses(range(len(graphs)), cold=True) == forward


def test_domcycle_lemma_reuses_cycles_of_same_order_only(monkeypatch):
    found = []
    looked_up = []

    def find_spy(g):
        found.append(g.n)
        return find_hamiltonian_cycle(g)

    class KeptCycles(dict):
        """The kept lists per n, recording which n each check reads."""

        def get(self, n, default=None):
            looked_up.append(n)
            return super().get(n, default)

    monkeypatch.setattr(conditions, "find_hamiltonian_cycle", find_spy)
    monkeypatch.setattr(conditions, "_recent_cycles", KeptCycles())
    # The n = 7 cycle is never offered to the n = 6 octahedron, which is
    # searched; the octahedron's 6-cycle, which lies in K7, is never offered
    # to K7, which reuses its own cycle.
    k7, octahedron = complete_kpartite(7, 1), complete_kpartite(3, 2)
    outcomes, kept = [], []
    for g in (k7, k7, octahedron, k7):
        outcomes.append(check_domcycle_lemma(g))
        kept.append({n: [c for _, c in recent] for n, recent in conditions._recent_cycles.items()})
    # HOLDS carries no cycle, so every call returns the one shared outcome.
    assert all(outcome is outcomes[0] for outcome in outcomes)
    assert outcomes[0].status == HOLDS
    assert found == [7, 6]
    assert looked_up == [7, 7, 6, 7]
    [k7_cycle] = kept[0][7]
    [octahedron_cycle] = kept[2][6]
    assert (len(k7_cycle), len(octahedron_cycle)) == (7, 6)
    assert kept == [{7: [k7_cycle]}] * 2 + [{7: [k7_cycle], 6: [octahedron_cycle]}] * 2


class _Searched(Exception):
    """Raised by a stand-in for the Hamiltonian search: the check missed
    every kept cycle."""


def _refuse_search(g):
    raise _Searched


def _hit(g):
    """True iff the lemma check settles g from a kept cycle, without the
    Hamiltonian search; needs ``_refuse_search`` patched in."""
    try:
        outcome = check_domcycle_lemma(g)
    except _Searched:
        return False
    assert outcome.status == HOLDS
    return True


def test_domcycle_lemma_hit_means_the_kept_cycle_passes_verify_cycle(monkeypatch):
    # Kept cycles are checked when they are stored, so a hit is one AND of a
    # mask; it must agree with ``verify_cycle`` on every graph of the same n
    # that meets the hypotheses, whatever its partition, including graphs
    # that lack some cycle edges.
    monkeypatch.setattr(conditions, "find_hamiltonian_cycle", _refuse_search)
    rng = random.Random(314)
    hits = misses = 0
    for n in range(3, 15):
        for _ in range(6):
            order = list(range(n))
            rng.shuffle(order)
            cycle = CycleCertificate(tuple(order))
            chords = [pair for pair in combinations(range(n), 2) if rng.random() < 0.3]
            ring = list(zip(order, order[1:] + order[:1]))
            conditions._remember_cycle(build_graph(n, n, range(n), chords + ring), cycle)
        kept = [cycle for _, cycle in conditions._recent_cycles[n]]
        for _ in range(60):
            k = rng.choice([k for k in range(2, n + 1) if n % k == 0])
            part_of = blocks_partition(n, k)
            vs = rng.choice(kept).vertices
            edges = [edge for edge in zip(vs, vs[1:] + vs[:1]) if rng.random() < 0.7]
            density = rng.choice([0.5, 0.7, 0.9])
            edges += [pair for pair in combinations(range(n), 2) if rng.random() < density]
            g = build_graph(n, k, part_of, [(u, v) for u, v in edges if part_of[u] != part_of[v]])
            if 3 * g.min_degree() < n + 2:
                continue
            expected = any(verify_cycle(g, cycle) for cycle in kept)
            assert _hit(g) == expected
            hits += expected
            misses += not expected
    assert hits >= 100 and misses >= 100


def test_remember_cycle_refuses_what_is_not_a_hamiltonian_cycle_of_its_graph():
    k7 = complete_kpartite(7, 1)
    seven_cycle = CycleCertificate(tuple(range(7)))
    path = build_graph(7, 7, range(7), [(v, v + 1) for v in range(6)])
    cases = [
        (k7, CycleCertificate((0, 1, 2, 3, 4, 5))),  # a cycle of K7, not spanning
        (k7, CycleCertificate((0, 1, 2, 3, 4, 5, 5))),  # a repeated vertex
        (k7, CycleCertificate((0, 1, 2, 3, 4, 5, 7))),  # a vertex out of range
        (path, seven_cycle),  # the closing edge 6-0 is absent
    ]
    for g, cycle in cases:
        with pytest.raises(GraphError, match="only a Hamiltonian cycle"):
            conditions._remember_cycle(g, cycle)
    assert conditions._recent_cycles == {}
    conditions._remember_cycle(k7, seven_cycle)
    assert conditions._recent_cycles == {7: [(seven_cycle.edge_mask(8), seven_cycle)]}


def test_domcycle_lemma_miss_after_hamiltonian_gets_cold_status():
    left = list(combinations((0, 1, 2, 3), 2))
    right = list(combinations((3, 4, 5, 6), 2))
    k34 = [(a, b) for a in (0, 1, 2) for b in (3, 4, 5, 6)]
    cases = [
        # Two K4 sharing vertex 3: degree 3 meets (7 + 2) / 3, but 3 is a
        # cut vertex.  Every Hamiltonian cycle of the first graph uses 2-4.
        (build_graph(7, 7, range(7), left + right + [(2, 4)]),
         build_graph(7, 7, range(7), left + right), NOT_APPLICABLE),
        # K_{3,4} has no Hamiltonian cycle; its longest cycles dominate.
        (build_graph(7, 7, range(7), k34 + [(3, 4)]),
         build_graph(7, 7, range(7), k34), HOLDS),
        (complete_kpartite(4, 2), build_F2(), NOT_APPLICABLE),
    ]
    # Each ``other`` is non-Hamiltonian, so no kept cycle settles it: its
    # first check is a miss whatever earlier cases kept.
    for hamiltonian, other, cold in cases:
        assert check_domcycle_lemma(other).status == cold
        assert check_domcycle_lemma(hamiltonian).status == HOLDS
        assert check_domcycle_lemma(other).status == cold


def _spy_on_miss_path(monkeypatch):
    """Wraps the three steps a cache miss can take; returns the list each
    call appends its step's name to."""
    calls = []
    for name in ("find_hamiltonian_cycle", "_cut_witness", "enumerate_longest_cycles"):
        step = getattr(conditions, name)

        def spy(g, name=name, step=step):
            calls.append(name)
            return step(g)

        monkeypatch.setattr(conditions, name, spy)
    return calls


def test_domcycle_lemma_hamiltonian_miss_skips_cut_sweep(monkeypatch):
    calls = _spy_on_miss_path(monkeypatch)
    rng = random.Random(909)
    graphs = [complete_kpartite(7, 1), complete_kpartite(3, 2), complete_kpartite(4, 2)]
    graphs += [random_kpartite(rng, n, n, 0.8) for n in range(5, 10) for _ in range(4)]
    hamiltonian_misses = 0
    for g in graphs:
        conditions._recent_cycles.clear()
        calls.clear()
        outcome = check_domcycle_lemma(g)
        if calls and find_hamiltonian_cycle(g) is not None:
            hamiltonian_misses += 1
            assert outcome.status == HOLDS
            assert calls == ["find_hamiltonian_cycle"]
    assert hamiltonian_misses >= 10


def test_domcycle_lemma_cut_vertex_reads_not_applicable(monkeypatch):
    calls = _spy_on_miss_path(monkeypatch)
    # Two K4 sharing vertex 3: degree 3 meets (7 + 2) / 3, but 3 is a cut
    # vertex, so the graph is not Hamiltonian.
    left = list(combinations((0, 1, 2, 3), 2))
    right = list(combinations((3, 4, 5, 6), 2))
    assert check_domcycle_lemma(build_graph(7, 7, range(7), left + right)).status == NOT_APPLICABLE
    assert calls == ["find_hamiltonian_cycle", "_cut_witness"]


def test_domcycle_lemma_non_hamiltonian_two_connected_enumerates(monkeypatch):
    calls = _spy_on_miss_path(monkeypatch)
    # K_{3,4} is 2-connected with degree 3 >= (7 + 2) / 3 and no Hamiltonian
    # cycle; its longest cycles are enumerated and dominate.
    k34 = [(a, b) for a in (0, 1, 2) for b in (3, 4, 5, 6)]
    assert check_domcycle_lemma(build_graph(7, 7, range(7), k34)).status == HOLDS
    assert calls == ["find_hamiltonian_cycle", "_cut_witness", "enumerate_longest_cycles"]


def test_domcycle_lemma_keeps_the_most_recent_cycles_only(monkeypatch):
    monkeypatch.setattr(conditions, "find_hamiltonian_cycle", _refuse_search)
    k7 = complete_kpartite(7, 1)
    orders = [(0, *p) for p in permutations(range(1, 7)) if p[0] < p[-1]]

    def thick(vs):
        """The cycle on ``vs`` plus four chords, which meet every vertex:
        minimum degree 3, enough for the lemma's hypothesis at n = 7."""
        chords = [(vs[0], vs[3]), (vs[1], vs[4]), (vs[2], vs[5]), (vs[2], vs[6])]
        return build_graph(7, 7, range(7), list(zip(vs, vs[1:] + vs[:1])) + chords)

    # The oldest cycle, then the second oldest, which lies in its own graph
    # only, then cycles in neither graph.
    oldest = orders[0]
    second = next(vs for vs in orders if not verify_cycle(thick(oldest), CycleCertificate(vs)))
    old_graph, second_graph = thick(oldest), thick(second)
    rest = [
        vs for vs in orders
        if not verify_cycle(old_graph, CycleCertificate(vs))
        and not verify_cycle(second_graph, CycleCertificate(vs))
    ]
    cycles = [CycleCertificate(vs) for vs in [oldest, second, *rest[: conditions._RECENT_CYCLES - 1]]]
    assert len(cycles) == conditions._RECENT_CYCLES + 1
    assert [c for c in cycles if verify_cycle(old_graph, c)] == [cycles[0]]
    for cycle in cycles:
        conditions._remember_cycle(k7, cycle)
    kept = [cycle for _, cycle in conditions._recent_cycles[7]]
    assert kept == cycles[:0:-1]
    # The oldest is gone, so its graph misses and is searched; the second
    # oldest is still found.
    assert not _hit(old_graph)
    assert _hit(second_graph)
    assert conditions._recent_cycles[7][0][1] == cycles[1]


def test_domcycle_lemma_keeps_each_cycles_own_mask():
    k7 = complete_kpartite(7, 1)
    assert check_domcycle_lemma(k7).status == HOLDS
    [(mask, cycle)] = conditions._recent_cycles[7]
    assert mask is cycle.edge_mask(k7.stride)


def test_successor_profile_c5_plus_outside():
    # 5-cycle plus an outside vertex adjacent to two non-consecutive rim
    # vertices.
    g = build_graph(
        6,
        6,
        (0, 1, 2, 3, 4, 5),
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 0), (5, 2)],
    )
    cycle = CycleCertificate((0, 1, 2, 3, 4))
    profile = successor_profile(g, cycle, 5)
    assert profile.succ_set == frozenset({5, 1, 3})
    assert profile.pred_set == frozenset({5, 4, 1})
    assert len(profile.succ_set) == 3
    assert profile.succ_parts == 3


def test_successor_profile_rejects_on_cycle_vertex():
    g = complete_kpartite(3, 2)
    cert = find_hamiltonian_cycle(g)
    with pytest.raises(GraphError):
        successor_profile(g, cert, cert.vertices[0])


def test_successor_profile_flags_on_longest_cycle():
    # Non-Hamiltonian instances at the degree threshold whose longest cycles
    # are strongly dominating: every diagnostic flag should hold.
    for g in (build_family_F3(4), build_family_F3(6)):
        cycle = longest_cycle(g)
        outside = [v for v in range(g.n) if v not in cycle.vertices]
        assert outside
        for z in outside:
            profile = successor_profile(g, cycle, z)
            assert profile.succ_independent
            assert profile.pred_independent
            assert profile.sets_large_enough
            assert profile.parts_at_least_half
            assert profile.parts_below_upper


def test_successor_profile_flags_detect_f2():
    # The 8-vertex exceptional graph is the one place a longest cycle fails
    # strong domination; the diagnostic records it instead of failing.
    g = build_F2()
    cycle = longest_cycle(g)
    outside = [v for v in range(g.n) if v not in cycle.vertices]
    profile = successor_profile(g, cycle, outside[0])
    assert not profile.succ_independent
    assert not profile.pred_independent
    assert profile.sets_large_enough
