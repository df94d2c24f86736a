"""Solver: Hamiltonicity decisions, longest cycles, witnesses."""

import hashlib
import json
import random
import time
from collections import Counter
from dataclasses import fields

import pytest

from hamparts import harness, solver
from hamparts.families import build_F2, build_family_F, build_family_F1, build_family_F3
from hamparts.graphs import (
    CycleCertificate,
    GraphError,
    SizeGuardError,
    KPartiteGraph,
    blocks_partition,
    build_graph,
    complete_kpartite,
    decode,
    induced_bipartite,
    is_independent,
    _bits,
    _max_independent,
    _reach,
)
from hamparts.harness import _enumerate_shard, exhaustive_verify
from hamparts.solver import (
    BipartiteDegreeOne,
    ExhaustiveSearch,
    IndependentSetTooLarge,
    SmallCut,
    enumerate_longest_cycles,
    find_hamiltonian_cycle,
    longest_cycle,
    non_hamiltonicity_witness,
    verify_cycle,
    witness_certifies,
    witness_from_payload,
    witness_to_payload,
    _bipartite_degree_one_witness,
    _cut_witness,
    _forced_edge_search,
    _ham_search,
    _independent_part_unions,
    _polynomial_witness,
)
from _util import perm_oracle_hamiltonian, random_graph, random_kpartite


def cycle_graph(n):
    return build_graph(
        n, n, tuple(range(n)), [(i, (i + 1) % n) for i in range(n)]
    )


def test_octahedron_hamiltonian():
    cert = find_hamiltonian_cycle(complete_kpartite(3, 2))
    assert cert is not None and len(cert) == 6


def test_f2_not_hamiltonian():
    assert find_hamiltonian_cycle(build_F2()) is None


def test_cycle_graph_found():
    for n in (3, 5, 8, 13):
        cert = find_hamiltonian_cycle(cycle_graph(n))
        assert cert is not None and len(cert) == n


def test_small_n_rejected():
    g = build_graph(2, 2, (0, 1), [(0, 1)])
    with pytest.raises(GraphError):
        find_hamiltonian_cycle(g)


def _cycle_graph(n):
    return build_graph(n, n, range(n), [(v, (v + 1) % n) for v in range(n)])


def test_size_guard():
    # Each cycle search refuses one vertex past its limit, naming the limit,
    # and decides the n-cycle at the limit.
    for limit, search in (
        (40, find_hamiltonian_cycle),
        (14, longest_cycle),
        (14, enumerate_longest_cycles),
    ):
        with pytest.raises(SizeGuardError, match=rf"n <= {limit}, got {limit + 1}$"):
            search(_cycle_graph(limit + 1))
        assert search(_cycle_graph(limit))
    # The longest-cycle search also stops past its node budget, naming it:
    # K_{6,8} (n = 14) needs 4,617,682 nodes.
    k68 = build_graph(14, 14, range(14), [(a, b) for a in range(6) for b in range(6, 14)])
    with pytest.raises(SizeGuardError, match=r"search guarded at 1000000 nodes$"):
        longest_cycle(k68)


def test_longest_node_budget_covers_both_modes(monkeypatch):
    # K_{3,4} takes 109 nodes to find a longest cycle and 130 to list all
    # 24: a budget one below refuses each mode, and one at it answers.
    k34 = build_graph(7, 7, range(7), [(a, b) for a in range(3) for b in range(3, 7)])
    for nodes, search in ((109, longest_cycle), (130, enumerate_longest_cycles)):
        monkeypatch.setattr(solver, "LONGEST_NODE_LIMIT", nodes - 1)
        with pytest.raises(SizeGuardError, match=rf"guarded at {nodes - 1} nodes$"):
            search(k34)
        monkeypatch.setattr(solver, "LONGEST_NODE_LIMIT", nodes)
        assert len(search(k34)) == (6 if search is longest_cycle else 24)


def test_verify_cycle():
    g = complete_kpartite(2, 2)
    good = CycleCertificate((0, 2, 1, 3))
    assert verify_cycle(g, good)
    assert not verify_cycle(g, CycleCertificate((0, 1, 2, 3)))  # 0-1 same part
    assert not verify_cycle(g, CycleCertificate((0, 2, 0, 3)))  # repeated vertex
    assert not verify_cycle(g, CycleCertificate((0, 2)))  # too short
    assert not verify_cycle(g, CycleCertificate((0, 2, 9, 3)))  # out of range


def _reference_verify_cycle(g, cert):
    """``verify_cycle`` as one loop over the certificate's edges, as it was
    before certificates kept their edge masks."""
    vs = cert.vertices
    if len(vs) < 3 or len(set(vs)) != len(vs):
        return False
    if min(vs) < 0 or max(vs) >= g.n:
        return False
    prev = vs[-1]
    for v in vs:
        if not (g.adj[prev] >> v) & 1:
            return False
        prev = v
    return True


def _certificate_population(rng, g):
    """Certificates for g: its Hamiltonian cycle and copies broken in one
    way each, random vertex sequences and cycles of g's complement."""
    n = g.n
    cycle = find_hamiltonian_cycle(g) if n >= 3 else None
    orders = []
    if cycle is not None:
        vs = list(cycle.vertices)
        orders += [vs, vs[::-1], vs[1:] + vs[:1], vs[:-1]]
        orders.append(vs[:-1] + [vs[0]])  # a repeated vertex
        orders.append(vs[:2])  # too short
        orders.append(vs[:-1] + [-1 - rng.randrange(3)])  # negative
        orders.append(vs[:-1] + [n + rng.randrange(2 * n)])  # out of range
        for _ in range(2):  # two vertices swapped: often an absent edge
            swapped = list(vs)
            i, j = rng.sample(range(n), 2)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            orders.append(swapped)
    for _ in range(6):
        length = rng.randint(0, n + 2)
        orders.append([rng.randrange(-1, n + 2) for _ in range(length)])
        orders.append(rng.sample(range(n), rng.randint(min(n, 3), n)))
    certs = [CycleCertificate(tuple(order)) for order in orders]
    certs += [CycleCertificate(list(order)) for order in orders[:3]]  # from lists
    return certs


def test_verify_cycle_matches_edge_loop():
    rng = random.Random(1919)
    graphs = [complete_kpartite(2, 2), build_F2(), build_family_F(3, 3)]
    for n in range(1, 26):
        k = rng.choice([d for d in range(1, n + 1) if n % d == 0])
        for p in (0.3, 0.6, 0.95):
            graphs.append(random_kpartite(rng, n, k, p))
    def kind(g, cert):
        vs = cert.vertices
        if len(vs) < 3:
            return "short"
        if len(set(vs)) != len(vs):
            return "repeated"
        if min(vs) < 0 or max(vs) >= g.n:
            return "out_of_range"
        return "cycle" if _reference_verify_cycle(g, cert) else "absent_edge"

    certs = []
    checked = Counter()
    for g in graphs:
        own = _certificate_population(rng, g)
        certs += own
        for cert in own:
            assert verify_cycle(g, cert) == _reference_verify_cycle(g, cert), (g.n, cert)
            checked[kind(g, cert)] += 1
    # The same certificates again on graphs of other orders and strides,
    # after their masks were kept at their own graph's stride.
    for g in rng.sample(graphs, 20):
        for cert in rng.sample(certs, 200):
            assert verify_cycle(g, cert) == _reference_verify_cycle(g, cert), (g.n, cert)
            checked[kind(g, cert)] += 1
    assert set(checked) == {"short", "repeated", "out_of_range", "absent_edge", "cycle"}
    assert min(checked.values()) >= 50, checked


def test_cycle_certificate_identity_ignores_kept_masks():
    g = complete_kpartite(2, 3)
    used = CycleCertificate((0, 3, 1, 4, 2, 5))
    assert verify_cycle(g, used) and verify_cycle(complete_kpartite(6, 2), used)
    fresh = CycleCertificate((0, 3, 1, 4, 2, 5))
    assert [f.name for f in fields(CycleCertificate)] == ["vertices"]
    assert used == fresh and hash(used) == hash(fresh)
    assert repr(used) == repr(fresh) == "CycleCertificate(vertices=(0, 3, 1, 4, 2, 5))"
    assert used != CycleCertificate((0, 3, 1, 4, 2))


def test_solver_matches_permutation_oracle():
    rng = random.Random(123)
    for trial in range(400):
        n = rng.randint(3, 8)
        g = random_graph(rng, n, rng.choice([0.2, 0.35, 0.5, 0.65, 0.8]))
        got = find_hamiltonian_cycle(g)
        expected = perm_oracle_hamiltonian(g)
        assert (got is not None) == expected
        if got is not None:
            assert verify_cycle(g, got)


def test_solver_matches_oracle_on_partite_corpus():
    rng = random.Random(321)
    for trial in range(200):
        k = rng.choice([2, 3, 4])
        m = rng.choice([1, 2])
        n = k * m
        if n < 3:
            continue
        g = random_kpartite(rng, n, k, rng.choice([0.4, 0.6, 0.8]))
        assert (find_hamiltonian_cycle(g) is not None) == perm_oracle_hamiltonian(g)


def _sparse_kpartite(rng, n, k, cross_degree, floor):
    """Balanced k-partite graph with expected cross degree ``cross_degree``,
    redrawn until its minimum degree reaches ``floor``."""
    p = cross_degree / (n - n // k)
    while True:
        g = random_kpartite(rng, n, k, p)
        if g.min_degree() >= floor:
            return g


def _search_tree_population():
    """Seeded graphs whose search trees the digest below freezes: every
    balanced (n, k) with 6 <= n <= 20, sparse (some below the degree floor)
    and dense; the F2 member; and sparse n = 24 graphs drawn the way the
    decide-sparse benchmark draws its population."""
    rng = random.Random(20261018)
    graphs = [build_F2()]
    for n in range(6, 21):
        for k in [k for k in range(2, n + 1) if n % k == 0]:
            graphs.extend(_sparse_kpartite(rng, n, k, 3.0, 2) for _ in range(3))
            graphs.append(_sparse_kpartite(rng, n, k, 2.5, 0))
            graphs.extend(random_kpartite(rng, n, k, 0.6) for _ in range(2))
    for i in range(30):
        graphs.append(_sparse_kpartite(rng, 24, (4, 6, 8)[i % 3], 3.0, 2))
    return graphs


# SHA-256 of the (order, nodes) pairs of the reference search.  Any change to
# the start vertex, a prune, a tie-break or the candidate order changes it.
SEARCH_TREE_DIGEST = "76a78131bfca452092eef3765af5238877b4ff9c1591247695a6704fcab36f0c"


def test_search_tree_is_frozen():
    results = [
        _ham_search(g.n, g.adj, _independent_part_unions(g))
        for g in _search_tree_population()
    ]
    hamiltonian = sum(order is not None for order, _ in results)
    assert len(results) == 277 and hamiltonian == 178
    assert sum(nodes for _, nodes in results) == 17_593
    payload = json.dumps([[order and list(order), nodes] for order, nodes in results])
    assert hashlib.sha256(payload.encode()).hexdigest() == SEARCH_TREE_DIGEST


# The first twelve seeds above 27 whose graph, drawn as below, has a search
# tree of 8,000 nodes or more.
HEAVY_TREE_SEEDS = (107, 615, 818, 901, 1037, 1164, 1351, 1449, 1509, 1516, 1530, 1569)


def _heavy_tree_population():
    """Sparse n = 24 graphs drawn the way the decide-sparse benchmark draws
    its population, one from each ``random.Random(seed)``: seeds 0-27 and
    the heavy seeds above.  Seed 26 alone has a tree of 323,284 nodes."""
    seeds = [*range(28), *HEAVY_TREE_SEEDS]
    return [_sparse_kpartite(random.Random(s), 24, (4, 6, 8)[s % 3], 3.0, 2) for s in seeds]


# SHA-256 of the (order, nodes) pairs of the reference search on the heavy
# population.  Repeated search states occur in these trees, so a node count
# that a shortcut gets wrong for a repeated state changes it.
HEAVY_TREE_DIGEST = "88e1520dc1e47f9427a1a7906cec33782d3d47413d480278e648da9c6981570c"


def test_heavy_search_trees_are_frozen():
    results = [
        _ham_search(g.n, g.adj, _independent_part_unions(g)) for g in _heavy_tree_population()
    ]
    assert len(results) == 40
    assert sum(order is not None for order, _ in results) == 17
    assert sum(nodes >= 8_000 for _, nodes in results) == 13
    assert sum(nodes for _, nodes in results) == 567_663
    payload = json.dumps([[order and list(order), nodes] for order, nodes in results])
    assert hashlib.sha256(payload.encode()).hexdigest() == HEAVY_TREE_DIGEST


def _partite_on(rng, part_of, p):
    """Random graph on the given partition, each cross pair an edge with
    probability p."""
    n = len(part_of)
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if part_of[u] != part_of[v] and rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return KPartiteGraph(part_of, adj)


def _part_union_population():
    """Seeded graphs whose part unions the digest below freezes: for every
    balanced (n, k) with 3 <= n <= 14, graphs on the block partition and on
    a shuffled one (singleton parts in shuffled order at k = n), bipartite
    graphs from ``induced_bipartite`` with uneven sides, and graphs on a
    partition with random part sizes."""
    rng = random.Random(20261019)
    graphs = []
    for n in range(3, 15):
        for k in [k for k in range(2, n + 1) if n % k == 0]:
            for _ in range(2):
                p = rng.choice([0.3, 0.6, 0.9])
                graphs.append(random_kpartite(rng, n, k, p))
                shuffled = list(blocks_partition(n, k))
                rng.shuffle(shuffled)
                graphs.append(_partite_on(rng, tuple(shuffled), p))
                a_side = rng.sample(range(n), rng.randint(1, n - 1))
                b_side = [v for v in range(n) if v not in a_side]
                graphs.append(induced_bipartite(random_kpartite(rng, n, k, 0.7), a_side, b_side))
                parts = rng.randint(2, n)
                sizes = list(range(parts)) + [rng.randrange(parts) for _ in range(n - parts)]
                rng.shuffle(sizes)
                graphs.append(_partite_on(rng, tuple(sizes), p))
    return graphs


# SHA-256 of the sorted part unions of the reference greedy, which scans
# the parts largest first with ties by part index.
PART_UNION_DIGEST = "b0c8f72fba051610859717627260733ab5ff6a5c72bffe801e8431e6162f52f6"


def test_part_unions_are_frozen():
    graphs = _part_union_population()
    assert len(graphs) == 208
    assert sum(not g.is_balanced for g in graphs) == 81
    payload = json.dumps([_independent_part_unions(g) for g in graphs])
    assert hashlib.sha256(payload.encode()).hexdigest() == PART_UNION_DIGEST


def test_part_unions_are_maximal_independent_covers():
    for g in _part_union_population():
        unions = _independent_part_unions(g)
        covered = 0
        for mask in unions:
            inside = [p for p in g.part_masks if p & mask]
            assert sum(inside) == mask, "a union is made of whole parts"
            assert is_independent(g, _bits(mask))
            reach = 0
            for v in _bits(mask):
                reach |= g.adj[v]
            for p in g.part_masks:
                assert p & mask or p & reach, "a part outside a union has an edge into it"
            covered |= mask
        assert covered == (1 << g.n) - 1, "every part lies in some union"


def test_longest_cycle_values():
    assert len(longest_cycle(build_F2())) == 6
    assert len(longest_cycle(complete_kpartite(2, 2))) == 4
    tri_pendant = build_graph(4, 4, (0, 1, 2, 3), [(0, 1), (1, 2), (2, 0), (2, 3)])
    assert len(longest_cycle(tri_pendant)) == 3


def test_longest_cycle_acyclic_rejected():
    path = build_graph(3, 3, (0, 1, 2), [(0, 1), (1, 2)])
    with pytest.raises(GraphError, match="no cycle"):
        longest_cycle(path)


def test_longest_cycle_agrees_with_decision():
    rng = random.Random(77)
    for trial in range(120):
        n = rng.randint(3, 9)
        g = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
        ham = find_hamiltonian_cycle(g) is not None
        try:
            longest = len(longest_cycle(g))
        except GraphError:
            assert not ham
            continue
        assert (longest == n) == ham


def test_enumerate_longest_cycles_counts():
    assert len(enumerate_longest_cycles(cycle_graph(6))) == 1
    k4 = complete_kpartite(4, 1)
    assert len(enumerate_longest_cycles(k4)) == 3
    f2_cycles = enumerate_longest_cycles(build_F2())
    assert f2_cycles and all(len(c) == 6 for c in f2_cycles)


def test_enumerate_longest_cycles_complete_count():
    # (n-1)!/2 Hamiltonian cycles in a complete graph.
    k5 = complete_kpartite(5, 1)
    assert len(enumerate_longest_cycles(k5)) == 12


def test_enumerate_longest_cycles_count_guard(monkeypatch):
    # K_7 has 6!/2 = 360 Hamiltonian cycles: a guard below that refuses it,
    # naming the count it reached, and a guard of 360 lists them all.
    k7 = complete_kpartite(7, 1)
    monkeypatch.setattr(solver, "ENUMERATE_COUNT_LIMIT", 359)
    with pytest.raises(SizeGuardError, match=r"guarded at 359 cycles, found 360$"):
        enumerate_longest_cycles(k7)
    monkeypatch.setattr(solver, "ENUMERATE_COUNT_LIMIT", 360)
    assert len(enumerate_longest_cycles(k7)) == 360


def _random_forest(rng, n):
    """Random forest: each vertex after the first joins an earlier one with
    probability 0.85."""
    adj = [0] * n
    for v in range(1, n):
        if rng.random() < 0.85:
            u = rng.randrange(v)
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return KPartiteGraph(tuple(range(n)), adj)


def _longest_cycle_population():
    """Seeded graphs whose longest cycles the digest below freezes: for each
    4 <= n <= 10, two random forests and three random graphs at each of three
    densities, acyclic, Hamiltonian and neither among them."""
    rng = random.Random(20261021)
    graphs = []
    for n in range(4, 11):
        graphs.extend(_random_forest(rng, n) for _ in range(2))
        for p in (0.25, 0.4, 0.6):
            graphs.extend(random_graph(rng, n, p) for _ in range(3))
    return graphs


# SHA-256 of each graph's sorted longest cycles from enumerate_longest_cycles,
# or None where it raises GraphError on an acyclic graph.
LONGEST_CYCLES_DIGEST = "603dc30e2f08ed8bab91e10844595b7565e702d47daa7c246fff680f329ab06a"


def test_longest_cycle_enumeration_is_frozen():
    graphs = _longest_cycle_population()
    rows = []
    for g in graphs:
        try:
            cycles = enumerate_longest_cycles(g)
        except GraphError as exc:
            assert "no cycle" in str(exc)
            rows.append(None)
            continue
        assert len({len(c) for c in cycles}) == 1
        rows.append([list(c.vertices) for c in cycles])
    assert len(rows) == 77
    assert rows.count(None) == 29
    assert sum(bool(r) and len(r[0]) == g.n for r, g in zip(rows, graphs)) == 18
    assert sum(len(r) for r in rows if r) == 1257
    payload = json.dumps(rows)
    assert hashlib.sha256(payload.encode()).hexdigest() == LONGEST_CYCLES_DIGEST


def test_dirac_long_cycle_property():
    # 2-connected with min degree d/2 forces a cycle of length >= d; take
    # d = min(n, 2*delta).
    from hamparts.graphs import vertex_connectivity

    rng = random.Random(55)
    checked = 0
    for trial in range(250):
        n = rng.randint(4, 8)
        g = random_graph(rng, n, rng.choice([0.4, 0.6, 0.8]))
        if vertex_connectivity(g) < 2:
            continue
        delta = g.min_degree()
        d = min(n, 2 * delta)
        if d < 3:
            continue
        assert len(longest_cycle(g)) >= d
        checked += 1
    assert checked > 50


def test_witness_family_f():
    g = build_family_F(3, 2)
    witness = non_hamiltonicity_witness(g)
    assert isinstance(witness, IndependentSetTooLarge)
    assert len(witness.vertices) == (g.n + 1 + 1) // 2
    assert witness_certifies(g, witness)


def test_witness_family_f1():
    g = build_family_F1(4)
    witness = non_hamiltonicity_witness(g)
    assert isinstance(witness, SmallCut)
    assert witness.vertices == frozenset({3})
    assert witness_certifies(g, witness)


def test_witness_family_f3():
    g = build_family_F3(4)
    witness = non_hamiltonicity_witness(g)
    assert isinstance(witness, BipartiteDegreeOne)
    assert witness.vertex == g.meta["y_prime"]
    assert witness_certifies(g, witness)


def test_witness_f2_exhaustive():
    g = build_F2()
    witness = non_hamiltonicity_witness(g)
    assert witness is not None
    assert witness_certifies(g, witness)


def test_witness_none_for_hamiltonian():
    assert non_hamiltonicity_witness(complete_kpartite(3, 2)) is None


def test_witness_small_cut_semantics():
    f2 = build_F2()
    # Removing {0, 3} leaves three components: a valid certificate.
    assert witness_certifies(f2, SmallCut(frozenset({0, 3})))
    # Removing a non-cut pair is not.
    assert not witness_certifies(f2, SmallCut(frozenset({1, 2})))
    octa = complete_kpartite(3, 2)
    assert not witness_certifies(octa, SmallCut(frozenset()))


def test_witness_checkers_reject_bogus():
    g = complete_kpartite(3, 2)
    assert not witness_certifies(g, IndependentSetTooLarge(frozenset({0, 1, 2, 3})))
    assert not witness_certifies(
        g, BipartiteDegreeOne(frozenset({0, 1, 2}), 4)
    )
    assert not witness_certifies(g, ExhaustiveSearch(nodes=10))


def test_witness_checkers_refuse_malformed_vertex_sets():
    # Each witness is a certifying one with a single field spoiled.
    f1 = build_family_F1(4)
    assert witness_certifies(f1, SmallCut(frozenset({3})))
    for vertices in ({3, f1.n}, {3, -1}, set(range(f1.n))):
        assert not witness_certifies(f1, SmallCut(frozenset(vertices))), vertices
    f3 = build_family_F3(4)
    a_side, vertex = frozenset({0, 1, 2, 3}), 6
    assert witness_certifies(f3, BipartiteDegreeOne(a_side, vertex))
    refused = [
        BipartiteDegreeOne(a_side, 3),  # the vertex lies in a_side
        BipartiteDegreeOne(a_side - {3}, vertex),  # a_side is not half
        BipartiteDegreeOne(a_side | {5}, vertex),
        BipartiteDegreeOne(a_side, f3.n),  # the vertex is out of range
        BipartiteDegreeOne(a_side, -1),
        # Half the vertices, and vertex 7 sees only 0 of them, but 6 is
        # joined to 0, 4 and 5: the side is not independent.
        BipartiteDegreeOne(frozenset({0, 4, 5, 6}), 7),
    ]
    for witness in refused:
        assert not witness_certifies(f3, witness), witness


def test_witness_payload_round_trip():
    witnesses = [
        SmallCut(frozenset({3, 0})),
        IndependentSetTooLarge(frozenset({4, 1, 2})),
        BipartiteDegreeOne(frozenset({0, 1, 2, 3}), 6),
        ExhaustiveSearch(nodes=98),
    ]
    for witness in witnesses:
        payload = witness_to_payload(witness)
        assert witness_from_payload(payload) == witness
        assert witness_from_payload(json.loads(json.dumps(payload))) == witness
    assert witness_to_payload(SmallCut(frozenset({3, 0}))) == {
        "type": "small_cut",
        "vertices": [0, 3],
    }
    with pytest.raises(TypeError):
        witness_to_payload(None)
    with pytest.raises(ValueError):
        witness_from_payload({"type": "none"})
    # A set field that is not a list is refused by name, not decoded.
    for payload, name in (
        ({"type": "small_cut", "vertices": 3}, "vertices"),
        ({"type": "independent_set", "vertices": "0 2 4"}, "vertices"),
        ({"type": "bipartite_degree_one", "a_side": {"0": 1}, "vertex": 6}, "a_side"),
    ):
        with pytest.raises(ValueError, match=f"field '{name}' must be a list"):
            witness_from_payload(payload)
    # A payload that is not an object, a missing field, a set element that
    # is not an int and an int field that is not an int are refused too.
    with pytest.raises(ValueError, match="must be a JSON object"):
        witness_from_payload(["small_cut", [0]])
    for payload, match in (
        ({"type": "small_cut"}, "field 'vertices' is missing"),
        ({"type": "bipartite_degree_one", "vertex": 6}, "field 'a_side' is missing"),
        ({"type": "exhaustive_search"}, "field 'nodes' is missing"),
        ({"type": "small_cut", "vertices": ["a"]}, "field 'vertices' must be a list of ints"),
        ({"type": "independent_set", "vertices": [0, 2.0]}, "field 'vertices' must be a list of ints"),
        ({"type": "small_cut", "vertices": [True]}, "field 'vertices' must be a list of ints"),
        (
            {"type": "bipartite_degree_one", "a_side": [0, 1, 2, 3], "vertex": "6"},
            "field 'vertex' must be an int",
        ),
        ({"type": "exhaustive_search", "nodes": "9"}, "field 'nodes' must be an int"),
        ({"type": "exhaustive_search", "nodes": True}, "field 'nodes' must be an int"),
    ):
        with pytest.raises(ValueError, match=match):
            witness_from_payload(payload)


def _count_searches(monkeypatch):
    """Calls of the decision search and of the second decider, by name."""
    calls = {}
    for name in ("_ham_search", "_forced_edge_search"):
        calls[name] = []
        search = getattr(solver, name)

        def counted(*args, name=name, search=search):
            calls[name].append(args)
            return search(*args)

        monkeypatch.setattr(solver, name, counted)
    return calls


def test_one_search_per_graph_before_certification(monkeypatch):
    calls = _count_searches(monkeypatch)
    g = build_F2()
    assert find_hamiltonian_cycle(g) is None
    witness = non_hamiltonicity_witness(g)
    assert isinstance(witness, ExhaustiveSearch)
    assert len(calls["_ham_search"]) == 1
    assert len(calls["_forced_edge_search"]) == 0
    # Certification runs the second decider afresh, every time, and never
    # the decision search.
    assert witness_certifies(g, witness)
    assert witness_certifies(g, witness)
    assert len(calls["_ham_search"]) == 1
    assert len(calls["_forced_edge_search"]) == 2
    # A new object, even an equal one, is searched again.
    assert find_hamiltonian_cycle(g.with_meta(None)) is None
    assert len(calls["_ham_search"]) == 2
    assert len(calls["_forced_edge_search"]) == 2


def test_certification_ignores_the_stored_decision(monkeypatch):
    g = complete_kpartite(2, 3)
    g.decision = (None, 1)
    calls = _count_searches(monkeypatch)
    assert not witness_certifies(g, ExhaustiveSearch(1))
    assert len(calls["_ham_search"]) == 0
    assert len(calls["_forced_edge_search"]) == 1
    assert g.decision == (None, 1)


def test_exhaustive_certification_is_size_guarded():
    g = complete_kpartite(2, 21)
    with pytest.raises(SizeGuardError, match=r"hamiltonian search guarded at n <= 40, got 42"):
        witness_certifies(g, ExhaustiveSearch(1))
    with pytest.raises(SizeGuardError, match=r"hamiltonian search guarded at n <= 40, got 42"):
        find_hamiltonian_cycle(g)


def _witness_population():
    """Seeded graphs whose verdicts and witnesses the digest below freezes:
    the F, F1, F2 and F3 members, every balanced (n, k) with 3 <= n <= 12 at
    three densities, and 200 sparse n = 24 graphs drawn the way the
    decide-sparse benchmark draws its population."""
    rng = random.Random(20261020)
    graphs = [build_F2(), build_family_F(3, 2), build_family_F1(4), build_family_F3(4)]
    for n in range(3, 13):
        for k in [k for k in range(2, n + 1) if n % k == 0]:
            for p in (0.3, 0.5, 0.7):
                graphs.append(random_kpartite(rng, n, k, p))
    for i in range(200):
        graphs.append(_sparse_kpartite(rng, 24, (4, 6, 8)[i % 3], 3.0, 2))
    return graphs


# SHA-256 of each graph's cycle (or None) from find_hamiltonian_cycle, then
# its witness payload (or None) from non_hamiltonicity_witness.
WITNESS_DIGEST = "511069021f525adec689e7560f15ceac683ea00593d7ab9b59cf1492f1c940e0"


def test_witnesses_are_frozen():
    rows = []
    for g in _witness_population():
        cycle = find_hamiltonian_cycle(g)
        witness = non_hamiltonicity_witness(g)
        rows.append([cycle and list(cycle.vertices), witness and witness_to_payload(witness)])
    assert len(rows) == 270
    assert sum(cycle is not None for cycle, _ in rows) == 143
    kinds = Counter(payload["type"] for _, payload in rows if payload)
    assert kinds == {
        "exhaustive_search": 71,
        "small_cut": 52,
        "independent_set": 3,
        "bipartite_degree_one": 1,
    }
    payload = json.dumps(rows)
    assert hashlib.sha256(payload.encode()).hexdigest() == WITNESS_DIGEST


def _reference_cut_witness(g):
    """``_cut_witness`` as the vertex-deletion sweep it once was: sweep the
    whole graph, then the graph minus each vertex in ascending order, and
    stop at the first region that the sweep from its lowest vertex does not
    cover."""
    n, adj = g.n, g.adj
    full = (1 << n) - 1
    for v in range(-1, n):
        region = full if v < 0 else full ^ (1 << v)
        if _reach(adj, region & -region, region) != region:
            return SmallCut(frozenset() if v < 0 else frozenset({v}))
    return None


def _cut_vertex_count(g):
    """How many vertices disconnect g when deleted, by one sweep each."""
    full = (1 << g.n) - 1
    return sum(
        _reach(g.adj, region & -region, region) != region
        for region in (full ^ (1 << v) for v in range(g.n))
    )


def _all_graphs(n):
    """Every labeled simple graph on n vertices, with singleton parts."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for subset in range(1 << len(pairs)):
        adj = [0] * n
        for i, (u, v) in enumerate(pairs):
            if subset >> i & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        yield KPartiteGraph(tuple(range(n)), adj)


def _block_chain(rng, n):
    """Random blocks (cycles and edges) glued in a tree at shared vertices,
    then relabeled at random: a connected graph with several cut vertices
    at random ids."""
    label = list(range(n))
    rng.shuffle(label)
    adj = [0] * n
    used = 1
    while used < n:
        size = min(rng.choice([1, 2, 3, 4]), n - used)
        members = [rng.randrange(used)] + list(range(used, used + size))
        ring = list(zip(members, members[1:] + members[:1])) if size > 1 else [members]
        for a, b in ring:
            adj[label[a]] |= 1 << label[b]
            adj[label[b]] |= 1 << label[a]
        used += size
    return KPartiteGraph(tuple(range(n)), adj)


def test_cut_witness_matches_vertex_deletion_sweep():
    # Every labeled graph on 1 to 6 vertices, then seeded graphs up to
    # n = 40: sparse and dense random graphs, balanced k-partite ones and
    # block chains, disconnected ones and ones with several cut vertices.
    tally = Counter()
    graphs = [g for n in range(1, 7) for g in _all_graphs(n)]
    rng = random.Random(20261019)
    for n in range(7, 41):
        for degree in (1.5, 2.5, 4.0, n / 2):
            graphs.append(random_graph(rng, n, min(1.0, degree / (n - 1))))
        k = rng.choice([k for k in range(2, n + 1) if n % k == 0])
        graphs.append(random_kpartite(rng, n, k, 3.0 / (n - n // k)))
        graphs.extend(_block_chain(rng, n) for _ in range(2))
    for g in graphs:
        got, expected = _cut_witness(g), _reference_cut_witness(g)
        assert got == expected, g
        if got is None:
            tally["none"] += 1
        elif not got.vertices:
            tally["disconnected"] += 1
        else:
            tally["several" if _cut_vertex_count(g) > 1 else "one"] += 1
    assert len(graphs) == 34_105
    assert tally == {"disconnected": 6_479, "none": 11_670, "one": 8_774, "several": 7_182}


def test_witness_soundness_on_random_corpus():
    rng = random.Random(2024)
    found = 0
    for trial in range(300):
        n = rng.randint(3, 8)
        g = random_graph(rng, n, rng.choice([0.2, 0.35, 0.5]))
        witness = non_hamiltonicity_witness(g)
        ham = perm_oracle_hamiltonian(g)
        if witness is None:
            assert ham
        else:
            assert not ham
            assert witness_certifies(g, witness)
            found += 1
    assert found > 50


def test_adding_a_cross_pair_keeps_the_inherited_certificate_facts():
    # The sweep's climb passes a graph's failed cut and independent-set
    # steps on to the graphs made from it by adding a pair.  Adding a cross
    # pair never creates a cut witness, or an independent set on more than
    # n/2 vertices, where there was none, so skipping those steps leaves
    # every witness as the full call gives it.
    rng = random.Random(20261020)
    tally = Counter()
    for _ in range(400):
        n, k = rng.choice([(6, 3), (7, 7), (8, 2), (8, 4), (9, 3), (10, 5), (12, 4)])
        g = random_kpartite(rng, n, k, rng.choice([0.3, 0.5, 0.7]))
        full = (1 << n) - 1
        no_cut = _cut_witness(g) is None
        small_alpha = not _max_independent(g.adj, full, n // 2)[1]
        skip = no_cut + (no_cut and small_alpha)
        absent = [
            (u, v)
            for u in range(n)
            for v in _bits(full ^ g.adj[u] ^ g.part_masks[g.part_of[u]])
            if u < v
        ]
        for u, v in rng.sample(absent, min(3, len(absent))):
            adj = list(g.adj)
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            h = KPartiteGraph(g.part_of, adj)
            if no_cut:
                assert _cut_witness(h) is None, (g, u, v)
            if small_alpha:
                assert not _max_independent(h.adj, full, n // 2)[1], (g, u, v)
            assert _polynomial_witness(h, skip) == _polynomial_witness(h), (g, u, v)
            tally[no_cut, small_alpha] += 1
    # Added pairs by (no cut witness, no independent set over n/2) before.
    assert tally == {
        (False, False): 336,
        (False, True): 318,
        (True, False): 3,
        (True, True): 533,
    }


def test_bipartite_degree_one_step_is_not_monotone():
    # Adding pair (0, 5) creates the witness: the greedy part unions change,
    # and {0, 1, 6, 7} becomes an independent half.  So no graph may pass a
    # failed bipartite step on to the graphs made from it.
    part_of = blocks_partition(8, 4)
    rows = [12, 12, 67, 35, 0, 8, 4, 0]
    assert _bipartite_degree_one_witness(KPartiteGraph(part_of, rows)) is None
    rows[0] |= 1 << 5
    rows[5] |= 1 << 0
    grown = KPartiteGraph(part_of, rows)
    assert _bipartite_degree_one_witness(grown) == BipartiteDegreeOne(frozenset({0, 1, 6, 7}), 4)


def test_second_decider_drops_a_union_that_is_not_independent(monkeypatch):
    # _forced_edge_cycle checks each part union on its mask rather than
    # trusting it: {0, 1, 2} is a part, and 0 and 3 are adjacent.  A union
    # of at most two vertices never prunes, so it is dropped unchecked.
    monkeypatch.setattr(
        solver, "_independent_part_unions", lambda g: [0b11, 0b111, 0b1011, 0b1111]
    )
    offered = []
    search = solver._forced_edge_search
    monkeypatch.setattr(
        solver,
        "_forced_edge_search",
        lambda n, adj, independent: offered.append(independent) or search(n, adj, independent),
    )
    assert solver._forced_edge_cycle(complete_kpartite(3, 3)) is not None
    assert offered == [[0b111]]


def _deciders_agree(g):
    """Whether g is refuted, after checking that the second decider, with and
    without the capacity prune, agrees with the decision search and returns
    genuine cycles."""
    unions = _independent_part_unions(g)
    order, _ = _ham_search(g.n, g.adj, unions)
    for independent in (unions, ()):
        cycle = _forced_edge_search(g.n, g.adj, independent)
        assert (cycle is None) == (order is None), (g, independent)
        if cycle is not None:
            assert len(cycle) == g.n and verify_cycle(g, CycleCertificate(cycle))
    return order is None


def test_second_decider_agrees_on_small_sweeps():
    part_of = blocks_partition(6, 3)
    counts = []
    for floor in range(5):
        graphs = []
        _enumerate_shard(6, 3, floor, 1, 0, lambda sid, adj: graphs.append(tuple(adj)))
        refuted = sum(_deciders_agree(KPartiteGraph(part_of, adj)) for adj in graphs)
        counts.append((len(graphs), refuted))
    assert counts == [(4096, 3511), (2902, 2317), (772, 187), (51, 0), (1, 0)]
    part_of = blocks_partition(8, 2)
    graphs = []
    _enumerate_shard(8, 2, 2, 1, 0, lambda sid, adj: graphs.append(tuple(adj)))
    refuted = sum(_deciders_agree(KPartiteGraph(part_of, adj)) for adj in graphs)
    assert (len(graphs), refuted) == (7343, 750)


def _forced_edge_populations():
    """The second decider's frozen populations, by name: the graphs the
    (8, 4) floor-3 and (8, 2) floor-2 sweeps list, every (8, 4) floor-3
    minimal graph, the orbits of the lex-leaders the walk visits without
    cycle reuse, by descending subset id as a labelled walk visits them, and
    300 sparse n = 24 graphs drawn the way the decide-sparse benchmark draws
    its population."""
    part_of = blocks_partition(8, 4)
    tables = harness._sweep_tables(8, 4)
    leaders = []
    harness._enumerate_minimal(8, 4, 3, lambda sid, adj: leaders.append(sid), tables)
    minimal = [
        KPartiteGraph(part_of, harness._rows(sid, tables))
        for sid in sorted(harness._orbit_closure(leaders, tables), reverse=True)
    ]
    rng = random.Random(31)
    return {
        "listed (8, 4)": [decode(e["graph"]) for e in exhaustive_verify(8, 4, 3).exceptional],
        "listed (8, 2)": [decode(e["graph"]) for e in exhaustive_verify(8, 2, 2).exceptional],
        "minimal (8, 4)": minimal,
        "sparse n = 24": [_sparse_kpartite(rng, 24, (4, 6, 8)[i % 3], 3.0, 2) for i in range(300)],
    }


# (graphs, refuted, SHA-256 of the results) for each population above: the
# second decider's vertex order, or None, taken while it still copied its
# state at every branch.  Any change to the branch order, the branch vertex
# or edge, or the propagation order changes a digest.
FORCED_EDGE_DIGESTS = {
    "listed (8, 4)": (2_312, 2_312, "7ff5d5825c3ee5560b68c85395c0026edc26b8bbf913dc96ac63eaca931e9e2b"),
    "listed (8, 2)": (750, 750, "30b25e311f9513b09c665fc535083009c4ee8baf9642fd2553f965573d153704"),
    "minimal (8, 4)": (26_200, 520, "cbf19fb5d3b27f1eaf610fff50832738ef96ab564fff77260d566162aa4fe846"),
    "sparse n = 24": (300, 113, "c45c343044e8ae5736af562fcd0b726c0a141922598815673df34cf700a0891c"),
}


def test_second_decider_results_are_frozen():
    for name, graphs in _forced_edge_populations().items():
        results = [solver._forced_edge_cycle(g) for g in graphs]
        payload = json.dumps([order and list(order) for order in results])
        digest = hashlib.sha256(payload.encode()).hexdigest()
        refuted = sum(order is None for order in results)
        assert (len(results), refuted, digest) == FORCED_EDGE_DIGESTS[name], name


def test_second_decider_agrees_on_seeded_graphs():
    population = _witness_population()
    assert sum(_deciders_agree(g) for g in population) == 270 - 143
    rng = random.Random(20261101)
    refuted = 0
    for _ in range(2000):
        n = rng.randint(3, 12)
        k = rng.choice([k for k in range(2, n + 1) if n % k == 0])
        refuted += _deciders_agree(random_kpartite(rng, n, k, rng.choice((0.2, 0.35, 0.5, 0.7))))
    assert refuted == 1345


def _non_tough(s, c):
    """An s-clique joined to s + 1 disjoint c-cliques: removing the s-clique
    leaves s + 1 components, so no Hamiltonian cycle."""
    n = s + (s + 1) * c
    edges = [(u, v) for u in range(s) for v in range(u + 1, n)]
    for j in range(s + 1):
        base = s + j * c
        edges += [(base + a, base + b) for a in range(c) for b in range(a + 1, c)]
    return build_graph(n, n, tuple(range(n)), edges)


def test_second_decider_refutes_dense_non_tough_graphs():
    for s, c in ((2, 3), (4, 2)):
        g = _non_tough(s, c)
        assert g.n in (11, 14) and g.min_degree() >= c - 1 + s
        assert _forced_edge_search(g.n, g.adj, _independent_part_unions(g)) is None
        assert witness_certifies(g, ExhaustiveSearch(1))


def test_capacity_prune_refutes_two_parts_without_edges_between_them():
    rng = random.Random(30)
    g = random_kpartite(rng, 30, 3, 0.9)
    adj = list(g.adj)
    for u in range(10):
        for v in range(10, 20):
            adj[u] &= ~(1 << v)
            adj[v] &= ~(1 << u)
    g = KPartiteGraph(g.part_of, adj)
    # Parts 0 and 1 form an independent set of 20 vertices, and the 10
    # vertices of part 2 offer it at most 20 of the 40 cycle edges it needs.
    assert (1 << 20) - 1 in _independent_part_unions(g)
    started = time.perf_counter()
    assert witness_certifies(g, ExhaustiveSearch(1))
    assert time.perf_counter() - started < 1.0


def test_second_decider_rejects_claims_on_hamiltonian_graphs():
    sparse = [g for g in _witness_population()[-20:] if find_hamiltonian_cycle(g) is not None]
    assert len(sparse) >= 5
    for g in [cycle_graph(40), complete_kpartite(4, 10), *sparse]:
        assert not witness_certifies(g, ExhaustiveSearch(1))
