"""Extremal families: construction invariants, recognition, determinism."""

import hashlib
import itertools
import random
from collections import Counter

import pytest

from hamparts import families
from hamparts.families import (
    FamilySpec,
    build_F2,
    build_family_F,
    build_family_F1,
    build_family_F3,
    default_sizes,
    recognize,
)
from hamparts.graphs import (
    GraphError,
    KPartiteGraph,
    SizeGuardError,
    blocks_partition,
    build_graph,
    connected_components,
    complete_kpartite,
    cross_pairs,
    decode,
    degree_between,
    encode,
    independence_number,
    induced_bipartite,
    is_independent,
    vertex_connectivity,
)
from hamparts.harness import exhaustive_verify
from hamparts.solver import find_hamiltonian_cycle, non_hamiltonicity_witness
from hamparts.thresholds import theorem_threshold
from _util import perm_oracle_hamiltonian, random_kpartite


# -- family F ------------------------------------------------------------


def test_default_sizes_examples():
    assert default_sizes(2, 4) == (3, 2)
    assert default_sizes(4, 3) == (3, 2, 2)


def test_family_f_small_bipartite():
    g = build_family_F(2, 4)
    assert g.min_degree() == theorem_threshold(8, 2) - 1 == 1
    assert independence_number(g) == 5
    assert find_hamiltonian_cycle(g) is None


def test_family_f_4_parts():
    g = build_family_F(4, 3)
    assert g.min_degree() == theorem_threshold(12, 4) - 1 == 4


def test_family_f_singleton_parts():
    for n in (5, 8, 11):
        g = build_family_F(n, 1)
        designated = g.meta["independent_set"]
        assert len(designated) == (n + 2) // 2
        assert is_independent(g, designated)
        assert 2 * len(designated) > n


def test_family_f_degree_and_certificate_grid():
    for k in range(2, 9):
        for m in range(1, 5):
            n = m * k
            if n < 3:
                continue
            g = build_family_F(k, m)
            assert g.min_degree() == theorem_threshold(n, k) - 1, (k, m)
            designated = g.meta["independent_set"]
            assert len(designated) == (n + 2) // 2
            assert is_independent(g, designated)


def test_family_f_rejects_bad_sizes():
    with pytest.raises(GraphError, match="nonincreasing"):
        build_family_F(2, 4, sizes=(2, 3))
    with pytest.raises(GraphError, match="sum"):
        build_family_F(2, 4, sizes=(4, 2))
    with pytest.raises(GraphError, match="smallest"):
        build_family_F(2, 4, sizes=(4, 1))
    with pytest.raises(GraphError, match="exceed"):
        build_family_F(4, 1, sizes=(2, 1, 1))


def test_family_f_custom_sizes():
    g = build_family_F(4, 3, sizes=(3, 2, 2))
    assert g.min_degree() == theorem_threshold(12, 4) - 1


def _family_f_by_pairs(k, m, sizes):
    # Reference: every cross pair, less those joining two carved vertices.
    n = m * k
    carved = [v for i, size in enumerate(sizes) for v in range(i * m, i * m + size)]
    edges = [(u, v) for u, v in cross_pairs(n, k) if not (u in carved and v in carved)]
    meta = {"family": "F", "independent_set": tuple(carved)}
    return build_graph(n, k, blocks_partition(n, k), edges, meta)


def test_family_f_rows_match_the_pair_filter():
    non_default = 0
    for k in range(2, 9):
        for m in range(1, 8):
            if m * k < 3:
                continue
            groups = (k + 2) // 2
            target = (m * k + 2) // 2
            # Every admissible carve-out, the default one among them.
            for sizes in itertools.combinations_with_replacement(range(m, -1, -1), groups):
                if sum(sizes) != target or sizes[-1] != target // groups:
                    continue
                g = build_family_F(k, m, sizes)
                ref = _family_f_by_pairs(k, m, sizes)
                assert (g.part_of, g.adj, g.meta) == (ref.part_of, ref.adj, ref.meta)
                non_default += sizes != default_sizes(k, m)
    assert non_default == 5


# -- family F1 -----------------------------------------------------------


def test_family_f1_maximal():
    for k in (3, 4, 6):
        g = build_family_F1(k)
        assert g.n == 2 * k
        assert g.min_degree() == k - 1
        assert vertex_connectivity(g) <= 1
        if k % 2 == 0:
            assert find_hamiltonian_cycle(g) is None


def test_family_f1_hub_is_cut_vertex():
    g = build_family_F1(4)
    hub = g.meta["cut_vertex"]
    assert len(connected_components(g, removed=1 << hub)) > 1


def test_family_f1_with_omissions():
    g = build_family_F1(4, yy_missing=((0, 1),))
    assert g.min_degree() == 3
    g = build_family_F1(4, xk_missing=(0, 1, 2))
    assert g.min_degree() == 3


def test_family_f1_rejects_low_degree():
    with pytest.raises(GraphError, match="needs at least"):
        build_family_F1(4, yy_missing=((0, 1),), xk_missing=(0,))
    with pytest.raises(GraphError, match="needs at least"):
        build_family_F1(4, yy_missing=((0, 3),))


def test_family_f1_rejects_bad_indices():
    with pytest.raises(GraphError, match="invalid"):
        build_family_F1(4, yy_missing=((0, 0),))
    with pytest.raises(GraphError, match="invalid"):
        build_family_F1(4, xk_missing=(3,))


# -- F2 ------------------------------------------------------------------


def test_f2_structure():
    g = build_F2()
    assert g.n == 8 and g.k == 4
    assert g.edge_count() == 15
    assert g.min_degree() == 3
    assert independence_number(g) == 3
    assert vertex_connectivity(g) == 2
    assert len(connected_components(g, removed=(1 << 0) | (1 << 3))) == 3
    assert find_hamiltonian_cycle(g) is None
    assert not perm_oracle_hamiltonian(g)


# -- family F3 -----------------------------------------------------------


def test_family_f3_basic():
    g = build_family_F3(4)
    assert g.n == 8
    assert g.min_degree() == 3
    assert vertex_connectivity(g) >= 2
    assert independence_number(g) == 4
    assert find_hamiltonian_cycle(g) is None


def test_family_f3_with_options():
    yy = ((4, 7), (5, 7))
    g = build_family_F3(4, y_dprime=5, x_prime=2, yy_edges=yy, xy_edge=True)
    assert g.min_degree() >= 3
    assert find_hamiltonian_cycle(g) is None
    assert independence_number(g) == 4


def test_family_f3_y_prime_degree_one_in_bipartite():
    for k in (4, 6):
        g = build_family_F3(k)
        x_side = g.meta["x_side"]
        y_side = [v for v in range(g.n) if v not in x_side]
        h = induced_bipartite(g, x_side, y_side)
        assert h.degree(g.meta["y_prime"]) == 1
        assert degree_between(g, [g.meta["y_prime"]], x_side) == 1


def test_family_f3_larger():
    g = build_family_F3(6)
    assert g.n == 12
    assert g.min_degree() == 5
    assert independence_number(g) == 6
    assert find_hamiltonian_cycle(g) is None


def test_family_f3_rejects_bad_options():
    with pytest.raises(GraphError, match="even k"):
        build_family_F3(5)
    with pytest.raises(GraphError, match="y_prime"):
        build_family_F3(4, y_prime=4)
    with pytest.raises(GraphError, match="y_dprime"):
        build_family_F3(4, y_dprime=2)
    with pytest.raises(GraphError, match="touch y_prime"):
        build_family_F3(4, yy_edges=((6, 4),))
    with pytest.raises(GraphError, match="inside one part"):
        build_family_F3(4, yy_edges=((4, 5),))
    with pytest.raises(GraphError, match="two Y-vertices"):
        build_family_F3(4, yy_edges=((0, 4),))


# -- recognition ---------------------------------------------------------


def test_recognize_self():
    assert recognize(build_F2()) == "F2"
    assert recognize(build_family_F1(4)) == "F1"
    assert recognize(build_family_F3(4)) == "F3"
    assert recognize(build_family_F3(6)) == "F3"
    assert recognize(build_family_F1(6)) == "F1"


def test_recognize_complete_graph_none():
    assert recognize(complete_kpartite(4, 2)) is None


def test_recognize_requires_regime():
    with pytest.raises(GraphError):
        recognize(complete_kpartite(3, 2))


def _f1_variants():
    """Seeded F1 members at k = 4 with y-y and hub edges left out."""
    rng = random.Random(99)
    variants = []
    for trial in range(20):
        k = 4
        pairs = [(i, j) for i in range(k - 1) for j in range(i + 1, k - 1)]
        yy = tuple(p for p in pairs if rng.random() < 0.3)
        xk = tuple(i for i in range(k - 1) if rng.random() < 0.3)
        try:
            variants.append(build_family_F1(k, yy_missing=yy, xk_missing=xk))
        except GraphError:
            continue
    return variants


def _f3_variants():
    """Seeded F3 members at k = 4 with every option drawn."""
    rng = random.Random(17)
    y_pairs = [(u, v) for u in range(4, 8) for v in range(u + 1, 8)]
    variants = []
    for trial in range(20):
        yy = tuple(
            (u, v)
            for u, v in y_pairs
            if (u, v) != (4, 5) and (u, v) != (6, 7) and 6 not in (u, v)
            and rng.random() < 0.4
        )
        variants.append(
            build_family_F3(
                4,
                y_dprime=rng.choice([4, 5, 7]),
                x_prime=rng.randrange(4),
                yy_edges=yy,
                xy_edge=rng.random() < 0.5,
            )
        )
    return variants


def test_recognize_f1_variants():
    for g in _f1_variants():
        assert recognize(g) == "F1"


def test_recognize_f3_variants():
    for g in _f3_variants():
        assert recognize(g) == "F3"


def test_recognize_f1_relabelled():
    g = build_family_F1(4)
    # Shuffle vertex labels while keeping parts intact.
    perm = [3, 0, 2, 1, 7, 4, 6, 5]  # maps part i to part perm-consistent slots
    part_of = [0] * 8
    adj = [0] * 8
    for v in range(8):
        part_of[perm[v]] = g.part_of[v]
    for u in range(8):
        for v in range(u + 1, 8):
            if g.has_edge(u, v):
                adj[perm[u]] |= 1 << perm[v]
                adj[perm[v]] |= 1 << perm[u]
    relabelled = KPartiteGraph(part_of, adj)
    assert recognize(relabelled) == "F1"


def test_recognize_size_guard():
    # n must be a multiple of 4, so n = 20 is the first size past the limit.
    assert recognize(build_family_F1(8)) == "F1"
    with pytest.raises(SizeGuardError, match=r"n <= 16, got 20$"):
        recognize(build_family_F1(10))


def _relabelled(rng, g):
    """g under a random vertex permutation and a random part permutation."""
    sigma = list(range(g.n))
    rng.shuffle(sigma)
    tau = list(range(g.k))
    rng.shuffle(tau)
    part_of = [0] * g.n
    adj = [0] * g.n
    for v in range(g.n):
        part_of[sigma[v]] = tau[g.part_of[v]]
        for u in range(g.n):
            if g.has_edge(v, u):
                adj[sigma[v]] |= 1 << sigma[u]
    return KPartiteGraph(part_of, adj)


def _toggled(rng, g, count):
    """g with ``count`` distinct cross-part pairs flipped."""
    pairs = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if g.part_of[u] != g.part_of[v]
    ]
    adj = list(g.adj)
    for u, v in rng.sample(pairs, count):
        adj[u] ^= 1 << v
        adj[v] ^= 1 << u
    return KPartiteGraph(g.part_of, adj)


def _random_f1(rng, k):
    # Each y_i off the hub's part loses at most one neighbour: a y-y edge
    # shared with one other y_j, or its hub edge.
    order = list(range(k - 1))
    rng.shuffle(order)
    yy, xk = [], []
    while order:
        i = order.pop()
        r = rng.random()
        if order and r < 0.4:
            j = order.pop()
            yy.append((min(i, j), max(i, j)))
        elif r < 0.7:
            xk.append(i)
    return build_family_F1(k, tuple(yy), tuple(sorted(xk)))


def _random_f3(rng, k):
    n = 2 * k
    y_prime = rng.choice((n - 2, n - 1))
    y_dprime = rng.choice([y for y in range(k, n) if y != y_prime])
    pairs = [
        (u, v)
        for u in range(k, n)
        for v in range(u + 1, n)
        if u // 2 != v // 2 and y_prime not in (u, v)
    ]
    yy = tuple(p for p in pairs if rng.random() < 0.5)
    return build_family_F3(k, y_prime, y_dprime, rng.randrange(k), yy, rng.random() < 0.5)


def test_recognize_is_frozen():
    # F1, F2 and F3 members at k = 4, 6, 8, randomly relabelled part to part,
    # each also with one and with two cross-part pairs toggled; the K4 + K4
    # member of F1 is disconnected.  The digest was taken on the recognizer
    # that searched transversal cliques and candidate halves.
    rng = random.Random(20190704)
    members = [build_family_F1(4, xk_missing=(0, 1, 2))]
    for k in (4, 6, 8):
        members.extend(_random_f1(rng, k) for _ in range(30))
        members.extend(_random_f3(rng, k) for _ in range(30))
    members.extend(build_F2() for _ in range(20))
    labels = []
    for member in members:
        g = _relabelled(rng, member)
        graphs = [g]
        graphs.extend(_toggled(rng, g, 1) for _ in range(3))
        graphs.extend(_toggled(rng, g, 2) for _ in range(3))
        labels.extend(recognize(h) for h in graphs)
    assert Counter(labels) == {None: 1109, "F3": 154, "F1": 124, "F2": 20}
    digest = hashlib.sha256(" ".join(map(str, labels)).encode()).hexdigest()
    assert digest == "0ca0aa0df39b8e74a20b57bb1c220339a54b6517482936643b025481c0057ee4"


def _f2_two_switches(g):
    """Every degree-preserving 2-switch of g: edges ab and cd become ac and
    bd, or ad and bc, where both new pairs are cross-part non-edges."""
    edges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if g.has_edge(u, v)]
    switched = []
    for (a, b), (c, d) in itertools.combinations(edges, 2):
        if len({a, b, c, d}) < 4:
            continue
        for new_pairs in (((a, c), (b, d)), ((a, d), (b, c))):
            if any(g.has_edge(u, v) or g.part_of[u] == g.part_of[v] for u, v in new_pairs):
                continue
            adj = list(g.adj)
            for u, v in ((a, b), (c, d)) + new_pairs:
                adj[u] ^= 1 << v
                adj[v] ^= 1 << u
            switched.append(KPartiteGraph(g.part_of, adj))
    return switched


def test_recognize_f2_is_frozen():
    # F2 under each of the 24 part permutations, each with a seeded vertex
    # relabelling, then every 2-switch of F2: these share its degree
    # sequence.  The digest was taken on the recognizer that tested F2 by a
    # part-respecting isomorphism search.
    rng = random.Random(20261018)
    f2 = build_F2()
    labels = []
    for tau in itertools.permutations(range(f2.k)):
        sigma = list(range(f2.n))
        rng.shuffle(sigma)
        part_of = [0] * f2.n
        adj = [0] * f2.n
        for v in range(f2.n):
            part_of[sigma[v]] = tau[f2.part_of[v]]
            for u in range(f2.n):
                if f2.has_edge(v, u):
                    adj[sigma[v]] |= 1 << sigma[u]
        labels.append(recognize(KPartiteGraph(part_of, adj)))
    switched = _f2_two_switches(f2)
    assert len(switched) == 3
    labels.extend(recognize(g) for g in switched)
    assert Counter(labels) == {"F2": 27}
    digest = hashlib.sha256(" ".join(map(str, labels)).encode()).hexdigest()
    assert digest == "8086ccd6d046740d6f9246b89238a1e02dd7efceace02c093ceb970d1f96d301"


def _brute_relabelled_equal(g, h, order):
    """Reference for ``families._relabelled_equal``: g's edge set under the
    map order[i] -> i against h's, and each part of g inside one part of h."""
    if g.n != h.n or g.k != h.k:
        return False
    name = {v: i for i, v in enumerate(order)}
    image = {frozenset((name[u], name[v])) for u, v in g.edges()}
    if image != {frozenset(edge) for edge in h.edges()}:
        return False
    return all(len({h.part_of[name[v]] for v in g.part_members(p)}) == 1 for p in range(g.k))


def _relabel_cases(rng):
    """(g, h, order, kind) for a random graph g, on the block partition or
    a shuffled one, and a random bijection ``order``: h is g's image with
    its parts renamed (``image``), that image with one cross pair toggled
    (``one_pair``), the image with two vertices of different parts trading
    parts where h stays a valid graph (``split``), or g's image under the
    map with two vertices swapped (``swapped``).  Parts have two vertices or
    more, so a trade splits two parts."""
    n = rng.choice([4, 6, 8, 9, 10, 12])
    k = rng.choice([d for d in range(2, n) if n % d == 0])
    part_of = list(blocks_partition(n, k))
    if rng.random() < 0.5:
        rng.shuffle(part_of)
    density = rng.choice([0.2, 0.4, 0.7])
    rows = [0] * n
    for u, v in itertools.combinations(range(n), 2):
        if part_of[u] != part_of[v] and rng.random() < density:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    g = KPartiteGraph(part_of, rows)
    rename = rng.sample(range(k), k)

    def image(order):
        name = {v: i for i, v in enumerate(order)}
        adj = [0] * n
        for u, v in g.edges():
            adj[name[u]] |= 1 << name[v]
            adj[name[v]] |= 1 << name[u]
        return [rename[g.part_of[v]] for v in order], adj

    order = rng.sample(range(n), n)
    parts, adj = image(order)
    cases = [(KPartiteGraph(parts, adj), "image")]
    a, b = rng.sample(range(n), 2)
    if parts[a] != parts[b]:
        toggled = list(adj)
        toggled[a] ^= 1 << b
        toggled[b] ^= 1 << a
        cases.append((KPartiteGraph(parts, toggled), "one_pair"))
    for x, y in itertools.combinations(rng.sample(range(n), n), 2):
        if parts[x] != parts[y]:
            traded = list(parts)
            traded[x], traded[y] = traded[y], traded[x]
            try:
                cases.append((KPartiteGraph(traded, adj), "split"))
                break
            except GraphError:
                pass
    swapped = list(order)
    swapped[a], swapped[b] = swapped[b], swapped[a]
    cases.append((KPartiteGraph(*image(swapped)), "swapped"))
    return [(g, h, order, kind) for h, kind in cases]


def test_relabelled_equality_matches_brute_force():
    # The whole-int check must agree with an edge-set and part comparison
    # on every case: true images, maps wrong on exactly one pair, maps
    # right on every edge that send a part across two parts, and maps with
    # two vertices swapped.
    rng = random.Random(31)
    outcomes = Counter()
    for _ in range(800):
        for g, h, order, kind in _relabel_cases(rng):
            expected = _brute_relabelled_equal(g, h, order)
            assert families._relabelled_equal(g, h, order) == expected, (kind, g, h, order)
            outcomes[kind, expected] += 1
    assert outcomes["image", True] == 800
    assert outcomes["one_pair", False] > 500 and outcomes["one_pair", True] == 0
    assert outcomes["split", False] > 500 and outcomes["split", True] == 0
    assert outcomes["swapped", False] > 700


def test_recognition_tally_holds_with_the_member_memo_cold_and_warm():
    # The (8, 4) characterization's non-Hamiltonian graphs, recognized with
    # the member memo cleared and then warm: 2,280 members are built, 34 of
    # them distinct.
    report = exhaustive_verify(8, 4, 3)
    graphs = [decode(entry["graph"]) for entry in report.exceptional]
    assert len(graphs) == 2_312
    families._member.cache_clear()
    cold = Counter(recognize(g) for g in graphs)
    info = families._member.cache_info()
    assert info.hits + info.misses == 2_280 and info.misses == 34
    warm = Counter(recognize(g) for g in graphs)
    assert cold == warm == {"F1": 744, "F2": 32, "F3": 1_536}
    # The public builders hand out a fresh graph each call, never a memo's.
    kept = families._member(build_family_F1, 4, (), ())
    built = [build_family_F1(4), build_family_F1(4)]
    assert built[0] == built[1] == kept
    assert built[0] is not built[1] and all(g is not kept for g in built)
    kept = families._member(build_family_F3, 4, 6, 4, 0, (), False)
    built = [build_family_F3(4), build_family_F3(4)]
    assert built[0] == built[1] == kept
    assert built[0] is not built[1] and all(g is not kept for g in built)


def test_recognition_from_the_solvers_witness_matches_recognize(monkeypatch):
    # A sweep classifies each graph from the witness the solver gave it: a
    # small cut of one vertex is tried as F1's hub before any F1 sweep, a
    # bipartite degree-one or exhaustive-search witness skips the F1 sweep,
    # and a bipartite one anchors F3.  Every class must equal recognize(g):
    # on the (8, 4) characterization's graphs, the F1 and F3 variant sets
    # and each of them with one and with two cross pairs toggled, F2 under
    # every part permutation and its 2-switches, and F(4, 2).
    report = exhaustive_verify(8, 4, 3)
    graphs = [decode(entry["graph"]) for entry in report.exceptional]
    assert len(graphs) == 2_312
    rng = random.Random(29)
    f1s, f3s = _f1_variants(), _f3_variants()
    for g in f1s + f3s:
        graphs += [g, _toggled(rng, g, 1), _toggled(rng, g, 2)]
    f2 = build_F2()
    for tau in itertools.permutations(range(f2.k)):
        graphs.append(KPartiteGraph([tau[p] for p in f2.part_of], f2.adj))
    graphs += _f2_two_switches(f2)
    # F(4, 2) keeps its designated independent set, which the solver offers
    # first; that witness says nothing about cut vertices.
    member_f = build_family_F(4, 2)
    designated = frozenset(member_f.meta["independent_set"])
    assert non_hamiltonicity_witness(member_f).vertices == designated
    graphs.append(member_f)
    f1_sweeps = []
    is_f1 = families._is_f1
    monkeypatch.setattr(families, "_is_f1", lambda g: f1_sweeps.append(g) or is_f1(g))
    kinds = Counter()
    anchored = 0
    for g in graphs:
        expected = recognize(g)
        witness = non_hamiltonicity_witness(g)
        kind = type(witness).__name__
        kinds[kind, expected] += 1
        f1_sweeps.clear()
        assert families._recognize(g, witness) == expected, (encode(g), kind)
        # An F1 member's cut vertex is its hub, so the witness anchors it.
        hub = expected == "F1" and kind == "SmallCut" and len(witness.vertices) == 1
        anchored += hub
        skips = hub or kind in ("BipartiteDegreeOne", "ExhaustiveSearch")
        assert len(f1_sweeps) == (not skips), (encode(g), kind)
    # Every F1 graph but the disconnected ones, whose cut is empty: 8 of the
    # 744 (8, 4) graphs and 1 of the 13 variants.
    assert len(f1s) == 13 and anchored == 736 + 12 + 5
    # Toggled graphs that are Hamiltonian have no witness; the F3 anchor
    # turns down 18 graphs with a bipartite degree-one witness.
    assert kinds == {
        ("SmallCut", "F1"): 744 + len(f1s) + 5,
        ("SmallCut", None): 13,
        ("BipartiteDegreeOne", "F3"): 1_536 + len(f3s) + 5,
        ("BipartiteDegreeOne", None): 18,
        ("ExhaustiveSearch", "F2"): 32 + 24 + 3,
        ("IndependentSetTooLarge", None): 2 + 1,
        ("NoneType", None): 23,
    }


# -- specs ---------------------------------------------------------------


def test_spec_round_trip():
    specs = [
        FamilySpec(variant="F", k=4, m=3),
        FamilySpec(variant="F", k=2, m=4, sizes=(3, 2)),
        FamilySpec(variant="F1", k=4, yy_missing=((0, 1),), xk_missing=(2,)),
        FamilySpec(variant="F2"),
        FamilySpec(
            variant="F3", k=4, y_dprime=5, x_prime=1, yy_edges=((4, 7),), xy_edge=True
        ),
    ]
    for spec in specs:
        assert FamilySpec.from_text(spec.to_text()) == spec
        spec.build()


def test_spec_build_determinism():
    rng = random.Random(31)
    for trial in range(10):
        k, m = rng.choice([(2, 4), (3, 3), (4, 2), (5, 2)])
        spec = FamilySpec(variant="F", k=k, m=m)
        assert encode(spec.build()) == encode(spec.build())
    spec = FamilySpec(variant="F1", k=5)
    assert encode(spec.build()) == encode(spec.build())


def test_spec_rejects_malformed():
    with pytest.raises(GraphError):
        FamilySpec.from_text("k: 4")
    with pytest.raises(GraphError):
        FamilySpec.from_text("family: F\nk: four")
    with pytest.raises(GraphError, match="unknown family spec key 'y_dprim'"):
        FamilySpec.from_text("family: F3\nk: 4\ny_dprim: 5")
    with pytest.raises(GraphError, match="repeated family spec key 'k'"):
        FamilySpec.from_text("family: F3\nk: 4\nk: 6")
    for value in ("ture", "", "on", "2"):
        with pytest.raises(GraphError, match="'xy_edge'"):
            FamilySpec.from_text(f"family: F3\nk: 4\nxy_edge: {value}")
    for value, flag in (("TRUE", True), ("Yes", True), ("1", True),
                        ("False", False), ("no", False), ("0", False)):
        spec = FamilySpec.from_text(f"family: F3\nk: 4\nxy_edge: {value}")
        assert spec.xy_edge is flag
    with pytest.raises(GraphError):
        FamilySpec(variant="F9").build()
    # A field the variant's builder does not take is refused by name.
    for text, key in (
        ("family: F3\nk: 4\nyy_missing: 0-1", "yy_missing"),
        ("family: F2\nk: 9\nm: 3\nyy_edges: 0-1", "k"),
        ("family: F\nk: 4\nm: 2\nxy_edge: yes", "xy_edge"),
        ("family: F1\nk: 4\nsizes: 3 2", "sizes"),
    ):
        spec = FamilySpec.from_text(text)
        with pytest.raises(GraphError, match=f"family {spec.variant} does not take {key!r}"):
            spec.build()
    with pytest.raises(GraphError, match="family F needs m"):
        FamilySpec(variant="F", k=4).build()



def _spec_values(rng):
    """Seeded FamilySpec values: each field at its default about half the
    time, otherwise at a drawn value, including k=0 and sizes=()."""
    def number():
        return rng.choice([0, 1, 4, 7, 13, -2])

    def ints():
        return tuple(rng.randrange(12) for _ in range(rng.randrange(4)))

    def pairs():
        return tuple(
            (rng.randrange(12), rng.randrange(12)) for _ in range(rng.randrange(1, 4))
        )

    draws = {
        "k": number, "m": number, "sizes": ints, "yy_missing": pairs,
        "xk_missing": lambda: ints() or (3,), "y_prime": number, "y_dprime": number,
        "x_prime": number, "yy_edges": pairs, "xy_edge": lambda: True,
    }
    specs = []
    for _ in range(600):
        chosen = {key: draw() for key, draw in draws.items() if rng.random() < 0.5}
        specs.append(FamilySpec(variant=rng.choice(["F", "F1", "F2", "F3", "G"]), **chosen))
    return specs


def _spec_documents(rng):
    """Seeded spec documents, valid and malformed: good and bad values,
    unknown and repeated keys, comments, blank and colon-free lines, and
    documents with several defects at once."""
    good = {
        "family": ["F", "F1", "F2", "F3"], "k": ["4", " 6 ", "0"], "m": ["2", "3"],
        "sizes": ["3 2", "3,2", ""], "yy_missing": ["0-1", "0-1, 2-3", ""],
        "xk_missing": ["2", "0 1", ""], "y_prime": ["6"], "y_dprime": ["5"],
        "x_prime": ["1"], "yy_edges": ["4-7 5-7", "4-7,5-6"],
        "xy_edge": ["true", "TRUE", "Yes", "1", "no", "False", "0"],
    }
    bad = {
        "k": ["four", "", "4.0"], "m": ["x", ""], "sizes": ["3 two"],
        "yy_missing": ["0", "0-", "a-b", "1-2-3"], "xk_missing": ["z"],
        "y_prime": ["", "six"], "y_dprime": ["-"], "x_prime": ["1 2"],
        "yy_edges": ["4_7", "4-7 x"], "xy_edge": ["ture", "", "on", "2"],
    }
    junk = ["# a comment", "", "   ", "no colon here", "y_dprim: 5", "variant: F",
            "Family: F", ": 4"]
    documents = []
    for _ in range(1500):
        lines = []
        for key in good:
            if key == "family" and rng.random() < 0.9 or rng.random() < 0.4:
                pool = bad.get(key) if rng.random() < 0.15 else None
                lines.append(f"{key}: {rng.choice(pool or good[key])}")
        if lines and rng.random() < 0.1:
            lines.append(rng.choice(lines))
        if rng.random() < 0.15:
            lines.insert(rng.randrange(len(lines) + 1), rng.choice(junk))
        rng.shuffle(lines)
        documents.append("\n".join(lines))
    return documents


# SHA-256 over to_text of every _spec_values spec, then the from_text
# verdict (spec repr, or exception type and text) of every _spec_documents
# document; taken before the spec codec was derived from FamilySpec's fields.
SPEC_TEXT_DIGEST = "05e1ceb136c427299dda9676c25c096f23f1c797b20bb8b4dc7636637a41d70b"


def test_spec_text_is_frozen():
    rng = random.Random(20261018)
    rows = [spec.to_text() for spec in _spec_values(rng)]
    for text in _spec_documents(rng):
        try:
            rows.append(repr(FamilySpec.from_text(text)))
        except GraphError as exc:
            rows.append(f"{type(exc).__name__}: {exc}")
    rejected = sum(row.startswith("GraphError: ") for row in rows)
    assert 300 < rejected < 1200
    digest = hashlib.sha256("\n\x00".join(rows).encode()).hexdigest()
    assert digest == SPEC_TEXT_DIGEST

def test_family_f_large_member_certificate_only():
    # Certificate-style verification scales far past the solver guard.
    g = build_family_F(100, 5)
    n = g.n
    assert n == 500
    assert g.min_degree() == theorem_threshold(n, 100) - 1
    designated = g.meta["independent_set"]
    assert len(designated) == (n + 2) // 2
    assert is_independent(g, designated)


def test_random_specs_encode_decode_round_trip():
    from hamparts.graphs import decode

    rng = random.Random(1234)
    specs = [FamilySpec(variant="F2")]
    for _ in range(8):
        k, m = rng.choice([(2, 3), (3, 2), (4, 2), (5, 1), (6, 2)])
        if m * k >= 3:
            specs.append(FamilySpec(variant="F", k=k, m=m))
    for k in (3, 4, 5, 6):
        specs.append(FamilySpec(variant="F1", k=k))
    for k in (4, 6):
        specs.append(FamilySpec(variant="F3", k=k, xy_edge=bool(k % 4)))
    for spec in specs:
        g = spec.build()
        assert decode(encode(g)) == g
