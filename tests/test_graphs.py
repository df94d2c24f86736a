"""Graph core: construction, queries, connectivity, serialization."""

import hashlib
import json
import random
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamparts import graphs
from hamparts.families import build_family_F
from hamparts.graphs import (
    GraphError,
    KPartiteGraph,
    SizeGuardError,
    blocks_partition,
    build_graph,
    complete_kpartite,
    decode,
    degree_between,
    encode,
    export_dot,
    graph6_decode,
    graph6_encode,
    _max_independent,
    independence_number,
    induced_bipartite,
    is_independent,
    maximum_independent_set,
    vertex_connectivity,
)
from _util import (
    brute_independence_number,
    brute_vertex_connectivity,
    random_graph,
    random_kpartite,
)


def test_build_k22():
    g = build_graph(4, 2, (0, 0, 1, 1), [(0, 2), (0, 3), (1, 2), (1, 3)])
    assert g.edge_count() == 4
    assert g.min_degree() == 2
    assert degree_between(g, [0, 1], [2, 3]) == 2


def test_build_octahedron():
    g = complete_kpartite(3, 2)
    assert g.n == 6
    assert g.min_degree() == 4
    assert g.edge_count() == 12


def test_build_rejects_intra_part_edge():
    with pytest.raises(GraphError, match="intra-part"):
        build_graph(4, 2, (0, 0, 1, 1), [(0, 1)])


def test_build_rejects_self_loop():
    with pytest.raises(GraphError, match="self-loop"):
        build_graph(4, 2, (0, 0, 1, 1), [(2, 2)])


def test_build_rejects_out_of_range():
    with pytest.raises(GraphError, match="out-of-range"):
        build_graph(4, 2, (0, 0, 1, 1), [(0, 9)])


def test_graph_rejects_asymmetric_adjacency():
    # The first asymmetric pair in vertex order, then neighbour order, is
    # named; row checks (range, loops, intra-part) come before any pair.
    cases = [
        ((0, 1, 2), (0b010, 0, 0), "asymmetric adjacency between 1 and 0"),
        ((0, 1, 2, 3), (0b1100, 0b0001, 0, 0b0001), "asymmetric adjacency between 2 and 0"),
        ((0, 1, 2, 3), (0b0110, 0b0001, 0b1000, 0b0100), "asymmetric adjacency between 2 and 0"),
        ((0, 0, 1, 1), (0b1000, 0b0100, 0, 0b0001), "asymmetric adjacency between 2 and 1"),
        ((0, 1, 2), (0b010, 0b1000, 0), "vertex 1 has an out-of-range neighbour"),
    ]
    for part_of, adj, message in cases:
        with pytest.raises(GraphError) as excinfo:
            KPartiteGraph(part_of, adj)
        assert str(excinfo.value) == message


_ROW_DEFECTS = ("negative", "out_of_range", "self_loop", "intra", "one_sided")


def _add_defect(rng, defect, part_of, adj):
    n = len(adj)
    v = rng.randrange(n)
    if defect == "negative":
        adj[v] = ~adj[v]
    elif defect == "out_of_range":
        adj[v] |= 1 << rng.randrange(n, 2 * n + 2)
    elif defect == "self_loop":
        adj[v] |= 1 << v
    elif defect == "intra":
        mates = [u for u in range(n) if u != v and part_of[u] == part_of[v]]
        if mates:
            u = rng.choice(mates)
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    else:  # one_sided: add or drop one direction of a cross-part edge
        others = [u for u in range(n) if part_of[u] != part_of[v]]
        if others:
            adj[v] ^= 1 << rng.choice(others)


def _constructor_inputs():
    """Seeded (part_of, adj) inputs over strides 1 to 256: a valid graph on a
    balanced, an unbalanced and an unsorted partition, each row defect alone
    and in pairs, plus empty parts and row-count mismatches."""
    rng = random.Random(7)
    yield (), ()
    for n in [*range(1, 41), 72, 130]:
        k = rng.choice([d for d in range(1, n + 1) if n % d == 0])
        balanced = list(blocks_partition(n, k))
        unsorted = rng.sample(balanced, n)
        parts = rng.randint(1, n)
        unbalanced = list(range(parts)) + [rng.randrange(parts) for _ in range(n - parts)]
        rng.shuffle(unbalanced)
        for part_of in (balanced, unbalanced, unsorted):
            p = rng.random()
            adj = [0] * n
            for u in range(n):
                for v in range(u + 1, n):
                    if part_of[u] != part_of[v] and rng.random() < p:
                        adj[u] |= 1 << v
                        adj[v] |= 1 << u
            yield part_of, adj
            for combo in [(d,) for d in _ROW_DEFECTS] + list(combinations(_ROW_DEFECTS, 2)):
                bad = list(adj)
                for defect in combo:
                    _add_defect(rng, defect, part_of, bad)
                yield part_of, bad
            yield [q + 1 for q in part_of], adj
            yield [q - 1 for q in part_of], adj
            yield part_of, adj[:-1]
            yield part_of, adj + [0]


def test_constructor_verdicts_are_frozen():
    # Each input's verdict is "accepted" or the exact GraphError text; the
    # digest was taken from the per-row, per-pair validation loops.
    verdicts = []
    for part_of, adj in _constructor_inputs():
        try:
            KPartiteGraph(part_of, adj)
            verdicts.append("accepted")
        except GraphError as exc:
            verdicts.append(str(exc))
    assert len(verdicts) == 2521
    assert verdicts.count("accepted") == 199
    digest = hashlib.sha256("\n".join(verdicts).encode()).hexdigest()
    assert digest == "6cdbd01a8ced2c5904f9a5c21168a64ba7b3b1396d251e4291dbdc7484d1939e"


def _reference_pack(g):
    """``packed`` by one shift per row, as the constructor once built it."""
    return sum(row << v * g.stride for v, row in enumerate(g.adj))


def test_packed_rows_match_one_shift_per_row():
    rng = random.Random(19)
    graphs = [build_family_F(100, 5)]
    for n in range(1, 71):
        k = rng.choice([d for d in range(1, n + 1) if n % d == 0])
        graphs += [random_kpartite(rng, n, k, p) for p in (0.2, 0.9)]
    for g in graphs:
        assert g.stride == max(8, 1 << (g.n - 1).bit_length())
        assert g.packed == _reference_pack(g), (g.n, g.k)


def _reference_layout_masks(part_of):
    """(stride, intra, swaps) of a partition as the layout once built them:
    ``intra`` by one shifted OR per row, and each transpose round's mask
    from a division by the row mask and shifts of the previous round's."""
    n = len(part_of)
    stride = max(8, 1 << (n - 1).bit_length())
    part_masks = [0] * (max(part_of) + 1)
    for v, p in enumerate(part_of):
        part_masks[p] |= 1 << v
    pad = ((1 << stride) - 1) ^ ((1 << n) - 1)
    intra = 0
    for v, p in enumerate(part_of):
        intra |= (part_masks[p] | pad) << v * stride
    row = (1 << stride) - 1
    j = stride // 2
    upper_rows = (1 << j * stride) - 1
    right_cols = ((1 << stride * stride) - 1) // row * (row ^ (row >> j))
    swaps = []
    while j:
        swaps.append((j * (stride - 1), upper_rows & right_cols))
        j //= 2
        upper_rows ^= upper_rows << (j * stride)
        right_cols ^= right_cols >> j
    return stride, intra, tuple(swaps)


def _reference_edge_mask(vertices, stride):
    """``CycleCertificate.edge_mask`` by one shift per edge."""
    mask = 0
    prev = vertices[-1]
    for v in vertices:
        mask |= 1 << (prev * stride + v)
        prev = v
    return mask


def test_packed_masks_match_shift_formulas(monkeypatch):
    # Every stride from 8 to 1024, at its smallest, a random and its largest
    # n, on block, shuffled and singleton partitions: the layout's masks, a
    # graph's rows and random cycles' edge masks, at the layout's stride and
    # the next one up, equal the shift formulas.
    monkeypatch.setattr(graphs, "_layouts", {})
    rng = random.Random(20)
    stride = 8
    while stride <= 1024:
        low = 1 if stride == 8 else stride // 2 + 1
        for n in (low, rng.randint(low, stride), stride):
            k = rng.choice([d for d in range(1, n + 1) if n % d == 0])
            shuffled = list(blocks_partition(n, k))
            rng.shuffle(shuffled)
            partitions = {
                "block": blocks_partition(n, k),
                "shuffled": tuple(shuffled),
                "singleton": tuple(range(n)),
            }
            for kind, part_of in partitions.items():
                # Each comparison is reduced to a bool first: the masks are
                # too large for an assertion message.
                where = (n, k, kind)
                _, _, _, got_stride, _, intra, swaps, _ = graphs._layout(part_of)
                same = (got_stride, intra, swaps) == _reference_layout_masks(part_of)
                assert same and got_stride == stride, where
                if n < 3:
                    continue
                adj = [0] * n
                for _ in range(3):
                    cycle = rng.sample(range(n), rng.randint(3, n))
                    for wider in (stride, 2 * stride):
                        mask = graphs.CycleCertificate(tuple(cycle)).edge_mask(wider)
                        same = mask == _reference_edge_mask(cycle, wider)
                        assert same, (*where, wider)
                    prev = cycle[-1]
                    for v in cycle:
                        if part_of[v] != part_of[prev]:
                            adj[v] |= 1 << prev
                            adj[prev] |= 1 << v
                        prev = v
                g = KPartiteGraph(part_of, adj)
                same = g.packed == _reference_pack(g)
                assert same, where
        stride *= 2


@pytest.mark.parametrize("n", [3, 7, 8, 9, 16, 17, 33, 64, 65, 70])
def test_packed_rows_name_each_defect(n):
    # One defect at a time on a valid graph, at strides packed one byte per
    # row and row by row; each keeps the text it had when rows were checked
    # one by one.
    rng = random.Random(n)
    part_of = [v // 2 for v in range(n)]
    adj = [0] * n
    for u in range(n):
        for w in range(u + 1, n):
            if part_of[u] != part_of[w] and rng.random() < 0.5:
                adj[u] |= 1 << w
                adj[w] |= 1 << u
    KPartiteGraph(part_of, adj)
    stride = max(8, 1 << (n - 1).bit_length())
    v = 2 * rng.randrange(n // 2)
    w = rng.choice([u for u in range(n) if part_of[u] != part_of[v]])
    out_of_range = f"vertex {v} has an out-of-range neighbour"
    cases = [
        ({v: ~adj[v]}, out_of_range),
        ({v: adj[v] | 1 << stride + rng.randrange(9)}, out_of_range),
        ({v: adj[v] | 1 << v}, f"self-loop at vertex {v}"),
        ({v: adj[v] | 1 << v + 1, v + 1: adj[v + 1] | 1 << v}, f"intra-part edge at vertex {v}"),
        # One direction of a cross-part pair: the row that lists the other
        # end is named first.
        ({v: adj[v] | 1 << w}, f"asymmetric adjacency between {w} and {v}")
        if not adj[v] >> w & 1
        else ({v: adj[v] ^ 1 << w}, f"asymmetric adjacency between {v} and {w}"),
    ]
    if stride > n:
        cases.append(({v: adj[v] | 1 << rng.randrange(n, stride)}, out_of_range))
    for rows, message in cases:
        bad = list(adj)
        for u, row in rows.items():
            bad[u] = row
        with pytest.raises(GraphError) as excinfo:
            KPartiteGraph(part_of, bad)
        assert str(excinfo.value) == message


@pytest.mark.parametrize("parts", [(0.0, 1.0), [0, 1.0], (False, True), (0.0, 1)])
def test_part_indices_must_be_ints_whatever_was_built_before(monkeypatch, parts):
    # Non-int indices can equal an int partition's memo key (0.0 == 0).
    monkeypatch.setattr(graphs, "_layouts", {})
    with pytest.raises(GraphError, match="part indices must be ints"):
        KPartiteGraph(parts, (2, 1))
    g = KPartiteGraph((0, 1), (2, 1))
    assert g.part_of == (0, 1) and g.k == 2
    with pytest.raises(GraphError, match="part indices must be ints"):
        KPartiteGraph(parts, (2, 1))
    assert KPartiteGraph([0, 1], (2, 1)) == g


def test_build_rejects_unbalanced():
    with pytest.raises(GraphError, match="unbalanced"):
        build_graph(4, 2, (0, 0, 0, 1), [])


def test_graph_equality_ignores_meta():
    g1 = build_graph(4, 2, (0, 0, 1, 1), [(0, 2)], meta={"family": "x"})
    g2 = build_graph(4, 2, (0, 0, 1, 1), [(0, 2)])
    assert g1 == g2
    assert hash(g1) == hash(g2)


def test_degree_between_errors():
    g = complete_kpartite(2, 2)
    with pytest.raises(GraphError, match="empty"):
        degree_between(g, [], [0, 1])
    with pytest.raises(GraphError, match="disjoint"):
        degree_between(g, [0, 1], [1, 2])


def test_vertex_connectivity_classics():
    assert vertex_connectivity(complete_kpartite(2, 2)) == 2
    assert vertex_connectivity(complete_kpartite(2, 3)) == 3
    assert vertex_connectivity(complete_kpartite(3, 2)) == 4
    # Complete graph as singleton parts.
    k4 = complete_kpartite(4, 1)
    assert vertex_connectivity(k4) == 3
    # A path has a cut vertex.
    path = build_graph(3, 3, (0, 1, 2), [(0, 1), (1, 2)])
    assert vertex_connectivity(path) == 1
    # Disconnected graph.
    two_edges = build_graph(4, 2, (0, 1, 0, 1), [(0, 1), (2, 3)])
    assert vertex_connectivity(two_edges) == 0


def test_vertex_connectivity_against_brute_force():
    # Every labeled graph on 2 to 5 vertices, one part per vertex.
    for n in range(2, 6):
        pairs = list(combinations(range(n), 2))
        for edges in range(1 << len(pairs)):
            chosen = [pair for i, pair in enumerate(pairs) if (edges >> i) & 1]
            g = build_graph(n, n, tuple(range(n)), chosen)
            assert vertex_connectivity(g) == brute_vertex_connectivity(g), encode(g)
    rng = random.Random(42)
    for trial in range(60):
        n = rng.randint(2, 8)
        g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.6, 0.8]))
        assert vertex_connectivity(g) == brute_vertex_connectivity(g), encode(g)
    # k-partite graphs, where whole parts are non-adjacent and the first
    # vertices' neighbourhoods shape which pairs the search tries.
    for trial in range(120):
        n = rng.randint(3, 10)
        k = rng.choice([d for d in range(2, n + 1) if n % d == 0])
        g = random_kpartite(rng, n, k, rng.choice([0.3, 0.5, 0.7, 0.9, 1.0]))
        assert vertex_connectivity(g) == brute_vertex_connectivity(g), encode(g)


def test_vertex_connectivity_is_frozen():
    # SHA-256 of the comma-joined kappa of the graphs below, taken from the
    # max-flow that rebuilt an arc dictionary for each of Even's pairs.
    rng = random.Random(23)
    kappas = []
    for n in range(7, 41):
        k = rng.choice([d for d in range(2, n + 1) if n % d == 0])
        p = rng.choice((0.15, 0.3, 0.45, 0.6))
        kappas.append(vertex_connectivity(random_kpartite(rng, n, k, p)))
    assert max(kappas) == 14
    digest = hashlib.sha256(",".join(map(str, kappas)).encode()).hexdigest()
    assert digest == "5d3356eb0c918bd87571a11c348300fd20d32a1b28d71fd20f1b6a6f2890d805"


def test_vertex_connectivity_layer_budget(monkeypatch):
    # F(4, 10), the CI step's graph, grows 11,942 BFS layers in all: a budget
    # one below refuses it, and one at it answers.
    g = build_family_F(4, 10)
    monkeypatch.setattr(graphs, "KAPPA_LAYER_LIMIT", 11_941)
    with pytest.raises(SizeGuardError, match=r"guarded at 11941 augmenting-path BFS layers$"):
        vertex_connectivity(g)
    monkeypatch.setattr(graphs, "KAPPA_LAYER_LIMIT", 11_942)
    assert vertex_connectivity(g) == 16


def test_independence_number_against_brute_force():
    rng = random.Random(7)
    for trial in range(60):
        n = rng.randint(1, 12)
        k = rng.choice([d for d in range(1, n + 1) if n % d == 0])
        g = random_kpartite(rng, n, k, rng.choice([0.3, 0.5, 0.7]))
        assert independence_number(g) == brute_independence_number(g)
    # A few larger instances against the subset oracle.
    for n, k, p in [(14, 7, 0.4), (16, 4, 0.5), (16, 16, 0.6)]:
        g = random_kpartite(rng, n, k, p)
        assert independence_number(g) == brute_independence_number(g)


def test_bounded_independence_test_agrees_with_exact_alpha():
    rng = random.Random(8)
    for trial in range(150):
        n = rng.randint(1, 16)
        k = rng.choice([d for d in range(1, n + 1) if n % d == 0])
        g = random_kpartite(rng, n, k, rng.choice([0.1, 0.3, 0.5, 0.7]))
        full = (1 << n) - 1
        exact = _max_independent(g.adj, full)
        alpha = exact[0]
        # Above a floor the bounded search finds the unbounded search's set;
        # otherwise it reports (floor, 0).
        for floor in (n // 2, rng.randint(0, n + 1) - 1):
            expected = exact if alpha > floor else (floor, 0)
            assert _max_independent(g.adj, full, floor) == expected
        assert (_max_independent(g.adj, full, n // 2)[1] != 0) == (2 * alpha > n)


def _independent_set_population():
    """Seeded graphs whose bounded independent-set searches the digest below
    freezes: for every n from 3 to 28, general graphs at three densities, two
    sparse k-partite graphs at expected cross degree 3 (the density of the
    decide-sparse benchmark) and a dense k-partite graph."""
    rng = random.Random(20261022)
    graphs = []
    for n in range(3, 29):
        ks = [d for d in range(2, n + 1) if n % d == 0]
        for p in (0.15, 0.3, 0.5):
            graphs.append(random_graph(rng, n, p))
        for _ in range(2):
            k = rng.choice(ks)
            graphs.append(random_kpartite(rng, n, k, min(1.0, 3.0 / (n - n // k))))
        graphs.append(random_kpartite(rng, n, rng.choice(ks), 0.5))
    return graphs


# SHA-256 of the (size, mask) pairs of the reference bounded search at every
# floor from 0 to n // 2 on each graph above.
INDEPENDENT_SET_DIGEST = "5e920052edbfb3b36a7a42e0dc62730209eb315bd7b1339b6f893830af434fc7"


def test_bounded_independent_sets_are_frozen():
    rows = []
    for g in _independent_set_population():
        full = (1 << g.n) - 1
        rows.extend(list(_max_independent(g.adj, full, floor)) for floor in range(g.n // 2 + 1))
        if g.n <= 12:
            assert independence_number(g) == brute_independence_number(g)
    assert len(rows) == 1326
    assert sum(mask != 0 for _, mask in rows) == 1020
    payload = json.dumps(rows)
    assert hashlib.sha256(payload.encode()).hexdigest() == INDEPENDENT_SET_DIGEST


def test_independence_witness_is_independent():
    rng = random.Random(11)
    for trial in range(30):
        g = random_graph(rng, rng.randint(2, 10), 0.5)
        witness = maximum_independent_set(g)
        assert is_independent(g, witness)
        assert len(witness) == independence_number(g)


def test_independence_guard():
    # Both independence searches refuse 65 vertices, naming the limit, and
    # solve 64 isolated singleton parts.
    def edgeless(n):
        return KPartiteGraph(range(n), [0] * n)

    for search in (independence_number, maximum_independent_set):
        with pytest.raises(SizeGuardError, match=r"n <= 64, got 65$"):
            search(edgeless(65))
    assert independence_number(edgeless(64)) == 64
    assert maximum_independent_set(edgeless(64)) == frozenset(range(64))


def test_complete_kpartite_alpha_is_part_size():
    for k, m in [(2, 3), (3, 2), (4, 2)]:
        assert independence_number(complete_kpartite(k, m)) == m


def test_induced_bipartite_k222():
    g = complete_kpartite(3, 2)
    h = induced_bipartite(g, [0, 1, 2, 3], [4, 5])
    assert h.k == 2
    assert sorted(len(h.part_members(p)) for p in range(2)) == [2, 4]
    assert h.edge_count() == 8
    assert not h.is_balanced


def test_induced_bipartite_errors():
    g = complete_kpartite(3, 2)
    with pytest.raises(GraphError, match="nonempty"):
        induced_bipartite(g, range(6), [])
    with pytest.raises(GraphError, match="overlap"):
        induced_bipartite(g, [0, 1, 2], [2, 3, 4, 5])
    with pytest.raises(GraphError, match="cover"):
        induced_bipartite(g, [0, 1], [2, 3])


def test_graph6_against_networkx():
    rng = random.Random(3)
    # Sizes above 62 take the four-byte size header.
    sizes = [rng.randint(1, 20) for trial in range(40)] + [63, 64, 100]
    for n in sizes:
        g = random_graph(rng, n, rng.random())
        text = graph6_encode(g)
        ref = nx.from_graph6_bytes(text.encode("ascii"))
        assert set(ref.edges()) == {tuple(sorted(e)) for e in g.edges()}
        # And the reverse direction against networkx's encoder and its
        # ``>>graph6<<`` header.
        ref2 = nx.Graph()
        ref2.add_nodes_from(range(n))
        ref2.add_edges_from(g.edges())
        assert nx.to_graph6_bytes(ref2, header=False).strip().decode() == text
        size, edges = graph6_decode(nx.to_graph6_bytes(ref2).decode())
        assert size == n
        assert set(edges) == {tuple(sorted(e)) for e in g.edges()}


def test_graph6_decode_round_trip():
    rng = random.Random(5)
    for trial in range(40):
        n = rng.randint(1, 16)
        g = random_graph(rng, n, rng.random())
        size, edges = graph6_decode(graph6_encode(g))
        assert size == n
        assert set(edges) == {tuple(sorted(e)) for e in g.edges()}


def test_encode_decode_round_trip():
    rng = random.Random(9)
    for trial in range(40):
        n = rng.randint(2, 14)
        k = rng.choice([d for d in range(2, n + 1) if n % d == 0])
        g = random_kpartite(rng, n, k, 0.5)
        assert decode(encode(g)) == g


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_encode_decode_round_trip_property(data):
    k = data.draw(st.integers(min_value=2, max_value=5))
    m = data.draw(st.integers(min_value=1, max_value=3))
    seed = data.draw(st.integers(min_value=0, max_value=2**30))
    g = random_kpartite(random.Random(seed), m * k, k, 0.5)
    assert decode(encode(g)) == g


def _reference_graph6_edges(text):
    """graph6 body bits read one at a time, pair (i, j) for j = 1.., i < j."""
    raw = text.encode("ascii")
    if raw[0] == 126:
        n = ((raw[1] - 63) << 12) | ((raw[2] - 63) << 6) | (raw[3] - 63)
        body = raw[4:]
    else:
        n, body = raw[0] - 63, raw[1:]
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    return n, [
        pair for index, pair in enumerate(pairs) if (body[index // 6] - 63) >> (5 - index % 6) & 1
    ]


def test_codec_matches_a_bit_by_bit_reading_and_a_per_call_header(monkeypatch):
    # graph6 bodies are read column by column and a partition's header is
    # made once with its layout: both must give what a bit-by-bit reading
    # and a header made on every call give, on sizes up to the four-byte
    # size header, on shuffled partitions, and with the layout memo
    # evicting entries as it fills.
    monkeypatch.setattr(graphs, "_layouts", {})
    rng = random.Random(31)
    sizes = list(range(1, 18)) + [62, 63, 70]
    for trial, n in enumerate(sizes * 3):
        k = rng.choice([d for d in range(1, n + 1) if n % d == 0])
        part_of = list(blocks_partition(n, k))
        rng.shuffle(part_of)
        adj = [0] * n
        for u, v in combinations(range(n), 2):
            if part_of[u] != part_of[v] and rng.random() < 0.5:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        g = KPartiteGraph(part_of, adj)
        body = graph6_encode(g)
        assert graph6_decode(body) == _reference_graph6_edges(body), n
        parts = ", ".join(" ".join(str(v) for v in g.part_members(p)) for p in range(k))
        assert encode(g) == f"kpart {k}: {parts}\n{body}", n
        assert decode(encode(g)) == g, n
    # More partitions than the memo holds went through it.
    assert len(graphs._layouts) == graphs._LAYOUT_MEMO_SIZE
    # A part list that makes several decoded pairs internal names the first
    # in graph6 order: column by column, then up each column.
    body = graph6_encode(build_graph(4, 2, (0, 0, 1, 1), [(0, 2), (1, 3), (0, 3), (1, 2)]))
    for header, first in (("kpart 2: 0 3, 1 2", "(1, 2)"), ("kpart 2: 0 1 3, 2", "(0, 3)")):
        with pytest.raises(GraphError) as excinfo:
            decode(f"{header}\n{body}")
        assert str(excinfo.value) == f"intra-part edge {first} in decoded graph"


def test_decode_rejects_intra_part_edge():
    g = build_graph(4, 2, (0, 0, 1, 1), [(0, 2), (1, 3)])
    text = encode(g)
    header = "kpart 2: 0 2, 1 3"  # reassigns parts so edge (0,2) is internal
    with pytest.raises(GraphError, match="intra-part"):
        decode(header + "\n" + text.splitlines()[1])


def test_decode_rejects_malformed():
    with pytest.raises(GraphError):
        decode("nonsense")
    with pytest.raises(GraphError):
        decode("kpart 2: 0 1, 2 3\n")
    with pytest.raises(GraphError):
        decode("kpart 2: 0 1\nA?")  # declares 2 parts but lists 1
    with pytest.raises(GraphError):
        decode("kpart 1: 0 5\nA?")  # out-of-range vertex in a part list
    with pytest.raises(GraphError):
        decode("kpart 2: 0, 1\nA")  # truncated graph6 body
    # An empty part is refused by index, trailing or not.
    with pytest.raises(GraphError, match="part 2 is empty"):
        decode("kpart 3: 0 1, 2 3,\nC?")
    with pytest.raises(GraphError, match="part 1 is empty"):
        decode("kpart 3: 0 1, , 2 3\nC?")
    with pytest.raises(GraphError, match="must start with 'kpart'"):
        decode("parts 2: 0 1, 2 3\nC?")
    with pytest.raises(GraphError, match="malformed partition header"):
        decode("kpart two: 0 1, 2 3\nC?")
    with pytest.raises(GraphError, match="malformed part list: ' 2 x'"):
        decode("kpart 2: 0 1, 2 x\nC?")
    with pytest.raises(GraphError, match="vertex 1 assigned to two parts"):
        decode("kpart 2: 0 1, 1 2 3\nC?")
    with pytest.raises(GraphError, match="does not cover all vertices"):
        decode("kpart 2: 0 1, 2\nC?")


def test_export_dot_k22():
    g = complete_kpartite(2, 2)
    text = export_dot(g)
    node_lines = [line for line in text.splitlines() if "fillcolor" in line]
    edge_lines = [line for line in text.splitlines() if "--" in line]
    assert len(node_lines) == 4
    assert len(edge_lines) == 4
    colors = {line.split('"')[1] for line in node_lines}
    assert len(colors) == 2


# SHA-256 of the JSON list of [part_of, adj] of the 1,000 graphs below, as
# ``random_kpartite`` drew them when it tested every vertex pair in turn.
RANDOM_KPARTITE_DIGEST = "359876e2c3feea9ca56b7f67b0607bbca426d12b35058180c2196f9903cdd460"


def test_random_kpartite_draws_are_frozen():
    # The seeded test populations depend on the generator drawing one number
    # per cross-part pair, in lexicographic pair order, and nothing else.
    rng = random.Random(20261019)
    rows = []
    for _ in range(1000):
        k = rng.randint(1, 7)
        n = k * rng.randint(1, 14 // k)
        p = rng.choice([0.1, 0.35, 0.5, 0.8, 1.0])
        g = random_kpartite(rng, n, k, p)
        rows.append([list(g.part_of), list(g.adj)])
    assert sum(len(row[1]) for row in rows) == 8_273
    payload = json.dumps(rows)
    assert hashlib.sha256(payload.encode()).hexdigest() == RANDOM_KPARTITE_DIGEST
