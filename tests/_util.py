"""Shared test helpers: random graph generators and independent oracles."""

from functools import cache
from itertools import combinations, permutations

from hamparts.graphs import KPartiteGraph, blocks_partition, cross_pairs


@cache
def _cross_pair_bits(n, k):
    """The block partition, and its cross pairs as (u, 1 << u, v, 1 << v)
    in lexicographic order; made once per (n, k)."""
    return blocks_partition(n, k), [(u, 1 << u, v, 1 << v) for u, v in cross_pairs(n, k)]


def random_kpartite(rng, n, k, p):
    """Random balanced k-partite graph on the block partition: one draw of
    ``rng.random()`` per cross-part pair, in lexicographic pair order."""
    part_of, pairs = _cross_pair_bits(n, k)
    draw = rng.random
    adj = [0] * n
    for u, ubit, v, vbit in pairs:
        if draw() < p:
            adj[u] |= vbit
            adj[v] |= ubit
    return KPartiteGraph(part_of, adj)


def random_graph(rng, n, p):
    """Random simple graph, presented as n-partite with singleton parts."""
    return random_kpartite(rng, n, n, p)


def random_graph_with_floor(rng, n, p, floor, max_tries=300):
    """Rejection-sample a random graph with min degree >= floor."""
    for _ in range(max_tries):
        g = random_graph(rng, n, p)
        if g.min_degree() >= floor:
            return g
    return None


def perm_oracle_hamiltonian(g):
    """Naive permutation-based Hamiltonicity decision."""
    n = g.n
    if n < 3:
        return False
    adj = g.adj
    for perm in permutations(range(1, n)):
        if perm[0] > perm[-1]:
            continue
        prev = 0
        ok = True
        for v in perm:
            if not (adj[prev] >> v) & 1:
                ok = False
                break
            prev = v
        if ok and (adj[prev] >> 0) & 1:
            return True
    return False


def brute_vertex_connectivity(g):
    """Minimum vertex cut by subset enumeration; n-1 for complete graphs."""
    n = g.n
    full = (1 << n) - 1

    def components_after(removed):
        remaining = full & ~removed
        comps = 0
        while remaining:
            low = remaining & -remaining
            seen = low
            frontier = low
            while frontier:
                grown = 0
                rest = frontier
                while rest:
                    b = rest & -rest
                    grown |= g.adj[b.bit_length() - 1]
                    rest ^= b
                frontier = grown & remaining & ~seen
                seen |= frontier
            comps += 1
            remaining &= ~seen
        return comps

    for size in range(n - 1):
        for cut in combinations(range(n), size):
            removed = 0
            for v in cut:
                removed |= 1 << v
            if (full & ~removed) and components_after(removed) > 1:
                return size
    return n - 1


def brute_independence_number(g):
    """Maximum independent set by subset enumeration."""
    n = g.n
    best = 0
    for mask in range(1 << n):
        if mask.bit_count() <= best:
            continue
        ok = True
        rest = mask
        while rest:
            b = rest & -rest
            if g.adj[b.bit_length() - 1] & mask:
                ok = False
                break
            rest ^= b
        if ok:
            best = mask.bit_count()
    return best
