"""Exact Hamiltonian-cycle and longest-cycle search with certified outputs.

The Hamiltonicity search is depth-first path extension over bitmask vertex
sets.  It starts from a minimum-degree vertex, extends toward the candidate
with the fewest remaining options first, and prunes a branch when (a) some
unvisited vertex has fewer than two usable neighbours left, (b) the remaining
graph is disconnected, or (c) an independent union of parts is too large to
fit in the remaining stretch of the cycle.  Tie-breaking is by vertex id
everywhere, so results are reproducible run to run.

Prunes (a) and (b) are settled by each node for all its children at once,
before it expands any: (a) from the children's candidate-ordering keys, and
(b) by one sweep of the node's unvisited set, which is every child's region,
until it joins the node's candidates.  The root checks once that the whole
graph is connected.  The shared (a) needs loop-free adjacency rows, which
``KPartiteGraph`` guarantees.  The tree searched, its node count and the
cycle found are those of the full checks at every node.  Prune (c) is
skipped while half the remaining stretch holds the largest union.

Because the prunes equal the full checks, a node's subtree depends on its
state alone: the endpoint and the visited set, not the path that reached it
(the observation behind Held & Karp's 1962 dynamic program).  So the search
records the size of each failed child's subtree of more than one node under
that state and, when the state comes up again, adds the recorded size
instead of searching it again.  The record lives in one call and is made
when first needed, so a search that never backtracks pays nothing for it.

Non-Hamiltonicity is reported through checkable witnesses wherever a cheap
certificate exists; exhaustive search is the fallback, guarded at n <=
``HAM_SIZE_LIMIT``.  An exhaustive refutation is certified by a second
decider with a different algorithm: a search over edges that forces and
deletes them (degree-2 forcing and subcycle exclusion, after Vandegriend &
Culberson), which shares no code with the path search.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, fields
from typing import Union

from .graphs import (
    CycleCertificate,
    GraphError,
    KPartiteGraph,
    SizeGuardError,
    _bits,
    _max_independent,
    _reach,
    connected_components,
    is_independent,
)

HAM_SIZE_LIMIT = 40
ENUMERATE_SIZE_LIMIT = 14
# Longest-cycle enumeration costs its output, so it also stops past this
# many cycles.  The lemma check's graphs need at most 24 (n = 7) and tier-1
# callers at most 2,392; K_{7,7} and K_14 reach the guard in about 0.5 s.
ENUMERATE_COUNT_LIMIT = 100_000
# The longest-cycle search, in either mode, stops past this many DFS nodes.
# The lemma check's 280 graphs need at most 425 and tier-1 callers at most
# 157,261 (n = 12).  At about a microsecond a node this is about a second:
# K_{6,8} (n = 14), which needs 4.6 million nodes, is refused in 0.7 s.
LONGEST_NODE_LIMIT = 1_000_000
ALPHA_WITNESS_LIMIT = 28


@dataclass(frozen=True)
class SmallCut:
    """Removing ``vertices`` leaves more components than vertices removed."""

    vertices: frozenset[int]


@dataclass(frozen=True)
class IndependentSetTooLarge:
    """An independent set on more than half the vertices."""

    vertices: frozenset[int]


@dataclass(frozen=True)
class BipartiteDegreeOne:
    """An independent half ``a_side`` plus a B-side vertex with at most one
    neighbour across the split, so no cycle can alternate through it."""

    a_side: frozenset[int]
    vertex: int


@dataclass(frozen=True)
class ExhaustiveSearch:
    """No cycle found by complete search; ``nodes`` is the search tree size."""

    nodes: int


NonHamWitness = Union[SmallCut, IndependentSetTooLarge, BipartiteDegreeOne, ExhaustiveSearch]


# Each witness class under the payload ``type`` that names it.
_WITNESS_TYPES = {
    "small_cut": SmallCut,
    "independent_set": IndependentSetTooLarge,
    "bipartite_degree_one": BipartiteDegreeOne,
    "exhaustive_search": ExhaustiveSearch,
}
_WITNESS_NAMES = {cls: name for name, cls in _WITNESS_TYPES.items()}


def witness_to_payload(witness: NonHamWitness) -> dict:
    """The JSON-ready form of a witness, as reports record it: its ``type``
    name, then each dataclass field in declaration order, with vertex sets
    as sorted lists."""
    name = _WITNESS_NAMES.get(type(witness))
    if name is None:
        raise TypeError(f"unknown witness type {type(witness)!r}")
    payload = {"type": name}
    for f in fields(witness):
        value = getattr(witness, f.name)
        payload[f.name] = sorted(value) if isinstance(value, frozenset) else value
    return payload


def witness_from_payload(payload: dict) -> NonHamWitness:
    """Inverse of ``witness_to_payload``.  Raises ValueError, naming the
    field, on a payload that is not an object or has a missing or mistyped
    field; a ``bool`` is not an int."""
    if not isinstance(payload, dict):
        raise ValueError(f"witness payload must be a JSON object, got {payload!r}")
    cls = _WITNESS_TYPES.get(payload.get("type"))
    if cls is None:
        raise ValueError(f"unknown witness payload type {payload.get('type')!r}")
    values = []
    for f in fields(cls):
        if f.name not in payload:
            raise ValueError(f"witness payload field {f.name!r} is missing")
        value = payload[f.name]
        is_set = f.type.startswith("frozenset")
        if is_set and not isinstance(value, list):
            raise ValueError(f"witness payload field {f.name!r} must be a list, got {value!r}")
        if any(type(item) is not int for item in (value if is_set else [value])):
            kind = "a list of ints" if is_set else "an int"
            raise ValueError(f"witness payload field {f.name!r} must be {kind}, got {value!r}")
        values.append(frozenset(value) if is_set else value)
    return cls(*values)


def verify_cycle(g: KPartiteGraph, cert: CycleCertificate) -> bool:
    """True iff the certificate is a genuine cycle of g: distinct in-range
    vertices, length at least 3, consecutively adjacent with wraparound.

    The certificate's span and edge mask are computed once, so a call is a
    range test and one AND of the mask against the absent edges of
    ``g.packed``."""
    span = cert.span
    if span is None or span[0] < 0 or span[1] >= g.n:
        return False
    return not cert.edge_mask(g.stride) & ~g.packed


def _independent_part_unions(g: KPartiteGraph) -> list[int]:
    """Independent unions of whole parts, grown greedily from each part.

    Used by the cardinality prune: vertices of an independent set must be
    pairwise non-adjacent along the cycle, so no such union may exceed half
    of any remaining stretch.  From each start part, the greedy scans the
    parts largest first, ties by part index, and adds each part with no edge
    into the parts chosen so far.
    """
    part_masks = g.part_masks
    reach = [0] * g.k
    for p, row in zip(g.part_of, g.adj):
        reach[p] |= row
    order = sorted(range(g.k), key=lambda p: -part_masks[p].bit_count())
    unions = set()
    for start in order:
        chosen, blocked = part_masks[start], reach[start]
        for p in order:
            if not part_masks[p] & (chosen | blocked):
                chosen |= part_masks[p]
                blocked |= reach[p]
        unions.add(chosen)
    return sorted(unions)


def _ham_search(
    n: int,
    adj: tuple[int, ...],
    unions: list[int],
) -> tuple[tuple[int, ...] | None, int]:
    """Core search.  Returns (cycle vertex order or None, nodes expanded).

    A node with endpoint u and unvisited set U is pruned when (a) some vertex
    of U has fewer than two usable neighbours in U + {u, start}, or start has
    none left in U; (b) U + {u} is disconnected; (c) a part union has more
    than (|U| + 1) // 2 vertices in U.  A node settles two prunes for all its
    children, because a child is expanded only when its parent passed every
    prune:

    - (a) Since ``adj`` is loop-free, a child with endpoint v has the usable
      set U + {start}, which is its parent's minus u, so only the parent's
      other candidates can fail it, with exactly the counts the parent sorts
      them by.  The parent settles (a) for all its children from those
      counts; the root checks every vertex once.
    - (b) Every child's region is the parent's unvisited set U, which is the
      parent's connected region minus u, and a connected graph stays
      connected without u iff u's neighbours stay in one component.  So the
      parent sweeps U once, from its lowest candidate, and stops once it has
      reached all its candidates; the root checks the whole graph once.

    Pruned children count as expanded nodes whichever way they are pruned,
    so ``nodes`` is the size of the full search tree.  With the prunes a
    function of the node's state, a failed child's subtree size, when above
    one node, is kept in ``dead`` under the key ``v << n | visited``
    (endpoint and visited set), and a repeat of that state adds the size
    instead of searching it.
    """
    if n < 3:
        return None, 0
    full = (1 << n) - 1
    start = min(range(n), key=lambda v: (adj[v].bit_count(), v))
    # (a) at the root: all usable, so every other vertex needs degree two.
    for w in range(n):
        if w != start and adj[w].bit_count() < 2:
            return None, 1
    sbit = 1 << start
    # (b) at the root: the whole graph must be connected.
    if _reach(adj, sbit, full) != full:
        return None, 1
    adj_start = adj[start]
    # A plain loop: cheaper than max() over a few unions, once per search.
    widest = 0
    for mask in unions:
        if mask.bit_count() > widest:
            widest = mask.bit_count()
    path = [start]
    nodes = 0
    # Made on the first record: most sweep searches never fail a child.
    dead: dict[int, int] | None = None

    def extend(u: int, visited: int) -> bool:
        nonlocal nodes, dead
        if dead is not None:
            # A state that failed before: add its subtree, this node included.
            size = dead.get(u << n | visited)
            if size is not None:
                nodes += size
                return False
        nodes += 1
        if visited == full:
            return bool(adj[u] & sbit)
        unvisited = full ^ visited
        # (a) for the start vertex: it needs a future way back in.
        if not adj_start & unvisited:
            return False
        # (c) independent part unions must fit in the remaining stretch.
        cap = (unvisited.bit_count() + 1) // 2
        if cap < widest:
            for mask in unions:
                if (mask & unvisited).bit_count() > cap:
                    return False
        # Candidates, fewest remaining options first, ties by vertex id.
        remaining = unvisited | sbit
        cands = []
        ahead = rest = adj[u] & unvisited
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            cands.append(((adj[v] & remaining).bit_count(), v))
            rest ^= low
        cands.sort()
        # (a) for the children: each child fails it iff some other candidate
        # has fewer than two options, and those sort first.
        if len(cands) > 1 and cands[1][0] < 2:
            nodes += len(cands)
            return False
        # (b) for the children: each one's region is U, and it is connected
        # iff every candidate lies in one component of U.
        seen = frontier = ahead & -ahead
        while ahead & ~seen:
            if not frontier:
                nodes += len(cands)
                return False
            grown = 0
            while frontier:
                low = frontier & -frontier
                grown |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = grown & unvisited & ~seen
            seen |= frontier
        for options, v in cands:
            child = visited | (1 << v)
            before = nodes
            path.append(v)
            if extend(v, child):
                return True
            path.pop()
            # A one-node subtree is its own prune, as cheap to repeat as to
            # look up; leaving those out spares most small searches a record.
            if nodes - before > 1:
                if dead is None:
                    dead = {}
                dead[v << n | child] = nodes - before
            if options < 2:
                nodes += len(cands) - 1
                return False
        return False

    found = extend(start, sbit)
    # ``extend`` refers to itself through its own cell.  Clearing the cells
    # frees it and the record now; left to the cycle collector, the garbage
    # of one search per graph kept it busy.
    extend = dead = None
    return (tuple(path) if found else None), nodes


def _decide_hamiltonian(g: KPartiteGraph) -> tuple[tuple[int, ...] | None, int]:
    """g's search result, (cycle order or None, nodes expanded): searched on
    the first call for this object and kept in ``g.decision``."""
    # The search's root refutes a graph with a vertex of degree < 2, or a
    # disconnected one, within two nodes.
    decision = g.decision
    if decision is None:
        decision = g.decision = _ham_search(g.n, g.adj, _independent_part_unions(g))
    return decision


def _guard_ham_size(n: int) -> None:
    if n > HAM_SIZE_LIMIT:
        raise SizeGuardError(f"hamiltonian search guarded at n <= {HAM_SIZE_LIMIT}, got {n}")


def find_hamiltonian_cycle(g: KPartiteGraph) -> CycleCertificate | None:
    """A Hamiltonian cycle of g, or None if there is none.  Exact; guarded
    at n <= ``HAM_SIZE_LIMIT``."""
    if g.n < 3:
        raise GraphError(f"a cycle needs at least 3 vertices, got n={g.n}")
    _guard_ham_size(g.n)
    order, _ = _decide_hamiltonian(g)
    if order is None:
        return None
    cert = CycleCertificate(order)
    assert verify_cycle(g, cert)
    return cert


# -- second decider -----------------------------------------------------------


def _forced_edge_search(
    n: int, adj: tuple[int, ...], independent: Sequence[int]
) -> tuple[int, ...] | None:
    """A Hamiltonian cycle's vertex order, or None if there is none.

    An exact decider that shares no code with ``_ham_search``: it branches
    on edges, not on path extensions (Vandegriend & Culberson, JAIR 1998).
    Every edge is available, forced into the cycle, or deleted.  Each node
    propagates to a fixed point: a vertex left with two available edges has
    both forced, a vertex with two forced edges loses its other edges, a
    vertex with fewer than two available edges is a contradiction, and an
    edge that would close a forced path of fewer than n vertices is deleted.
    A node is also pruned when some mask I of ``independent``, which must
    hold pairwise non-adjacent vertices, is offered fewer than 2|I| cycle
    edges: each vertex outside I gives at most two.  It then branches
    "force, then delete" on the lowest unforced edge of the lowest vertex
    with fewer than two forced edges and the fewest available ones.  The
    branch stack is an explicit list, since its depth can reach the edge
    count.
    """
    if n < 3:
        return None
    avail = list(adj)
    forced = [0] * n
    # For a forced-path endpoint: the other endpoint and the path's edge
    # count.  A vertex on no forced edge is its own one-vertex path.
    other = list(range(n))
    length = [0] * n
    queue: list[int] = []
    closing: list[tuple[int, int]] = []

    def force(u: int, w: int) -> bool:
        """Force u-w; False on a contradiction or when it closes the cycle
        (then recorded in ``closing``)."""
        bw = 1 << w
        if not avail[u] & bw or forced[u].bit_count() == 2 or forced[w].bit_count() == 2:
            return False
        a, b = other[u], other[w]
        if a == w:
            if length[u] == n - 1:
                closing.append((u, w))
            return False
        forced[u] |= bw
        forced[w] |= 1 << u
        edges = length[u] + length[w] + 1
        other[a], other[b] = b, a
        length[a] = length[b] = edges
        queue.append(u)
        queue.append(w)
        if 1 < edges < n - 1 and avail[a] >> b & 1:
            avail[a] &= ~(1 << b)
            avail[b] &= ~(1 << a)
            queue.append(a)
            queue.append(b)
        return True

    def propagate() -> bool:
        """Apply the rules until nothing changes; False on a contradiction
        or a closed cycle, leaving ``queue`` empty either way."""
        while queue:
            v = queue.pop()
            row = avail[v]
            options = row.bit_count()
            if options < 2:
                queue.clear()
                return False
            loose = row & ~forced[v]
            if not loose:
                continue
            if forced[v].bit_count() == 2:
                avail[v] = forced[v]
                vbit = 1 << v
                while loose:
                    low = loose & -loose
                    x = low.bit_length() - 1
                    avail[x] &= ~vbit
                    queue.append(x)
                    loose ^= low
            elif options == 2:
                while loose:
                    low = loose & -loose
                    if not force(v, low.bit_length() - 1):
                        queue.clear()
                        return False
                    loose ^= low
        # The vertices next to I, once and twice over: each of them offers
        # I one cycle edge, or two.
        for mask in independent:
            once = twice = 0
            rest = mask
            while rest:
                low = rest & -rest
                row = avail[low.bit_length() - 1]
                twice |= once & row
                once |= row
                rest ^= low
            if once.bit_count() + twice.bit_count() < 2 * mask.bit_count():
                return False
        return True

    stack = []
    queue.extend(range(n))
    alive = propagate()
    while True:
        if alive:
            v = min(
                (u for u in range(n) if forced[u].bit_count() < 2),
                key=lambda u: avail[u].bit_count(),
            )
            loose = avail[v] & ~forced[v]
            w = (loose & -loose).bit_length() - 1
            stack.append(((avail[:], forced[:], other[:], length[:]), v, w))
            alive = force(v, w) and propagate()
            continue
        if closing:
            break
        if not stack:
            return None
        saved, v, w = stack.pop()
        avail[:], forced[:], other[:], length[:] = saved
        avail[v] &= ~(1 << w)
        avail[w] &= ~(1 << v)
        queue.extend((v, w))
        alive = propagate()
    u, w = closing[0]
    forced[u] |= 1 << w
    forced[w] |= 1 << u
    order = [0]
    came_from, here = 0, 0
    for _ in range(n - 1):
        step = forced[here] & ~came_from
        came_from, here = 1 << here, (step & -step).bit_length() - 1
        order.append(here)
    return tuple(order)


def _forced_edge_cycle(g: KPartiteGraph) -> tuple[int, ...] | None:
    """g's Hamiltonian cycle as the second decider finds it, or None if it
    finds none: :func:`_forced_edge_search` over g's part unions, each
    checked independent here rather than trusted.  It neither reads nor
    fills ``g.decision``; like ``find_hamiltonian_cycle``, it is guarded at
    n <= ``HAM_SIZE_LIMIT``."""
    _guard_ham_size(g.n)
    unions = [mask for mask in _independent_part_unions(g) if is_independent(g, _bits(mask))]
    return _forced_edge_search(g.n, g.adj, unions)


# -- longest cycles -----------------------------------------------------------


def _longest_search(
    g: KPartiteGraph, *, collect: bool = False
) -> tuple[int, tuple[int, ...] | None, list[tuple[int, ...]]]:
    """Branch-and-bound longest-cycle search, one pass.

    Returns (longest length, one longest cycle, []).  With ``collect`` set
    it returns (longest length, None, every longest cycle) instead: the list
    holds every cycle of the best length seen so far, cleared whenever a
    longer cycle turns up, and the search prunes only below that length, so
    no longest cycle is lost.  Cycles are rooted at their minimum vertex, so
    each one is generated from a single anchor, once per direction; only the
    direction whose second vertex is below its last is recorded, so each
    cycle is recorded once, as its least rotation or reflection.  Once more
    than ``ENUMERATE_COUNT_LIMIT`` are recorded, or in either mode once more
    than ``LONGEST_NODE_LIMIT`` DFS nodes are entered, it raises
    SizeGuardError.
    """
    n, adj = g.n, g.adj
    count_limit = ENUMERATE_COUNT_LIMIT
    node_limit = LONGEST_NODE_LIMIT
    nodes = 0
    best_len = 0
    best: tuple[int, ...] | None = None
    found: list[tuple[int, ...]] = []

    for anchor in range(n):
        remaining = n - anchor
        if remaining < 3 or remaining < best_len:
            break
        if not collect and remaining == best_len:
            break
        allowed = ((1 << n) - 1) & ~((1 << anchor) - 1)
        abit = 1 << anchor
        path = [anchor]

        def dfs(u: int, visited: int) -> bool:
            nonlocal best_len, best, nodes
            nodes += 1
            if nodes > node_limit:
                raise SizeGuardError(f"longest cycle search guarded at {node_limit} nodes")
            plen = len(path)
            if plen >= 3 and (adj[u] >> anchor) & 1:
                if collect:
                    if plen > best_len:
                        best_len = plen
                        found.clear()
                    if plen == best_len and path[1] < u:
                        found.append(tuple(path))
                        if len(found) > count_limit:
                            raise SizeGuardError(
                                f"longest cycle enumeration guarded at {count_limit} "
                                f"cycles, found {len(found)}"
                            )
                elif plen > best_len:
                    best_len = plen
                    best = tuple(path)
                    if best_len == n:
                        return True
            open_mask = allowed & ~visited
            # The bound: the open vertices reachable from u's open neighbours.
            children = adj[u] & open_mask
            seen = frontier = children
            while frontier:
                grown = 0
                while frontier:
                    low = frontier & -frontier
                    grown |= adj[low.bit_length() - 1]
                    frontier ^= low
                frontier = grown & open_mask & ~seen
                seen |= frontier
            bound = plen + seen.bit_count()
            if bound < best_len or (not collect and bound == best_len):
                return False
            while children:
                low = children & -children
                v = low.bit_length() - 1
                path.append(v)
                if dfs(v, visited | low):
                    return True
                path.pop()
                children ^= low
            return False

        if dfs(anchor, abit):
            break
    # ``dfs`` refers to itself through its own cell; clearing the cell frees
    # the last one now rather than at the next collection.
    dfs = None
    return best_len, best, found


def longest_cycle(g: KPartiteGraph) -> CycleCertificate:
    """A maximum-length cycle of g; raises GraphError on acyclic input.
    Guarded at n <= ``ENUMERATE_SIZE_LIMIT``, as the enumeration is, and at
    ``LONGEST_NODE_LIMIT`` search nodes."""
    if g.n > ENUMERATE_SIZE_LIMIT:
        raise SizeGuardError(f"longest cycle guarded at n <= {ENUMERATE_SIZE_LIMIT}, got {g.n}")
    length, order, _ = _longest_search(g)
    if order is None or length < 3:
        raise GraphError("graph contains no cycle")
    cert = CycleCertificate(order)
    assert verify_cycle(g, cert)
    return cert


def enumerate_longest_cycles(g: KPartiteGraph) -> list[CycleCertificate]:
    """All distinct longest cycles, up to rotation and reflection, each as
    its least rotation or reflection, in ascending order.  Guarded at n <=
    ``ENUMERATE_SIZE_LIMIT``, at ``ENUMERATE_COUNT_LIMIT`` cycles, since
    its cost grows with its output, and at ``LONGEST_NODE_LIMIT`` search
    nodes."""
    if g.n > ENUMERATE_SIZE_LIMIT:
        raise SizeGuardError(
            f"longest cycle enumeration guarded at n <= {ENUMERATE_SIZE_LIMIT}, got {g.n}"
        )
    _, _, found = _longest_search(g, collect=True)
    if not found:
        raise GraphError("graph contains no cycle")
    return [CycleCertificate(seq) for seq in sorted(found)]


# -- non-Hamiltonicity witnesses ----------------------------------------------


def _cut_witness(g: KPartiteGraph) -> SmallCut | None:
    """A cut of g: no vertices if g is disconnected, else its lowest cut
    vertex; None if there is neither.

    One depth-first search from vertex 0 with lowpoints (Hopcroft & Tarjan,
    1973), each child taken lowest id first.  A vertex's lowpoint is the
    least discovery number reachable from its subtree by at most one back
    edge.  The root is a cut vertex iff it has two or more children, and any
    other vertex iff some child's lowpoint is not below its own discovery
    number.  A vertex's already seen neighbours, when it is discovered, are
    all its ancestors, so its back edges are read then, parent included,
    which cannot change the test.
    """
    n, adj = g.n, g.adj
    order = [0] * n  # discovery number, from 1; 0 while unseen
    low = [0] * n
    order[0] = count = seen = 1
    stack = [0]
    cuts = root_children = 0
    while stack:
        v = stack[-1]
        fresh = adj[v] & ~seen
        if fresh:
            w = (fresh & -fresh).bit_length() - 1
            seen |= 1 << w
            count += 1
            order[w] = best = count
            back = adj[w] & seen
            while back:
                bit = back & -back
                above = order[bit.bit_length() - 1]
                if above < best:
                    best = above
                back ^= bit
            low[w] = best
            root_children += v == 0
            stack.append(w)
            continue
        stack.pop()
        if len(stack) > 1:
            parent = stack[-1]
            # A lowpoint below the parent's is below its discovery number.
            if low[v] < low[parent]:
                low[parent] = low[v]
            elif low[v] >= order[parent]:
                cuts |= 1 << parent
    if seen != (1 << n) - 1:
        return SmallCut(frozenset())
    if root_children > 1:
        cuts |= 1
    if not cuts:
        return None
    return SmallCut(frozenset({(cuts & -cuts).bit_length() - 1}))


def _bipartite_degree_one_witness(g: KPartiteGraph) -> BipartiteDegreeOne | None:
    if g.n % 2 != 0:
        return None
    half = g.n // 2
    for mask in _independent_part_unions(g):
        if mask.bit_count() != half:
            continue
        other = ((1 << g.n) - 1) ^ mask
        for b in _bits(other):
            if (g.adj[b] & mask).bit_count() <= 1:
                return BipartiteDegreeOne(frozenset(_bits(mask)), b)
    return None


def _polynomial_witness(g: KPartiteGraph) -> NonHamWitness | None:
    """The search-free part of :func:`non_hamiltonicity_witness`: its
    certificates, tried in the same order, or None when none applies.  A
    None says nothing about g; a witness refutes it in polynomial time."""
    meta = g.meta or {}
    designated = meta.get("independent_set")
    if designated is not None:
        vs = frozenset(designated)
        if 2 * len(vs) > g.n and is_independent(g, vs):
            return IndependentSetTooLarge(vs)
    witness = _cut_witness(g)
    if witness is not None:
        return witness
    if g.n <= ALPHA_WITNESS_LIMIT:
        _, mask = _max_independent(g.adj, (1 << g.n) - 1, g.n // 2)
        if mask:
            return IndependentSetTooLarge(frozenset(_bits(mask)))
    return _bipartite_degree_one_witness(g)


def non_hamiltonicity_witness(g: KPartiteGraph) -> NonHamWitness | None:
    """Cheapest available evidence that g has no Hamiltonian cycle.

    Tries certificates in order: a designated independent set from family
    metadata (free), a small cut, an oversized independent set up to
    ``ALPHA_WITNESS_LIMIT`` vertices, an independent half with a degree-<=1
    vertex opposite it (together :func:`_polynomial_witness`), and finally
    exhaustive search up to ``HAM_SIZE_LIMIT`` vertices.  Returns None when
    g is Hamiltonian or no certificate is found within the guards.

    The independent-set step is one search for a maximum independent set
    that is bounded below by n/2, so it gives up on every branch that cannot
    beat that bound, by size or by a matching.  The exhaustive step reuses
    g's own decision when ``find_hamiltonian_cycle`` has already searched
    this object; :func:`witness_certifies` checks it with a second decider.
    """
    witness = _polynomial_witness(g)
    if witness is None and 3 <= g.n <= HAM_SIZE_LIMIT:
        order, nodes = _decide_hamiltonian(g)
        if order is None:
            return ExhaustiveSearch(nodes)
    return witness


def witness_certifies(g: KPartiteGraph, witness: NonHamWitness) -> bool:
    """Independently check a witness against its host graph.

    All variants except ExhaustiveSearch are polynomial-time certificates.
    ExhaustiveSearch is checked by a second decider with a different
    algorithm, :func:`_forced_edge_cycle`, which ignores its node count
    and, like ``find_hamiltonian_cycle``, is guarded at n <=
    ``HAM_SIZE_LIMIT``.
    """
    if isinstance(witness, SmallCut):
        removed = 0
        for v in witness.vertices:
            if not 0 <= v < g.n:
                return False
            removed |= 1 << v
        if removed.bit_count() >= g.n:
            return False
        pieces = len(connected_components(g, removed=removed))
        return pieces > max(len(witness.vertices), 1)
    if isinstance(witness, IndependentSetTooLarge):
        vs = witness.vertices
        return (
            all(0 <= v < g.n for v in vs)
            and 2 * len(vs) > g.n
            and is_independent(g, vs)
        )
    if isinstance(witness, BipartiteDegreeOne):
        a = witness.a_side
        if not all(0 <= v < g.n for v in a) or witness.vertex in a:
            return False
        if 2 * len(a) != g.n or not 0 <= witness.vertex < g.n:
            return False
        if not is_independent(g, a):
            return False
        a_mask = 0
        for v in a:
            a_mask |= 1 << v
        return (g.adj[witness.vertex] & a_mask).bit_count() <= 1
    if isinstance(witness, ExhaustiveSearch):
        return _forced_edge_cycle(g) is None
    raise TypeError(f"unknown witness type {type(witness)!r}")
