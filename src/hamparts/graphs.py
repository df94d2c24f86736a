"""k-partite graphs over bitmask adjacency, with exact structural queries.

Vertices are 0..n-1.  Each vertex carries a part index and a neighbourhood
stored as a Python int bitmask, so neighbourhood intersections, degree counts
and reachability sweeps are word-parallel.  Graphs are immutable after
construction, apart from the solver's cached decision; every derived graph is
a new value.

The constructor validates every graph on one packed int: row v shifted by
v * stride, where the stride is n rounded up to a power of two and to at
least 8, so every row fills a whole number of bytes.  The rows are packed by
one conversion to bytes, which refuses a negative or over-wide row; one AND
against the packed self-loops, intra-part pairs and columns at or above n,
and a bit-matrix transpose in log2(stride) delta swaps, decide the rest.
What is derived from the partition alone is memoized per ``part_of``.  The
per-row and per-pair loops run only on rejected rows, and only to name the
first defect in the error message.

The codec moves whole ints too.  A graph6 body is a bit stream of the pairs
(i, j), i < j, column j by column, cut into 6-bit groups written as the
bytes 63-126; base64 cuts a byte stream into the same groups, so the body
is base64 text under a byte translation.  ``graph6_encode`` writes the
stream as one int from the rows, n shifts in all, and reverses the bits of
each byte, so that the int's lowest bit leads; ``decode`` reads it back the
same way, packs column j as row j at the layout's stride, tests that lower
triangle against the layout's intra-part mask and adds its transpose, made
by the layout's swaps.  The rows then go through the constructor's checks
like any others.
"""

from __future__ import annotations

import binascii
from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, NoReturn


class GraphError(ValueError):
    """Invalid graph construction, decoding, or query."""


class SizeGuardError(RuntimeError):
    """An exact computation was requested beyond its configured size guard."""


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# What the constructor and ``encode`` derive from a valid partition alone,
# for recently seen partitions: part_of -> (key, k, part masks, stride,
# to_bytes, intra, swaps, header, by_size).  ``key`` is the part_of tuple last
# checked against the entry, ``to_bytes`` is the stride's row packer (see
# :func:`_row_packer`), ``intra`` holds the packed bits of every self-loop,
# intra-part edge and column at or above n, ``swaps`` the transpose's rounds,
# ``header`` the first line of :func:`encode`'s text, newline included, and
# ``by_size`` the part indices, largest part first, ties by index.
# Both masks are packed rows too, so a layout costs time linear in its packed
# size.  A tuple of other numbers can equal an int tuple (0.0 == 0), so only
# a call that passes ``key`` itself skips the int check.  The oldest entry is
# dropped once the memo is full.
_LAYOUT_MEMO_SIZE = 32
_layouts: dict[tuple[int, ...], tuple] = {}


def _wide_rows(width: int, adj: tuple[int, ...]) -> bytes:
    return b"".join([int.to_bytes(row, width, "little") for row in adj])


def _row_packer(stride: int):
    """The function that turns rows of ``stride`` bits into the packed int's
    bytes, least significant first: ``bytes`` for one byte per row, else
    ``int.to_bytes`` row by row.  It raises OverflowError or ValueError on a
    row that is negative or has a bit at or above ``stride``.  Every packed
    matrix is built by it: graph rows, the layout's masks and cycle edge
    masks."""
    if stride == 8:
        return bytes
    return partial(_wide_rows, stride // 8)


def _transpose_swaps(stride: int, to_bytes) -> tuple[tuple[int, int], ...]:
    """Delta swaps that transpose a stride x stride bit matrix packed row by
    row, ``stride`` bits per row (Warren, Hacker's Delight, section 7-3).

    The round for block size j swaps, in every aligned 2j x 2j block, the
    upper-right j x j block (rows r with bit j clear, columns c with bit j
    set) with the lower-left one, j * (stride - 1) bits further up.  Its
    mask holds those columns on each row with bit j clear: a block of j such
    rows and j empty ones, packed by ``to_bytes``, the stride's row packer,
    and repeated down the matrix.
    """
    row = (1 << stride) - 1
    j = stride // 2
    right_cols = row ^ (row >> j)
    swaps = []
    while j:
        block = to_bytes([right_cols] * j + [0] * j)
        swaps.append((j * (stride - 1), int.from_bytes(block * (stride // (2 * j)), "little")))
        j //= 2
        right_cols ^= right_cols >> j
    return tuple(swaps)


def _layout(part_of: tuple[int, ...]) -> tuple:
    """Validate a partition, derive its layout or take it from the memo,
    and memoize it with ``part_of`` as its key."""
    if {*map(type, part_of)} != {int}:
        raise GraphError("part indices must be ints")
    layout = _layouts.get(part_of)
    if layout is not None:
        layout = _layouts[part_of] = (part_of, *layout[1:])
        return layout
    k = max(part_of) + 1
    if min(part_of) < 0:
        raise GraphError("negative part index")
    part_masks = [0] * k
    for v, p in enumerate(part_of):
        part_masks[p] |= 1 << v
    if 0 in part_masks:
        raise GraphError("part indices must be contiguous and nonempty")
    n = len(part_of)
    stride = max(8, 1 << (n - 1).bit_length())
    pad = ((1 << stride) - 1) ^ ((1 << n) - 1)
    to_bytes = _row_packer(stride)
    intra = int.from_bytes(to_bytes([part_masks[p] | pad for p in part_of]), "little")
    swaps = _transpose_swaps(stride, to_bytes)
    parts = ", ".join(" ".join(map(str, _bits(mask))) for mask in part_masks)
    header = f"kpart {k}: {parts}\n"
    by_size = tuple(sorted(range(k), key=lambda p: -part_masks[p].bit_count()))
    layout = (part_of, k, tuple(part_masks), stride, to_bytes, intra, swaps, header, by_size)
    if len(_layouts) >= _LAYOUT_MEMO_SIZE:
        del _layouts[next(iter(_layouts))]
    _layouts[part_of] = layout
    return layout


def _memo_layout(part_of: tuple[int, ...]) -> tuple:
    """The layout of a partition some graph was built on: the memo's entry,
    or the layout derived again once the memo has dropped it."""
    return _layouts.get(part_of) or _layout(part_of)


def _transposed(packed: int, swaps) -> int:
    """The transpose of a packed bit matrix, by its layout's ``swaps``."""
    for shift, mask in swaps:
        delta = (packed ^ (packed >> shift)) & mask
        packed ^= delta ^ (delta << shift)
    return packed


def _unpacked(packed: int, n: int, stride: int):
    """The first n rows of a matrix packed at ``stride``, as a sequence of
    ints: the inverse of the stride's row packer."""
    if stride == 8:
        return packed.to_bytes(n, "little")
    width = stride // 8
    data = packed.to_bytes(n * width, "little")
    return [int.from_bytes(data[v * width : (v + 1) * width], "little") for v in range(n)]


def _packed_rows(adj: tuple[int, ...], to_bytes, intra: int, swaps) -> int | None:
    """The rows packed at the layout's stride if they form a valid graph,
    else None.  Rows are valid when ``to_bytes`` accepts each, the packed
    matrix misses ``intra``, and it equals its own transpose."""
    try:
        packed = int.from_bytes(to_bytes(adj), "little")
    except (OverflowError, ValueError):
        return None
    if packed & intra:
        return None
    # _transposed's loop, inlined: every graph built passes through here.
    transposed = packed
    for shift, mask in swaps:
        delta = (transposed ^ (transposed >> shift)) & mask
        transposed ^= delta ^ (delta << shift)
    return packed if transposed == packed else None


def _relabelled_rows(g: KPartiteGraph, order) -> tuple[int, ...]:
    """g's rows once its vertex ``order[i]`` is named i, for a permutation
    ``order`` of range(g.n), n >= 2: the rows taken in that order, the
    matrix transposed, and its rows taken in that order again.  g is
    symmetric, so the transpose carries the first reordering over to the
    columns."""
    _, _, _, stride, to_bytes, _, swaps, _, _ = _memo_layout(g.part_of)
    pick = itemgetter(*order)
    packed = int.from_bytes(to_bytes(pick(g.adj)), "little")
    return pick(_unpacked(_transposed(packed, swaps), g.n, stride))


def _name_defect(part_of: tuple[int, ...], adj: tuple[int, ...], part_masks) -> NoReturn:
    """Raise the GraphError naming the first defect of rows that failed
    :func:`_packed_rows`: row checks in vertex order, then the first
    asymmetric pair in vertex order, then neighbour order."""
    full = (1 << len(adj)) - 1
    for v, row in enumerate(adj):
        if row < 0 or row & ~full:
            raise GraphError(f"vertex {v} has an out-of-range neighbour")
        if row & (1 << v):
            raise GraphError(f"self-loop at vertex {v}")
        if row & part_masks[part_of[v]]:
            raise GraphError(f"intra-part edge at vertex {v}")
    for v, row in enumerate(adj):
        while row:
            low = row & -row
            u = low.bit_length() - 1
            if not (adj[u] >> v) & 1:
                raise GraphError(f"asymmetric adjacency between {u} and {v}")
            row ^= low
    raise RuntimeError("packed row check rejected rows that have no defect")


class KPartiteGraph:
    """A k-partite graph with an explicit vertex partition.

    ``part_of[v]`` is the part index of vertex v and ``adj[v]`` the bitmask of
    its neighbours.  Adjacency is symmetric, loop-free, and never joins two
    vertices of the same part.  ``build_graph`` additionally enforces that all
    parts have equal size; graphs produced by subgraph operations (such as
    ``induced_bipartite``) may be unbalanced.

    ``packed`` holds every row in one int, row v shifted by v * ``stride``,
    where ``stride`` is n rounded up to a power of two and to at least 8, so
    each row is a whole number of bytes: edge u -> v is bit u * stride + v.
    The constructor validates the rows on ``packed`` (see
    :func:`_packed_rows`); only when that fails do the per-row and
    per-pair loops of :func:`_name_defect` run, to name the first defect.

    ``decision`` is None until the solver first decides Hamiltonicity of this
    object; it then holds that search's result, (cycle order or None, nodes
    expanded), so later calls on the same object do not search again.  It is
    derived from ``adj`` alone and takes no part in equality or hashing.
    """

    __slots__ = (
        "n", "k", "part_of", "adj", "part_masks", "packed", "stride", "meta", "decision"
    )

    def __init__(
        self,
        part_of: Iterable[int],
        adj: Iterable[int],
        meta: Mapping | None = None,
    ):
        part_of = tuple(part_of)
        adj = tuple(adj)
        n = len(part_of)
        if n == 0:
            raise GraphError("graph must have at least one vertex")
        if len(adj) != n:
            raise GraphError(f"adjacency has {len(adj)} rows for {n} vertices")
        layout = _layouts.get(part_of)
        if layout is None or layout[0] is not part_of:
            layout = _layout(part_of)
        _, k, part_masks, stride, to_bytes, intra, swaps, _, _ = layout
        packed = _packed_rows(adj, to_bytes, intra, swaps)
        if packed is None:
            _name_defect(part_of, adj, part_masks)
        self.n = n
        self.k = k
        self.part_of = part_of
        self.adj = adj
        self.part_masks = part_masks
        self.packed = packed
        self.stride = stride
        self.meta = dict(meta) if meta else None
        self.decision = None

    # -- basic queries ----------------------------------------------------

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def min_degree(self) -> int:
        return min(map(int.bit_count, self.adj))

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in _bits(self.adj[u] >> (u + 1)):
                yield (u, u + 1 + v)

    def edge_count(self) -> int:
        return sum(map(int.bit_count, self.adj)) // 2

    def part_members(self, p: int) -> tuple[int, ...]:
        return tuple(_bits(self.part_masks[p]))

    @property
    def is_balanced(self) -> bool:
        sizes = {mask.bit_count() for mask in self.part_masks}
        return len(sizes) == 1

    def with_meta(self, meta: Mapping | None) -> "KPartiteGraph":
        return KPartiteGraph(self.part_of, self.adj, meta)

    # -- identity ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, KPartiteGraph):
            return NotImplemented
        return self.part_of == other.part_of and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.part_of, self.adj))

    def __repr__(self) -> str:
        return f"KPartiteGraph(n={self.n}, k={self.k}, edges={self.edge_count()})"


@dataclass(frozen=True)
class CycleCertificate:
    """An ordered list of distinct vertices, closed by a wraparound edge.

    What checking it needs of the vertices alone is kept on the instance
    outside the dataclass fields, so equality, hashing and repr see
    ``vertices`` alone: ``span``, (lowest, highest) vertex if there are at
    least 3 vertices and no two are equal, else None, set at construction;
    and one ``edge_mask`` per stride, made on first use.  Neither is
    computed again, so a list passed as ``vertices`` must not change
    afterwards.
    """

    vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        # Plain attributes, not cached properties: on Python 3.11 and before
        # a cached property's first read takes a lock, which a certificate
        # checked once would pay in full.
        vs = self.vertices
        span = None if len(vs) < 3 or len(set(vs)) != len(vs) else (min(vs), max(vs))
        object.__setattr__(self, "span", span)
        object.__setattr__(self, "_edge_masks", {})

    def __len__(self) -> int:
        return len(self.vertices)

    def edge_mask(self, stride: int) -> int:
        """Bit u * stride + v for each edge u -> v, the closing edge
        included: the bits the edges have in ``KPartiteGraph.packed`` at that
        stride.  Needs every vertex in range(stride)."""
        masks = self._edge_masks
        mask = masks.get(stride)
        if mask is None:
            vs = self.vertices
            rows = [0] * (max(vs) + 1)
            prev = vs[-1]
            for v in vs:
                rows[prev] |= 1 << v
                prev = v
            mask = masks[stride] = int.from_bytes(_row_packer(stride)(rows), "little")
        return mask


def build_graph(
    n: int,
    k: int,
    part_of: Iterable[int],
    edges: Iterable[tuple[int, int]],
    meta: Mapping | None = None,
) -> KPartiteGraph:
    """Construct a balanced k-partite graph, rejecting each invariant breach
    with a distinct error (unbalanced partition, out-of-range vertex,
    self-loop, intra-part edge)."""
    if k < 1:
        raise GraphError(f"k must be at least 1, got {k}")
    if n < 1 or n % k != 0:
        raise GraphError(f"k must divide n with n >= 1, got n={n} k={k}")
    part_of = tuple(part_of)
    if len(part_of) != n:
        raise GraphError(f"part_of has {len(part_of)} entries for n={n}")
    if any(p < 0 or p >= k for p in part_of):
        raise GraphError("out-of-range part index")
    sizes = [0] * k
    for p in part_of:
        sizes[p] += 1
    if any(s != n // k for s in sizes):
        raise GraphError(f"unbalanced partition: sizes {sizes} for m={n // k}")
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"out-of-range vertex in edge ({u}, {v})")
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        if part_of[u] == part_of[v]:
            raise GraphError(f"intra-part edge ({u}, {v}) in part {part_of[u]}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return KPartiteGraph(part_of, adj, meta)


def blocks_partition(n: int, k: int) -> tuple[int, ...]:
    """The canonical partition into k consecutive blocks of size n/k."""
    m = n // k
    return tuple(v // m for v in range(n))


def cross_pairs(n: int, k: int) -> list[tuple[int, int]]:
    """Cross-part vertex pairs of the block partition, lexicographic order."""
    part_of = blocks_partition(n, k)
    return [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if part_of[u] != part_of[v]
    ]


def complete_kpartite(k: int, m: int) -> KPartiteGraph:
    """Complete balanced k-partite graph on n = m*k vertices."""
    n = m * k
    return build_graph(n, k, blocks_partition(n, k), cross_pairs(n, k))


def _mask(vertices: Iterable[int], n: int) -> int:
    mask = 0
    for v in vertices:
        if not 0 <= v < n:
            raise GraphError(f"vertex {v} out of range for n={n}")
        mask |= 1 << v
    return mask


def degree_between(g: KPartiteGraph, a_side: Iterable[int], b_side: Iterable[int]) -> int:
    """min over v in A of |N(v) & B|, for disjoint vertex sets A and B."""
    a_mask = _mask(a_side, g.n)
    b_mask = _mask(b_side, g.n)
    if a_mask & b_mask:
        raise GraphError("degree_between requires disjoint sets")
    if a_mask == 0:
        raise GraphError("degree_between: empty A side has no minimum")
    return min((g.adj[v] & b_mask).bit_count() for v in _bits(a_mask))


def is_independent(g: KPartiteGraph, vertices: Iterable[int]) -> bool:
    mask = _mask(vertices, g.n)
    return all((g.adj[v] & mask) == 0 for v in _bits(mask))


# -- exact maximum independent set -----------------------------------------

ALPHA_SIZE_LIMIT = 64


def _max_independent(adj: tuple[int, ...], avail: int, floor: int = 0) -> tuple[int, int]:
    """(size, witness mask) of the first maximum independent subset of
    ``avail`` when it has more than ``floor`` vertices, else ``(floor, 0)``.

    Branches on a vertex of largest degree, "with" before "without".  The
    "without" branch only looks for a set larger than the "with" one, and no
    branch is searched that cannot beat ``floor``: an independent set holds
    at most one end of each edge of a matching, so it has at most |avail|
    minus the matching's size vertices.  A greedy matching, taken in the
    sweep that finds the branch vertex, gives that bound; a branch within
    it returns ``(floor, 0)``, as its search would have.
    """
    bound = avail.bit_count()
    if bound <= floor:
        return floor, 0
    best_v = -1
    best_d = -1
    # ``bound`` drops by one for each edge of a greedy matching.
    unmatched = avail
    for v in _bits(avail):
        row = adj[v] & avail
        d = row.bit_count()
        if d > best_d:
            best_d = d
            best_v = v
        mates = row & unmatched
        if mates and unmatched >> v & 1:
            unmatched ^= (1 << v) | (mates & -mates)
            bound -= 1
    if bound <= floor:
        return floor, 0
    if best_d <= 1:
        # The available vertices induce a matching plus isolated vertices:
        # one endpoint per edge, everything else entirely.
        chosen = 0
        rest = avail
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            chosen |= low
            rest ^= low
            rest &= ~adj[v]
        size = chosen.bit_count()
        return (size, chosen) if size > floor else (floor, 0)
    bit = 1 << best_v
    best = 0
    size, mask = _max_independent(adj, avail & ~adj[best_v] & ~bit, floor - 1)
    if size >= floor:
        floor, best = size + 1, mask | bit
    size, mask = _max_independent(adj, avail ^ bit, floor)
    if size > floor:
        return size, mask
    return floor, best


def independence_number(g: KPartiteGraph) -> int:
    """Exact maximum independent set size, guarded at ``ALPHA_SIZE_LIMIT``
    vertices."""
    if g.n > ALPHA_SIZE_LIMIT:
        raise SizeGuardError(f"independence_number guarded at n <= {ALPHA_SIZE_LIMIT}, got {g.n}")
    size, _ = _max_independent(g.adj, (1 << g.n) - 1)
    return size


def maximum_independent_set(g: KPartiteGraph) -> frozenset[int]:
    """A maximum independent set witnessing :func:`independence_number`."""
    if g.n > ALPHA_SIZE_LIMIT:
        raise SizeGuardError(
            f"maximum_independent_set guarded at n <= {ALPHA_SIZE_LIMIT}, got {g.n}"
        )
    _, mask = _max_independent(g.adj, (1 << g.n) - 1)
    return frozenset(_bits(mask))


# -- connectivity ------------------------------------------------------------


def _reach(adj: tuple[int, ...], seed: int, region: int) -> int:
    """Vertices of ``region`` reachable from the ``seed`` mask, a subset of
    ``region``, through ``region``."""
    seen = frontier = seed
    while frontier:
        grown = 0
        while frontier:
            low = frontier & -frontier
            grown |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = grown & region & ~seen
        seen |= frontier
    return seen


def connected_components(g: KPartiteGraph, removed: int = 0) -> list[int]:
    """Component masks of the graph with the ``removed`` vertex mask deleted."""
    remaining = ((1 << g.n) - 1) & ~removed
    components = []
    while remaining:
        seen = _reach(g.adj, remaining & -remaining, remaining)
        components.append(seen)
        remaining &= ~seen
    return components


# Augmenting-path BFS layers one vertex_connectivity call may grow.  Tier-1
# and CI callers need at most 11,942 (F(4, 10), n = 40).  A layer costs more
# as n grows: F(2, 100) (n = 200, kappa 49), which ran for 50 s unguarded,
# is refused in about 2.5 s.
KAPPA_LAYER_LIMIT = 50_000


def _local_vertex_connectivity(split: list[int], s: int, t: int, budget: int) -> tuple[int, int]:
    """Maximum number of internally disjoint paths between non-adjacent s and
    t: shortest augmenting paths from s_out to t_in in a copy of the
    vertex-split digraph ``split`` of :func:`vertex_connectivity`.  Every arc
    has capacity one, and an inner vertex's one in-to-out arc lets at most
    one path through it.  Each BFS layer spends one of ``budget`` layers;
    returns (the maximum, the layers left), and raises SizeGuardError once
    none are left."""
    residual = split.copy()
    source, sink = 2 * s + 1, 2 * t
    parent = [0] * len(split)
    flow = 0
    while True:
        seen = frontier = 1 << source
        while frontier and not seen >> sink & 1:
            if not budget:
                raise SizeGuardError(
                    f"vertex connectivity guarded at {KAPPA_LAYER_LIMIT} augmenting-path BFS layers"
                )
            budget -= 1
            layer = 0
            for a in _bits(frontier):
                fresh = residual[a] & ~seen
                seen |= fresh
                layer |= fresh
                for b in _bits(fresh):
                    parent[b] = a
            frontier = layer
        if not seen >> sink & 1:
            return flow, budget
        b = sink
        while b != source:
            a = parent[b]
            residual[a] ^= 1 << b
            residual[b] |= 1 << a
            b = a
        flow += 1


def vertex_connectivity(g: KPartiteGraph) -> int:
    """Exact vertex connectivity; n-1 for complete graphs.

    The vertex-split digraph is built once as 2n bit rows: v_in = 2v has one
    arc, to v_out = 2v + 1, and v_out an arc to w_in for each neighbour w.
    Only Even's pairs are tried: each source u = 0, 1, ... while u is below
    the best count so far, with every non-adjacent v > u.  Take a minimum
    cut S and the first vertex u outside it: the vertices before u all lie
    in S, so u <= |S|, and every vertex beyond the cut comes after u, so S
    separates u from a tried v.  The loop stops at a source u' <= u only once
    the best count is at most u' <= |S|, that is, already minimal.  The
    flows of one call grow at most ``KAPPA_LAYER_LIMIT`` BFS layers in all.
    """
    n = g.n
    if n < 2:
        raise GraphError("vertex_connectivity needs at least 2 vertices")
    # Read in base 4, a row's binary digits put neighbour w at bit 2w.
    split = [x for v, row in enumerate(g.adj) for x in (2 << 2 * v, int(f"{row:b}", 4))]
    full = (1 << n) - 1
    best = n - 1
    budget = KAPPA_LAYER_LIMIT
    u = 0
    while u < best:
        later = full ^ ((2 << u) - 1)
        for v in _bits(later & ~g.adj[u]):
            flow, budget = _local_vertex_connectivity(split, u, v, budget)
            best = min(best, flow)
            if best == 0:
                return 0
        u += 1
    return best


# -- subgraphs ---------------------------------------------------------------


def induced_bipartite(
    g: KPartiteGraph, a_side: Iterable[int], b_side: Iterable[int]
) -> KPartiteGraph:
    """The spanning bipartite graph keeping exactly the A-B edges.

    A and B must partition the vertex set; both sides must be nonempty.  The
    result is 2-partite (part 0 = A, part 1 = B) and in general unbalanced.
    """
    a_mask = _mask(a_side, g.n)
    b_mask = _mask(b_side, g.n)
    if a_mask & b_mask:
        raise GraphError("induced_bipartite: sides overlap")
    if (a_mask | b_mask) != (1 << g.n) - 1:
        raise GraphError("induced_bipartite: sides must cover all vertices")
    if a_mask == 0 or b_mask == 0:
        raise GraphError("induced_bipartite: both sides must be nonempty")
    part_of = tuple(0 if (a_mask >> v) & 1 else 1 for v in range(g.n))
    adj = tuple(
        g.adj[v] & (b_mask if (a_mask >> v) & 1 else a_mask) for v in range(g.n)
    )
    return KPartiteGraph(part_of, adj)


# -- serialization -----------------------------------------------------------


def _g6_encode_size(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, 63 + ((n >> 12) & 63), 63 + ((n >> 6) & 63), 63 + (n & 63)])
    raise GraphError(f"graph6 encoder supports n <= 258047, got {n}")


# graph6 writes a 6-bit group as the byte 63 + its value, base64 as its
# alphabet letter; each table maps one to the other, and the last reverses the
# bits of a byte.
_G6_BYTES = bytes(range(63, 127))
_B64_ALPHABET = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_B64_TO_G6 = bytes.maketrans(_B64_ALPHABET, _G6_BYTES)
_G6_TO_B64 = bytes.maketrans(_G6_BYTES, _B64_ALPHABET)
_REVERSED_BITS = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def graph6_encode(g: KPartiteGraph) -> str:
    """Standard graph6 text for the adjacency (partition not included)."""
    n, adj = g.n, g.adj
    size = _g6_encode_size(n)
    # Bit t of ``stream`` is the body's t-th bit (see _graph6_stream).
    stream = 0
    for j in range(n - 1, 0, -1):
        stream = stream << j | adj[j] & ((1 << j) - 1)
    groups = (n * (n - 1) // 2 + 5) // 6
    data = stream.to_bytes((6 * groups + 7) // 8, "little").translate(_REVERSED_BITS)
    body = binascii.b2a_base64(data, newline=False)[:groups].translate(_B64_TO_G6)
    return (size + body).decode("ascii")


def _graph6_stream(text: str) -> tuple[int, int]:
    """Parse graph6 text into (n, stream): bit t of ``stream`` is the body's
    t-th bit, so column j, the pairs (i, j) for i < j, is the j bits from
    j * (j - 1) / 2 on, pair (i, j) at bit i.  Raises GraphError on
    malformed text: every size byte lies in 63-126, a one-byte size in
    63-125, since 126 opens the four-byte form, and a four-byte size is at
    least 63, as graph6 writes a smaller one in one byte."""
    data = text.strip()
    if data.startswith(">>graph6<<"):
        data = data[len(">>graph6<<"):]
    try:
        raw = data.encode("ascii")
    except UnicodeEncodeError as exc:
        raise GraphError("graph6 text must be ASCII") from exc
    if not raw:
        raise GraphError("empty graph6 string")
    if raw[0] == 126:
        if len(raw) < 4 or raw[1] == 126:
            raise GraphError("unsupported or truncated graph6 size header")
        size, body = raw[1:4], raw[4:]
    else:
        size, body = raw[:1], raw[1:]
    if size.translate(None, _G6_BYTES):
        raise GraphError("invalid graph6 size header")
    n = 0
    for byte in size:
        n = n << 6 | byte - 63
    if len(size) > 1 and n < 63:
        raise GraphError(f"graph6 size {n} takes a one-byte header")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise GraphError(f"graph6 body has {len(body)} bytes, expected {need}")
    invalid = body.translate(None, _G6_BYTES)
    if invalid:
        raise GraphError(f"invalid graph6 byte {invalid[0]}")
    # "A" pads the base64 text to whole 4-letter groups with zero bits.
    data = binascii.a2b_base64(body.translate(_G6_TO_B64) + b"A" * (-len(body) % 4))
    return n, int.from_bytes(data.translate(_REVERSED_BITS), "little")


def graph6_decode(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Parse graph6 text into (n, edge list)."""
    n, stream = _graph6_stream(text)
    return n, [
        (i, j) for j in range(n) for i in _bits(stream >> j * (j - 1) // 2 & ((1 << j) - 1))
    ]


def encode(g: KPartiteGraph) -> str:
    """Two-line text form: a partition header followed by graph6 adjacency.

    Header format: ``kpart <k>: <part 0 vertices>, <part 1 vertices>, ...``
    with vertices space-separated inside each comma-separated part.  The
    header is made once per partition, with its layout (see ``_layouts``).
    """
    return _memo_layout(g.part_of)[7] + graph6_encode(g)


def decode(text: str) -> KPartiteGraph:
    """Inverse of :func:`encode`; validates every graph invariant.

    A header equal to a memoized layout's, which ``encode`` writes, names
    that layout's partition, which is taken as it is once the graph6 body
    has as many vertices; any other header is parsed and checked."""
    lines = [line for line in text.splitlines() if line.strip()]
    if len(lines) != 2:
        raise GraphError("expected a partition header line and a graph6 line")
    header, g6 = lines[0].strip(), lines[1].strip()
    line = header + "\n"
    for layout in _layouts.values():
        if layout[7] == line:
            n, stream = _graph6_stream(g6)
            if n == len(layout[0]):
                return _from_stream(layout, stream)
            break
    if not header.startswith("kpart "):
        raise GraphError("partition header must start with 'kpart'")
    try:
        count_text, parts_text = header[len("kpart "):].split(":", 1)
        k = _ascii_number(count_text.strip())
    except ValueError as exc:
        raise GraphError(f"malformed partition header: {header!r}") from exc
    part_lists = []
    for chunk in parts_text.split(","):
        try:
            part_lists.append(list(map(_ascii_number, chunk.split())))
        except ValueError as exc:
            raise GraphError(f"malformed part list: {chunk!r}") from exc
    if len(part_lists) != k:
        raise GraphError(f"header declares {k} parts but lists {len(part_lists)}")
    n, stream = _graph6_stream(g6)
    part_of = [-1] * n
    for p, members in enumerate(part_lists):
        if not members:
            raise GraphError(f"part {p} is empty")
        for v in members:
            if not 0 <= v < n:
                raise GraphError(f"part {p} lists out-of-range vertex {v}")
            if part_of[v] != -1:
                raise GraphError(f"vertex {v} assigned to two parts")
            part_of[v] = p
    if -1 in part_of:
        raise GraphError("partition does not cover all vertices")
    return _from_stream(_layout(tuple(part_of)), stream)


def _ascii_number(text: str) -> int:
    """``text`` as a number of ASCII digits 0-9 alone, where ``int`` also
    takes a sign, an underscore or another script's digits."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(text)
    return int(text)


def _from_stream(layout: tuple, stream: int) -> KPartiteGraph:
    """The graph on ``layout``'s partition whose graph6 bit stream is
    ``stream`` (see :func:`_graph6_stream`).  Column j is packed as row j,
    which makes the lower triangle; the first intra-part edge named is the
    first in graph6 order, column by column, then up each column."""
    part_of, _, _, stride, _, intra, swaps, _, _ = layout
    n = len(part_of)
    lower = 0
    shift = stride
    for j in range(1, n):
        lower |= (stream & (1 << j) - 1) << shift
        stream >>= j
        shift += stride
    inside = lower & intra
    if inside:
        j, i = divmod((inside & -inside).bit_length() - 1, stride)
        raise GraphError(f"intra-part edge ({i}, {j}) in decoded graph")
    return KPartiteGraph(part_of, _unpacked(lower | _transposed(lower, swaps), n, stride))


_DOT_PALETTE = (
    "#e41a1c", "#377eb8", "#4daf4a", "#984ea3", "#ff7f00", "#ffff33",
    "#a65628", "#f781bf", "#999999", "#66c2a5", "#fc8d62", "#8da0cb",
)


def export_dot(g: KPartiteGraph) -> str:
    """Graphviz DOT text with vertices coloured by part."""
    lines = ["graph G {", "  node [style=filled];"]
    for v in range(g.n):
        color = _DOT_PALETTE[g.part_of[v] % len(_DOT_PALETTE)]
        lines.append(f'  {v} [fillcolor="{color}"];')
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines)
