"""Constructors and recognizers for the extremal families.

Four families witness that the degree threshold cannot be lowered:

* ``F``: complete balanced k-partite graphs with an oversized independent
  set carved out of the first ceil((k+1)/2) parts; minimum degree lands
  exactly one below the threshold at every scale.
* ``F1``: n = 2k graphs built from a transversal clique hanging off a single
  cut vertex; minimum degree n/2 - 1 but connectivity at most 1.
* ``F2``: a single 8-vertex, 2-connected, 4-partite graph with independence
  number 3 and no Hamiltonian cycle.
* ``F3``: n = 2k graphs (4 | n) whose vertex set splits into an independent
  half X and a half Y with one Y-vertex seeing only a single X-neighbour, so
  no cycle can alternate across the split.

Each builder documents its fixed vertex layout; generators are deterministic,
so equal parameters produce identical encodings.

``recognize`` anchors every family on structure; no isomorphism search is
left.  F1's hub c leaves the rest of its clique as a (k-1)-vertex component
of g - c; F2's one part joined to all others leaves a matching; F3's
independent half X and throttled vertex y' are the solver's bipartite
degree-one witness.  An anchor is confirmed only by rebuilding the member
(F2 once) and comparing under the vertex map, so it can only miss.  A sweep
has the solver's witness for each graph already and classifies from it
(``_recognize``): a witness that the solver gives only to graphs with no cut
vertex skips the F1 sweep, and a bipartite degree-one witness is F3's anchor.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache

from .graphs import (
    GraphError,
    KPartiteGraph,
    SizeGuardError,
    _bits,
    blocks_partition,
    build_graph,
    connected_components,
)
from .solver import BipartiteDegreeOne, ExhaustiveSearch, _bipartite_degree_one_witness
from .thresholds import _ceil_div

RECOGNIZE_SIZE_LIMIT = 16


# -- family F ----------------------------------------------------------------


def default_sizes(k: int, m: int) -> tuple[int, ...]:
    """Canonical carve-out sizes: as equal as possible, nonincreasing."""
    n = m * k
    groups = _ceil_div(k + 1, 2)
    target = _ceil_div(n + 1, 2)
    q, r = divmod(target, groups)
    return tuple([q + 1] * r + [q] * (groups - r))


def build_family_F(k: int, m: int, sizes: tuple[int, ...] | None = None) -> KPartiteGraph:
    """Complete k-partite graph minus all edges between the carved-out sets.

    Layout: part i occupies vertices [i*m, (i+1)*m); the carved-out set of
    part i (i < ceil((k+1)/2)) is its first ``sizes[i]`` vertices.  The union
    of carved-out sets is independent with ceil((n+1)/2) vertices, and the
    minimum degree is exactly one below the threshold.
    """
    if k < 2:
        raise GraphError(f"family F requires k >= 2, got k={k}")
    n = m * k
    if m < 1 or n < 3:
        raise GraphError(f"family F requires n = m*k >= 3, got m={m} k={k}")
    groups = _ceil_div(k + 1, 2)
    target = _ceil_div(n + 1, 2)
    if sizes is None:
        sizes = default_sizes(k, m)
    sizes = tuple(sizes)
    if len(sizes) != groups:
        raise GraphError(f"family F needs {groups} carve-out sizes, got {len(sizes)}")
    if any(sizes[i] < sizes[i + 1] for i in range(groups - 1)):
        raise GraphError(f"carve-out sizes must be nonincreasing, got {sizes}")
    if any(s > m for s in sizes):
        raise GraphError(f"carve-out sizes must not exceed the part size {m}, got {sizes}")
    if sizes[-1] != target // groups:
        raise GraphError(
            f"smallest carve-out size must be {target // groups}, got {sizes[-1]}"
        )
    if sum(sizes) != target:
        raise GraphError(f"carve-out sizes must sum to {target}, got sum {sum(sizes)}")

    # Each row is the complement of its vertex's part, minus the carved-out
    # union for a carved vertex: one big-int operation per row.
    full = (1 << n) - 1
    block = (1 << m) - 1
    carved = 0
    for i, size in enumerate(sizes):
        carved |= ((1 << size) - 1) << i * m
    rows = []
    for p in range(k):
        row = full ^ block << p * m
        size = sizes[p] if p < groups else 0
        rows += [row & ~carved] * size + [row] * (m - size)
    meta = {"family": "F", "independent_set": tuple(_bits(carved))}
    return KPartiteGraph(blocks_partition(n, k), rows, meta)


# -- family F1 ---------------------------------------------------------------


def build_family_F1(
    k: int,
    yy_missing: tuple[tuple[int, int], ...] = (),
    xk_missing: tuple[int, ...] = (),
) -> KPartiteGraph:
    """Transversal clique plus a near-complete second transversal, joined
    through one hub vertex.

    Layout: n = 2k with part i = {x_i, y_i} where x_i = i and y_i = k + i.
    The x-vertices form a clique; the hub is x_{k-1}.  Every y_i other than
    y_{k-1} may reach at most the other y-vertices and the hub, and must keep
    at least k - 1 of those k possible neighbours; y_{k-1} keeps all of them.
    ``yy_missing`` lists part-index pairs (i, j) whose y_i y_j edge is absent;
    ``xk_missing`` lists part indices whose y_i loses the hub edge.
    """
    if k < 3:
        raise GraphError(f"family F1 requires k >= 3, got k={k}")
    n = 2 * k
    hub = k - 1
    missing_pairs = set()
    for pair in yy_missing:
        i, j = pair
        if i == j or not (0 <= i < k and 0 <= j < k):
            raise GraphError(f"invalid y-y omission {pair!r}")
        missing_pairs.add((min(i, j), max(i, j)))
    missing_hub = set(xk_missing)
    if any(i == hub or not 0 <= i < k for i in missing_hub):
        raise GraphError(f"invalid hub omissions {sorted(missing_hub)!r}")

    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    for i in range(k):
        for j in range(i + 1, k):
            if (i, j) not in missing_pairs:
                edges.append((k + i, k + j))
    for i in range(k - 1):
        if i not in missing_hub:
            edges.append((k + i, hub))

    part_of = tuple(list(range(k)) + list(range(k)))
    meta = {"family": "F1", "cut_vertex": hub}
    g = build_graph(n, k, part_of, edges, meta)
    for i in range(k):
        pool = [k + j for j in range(k) if j != i]
        if i != hub:
            pool.append(hub)
        reached = sum(1 for w in pool if g.has_edge(k + i, w))
        if reached < k - 1:
            raise GraphError(
                f"y_{i} keeps only {reached} of its {len(pool)} allowed neighbours; "
                f"needs at least {k - 1}"
            )
    return g


# -- the fixed graph F2 --------------------------------------------------------


_F2_EDGES = (
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0),
    (6, 7), (6, 0), (6, 3), (7, 0), (7, 3),
    (5, 3), (4, 0), (1, 3), (2, 0),
)
_F2_PART_OF = (0, 1, 3, 0, 2, 3, 1, 2)


def build_F2() -> KPartiteGraph:
    """The 8-vertex exceptional graph: a 6-cycle 0..5 with chords 5-3, 4-0,
    1-3, 2-0, plus two extra vertices 6 and 7 joined to each other and to the
    antipodal pair {0, 3}.  Balanced 4-partition: {0,3}, {1,6}, {4,7}, {2,5}.
    """
    meta = {"family": "F2"}
    return build_graph(8, 4, _F2_PART_OF, _F2_EDGES, meta)


def _f2_keys(g: KPartiteGraph) -> dict:
    """Key g's vertices by their place around its hub part, the one part
    joined to every vertex outside it: a hub vertex by its rank in its part,
    any other by the ranks, among the non-hub parts, of its own part and of
    its one neighbour off the hub.  Returns key -> vertex, so two vertices
    with one key leave too few keys; empty if the hub or a neighbour is not
    unique."""
    outside = [((1 << g.n) - 1) & ~mask for mask in g.part_masks]
    hubs = [p for p in range(g.k) if all(g.adj[v] == outside[p] for v in g.part_members(p))]
    if len(hubs) != 1:
        return {}
    rank = {p: i for i, p in enumerate(p for p in range(g.k) if p != hubs[0])}
    keys = dict(enumerate(g.part_members(hubs[0])))
    for v in _bits(outside[hubs[0]]):
        partner = g.adj[v] & outside[hubs[0]]
        if partner.bit_count() != 1:
            return {}
        keys[rank[g.part_of[v]], rank[g.part_of[partner.bit_length() - 1]]] = v
    return keys


# The F2 that ``recognize`` compares against, and its keys; callers of
# build_F2 get their own graph.
_F2 = build_F2()
_F2_KEYS = _f2_keys(_F2)


# -- family F3 ---------------------------------------------------------------


def build_family_F3(
    k: int,
    y_prime: int | None = None,
    y_dprime: int | None = None,
    x_prime: int | None = None,
    yy_edges: tuple[tuple[int, int], ...] = (),
    xy_edge: bool = False,
) -> KPartiteGraph:
    """Independent half versus near-complete half, with one throttled vertex.

    Layout: n = 2k with part i = {2i, 2i+1}.  The first k/2 parts form the
    independent side X = {0..k-1}; the rest form Y = {k..2k-1}.  All X-Y
    edges are present except that y_dprime misses x_prime (restored by
    ``xy_edge``) and y_prime keeps only x_prime.  y_prime is additionally
    joined to every Y-vertex outside its own part.  ``yy_edges`` adds
    arbitrary cross-part Y-Y edges not incident to y_prime.
    """
    if k < 4 or k % 2 != 0:
        raise GraphError(f"family F3 requires even k >= 4, got k={k}")
    n = 2 * k
    x_side = range(k)
    y_side = range(k, n)
    part_of = blocks_partition(n, k)
    if y_prime is None:
        y_prime = n - 2
    if y_prime not in (n - 2, n - 1):
        raise GraphError(
            f"y_prime must be a vertex of the last part ({n - 2} or {n - 1}), got {y_prime}"
        )
    if y_dprime is None:
        y_dprime = k
    if y_dprime == y_prime or not k <= y_dprime < n:
        raise GraphError(f"y_dprime must be a Y-vertex other than y_prime, got {y_dprime}")
    if x_prime is None:
        x_prime = 0
    if not 0 <= x_prime < k:
        raise GraphError(f"x_prime must be an X-vertex, got {x_prime}")

    edges = []
    for y in y_side:
        if y in (y_prime, y_dprime):
            continue
        edges.extend((x, y) for x in x_side)
    edges.extend((x, y_dprime) for x in x_side if x != x_prime)
    if xy_edge:
        edges.append((x_prime, y_dprime))
    edges.append((x_prime, y_prime))
    y_prime_part = part_of[y_prime]
    edges.extend((y_prime, y) for y in y_side if part_of[y] != y_prime_part)
    for pair in yy_edges:
        u, v = pair
        if not (k <= u < n and k <= v < n):
            raise GraphError(f"optional edge {pair!r} must join two Y-vertices")
        if part_of[u] == part_of[v]:
            raise GraphError(f"optional edge {pair!r} lies inside one part")
        if y_prime in pair:
            raise GraphError(f"optional edge {pair!r} may not touch y_prime")
        edges.append((u, v))

    meta = {"family": "F3", "x_side": tuple(x_side), "y_prime": y_prime}
    return build_graph(n, k, part_of, edges, meta)


# -- family specs --------------------------------------------------------------


# Each variant's builder and the spec fields it takes, in argument order.
_BUILDERS = {
    "F": (build_family_F, ("k", "m", "sizes")),
    "F1": (build_family_F1, ("k", "yy_missing", "xk_missing")),
    "F2": (build_F2, ()),
    "F3": (build_family_F3, ("k", "y_prime", "y_dprime", "x_prime", "yy_edges", "xy_edge")),
}

_SPEC_FLAGS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(token) for token in text.replace(",", " ").split())


def _parse_pairs(text: str) -> tuple[tuple[int, int], ...]:
    out = []
    for token in text.replace(",", " ").split():
        a, _, b = token.partition("-")
        out.append((int(a), int(b)))
    return tuple(out)


def _parse_flag(text: str) -> bool:
    flag = text.lower()
    if flag not in _SPEC_FLAGS:
        raise GraphError(
            f"family spec key 'xy_edge' must be true/false/1/0/yes/no, got {flag!r}"
        )
    return _SPEC_FLAGS[flag]


_INT = (str, int)
_INTS = (lambda values: " ".join(str(v) for v in values), _parse_ints)
_PAIRS = (lambda pairs: " ".join(f"{a}-{b}" for a, b in pairs), _parse_pairs)

# (format, parse) for each FamilySpec field after ``variant``, whose spec key
# is ``family``.  A ValueError from a parse is a malformed value.
_SPEC_CODECS = {
    "k": _INT,
    "m": _INT,
    "sizes": _INTS,
    "yy_missing": _PAIRS,
    "xk_missing": _INTS,
    "y_prime": _INT,
    "y_dprime": _INT,
    "x_prime": _INT,
    "yy_edges": _PAIRS,
    "xy_edge": (lambda flag: "true", _parse_flag),
}


@dataclass(frozen=True)
class FamilySpec:
    """A parameterised description of one family member.

    Serialises to a small key/value text document consumed by the CLI
    ``construct`` command: a ``family: <variant>`` line, then one
    ``key: value`` line per non-default field, keyed by the field's name and
    written by its ``_SPEC_CODECS`` entry.  So the fields are the document's
    keys.  Parsing rejects unknown and repeated keys, and an ``xy_edge``
    other than true/false/1/0/yes/no in any case.  ``build`` refuses a
    non-default field that its variant's builder does not take.
    """

    variant: str
    k: int | None = None
    m: int | None = None
    sizes: tuple[int, ...] | None = None
    yy_missing: tuple[tuple[int, int], ...] = ()
    xk_missing: tuple[int, ...] = ()
    y_prime: int | None = None
    y_dprime: int | None = None
    x_prime: int | None = None
    yy_edges: tuple[tuple[int, int], ...] = ()
    xy_edge: bool = False

    def build(self) -> KPartiteGraph:
        if self.variant not in _BUILDERS:
            raise GraphError(f"unknown family variant {self.variant!r}")
        builder, takes = _BUILDERS[self.variant]
        for spec_field in fields(self)[1:]:
            value = getattr(self, spec_field.name)
            if spec_field.name not in takes and value != spec_field.default:
                raise GraphError(f"family {self.variant} does not take {spec_field.name!r}")
        for name in ("k", "m"):
            if name in takes and getattr(self, name) is None:
                raise GraphError(f"family {self.variant} needs {name}")
        return builder(*(getattr(self, name) for name in takes))

    def to_text(self) -> str:
        lines = [f"family: {self.variant}"]
        for spec_field in fields(self)[1:]:
            value = getattr(self, spec_field.name)
            if value != spec_field.default:
                text = _SPEC_CODECS[spec_field.name][0](value)
                lines.append(f"{spec_field.name}: {text}")
        return "\n".join(lines)

    @classmethod
    def from_text(cls, text: str) -> "FamilySpec":
        spec_fields = fields(cls)[1:]
        keys = {"family"} | {spec_field.name for spec_field in spec_fields}
        values: dict[str, str] = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if ":" not in line:
                raise GraphError(f"malformed family spec line: {line!r}")
            key, value = line.split(":", 1)
            key = key.strip()
            if key not in keys:
                raise GraphError(f"unknown family spec key {key!r}")
            if key in values:
                raise GraphError(f"repeated family spec key {key!r}")
            values[key] = value.strip()
        if "family" not in values:
            raise GraphError("family spec must declare 'family'")
        # A bad flag raises its GraphError at once; a malformed number is
        # reported only once every flag has passed, and the first one wins.
        parsed = {}
        malformed = None
        for spec_field in spec_fields:
            if spec_field.name in values:
                parse = _SPEC_CODECS[spec_field.name][1]
                try:
                    parsed[spec_field.name] = parse(values[spec_field.name])
                except GraphError:
                    raise
                except ValueError as exc:
                    malformed = malformed or exc
        if malformed is not None:
            raise GraphError(f"malformed family spec: {malformed}") from malformed
        return cls(variant=values["family"], **parsed)


# -- recognition ---------------------------------------------------------------


def _relabelled_equal(g: KPartiteGraph, h: KPartiteGraph, vmap: dict[int, int]) -> bool:
    """Does the vertex bijection ``vmap`` carry g onto h, parts to parts?"""
    if g.n != h.n or g.k != h.k:
        return False
    image_bit = [1 << vmap[v] for v in range(g.n)]
    for v, row in enumerate(g.adj):
        image = 0
        while row:
            low = row & -row
            image |= image_bit[low.bit_length() - 1]
            row ^= low
        if image != h.adj[vmap[v]]:
            return False
    # Each part of g lands inside one part of h.
    image_part: dict[int, int] = {}
    for v, p in enumerate(g.part_of):
        if image_part.setdefault(p, h.part_of[vmap[v]]) != h.part_of[vmap[v]]:
            return False
    return True


@lru_cache(maxsize=128)
def _member(builder, *args) -> KPartiteGraph | None:
    """``builder(*args)``, or None where it refuses them.  Memoised, since a
    sweep's recognition rebuilds few distinct members (34 for the 2,280
    builds at (8, 4)); a memo graph is only compared, never handed out."""
    try:
        return builder(*args)
    except GraphError:
        return None


def _confirm_f1(g: KPartiteGraph, c: int, clique: int) -> bool:
    k = g.k
    cpart = g.part_of[c]
    part_order = [p for p in range(k) if p != cpart] + [cpart]
    new_index = {old: i for i, old in enumerate(part_order)}
    vmap: dict[int, int] = {}
    for p in range(k):
        members = g.part_members(p)
        in_clique = [v for v in members if clique >> v & 1]
        outside = [v for v in members if not clique >> v & 1]
        if len(in_clique) != 1 or len(outside) != 1:
            return False
        vmap[in_clique[0]] = new_index[p]
        vmap[outside[0]] = k + new_index[p]
    inverse = {new: old for old, new in vmap.items()}
    yy_missing = tuple(
        (i, j)
        for i in range(k)
        for j in range(i + 1, k)
        if not g.has_edge(inverse[k + i], inverse[k + j])
    )
    xk_missing = tuple(
        i for i in range(k - 1) if not g.has_edge(inverse[k + i], inverse[k - 1])
    )
    built = _member(build_family_F1, k, yy_missing, xk_missing)
    return built is not None and _relabelled_equal(g, built, vmap)


def _is_f1(g: KPartiteGraph) -> bool:
    """Anchor F1 on its hub c: the rest of its clique is a (k-1)-vertex
    component of g - c.  The other side need not stay connected."""
    return any(
        _confirm_f1(g, c, piece | 1 << c)
        for c in range(g.n)
        for piece in connected_components(g, removed=1 << c)
        if piece.bit_count() == g.k - 1
    )


def _confirm_f3(
    g: KPartiteGraph,
    x_parts: tuple[int, ...],
    y1: int,
    ydd: int,
    xp: int,
    xy_flag: bool,
) -> bool:
    k = g.k
    y_parts = [p for p in range(k) if p not in x_parts]
    xp_part = g.part_of[xp]
    y1_part = g.part_of[y1]
    x_order = [xp_part] + [p for p in x_parts if p != xp_part]
    y_order = [p for p in y_parts if p != y1_part] + [y1_part]
    vmap: dict[int, int] = {}
    for i, p in enumerate(x_order):
        members = list(g.part_members(p))
        if p == xp_part:
            members.sort(key=lambda v: v != xp)
        for slot, v in enumerate(members):
            vmap[v] = 2 * i + slot
    for i, p in enumerate(y_order):
        members = list(g.part_members(p))
        if p == y1_part:
            members.sort(key=lambda v: v != y1)
        for slot, v in enumerate(members):
            vmap[v] = k + 2 * i + slot
    y_mask = 0
    for p in y_parts:
        y_mask |= g.part_masks[p]
    yy_extra = set()
    for u in _bits(y_mask):
        if u == y1:
            continue
        for v in _bits(g.adj[u] & y_mask):
            if v == y1 or v < u:
                continue
            yy_extra.add((min(vmap[u], vmap[v]), max(vmap[u], vmap[v])))
    # The builder's arguments in order: k, y', y'', x', Y-Y edges, xy_edge.
    built = _member(
        build_family_F3, k, vmap[y1], vmap[ydd], vmap[xp], tuple(sorted(yy_extra)), xy_flag
    )
    return built is not None and _relabelled_equal(g, built, vmap)


def _is_f3(g: KPartiteGraph, witness: BipartiteDegreeOne | None) -> bool:
    """Anchor F3 on g's bipartite degree-one witness, ``witness``: in every
    member, X is the only independent union of k/2 parts and y' the only
    vertex outside it with at most one X-neighbour."""
    if witness is None:
        return False
    y1 = witness.vertex
    x_mask = sum(1 << v for v in witness.a_side)
    row = g.adj[y1] & x_mask
    if not row:
        return False
    ys = [y for y in range(g.n) if not x_mask >> y & 1 and y != y1]
    # The missing X-Y edges away from y', one entry per edge, by Y-end: at
    # most the one at y''.  With none, xy_edge restored it, and any Y-vertex
    # other than y' can stand for y''.
    missing = [y for y in ys for _ in _bits(x_mask & ~g.adj[y])]
    if len(missing) > 1:
        return False
    ydd = missing[0] if missing else ys[0]
    x_parts = tuple(sorted({g.part_of[v] for v in witness.a_side}))
    return _confirm_f3(g, x_parts, y1, ydd, row.bit_length() - 1, not missing)


def _is_f2(g: KPartiteGraph) -> bool:
    """Anchor F2 on its hub part; its keys give the vertex map onto F2."""
    keys = _f2_keys(g)
    if keys.keys() != _F2_KEYS.keys():
        return False
    return _relabelled_equal(g, _F2, {v: _F2_KEYS[key] for key, v in keys.items()})


def _recognize(g: KPartiteGraph, witness=None) -> str | None:
    """:func:`recognize` for a graph of its regime and size, given the
    witness ``non_hamiltonicity_witness(g)`` returns, or None.

    The solver returns a bipartite degree-one or an exhaustive-search
    witness only for a graph with no cut vertex, and every F1 member has
    one, its hub, so such a witness skips the F1 sweep.  A bipartite
    degree-one witness is ``_bipartite_degree_one_witness(g)`` itself, so it
    anchors F3, and its independent half of n/2 = 4 vertices at n = 8 rules
    out F2, whose independence number is 3.  Any other witness, or none,
    leaves every step to g."""
    bipartite = isinstance(witness, BipartiteDegreeOne)
    if not (bipartite or isinstance(witness, ExhaustiveSearch)) and _is_f1(g):
        return "F1"
    if g.n == 8 and not bipartite and _is_f2(g):
        return "F2"
    if _is_f3(g, witness if bipartite else _bipartite_degree_one_witness(g)):
        return "F3"
    return None


def recognize(g: KPartiteGraph) -> str | None:
    """Classify g as a member of F1, F2, or F3 (up to part-respecting
    isomorphism), or None.  Only defined in the n = 2k, 4 | n regime, and
    guarded at n <= ``RECOGNIZE_SIZE_LIMIT``."""
    n, k = g.n, g.k
    if n != 2 * k or n % 4 != 0:
        raise GraphError(f"recognizer requires n = 2k with 4 | n, got n={n} k={k}")
    if n > RECOGNIZE_SIZE_LIMIT:
        raise SizeGuardError(f"recognizer guarded at n <= {RECOGNIZE_SIZE_LIMIT}, got {n}")
    return _recognize(g)
