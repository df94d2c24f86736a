"""Exhaustive and randomized verification sweeps with machine-readable reports.

The exhaustive sweep covers every labeled balanced k-partite graph on the
canonical block partition whose minimum degree meets a floor.  Cross-part
vertex pairs are ordered lexicographically and toggled like a binary counter
(pair 0 is the most significant bit), so a graph is named by its subset id.

The sweep searches few of those graphs, because of two monotonicity facts.
Adding an edge keeps the minimum degree at or above the floor, and it keeps
a Hamiltonian graph Hamiltonian.  Call a floor-meeting graph minimal when
every edge has an endpoint whose degree is exactly the floor.  Deleting an
edge whose endpoints both lie above the floor keeps the floor, so every
floor-meeting graph contains a minimal one.  A sweep has four steps:

- Count.  A DP over (pair index, each vertex's unmet degree capped at the
  floor), memoised within the run, counts the floor-meeting graphs.
- Enumerate.  A recursion lists the minimal graphs up to symmetry, and
  each is searched.  It prunes a branch as soon as an edge joins two
  vertices above the floor, since degrees only grow along a branch.
- Climb.  From the non-Hamiltonian minimal graphs it lists, add each absent
  pair in turn and keep every non-Hamiltonian result, climbing again from
  each.
- Expand.  The orbits of the graphs the climb keeps are the labelled
  non-Hamiltonian floor-meeting graphs.

Relabelling vertices inside a part and permuting the parts, the group
S_m wr S_k with m = n/k, maps a floor-meeting graph to one, a minimal graph
to a minimal one and a Hamiltonian graph to a Hamiltonian one.  So the
enumeration visits only lex-leaders under the group's generators (Crawford,
Ginsberg, Luks & Roy, KR 1996): the adjacent transpositions inside each
block and the swaps of adjacent blocks (``_generator_swaps``).  A generator
sigma permutes the pairs by an involution pi, and the walk keeps a graph G
only if its subset id is at least that of sigma G for every generator, ties
kept.  Reading ids from pair 0, that holds when, at the first pair j with
j < pi(j) whose presence differs from pair pi(j)'s, G has pair j.  Pairs are
decided in index order, so a comparison is made once it and every
comparison before it can be: at the largest pi(j') over the comparisons
j' <= j, not at pi(j) alone, which need not grow with j
(``_lex_schedule``).  The generators still tied ride down the recursion in
one int.  The walk is complete up to symmetry: the graph of largest subset
id in an orbit is at least each of its images, so it survives every check.
The climb works up to symmetry too, generating orbits from representatives
(McKay, J. Algorithms 1998): it starts from the non-Hamiltonian
lex-leaders.  A non-Hamiltonian floor-meeting graph G contains a minimal
graph sigma L, for a group element sigma and a listed lex-leader L, so
sigma^-1 G contains L, and the climb from L keeps it (see below).  The
generators generate the group, so closing the kept graphs under them
(``_orbit_closure``) gives every non-Hamiltonian floor-meeting graph, and
the orbit of each.  Each one the climb did not keep is built once, from its
subset id (``_orbit_graphs``), and every graph is given the witness of its
own labels: the first certificate that applies, or else its exhaustive
search.  Only three facts travel along an orbit: that the graph is
2-connected, that it has no independent set on more than n/2 vertices, and
its family class, since ``recognize`` classifies up to part-respecting
isomorphism and every group element respects parts.  So the finish step
classifies one climbed graph an orbit.  A lowest cut vertex, a search's
node count and the part unions the bipartite step grows depend on the
labels.

Both searching steps reuse the Hamiltonian cycles their searches find,
each kept as its pair mask (``_cycle_mask``): a graph that holds one is
Hamiltonian without a search.  The enumeration skips a branch once the
graph decided so far holds a mask whose highest pair it just set, as every
completion is Hamiltonian.  A climb candidate's parent is non-Hamiltonian,
so its cycles use the pair just added, and only that pair's masks are
tested.  A ``_CycleStore`` packs a bucket's newest ``CYCLE_BUCKET_CAP``
masks in one int, so one zero-lane test (Warren, Hacker's Delight, section
6-1) checks them all.  The climb asks the solver's search-free
certificates (``_polynomial_witness``) about each base, and about each
candidate no kept cycle decides, before it searches, and keeps what they
give for the report; a refuted candidate yields no cycle.  So reuse and
certificates change which graphs are searched, never which are listed.  A
candidate skips the cut and independent-set steps its parent failed: a
2-connected graph stays 2-connected when a pair is added, and its
independence number cannot grow.  A graph of a climbed orbit skips those
its climbed member failed.  The bipartite step always runs, since an added
pair can change the part unions it grows greedily.  A graph asked in vain
goes straight to the search, so no graph is asked twice.

The climb from a base M keeps every non-Hamiltonian graph G that contains
M.  Add the pairs of G missing from M one at a time: each graph on the way
lies between M and G, so it meets the floor (it contains M) and is
non-Hamiltonian (it lies in G), and the climb keeps it and climbs on.
Reports list the non-Hamiltonian graphs by subset id, so they depend on no
visit order.

A shard owns the subsets whose high-order bits, read as a number, equal its
id modulo the shard count, so shards partition the subset space exactly and
their counters merge by addition.  Those bits are a subset id's prefix, and
a shard owns at most two prefixes (``_shard_prefixes``).  A whole run is
shard 0 of 1, whatever the shard count.  Every run makes the same walk and
climb, over the whole space up to symmetry, since an orbit crosses
prefixes.  The DP counts the graphs under each prefix the run owns, and the
expansion builds and finishes only the graphs it owns.  Everything runs in
one process.

The exhaustive and the sampled sweep both hand their non-Hamiltonian graphs,
in report order and each with its witness, to ``_finish_sweep``, which
builds each entry (an exceptional one at the floor of an exception regime,
a counterexample anywhere else) and the sweep params.  Every report builder
ends in ``_finish_report``, which runs the self-check (``_self_check``) and
stamps the wall time.  Reports serialize to JSON with a schema version;
apart from ``wall_time_seconds`` they are byte-identical across repeat runs
with equal parameters and seed.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import MISSING, dataclass, field, fields
from functools import cached_property

from . import __version__
from .families import RECOGNIZE_SIZE_LIMIT, _recognize, build_family_F
from .families import recognize  # noqa: F401  (the benchmark traces it)
from .graphs import (
    GraphError,
    KPartiteGraph,
    SizeGuardError,
    blocks_partition,
    cross_pairs,
    decode,
    encode,
    is_independent,
)
from .solver import (
    HAM_SIZE_LIMIT,
    ExhaustiveSearch,
    _decide_hamiltonian,
    _forced_edge_cycle,
    _ham_search,
    _polynomial_witness,
    _steps_failed,
    find_hamiltonian_cycle,
    non_hamiltonicity_witness,
    witness_certifies,
    witness_from_payload,
    witness_to_payload,
)
from .thresholds import (
    _ceil_div,
    _validate_pair,
    _validate_range,
    check_appendix_facts,
    is_exception,
    required_degree,
    scan_domcycle_threshold,
    scan_eq4_identity,
    theorem_threshold,
)

SCHEMA_VERSION = 1
# 2^24 edge subsets: the (8, 4) sweep, about 0.16 s whole in one process on
# one CPU of a shared 2-core machine (BENCH_symmetric_walk.json).
EXHAUSTIVE_MAX_PAIRS = 24
# Draws per sampled trial before it counts as infeasible.
SAMPLE_MAX_RETRIES = 200
# Tightness members up to this many vertices are also refuted by the solver.
TIGHTNESS_SOLVER_LIMIT = 12
# Hamiltonian cycles a sweep step keeps per bucket, newest first; see
# ``_CycleStore``.  A whole (8, 4) run makes 181 searches at 64 and at 32.
# When runs searched more, 64 ran faster than 32 and than 128
# (BENCH_packed_cycles.json).
CYCLE_BUCKET_CAP = 64


@dataclass
class VerificationReport:
    """Machine-readable outcome of one verification run.

    The fields are the report's JSON keys: ``to_json`` writes every one and
    ``from_json`` reads back those present, so a new field needs no codec
    change; it raises ValueError, naming the field, when one without a
    default is missing.
    """

    kind: str
    params: dict
    counters: dict = field(default_factory=dict)
    counterexamples: list = field(default_factory=list)
    exceptional: list = field(default_factory=list)
    self_check_ok: bool | None = None
    wall_time_seconds: float = 0.0
    schema_version: int = SCHEMA_VERSION
    artifact_version: str = __version__

    @property
    def ok(self) -> bool:
        if self.counterexamples:
            return False
        if self.kind == "characterization":
            return all(entry.get("classification") for entry in self.exceptional)
        return True

    def to_json(self) -> str:
        # A shallow field dict: the values are JSON already, and asdict's deep
        # copy of a large report would raise peak memory for nothing.
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "VerificationReport":
        payload = json.loads(text)
        if not isinstance(payload, dict) or "schema_version" not in payload:
            raise ValueError("report must be a JSON object with a schema_version")
        if payload["schema_version"] != SCHEMA_VERSION:
            raise ValueError(
                f"report schema_version {payload['schema_version']!r} is not {SCHEMA_VERSION}"
            )
        for f in fields(cls):
            required = f.default is MISSING and f.default_factory is MISSING
            if required and f.name not in payload:
                raise ValueError(f"report field {f.name!r} is missing")
        return cls(**{f.name: payload[f.name] for f in fields(cls) if f.name in payload})

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as handle:
            handle.write(self.to_json())
            handle.write("\n")


def _enumerate_shard(
    n: int,
    k: int,
    floor: int,
    units: int,
    unit: int,
    visit,
    tables: _SweepTables | None = None,
) -> tuple[int, int]:
    """Run ``visit(subset_id, adj)`` for every floor-satisfying graph whose
    first log2(``units``) pairs, read as a number, equal ``unit``; ``units``
    is a power of two no larger than the subset space.  Returns (edge subsets
    covered, graphs visited).  ``tables`` are ``_sweep_tables(n, k)``,
    derived here if None."""
    tables = tables or _sweep_tables(n, k)
    rows = tables.rows
    prefix_bits, first, adj, slack = _apply_prefix(tables, floor, units, unit)
    suffix_bits = len(rows) - prefix_bits
    if min(slack) < 0:
        return 1 << suffix_bits, 0
    if not suffix_bits:
        visit(first, adj)
        return 1, 1
    last = len(rows) - 1
    visited = 0

    def rec(i: int, sid: int) -> None:
        # Decides pair i, present first; the frame that decides the last
        # pair visits both of its completions itself.
        nonlocal visited
        u, v, ubit, vbit, bit = rows[i]
        adj[u] |= vbit
        adj[v] |= ubit
        if i == last:
            visited += 1
            visit(sid | bit, adj)
        else:
            rec(i + 1, sid | bit)
        adj[u] ^= vbit
        adj[v] ^= ubit
        if slack[u] > 0 and slack[v] > 0:
            if i == last:
                visited += 1
                visit(sid, adj)
                return
            slack[u] -= 1
            slack[v] -= 1
            rec(i + 1, sid)
            slack[u] += 1
            slack[v] += 1

    rec(prefix_bits, first)
    rec = None  # frees the closure, which refers to itself, and its data now
    return 1 << suffix_bits, visited


def _part_masks(n: int, k: int) -> list[int]:
    """The parts' vertex masks, distinct and ascending on the block
    partition.  Parts are independent sets whichever edges are present, so
    they feed the search's cardinality prune with no per-graph cost."""
    masks = [0] * k
    for v, p in enumerate(blocks_partition(n, k)):
        masks[p] |= 1 << v
    return masks


@dataclass(frozen=True)
class _SweepTables:
    """The tables every step of one (n, k) sweep reads, derived once a run.

    ``pairs``: the cross pairs in subset-id order.  ``rows[i]``: pair i as
    (u, v, 1 << u, 1 << v, its bit in a subset id).  ``part_masks``: see
    ``_part_masks``.  ``left[i][v]``: the pairs from index i on that contain
    v, so ``left[0]`` is each vertex's cross degree.  ``pair_bit[u][v]``: the
    subset-id bit of pair (u, v), 0 for two vertices of one part.
    ``swaps``: see ``_generator_swaps``.  ``counts``: the floor count's memo,
    filled as the run's prefixes count; a count from (pair index, unmet
    degrees) depends on neither the prefix nor the floor.  The byte tables
    of ``flips`` and ``row_bytes`` are built on first use."""

    pairs: list
    rows: list
    part_masks: list
    left: list
    pair_bit: list
    swaps: list
    counts: dict = field(default_factory=dict)

    @cached_property
    def flips(self) -> list[list[list[int]]]:
        """``flips[g]``: generator g's byte tables, which map a subset id to
        that of its image (``_through``)."""
        top = len(self.pairs) - 1
        flips = []
        for generator in self.swaps:
            # Subset-id bit p is pair top - p's.
            images = [1 << p for p in range(top + 1)]
            for j, image in generator:
                images[top - j], images[top - image] = images[top - image], images[top - j]
            flips.append(_byte_tables(images))
        return flips

    @cached_property
    def row_bytes(self) -> list[list[int]]:
        """The byte tables that map a subset id to its graph's rows packed in
        one int, row v at bit n * v (``_rows``)."""
        n = len(self.left[0])
        return _byte_tables([1 << n * u + v | 1 << n * v + u for u, v in reversed(self.pairs)])


def _sweep_tables(n: int, k: int) -> _SweepTables:
    pairs = cross_pairs(n, k)
    top = len(pairs) - 1
    rows = [(u, v, 1 << u, 1 << v, 1 << (top - i)) for i, (u, v) in enumerate(pairs)]
    left = [[0] * n]
    for u, v in reversed(pairs):
        row = left[-1][:]
        row[u] += 1
        row[v] += 1
        left.append(row)
    left.reverse()
    pair_bit = [[0] * n for _ in range(n)]
    for u, v, _, _, bit in rows:
        pair_bit[u][v] = pair_bit[v][u] = bit
    swaps = _generator_swaps(n, k, pairs)
    return _SweepTables(pairs, rows, _part_masks(n, k), left, pair_bit, swaps)


def _byte_tables(images: list[int]) -> list[list[int]]:
    """The tables of the OR-preserving map that sends subset-id bit p to
    ``images[p]``: table b maps byte b of an id to its set bits' images ORed,
    so an id maps to its bytes' entries ORed (``_through``)."""
    tables = []
    for low in range(0, len(images), 8):
        table = [0]
        for image in images[low : low + 8]:
            table += [entry | image for entry in table]
        tables.append(table)
    return tables


def _through(tables: list[list[int]], sid: int) -> int:
    """The image of subset id ``sid`` under the map of ``_byte_tables``."""
    image = 0
    for table in tables:
        image |= table[sid & 255]
        sid >>= 8
    return image


def _rows(sid: int, tables: _SweepTables) -> list[int]:
    """The rows of graph ``sid``: its adjacency bitmask of each vertex."""
    n = len(tables.left[0])
    packed, full = _through(tables.row_bytes, sid), (1 << n) - 1
    return [packed >> shift & full for shift in range(0, n * n, n)]


def _generator_swaps(n: int, k: int, pairs: list) -> list[tuple[tuple[int, int], ...]]:
    """The generators of the part-preserving group on the block partition,
    as pair involutions: first the adjacent transpositions inside each
    block, then the swaps of adjacent blocks.  A generator is its (j, pi(j))
    with j < pi(j), ascending, where pi(j) is the index of pair j's image."""
    m = n // k
    index = {pair: i for i, pair in enumerate(pairs)}
    moves = [((v, v + 1),) for v in range(n) if (v + 1) % m]
    moves += [tuple((v, v + m) for v in range(p * m, p * m + m)) for p in range(k - 1)]
    swaps = []
    for transpositions in moves:
        sigma = list(range(n))
        for a, b in transpositions:
            sigma[a], sigma[b] = b, a
        images = [index[min(sigma[u], sigma[v]), max(sigma[u], sigma[v])] for u, v in pairs]
        swaps.append(tuple((j, image) for j, image in enumerate(images) if j < image))
    return swaps


def _lex_schedule(swaps: list, pairs: int) -> list[list[tuple[int, tuple]]]:
    """Where the walk makes each generator's comparisons: ``steps[i]`` holds
    (generator bit, its comparisons as subset-id bit pairs, in order) for
    every generator with a comparison due once pair i is decided.  The
    comparison of pairs j < pi(j) is due at the largest pi(j') over the
    generator's comparisons j' <= j, when it and every one before it can be
    made."""
    top = pairs - 1
    steps = [[] for _ in range(pairs)]
    for g, generator in enumerate(swaps):
        due: dict[int, list] = {}
        reach = -1
        for j, image in generator:
            reach = max(reach, image)
            due.setdefault(reach, []).append((1 << (top - j), 1 << (top - image)))
        for i, comparisons in due.items():
            steps[i].append((1 << g, tuple(comparisons)))
    return steps


def _orbit_closure(seeds, tables: _SweepTables) -> dict:
    """{subset id: seed} for every graph in the orbit of one of ``seeds``
    under the generators of the part-preserving group, where the seed is
    the first of ``seeds`` in that orbit.  The generators generate the
    group, so a seed the closure has not met yet starts a search that meets
    its whole orbit and nothing else: one search, and one seed, an orbit."""
    flips = tables.flips
    orbit_of = {}
    for seed in seeds:
        if seed in orbit_of:
            continue
        orbit_of[seed] = seed
        stack = [seed]
        while stack:
            sid = stack.pop()
            for generator in flips:
                # _through(generator, sid), inlined.
                image, rest = 0, sid
                for table in generator:
                    image |= table[rest & 255]
                    rest >>= 8
                if image not in orbit_of:
                    orbit_of[image] = seed
                    stack.append(image)
    return orbit_of


def _apply_prefix(
    tables: _SweepTables, floor: int, units: int, unit: int
) -> tuple[int, int, list[int], list[int]]:
    """Decide the first log2(``units``) pairs as ``unit``'s bits, read as a
    number.  Returns (that prefix length, the prefix's subset id, the rows of
    its present pairs, each vertex's slack: its present degree plus its
    undecided pairs, minus the floor).  Some slack is negative exactly when
    no completion of the prefix meets the floor."""
    rows = tables.rows
    prefix_bits = (units - 1).bit_length()
    first = unit << (len(rows) - prefix_bits)
    adj = [0] * len(tables.left[0])
    slack = [have - floor for have in tables.left[0]]
    for u, v, ubit, vbit, bit in rows[:prefix_bits]:
        if first & bit:
            adj[u] |= vbit
            adj[v] |= ubit
        else:
            slack[u] -= 1
            slack[v] -= 1
    return prefix_bits, first, adj, slack


def _cycle_mask(order, sid: int, pair_bit: list) -> int:
    """The pair mask of the Hamiltonian cycle ``order`` that a search found
    in graph ``sid``: the OR of its pairs' subset-id bits.  Raises
    RuntimeError unless ``order`` visits each of the n vertices once and its
    n pairs are distinct cross pairs, all of them present in ``sid``."""
    n = len(pair_bit)
    mask = pair_bit[order[-1]][order[0]]
    for u, v in zip(order, order[1:]):
        mask |= pair_bit[u][v]
    if len(set(order)) != n or mask.bit_count() != n or mask & sid != mask:
        raise RuntimeError(f"search returned cycle {order} that graph {sid} does not hold")
    return mask


class _CycleStore:
    """Buckets of kept cycle masks, the newest ``CYCLE_BUCKET_CAP`` (read
    when built) in each, packed in one int: mask j at bit ``(pairs + 1) * j``,
    newest at lane 0, under a clear guard bit.  Hot loops inline ``holds``."""

    def __init__(self, buckets: int, pairs: int):
        self.cap, self.width, self.full = CYCLE_BUCKET_CAP, pairs + 1, (1 << pairs) - 1
        # filled[i]: bucket i's lanes in use.  spread[c]: a 1 at the bottom
        # of each of c lanes; floors[c]: their pair bits; tops[c]: their guards.
        self.packed, self.filled = [0] * buckets, [0] * buckets
        lane = (1 << self.width) - 1
        self.spread = [((1 << self.width * c) - 1) // lane for c in range(self.cap + 1)]
        self.floors = [self.full * s for s in self.spread]
        self.tops = [s << pairs for s in self.spread]

    def keep(self, i: int, mask: int) -> None:
        """Put ``mask`` in lane 0 of bucket ``i``, dropping the oldest past the cap."""
        self.packed[i] = (self.packed[i] << self.width | mask) & self.floors[self.cap]
        self.filled[i] = min(self.filled[i] + 1, self.cap)

    def holds(self, i: int, graph: int) -> bool:
        """Whether a mask of bucket ``i`` lies in the subset id ``graph``: a
        lane's pairs absent from ``graph``, plus its floor, carry into its
        guard unless none is absent."""
        c = self.filled[i]
        lanes = (self.packed[i] & (self.full ^ graph) * self.spread[c]) + self.floors[c]
        return lanes & self.tops[c] != self.tops[c]


def _count_meeting_floor(
    n: int, k: int, floor: int, units: int, unit: int, tables: _SweepTables | None = None
) -> int:
    """The number of floor-meeting graphs whose first log2(``units``) pairs,
    read as a number, equal ``unit``: a DP over (pair index, each vertex's
    unmet degree capped at the floor), memoised in ``tables``."""
    tables = tables or _sweep_tables(n, k)
    pairs, left = tables.pairs, tables.left
    total = len(pairs)
    prefix_bits, _, adj, slack = _apply_prefix(tables, floor, units, unit)
    if min(slack) < 0:
        return 0
    memo = tables.counts

    def count(i: int, unmet: tuple[int, ...]) -> int:
        # On entry every vertex's unmet degree fits in its undecided pairs.
        if i == total:
            return 1
        key = (i, unmet)
        known = memo.get(key)
        if known is not None:
            return known
        u, v = pairs[i]
        present = list(unmet)
        present[u] -= present[u] > 0
        present[v] -= present[v] > 0
        found = count(i + 1, tuple(present))
        if unmet[u] <= left[i + 1][u] and unmet[v] <= left[i + 1][v]:
            found += count(i + 1, unmet)
        memo[key] = found
        return found

    meeting = count(prefix_bits, tuple(max(floor - row.bit_count(), 0) for row in adj))
    count = None  # see _enumerate_shard
    return meeting


def _enumerate_minimal(
    n: int, k: int, floor: int, visit, tables: _SweepTables | None = None
) -> int:
    """Run ``visit(subset_id, adj)`` for the minimal floor-meeting graphs,
    ones where every edge has an endpoint of degree exactly the floor, that
    are lex-leaders: no generator of the part-preserving group maps one to a
    graph of larger subset id.  Each orbit's graph of largest subset id is
    one (see the module docstring).  The walk decides the pairs in subset-id
    order, present first.  Returns the number visited.

    ``visit`` returns None, or the pair mask of a Hamiltonian cycle the graph
    holds (see ``_cycle_mask``).  The call keeps up to ``CYCLE_BUCKET_CAP``
    such masks per highest pair (a ``_CycleStore`` bucket), newest first,
    and skips each branch that sets present the highest pair of a kept mask
    it holds: every graph in it is Hamiltonian.  With no mask kept it visits
    every lex-leader."""
    tables = tables or _sweep_tables(n, k)
    rows = tables.rows
    adj = [0] * n
    # slack[v]: v's present degree plus its undecided pairs, minus the floor.
    slack = [have - floor for have in tables.left[0]]
    if min(slack) < 0:
        return 0
    # Bucket i keeps the cycle masks whose highest pair is pair i.
    store = _CycleStore(len(rows), len(rows))
    packed, filled, full = store.packed, store.filled, store.full
    spread, floors, tops = store.spread, store.floors, store.tops
    checks = _lex_schedule(tables.swaps, len(rows))
    last = len(rows) - 1
    visited = 0

    def leaf(sid: int) -> None:
        nonlocal visited
        visited += 1
        mask = visit(sid, adj)
        if mask is not None:
            store.keep(len(rows) - (mask & -mask).bit_length(), mask)

    def lead(i: int, sid: int, tied: int) -> int:
        # The generators still tied once pair i of sid is decided, or -1 if
        # some generator maps sid to a larger subset id.
        for bit, comparisons in checks[i]:
            if tied & bit:
                for a, b in comparisons:
                    if sid & a:
                        if not sid & b:
                            tied ^= bit
                            break
                    elif sid & b:
                        return -1
        return tied

    def rec(i: int, sid: int, over: int, tied: int) -> None:
        # Decides pair i, present first; visits the last pair's completions.
        # over: the vertices above the floor, no two of which may be adjacent.
        # tied: the generators whose comparisons with sid are all equal so far.
        u, v, ubit, vbit, bit = rows[i]
        row_u, row_v = adj[u], adj[v]
        grown_u, grown_v = row_u | vbit, row_v | ubit
        grown = over
        if grown_u.bit_count() > floor:
            grown |= ubit
        if grown_v.bit_count() > floor:
            grown |= vbit
        if not (grown & ubit and grown_u & grown or grown & vbit and grown_v & grown):
            up = sid | bit
            still = lead(i, up, tied) if tied else 0
            # No kept mask lies in up: not ``store.holds(i, up)``, inlined.
            c = filled[i]
            top = tops[c]
            if still >= 0 and ((packed[i] & (full ^ up) * spread[c]) + floors[c]) & top == top:
                adj[u], adj[v] = grown_u, grown_v
                if i == last:
                    leaf(up)
                else:
                    rec(i + 1, up, grown, still)
                adj[u], adj[v] = row_u, row_v
        slack_u, slack_v = slack[u], slack[v]
        if slack_u > 0 and slack_v > 0:
            still = lead(i, sid, tied) if tied else 0
            if still < 0:
                return
            if i == last:
                leaf(sid)
            else:
                slack[u], slack[v] = slack_u - 1, slack_v - 1
                rec(i + 1, sid, over, still)
                slack[u], slack[v] = slack_u, slack_v

    rec(0, 0, 0, (1 << len(tables.swaps)) - 1)
    rec = None  # see _enumerate_shard
    return visited


def _climb(n: int, k: int, bases, tables: _SweepTables | None = None) -> dict:
    """Every non-Hamiltonian graph reached from ``bases``, (subset id, rows)
    of non-Hamiltonian floor-meeting graphs, by adding one absent pair at a
    time, highest bit first, as {subset id: witness or None}, the bases
    included.

    A candidate's parent is non-Hamiltonian, so any Hamiltonian cycle of the
    candidate uses the pair just added.  The call keeps the pair mask of each
    cycle its searches find under each of the cycle's pairs (a
    ``_CycleStore`` bucket); a candidate that holds a mask kept under its
    new pair is Hamiltonian without a search.  Each base is asked
    ``_polynomial_witness`` up front, and each candidate no kept mask
    decides is asked it first, with the ``skip`` its parent passes on
    (``_steps_failed``), and searched only if it has none; a refuted
    candidate keeps no cycle, so the graphs found are the same.  A witness is the one ``_polynomial_witness``
    gives the graph's rows with no step skipped."""
    tables = tables or _sweep_tables(n, k)
    rows, part_masks, pair_bit = tables.rows, tables.part_masks, tables.pair_bit
    part_of = blocks_partition(n, k)
    total = len(rows)
    every = (1 << total) - 1
    # Bucket i keeps the cycle masks that use pair i.
    store = _CycleStore(total, total)
    packed, filled, full = store.packed, store.filled, store.full
    spread, floors, tops = store.spread, store.floors, store.tops
    found = {}
    # (subset id, rows, the monotone certificate steps the graph fails).
    stack = []
    for sid, adj in bases:
        witness = found[sid] = _polynomial_witness(KPartiteGraph(part_of, adj))
        stack.append((sid, adj, _steps_failed(witness)))
    seen = set(found)
    while stack:
        sid, adj, skip = stack.pop()
        rest = every ^ sid
        while rest:
            width = rest.bit_length()
            bit = 1 << (width - 1)
            rest ^= bit
            up = sid | bit
            if up in seen:
                continue
            seen.add(up)
            i = total - width
            # No kept mask lies in up: not ``store.holds(i, up)``, inlined.
            c = filled[i]
            top = tops[c]
            if ((packed[i] & (full ^ up) * spread[c]) + floors[c]) & top == top:
                u, v, ubit, vbit, _ = rows[i]
                grown = list(adj)
                grown[u] |= vbit
                grown[v] |= ubit
                witness = _polynomial_witness(KPartiteGraph(part_of, grown), skip)
                order = None if witness else _ham_search(n, grown, part_masks)[0]
                if order is None:
                    found[up] = witness
                    stack.append((up, grown, _steps_failed(witness)))
                    continue
                mask = cycle = _cycle_mask(order, up, pair_bit)
                while cycle:
                    low = cycle & -cycle
                    cycle ^= low
                    store.keep(total - low.bit_length(), mask)
    return found


def _orbit_graphs(n: int, k: int, found: dict, owned: tuple, tables: _SweepTables):
    """The graphs in the orbits of the climb's ``found`` under the prefixes
    ``owned`` (as ``_shard_prefixes`` gives them), by ascending subset id,
    as (graph, witness, orbit); ``orbit`` is the (graph, witness or None) of
    the orbit's seed (``_orbit_closure``) as the climb left it.  A graph the
    climb kept has the climb's witness.  Any other is asked
    ``_polynomial_witness`` with the steps its seed failed, which relabelling
    keeps.  A graph left with none is given its exhaustive search."""
    orbit_of = _orbit_closure(found, tables)
    suffix_bits, prefixes = owned
    part_of = blocks_partition(n, k)
    orbits = {}
    for sid in sorted(sid for sid in orbit_of if sid >> suffix_bits in prefixes):
        seed = orbit_of[sid]
        if seed not in orbits:
            orbits[seed] = KPartiteGraph(part_of, _rows(seed, tables)), found[seed]
        g = KPartiteGraph(part_of, _rows(sid, tables))
        if sid in found:
            witness = found[sid]
        else:
            witness = _polynomial_witness(g, _steps_failed(found[seed]))
        if witness is None:
            witness = ExhaustiveSearch(_decide_hamiltonian(g)[1])
        yield g, witness, orbits[seed]


def _shard_prefixes(pairs: int, shards: int, shard_id: int) -> tuple[int, range]:
    """(the pairs after a shard prefix, the prefixes shard ``shard_id`` of
    ``shards`` owns, ascending).  A prefix is a subset id's first pairs, the
    fewest that number ``shards`` prefixes but at most all ``pairs``, read as
    a number; a shard owns the prefixes equal to its id modulo ``shards``,
    so at most two, and none if its id is at least the prefix count."""
    prefix_bits = min((shards - 1).bit_length(), pairs)
    return pairs - prefix_bits, range(shard_id, 1 << prefix_bits, shards)


def _run_exhaustive_shard(args, tables: _SweepTables | None = None) -> dict:
    """Worker: the walk of shard ``args[4]`` of ``args[3]``, which owns at
    least one prefix; a whole run is shard 0 of 1.  Returns the subsets the
    shard owns (``space``), the floor-meeting graphs it owns
    (``meeting_floor``, the DP's count summed over its prefixes), and the
    non-Hamiltonian lex-leaders among the minimal graphs, as (subset id,
    rows), by descending subset id.  The walk covers the whole space up to
    symmetry, whatever the shard, and searches the lex-leaders only, a kept
    cycle deciding those that hold it without a search (see
    ``_enumerate_minimal``).  ``tables`` are the run's
    ``_sweep_tables(n, k)``, derived here if None."""
    n, k, floor, shards, shard_id = args
    tables = tables or _sweep_tables(n, k)
    suffix_bits, prefixes = _shard_prefixes(len(tables.rows), shards, shard_id)
    part_masks, pair_bit = tables.part_masks, tables.pair_bit
    leaders: list[tuple[int, tuple]] = []

    def visit(sid: int, adj: list[int]) -> int | None:
        order = _ham_search(n, adj, part_masks)[0]
        if order is None:
            leaders.append((sid, tuple(adj)))
            return None
        return _cycle_mask(order, sid, pair_bit)

    _enumerate_minimal(n, k, floor, visit, tables)
    count = 1 << (len(tables.rows) - suffix_bits)
    return {
        "space": len(prefixes) << suffix_bits,
        "meeting_floor": sum(
            _count_meeting_floor(n, k, floor, count, prefix, tables) for prefix in prefixes
        ),
        "non_hamiltonian": leaders,
    }


def _finish_sweep(
    kind: str,
    n: int,
    k: int,
    floor: int,
    counters: dict,
    non_hamiltonian,
    started: float,
    *,
    shards: int = 1,
    shard_id: int | None = None,
    seed: int | None = None,
    trials: int | None = None,
) -> VerificationReport:
    """The report of a sweep whose non-Hamiltonian graphs, in report order,
    are ``non_hamiltonian``, as (graph, its witness or None, its orbit or
    None); ``counters`` holds the sweep's own counts and gains
    ``hamiltonian_found`` and ``witnesses_found``.

    Each graph's entry carries the witness it came with; this step computes
    none.  In an exception regime at the theorem's floor the entries are
    ``exceptional`` and carry the family classification (None off n = 2k or
    beyond recognition's reach), read once an orbit from the orbit's
    (graph, witness), a graph with no orbit its own; anywhere else they are
    counterexamples."""
    characterize = is_exception(n, k) and floor == theorem_threshold(n, k)
    classify = characterize and n == 2 * k and n <= RECOGNIZE_SIZE_LIMIT
    entries = []
    classes = {}
    for g, witness, orbit in non_hamiltonian:
        entry = {
            "graph": encode(g),
            "witness": witness_to_payload(witness) if witness else None,
        }
        if characterize:
            orbit = orbit or (g, witness)
            if classify and orbit not in classes:
                classes[orbit] = _recognize(*orbit)
            entry["classification"] = classes.get(orbit)
        entries.append(entry)
    counters["hamiltonian_found"] = counters["graphs_above_threshold"] - len(entries)
    counters["witnesses_found"] = sum(entry["witness"] is not None for entry in entries)
    report = VerificationReport(
        kind=kind,
        params={
            "n": n,
            "k": k,
            "degree_floor": floor,
            "shards": shards,
            "shard_id": shard_id,
            "seed": seed,
            "trials": trials,
        },
        counters=counters,
        counterexamples=[] if characterize else entries,
        exceptional=entries if characterize else [],
    )
    return _finish_report(report, started)


def _finish_exhaustive(
    n: int,
    k: int,
    floor: int,
    shards: int,
    shard_id: int | None,
    result: dict,
    kind: str,
    started: float,
    tables: _SweepTables,
) -> VerificationReport:
    """The report of a run whose walk returned ``result``: the climb from
    its non-Hamiltonian lex-leaders, then ``_finish_sweep`` over the graphs
    of the climbed orbits that the run owns (``_orbit_graphs``).  A whole
    run owns every graph, shard ``shard_id`` those under its prefixes."""
    counters = {
        "graphs_enumerated": result["space"],
        "graphs_above_threshold": result["meeting_floor"],
    }
    found = _climb(n, k, result["non_hamiltonian"], tables)
    walk = (1, 0) if shard_id is None else (shards, shard_id)
    owned = _shard_prefixes(len(tables.rows), *walk)
    graphs = _orbit_graphs(n, k, found, owned, tables)
    return _finish_sweep(
        kind, n, k, floor, counters, graphs, started, shards=shards, shard_id=shard_id
    )


def _finish_report(report: VerificationReport, started: float) -> VerificationReport:
    """Record the self-check verdict and the wall time since ``started``."""
    report.self_check_ok = _self_check(report)
    report.wall_time_seconds = round(time.monotonic() - started, 6)
    return report


def _self_check(report: VerificationReport) -> bool:
    """Re-decode every recorded graph, re-solve it with the second decider
    and certify its witness, if it has one.  That re-solve certifies an
    exhaustive search, whose node count must reproduce under the path search."""
    for entry in report.counterexamples + report.exceptional:
        graph_text = entry.get("graph")
        if graph_text is None:
            continue
        g = decode(graph_text)
        if g.n >= 3 and _forced_edge_cycle(g) is not None:
            return False
        payload = entry.get("witness")
        if payload is None:
            continue
        witness = witness_from_payload(payload)
        if isinstance(witness, ExhaustiveSearch):
            if _decide_hamiltonian(g) != (None, witness.nodes):
                return False
        elif not witness_certifies(g, witness):
            return False
    return True


def exhaustive_verify(
    n: int,
    k: int,
    degree_floor: int | None = None,
    *,
    shards: int = 1,
    shard_id: int | None = None,
    jobs: int = 1,
    _kind: str = "exhaustive",
) -> VerificationReport:
    """Sweep every balanced k-partite graph with min degree >= the floor
    and assert Hamiltonicity (or collect the exceptional graphs when the
    floor sits exactly at the threshold inside an exception regime).  The
    sweep runs in this process, as one walk and one climb: the whole sweep's
    when ``shard_id`` is None, whatever ``shards`` is, else those of shard
    ``shard_id`` of ``shards``.  ``jobs`` must be positive and changes
    nothing else."""
    started = time.monotonic()
    _validate_pair(n, k)
    m = n // k
    pairs = n * (n - 1) // 2 - k * (m * (m - 1) // 2)
    if pairs > EXHAUSTIVE_MAX_PAIRS:
        raise SizeGuardError(
            f"exhaustive enumeration guarded at 2^{EXHAUSTIVE_MAX_PAIRS} edge subsets; "
            f"(n, k) = ({n}, {k}) has {pairs} cross pairs, so 2^{pairs} subsets"
        )
    if jobs < 1:
        raise ValueError(f"jobs must be positive, got {jobs}")
    if shards < 1:
        raise ValueError(f"shards must be positive, got {shards}")
    if shard_id is not None and not 0 <= shard_id < shards:
        raise ValueError(f"shard_id must lie in [0, {shards}), got {shard_id}")
    floor = required_degree(n, k) if degree_floor is None else degree_floor
    if floor < 0:
        raise ValueError(f"degree floor must be non-negative, got {floor}")
    tables = _sweep_tables(n, k)
    # A whole run is shard 0 of 1, so ``shards`` only names the count.
    walk = (1, 0) if shard_id is None else (shards, shard_id)
    if _shard_prefixes(pairs, *walk)[1]:
        result = _run_exhaustive_shard((n, k, floor, *walk), tables)
    else:
        # The shard owns no prefix, so no subset and no graph.
        result = {"space": 0, "meeting_floor": 0, "non_hamiltonian": []}
    return _finish_exhaustive(n, k, floor, shards, shard_id, result, _kind, started, tables)


def characterization_check(
    n: int, k: int, *, shards: int = 1, jobs: int = 1
) -> VerificationReport:
    """Enumerate min degree >= n/2 - 1 graphs in the n = 2k exception regime
    and classify every non-Hamiltonian one; unrecognized graphs are
    violations.  Only (8, 4) is run: n = 12 has 2^60 edge subsets."""
    if n != 2 * k or n % 4 != 0:
        raise ValueError(f"characterization regime needs n = 2k with 4 | n, got n={n} k={k}")
    if n != 8:
        raise SizeGuardError(f"characterization guarded at n = 8, got {n}")
    return exhaustive_verify(
        n, k, theorem_threshold(n, k), shards=shards, jobs=jobs, _kind="characterization"
    )


def sample_verify(
    n: int,
    k: int,
    trials: int,
    seed: int,
    *,
    degree_floor: int | None = None,
) -> VerificationReport:
    """Random near-threshold graphs conditioned on the degree floor; asserts
    Hamiltonicity (or classifies, in the exception-at-threshold mode).

    Each cross-part pair is included independently with probability p, where
    p sweeps a small grid placing the expected degree at floor, floor+1 and
    floor+2; rejection sampling enforces the floor, with at most
    ``SAMPLE_MAX_RETRIES`` draws per trial.
    """
    started = time.monotonic()
    _validate_pair(n, k)
    if n > HAM_SIZE_LIMIT:
        raise SizeGuardError(f"sampling guarded at n <= {HAM_SIZE_LIMIT}, got {n}")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    floor = required_degree(n, k) if degree_floor is None else degree_floor
    if floor < 0:
        raise ValueError(f"degree floor must be non-negative, got {floor}")
    part_of = blocks_partition(n, k)
    pairs = cross_pairs(n, k)
    m = n // k
    cross_degree = n - m
    grid = [min(1.0, (floor + bump) / cross_degree) for bump in (0, 1, 2)]
    rng = random.Random(seed)
    counters = {"graphs_enumerated": 0, "graphs_above_threshold": 0, "infeasible_trials": 0}
    non_ham = []
    for trial in range(trials):
        p = grid[trial % len(grid)]
        adj = None
        for _ in range(SAMPLE_MAX_RETRIES):
            counters["graphs_enumerated"] += 1
            candidate = [0] * n
            for u, v in pairs:
                if rng.random() < p:
                    candidate[u] |= 1 << v
                    candidate[v] |= 1 << u
            if min(row.bit_count() for row in candidate) >= floor:
                adj = candidate
                break
        if adj is None:
            counters["infeasible_trials"] += 1
            continue
        counters["graphs_above_threshold"] += 1
        g = KPartiteGraph(part_of, adj)
        if find_hamiltonian_cycle(g) is None:
            non_ham.append((g, non_hamiltonicity_witness(g), None))
    return _finish_sweep(
        "sample", n, k, floor, counters, non_ham, started, seed=seed, trials=trials
    )


def tightness_scan(k_max: int, m_max: int) -> VerificationReport:
    """Build the canonical threshold-minus-one family member for every (k, m)
    and verify its degree and its oversized-independent-set certificate; the
    solver double-checks non-Hamiltonicity up to ``TIGHTNESS_SOLVER_LIMIT``
    vertices."""
    started = time.monotonic()
    _validate_range(k_max, m_max)
    counters = {
        "members_checked": 0,
        "certificates_valid": 0,
        "solver_confirmed": 0,
        "infeasible_specs": 0,
    }
    counterexamples = []
    for k in range(2, k_max + 1):
        for m in range(1, m_max + 1):
            n = m * k
            if n < 3:
                continue
            try:
                g = build_family_F(k, m)
            except GraphError as exc:
                counters["infeasible_specs"] += 1
                counterexamples.append(
                    {"k": k, "m": m, "failure": f"infeasible default sizes: {exc}"}
                )
                continue
            counters["members_checked"] += 1
            failures = []
            expected = theorem_threshold(n, k) - 1
            if g.min_degree() != expected:
                failures.append(
                    f"min degree {g.min_degree()} != threshold-1 = {expected}"
                )
            designated = g.meta["independent_set"]
            target = _ceil_div(n + 1, 2)
            if len(designated) != target or not is_independent(g, designated):
                failures.append("independent-set certificate invalid")
            else:
                counters["certificates_valid"] += 1
            if n <= TIGHTNESS_SOLVER_LIMIT:
                if find_hamiltonian_cycle(g) is not None:
                    failures.append("solver found a Hamiltonian cycle")
                else:
                    counters["solver_confirmed"] += 1
            if failures:
                counterexamples.append(
                    {"k": k, "m": m, "graph": encode(g), "failure": "; ".join(failures)}
                )
    report = VerificationReport(
        kind="tightness",
        params={
            "k_max": k_max,
            "m_max": m_max,
            "solver_limit": TIGHTNESS_SOLVER_LIMIT,
            "seed": None,
        },
        counters=counters,
        counterexamples=counterexamples,
    )
    return _finish_report(report, started)


def facts_report(k_max: int, m_max: int) -> VerificationReport:
    """Wrap the exact-arithmetic scans in a report: supporting facts, the
    floor identity, and the long-cycle threshold comparison."""
    started = time.monotonic()
    facts = check_appendix_facts(k_max, m_max)
    eq_failures = scan_eq4_identity(k_max, m_max)
    dom_failures = scan_domcycle_threshold(k_max, m_max)
    unexpected_dom = [pair for pair in dom_failures if pair != (8, 4)]
    counterexamples = [
        {"fact": name, "n": n, "k": k} for name, n, k in facts.violations
    ]
    counterexamples.extend(
        {"fact": "eq4_identity", "n": n, "k": k} for n, k in eq_failures
    )
    counterexamples.extend(
        {"fact": "domcycle_threshold", "n": n, "k": k} for n, k in unexpected_dom
    )
    counters = dict(sorted(facts.checked.items()))
    counters["eq4_checked"] = sum(
        1 for k in range(2, k_max + 1) for m in range(1, m_max + 1)
    )
    counters["domcycle_checked"] = sum(
        1 for k in range(3, k_max + 1) for m in range(2, m_max + 1)
    )
    counters["domcycle_expected_failures"] = sum(
        1 for pair in dom_failures if pair == (8, 4)
    )
    report = VerificationReport(
        kind="facts",
        params={"k_max": k_max, "m_max": m_max, "seed": None},
        counters=counters,
        counterexamples=counterexamples,
    )
    # No fact entry carries a graph, so the self-check passes trivially.
    return _finish_report(report, started)


__all__ = [
    "VerificationReport",
    "characterization_check",
    "cross_pairs",
    "exhaustive_verify",
    "facts_report",
    "sample_verify",
    "tightness_scan",
]
