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
floor-meeting graph contains a minimal one.  A sweep has three steps:

- Count.  A DP over (pair index, each vertex's unmet degree capped at the
  floor), memoised within the run, counts the floor-meeting graphs.
- Enumerate.  A recursion lists the minimal graphs, and each is searched.
  It prunes a branch as soon as an edge joins two vertices above the floor,
  since degrees only grow along a branch.
- Climb.  From the non-Hamiltonian minimal graphs, add each absent pair in
  turn and keep every non-Hamiltonian result, climbing again from each.

Both searching steps reuse the Hamiltonian cycles their searches find.  A
kept cycle is its pair mask, the OR of its n pairs' subset-id bits, checked
once when kept: n bits, all present in the graph that produced it.  A graph
that holds a kept mask is Hamiltonian without a search.  The enumeration
buckets a mask by its highest pair and, when it sets that pair present,
tests the bucket against the graph decided so far; on a hit it skips the
branch, since every completion adds edges to a Hamiltonian graph.  So it
skips only Hamiltonian minimal graphs, and lists the non-Hamiltonian ones
in the order it would without reuse.  The climb indexes a mask under each
of its pairs: a candidate's parent is non-Hamiltonian, so a cycle of the
candidate uses the pair just added, and only that pair's masks are tested.
Reuse changes which graphs are searched, never which are listed.  The
store belongs to one unit's enumeration or one climb and keeps at most
``CYCLE_BUCKET_CAP`` masks a bucket, newest first.  Where it pays, the
climb asks the solver's search-free witnesses about a candidate before it
searches; a refuted candidate yields no cycle, so this too changes only
which graphs are searched, and its witness is kept for the report.

The climb finds every non-Hamiltonian floor-meeting graph G.  G contains a
minimal graph M, which is non-Hamiltonian because G is.  Add the pairs of G
missing from M one at a time: each graph on the way lies between M and G, so
it meets the floor (it contains M) and is non-Hamiltonian (it lies in G),
and the climb keeps it and climbs on.  Reports list the non-Hamiltonian
graphs by subset id, so they depend on no visit order.

A shard owns the subsets whose high-order bits, read as a number, equal its
id modulo the shard count, so shards partition the subset space exactly and
their counters merge by addition.  A run's work units are the prefixes of
those bits; only ``_work_units`` knows which shard owns which prefix.  Each
unit counts the graphs it owns and searches its own minimal graphs, and the
finish step climbs.  A path from M up to G passes only prefixes whose
present pairs are a subset of G's prefix, so a shard run also searches the
units below each prefix it owns, climbs within those units, and keeps what
it owns.  Everything runs in one process.

The exhaustive and the sampled sweep both hand their non-Hamiltonian graphs,
in report order, to ``_finish_sweep``, with any witness the climb kept: it
computes the others, builds each entry (an exceptional one at the floor of
an exception regime, classified from its witness, a counterexample anywhere
else) and writes the sweep params.  Every report builder ends in
``_finish_report``, which runs the self-check and stamps the wall time.  The
self-check re-solves each recorded graph with the second decider, which also
certifies an exhaustive search, certifies any other witness, and requires an
exhaustive search's node count to reproduce.  Reports serialize to JSON
with a schema version; apart from the ``wall_time_seconds`` field they are
byte-identical across repeat runs with equal parameters and seed.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import MISSING, dataclass, field, fields

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
# 2^24 edge subsets: the (8, 4) sweep, which takes about a second whole.
EXHAUSTIVE_MAX_PAIRS = 24
# Draws per sampled trial before it counts as infeasible.
SAMPLE_MAX_RETRIES = 200
# Tightness members up to this many vertices are also refuted by the solver.
TIGHTNESS_SOLVER_LIMIT = 12
# Hamiltonian cycles a sweep step keeps per bucket, newest first; see
# ``_enumerate_minimal`` and ``_climb``.
CYCLE_BUCKET_CAP = 32


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
) -> tuple[int, int]:
    """Run ``visit(subset_id, adj)`` for every floor-satisfying graph whose
    first log2(``units``) pairs, read as a number, equal ``unit``; ``units``
    is a power of two no larger than the subset space.  Returns (edge subsets
    covered, graphs visited)."""
    pairs = cross_pairs(n, k)
    total_pairs = len(pairs)
    prefix_bits = (units - 1).bit_length()
    suffix_bits = total_pairs - prefix_bits
    # rows[i]: pair i as (u, v, 1 << u, 1 << v, its bit in a subset id).
    rows = [(u, v, 1 << u, 1 << v, 1 << (total_pairs - 1 - i)) for i, (u, v) in enumerate(pairs)]
    first = unit << suffix_bits
    adj = [0] * n
    # slack[v]: v's present degree plus its undecided pairs, minus the floor.
    slack = [-floor] * n
    for u, v in pairs:
        slack[u] += 1
        slack[v] += 1
    for u, v, ubit, vbit, bit in rows[:prefix_bits]:
        if first & bit:
            adj[u] |= vbit
            adj[v] |= ubit
        else:
            slack[u] -= 1
            slack[v] -= 1
    if min(slack) < 0:
        # No completion of the unit's prefix meets the floor.
        return 1 << suffix_bits, 0
    if not suffix_bits:
        visit(first, adj)
        return 1, 1
    last = total_pairs - 1
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
    ``counts``: the floor count's memo, filled as the run's units count; a
    count from (pair index, unmet degrees) depends on neither the unit nor
    the floor."""

    pairs: list
    rows: list
    part_masks: list
    left: list
    pair_bit: list
    counts: dict = field(default_factory=dict)


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
    return _SweepTables(pairs, rows, _part_masks(n, k), left, pair_bit)


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


def _keep(bucket: list[int], mask: int) -> None:
    """Put ``mask`` first in ``bucket``, dropping the oldest past the cap."""
    bucket.insert(0, mask)
    if len(bucket) > CYCLE_BUCKET_CAP:
        bucket.pop()


def _count_meeting_floor(
    n: int, k: int, floor: int, units: int, unit: int, tables: _SweepTables | None = None
) -> int:
    """The number of floor-meeting graphs whose first log2(``units``) pairs,
    read as a number, equal ``unit``: a DP over (pair index, each vertex's
    unmet degree capped at the floor), memoised in ``tables``."""
    tables = tables or _sweep_tables(n, k)
    pairs, left = tables.pairs, tables.left
    total = len(pairs)
    prefix_bits = (units - 1).bit_length()
    unmet = [max(floor, 0)] * n
    for i, (u, v) in enumerate(pairs[:prefix_bits]):
        if unit >> (prefix_bits - 1 - i) & 1:
            unmet[u] -= unmet[u] > 0
            unmet[v] -= unmet[v] > 0
    if any(need > have for need, have in zip(unmet, left[prefix_bits])):
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

    meeting = count(prefix_bits, tuple(unmet))
    count = None  # see _enumerate_shard
    return meeting


def _enumerate_minimal(
    n: int,
    k: int,
    floor: int,
    units: int,
    unit: int,
    visit,
    tables: _SweepTables | None = None,
) -> int:
    """Run ``visit(subset_id, adj)`` for the minimal floor-meeting graphs,
    ones where every edge has an endpoint of degree exactly the floor, whose
    first log2(``units``) pairs, read as a number, equal ``unit``.  Returns
    the number visited.

    ``visit`` returns None, or the pair mask of a Hamiltonian cycle the graph
    holds (see ``_cycle_mask``).  The call keeps up to ``CYCLE_BUCKET_CAP``
    such masks per highest pair, newest first, and skips each branch that
    sets present the highest pair of a kept mask it holds: every graph in it
    is Hamiltonian.  With no mask kept it visits every minimal graph."""
    tables = tables or _sweep_tables(n, k)
    rows = tables.rows
    total = len(rows)
    prefix_bits = (units - 1).bit_length()
    first = unit << (total - prefix_bits)
    adj = [0] * n
    # slack[v]: v's present degree plus its undecided pairs, minus the floor.
    slack = [have - floor for have in tables.left[0]]
    for u, v, ubit, vbit, bit in rows[:prefix_bits]:
        if first & bit:
            adj[u] |= vbit
            adj[v] |= ubit
        else:
            slack[u] -= 1
            slack[v] -= 1
    # over: the vertices above the floor, no two of which may be adjacent.
    over = sum(1 << v for v in range(n) if adj[v].bit_count() > floor)
    if min(slack) < 0 or any(adj[v] & over for v in range(n) if over >> v & 1):
        return 0
    if prefix_bits == total:
        visit(first, adj)
        return 1
    # kept[i]: kept cycle masks whose highest pair is i.  A mask within the
    # prefix is never tested, since the prefix is set before the recursion.
    kept: list[list[int]] = [[] for _ in range(total)]
    last = total - 1
    visited = 0

    def leaf(sid: int) -> None:
        nonlocal visited
        visited += 1
        mask = visit(sid, adj)
        if mask is not None:
            _keep(kept[total - (mask & -mask).bit_length()], mask)

    def rec(i: int, sid: int, over: int) -> None:
        # Decides pair i, present first; visits the last pair's completions.
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
            for mask in kept[i]:
                if mask & up == mask:
                    break
            else:
                adj[u], adj[v] = grown_u, grown_v
                if i == last:
                    leaf(up)
                else:
                    rec(i + 1, up, grown)
                adj[u], adj[v] = row_u, row_v
        slack_u, slack_v = slack[u], slack[v]
        if slack_u > 0 and slack_v > 0:
            if i == last:
                leaf(sid)
            else:
                slack[u], slack[v] = slack_u - 1, slack_v - 1
                rec(i + 1, sid, over)
                slack[u], slack[v] = slack_u, slack_v

    rec(prefix_bits, first, over)
    rec = None  # see _enumerate_shard
    return visited


def _climb(
    n: int,
    k: int,
    bases,
    suffix_bits: int,
    prefixes: set,
    tables: _SweepTables | None = None,
) -> tuple[dict, dict]:
    """Every non-Hamiltonian graph reached from ``bases``, (subset id, rows)
    of non-Hamiltonian floor-meeting graphs, by adding one absent pair at a
    time, highest bit first, as {subset id: rows}, the bases included, and
    {subset id: witness} for those a certificate refuted.  A graph whose
    prefix (its subset id shifted right by ``suffix_bits``) is not in
    ``prefixes`` is not entered.

    A candidate's parent is non-Hamiltonian, so any Hamiltonian cycle of the
    candidate uses the pair just added.  The call keeps the pair mask of each
    cycle its searches find under each of the cycle's pairs, up to
    ``CYCLE_BUCKET_CAP`` per pair, newest first; a candidate that holds a
    mask kept under its new pair is Hamiltonian without a search.  Where
    refuting searches cost more than the certificates, from n = 7 on and
    with every base of minimum degree at least n/2 - 1, a candidate is asked
    ``_polynomial_witness`` first and searched only if it has none; a
    refuted candidate keeps no cycle, so the graphs found are the same.  Its
    witness is what ``non_hamiltonicity_witness`` would give its rows."""
    tables = tables or _sweep_tables(n, k)
    rows, part_masks, pair_bit = tables.rows, tables.part_masks, tables.pair_bit
    part_of = blocks_partition(n, k)
    total = len(rows)
    full = (1 << total) - 1
    # through[i]: kept cycle masks that use pair i.
    through: list[list[int]] = [[] for _ in range(total)]
    found = dict(bases)
    witnesses = {}
    # Every candidate's minimum degree is at least the bases' least.
    least = min((min(map(int.bit_count, adj)) for adj in found.values()), default=0)
    certify = n >= 7 and 2 * least >= n - 2
    seen = set(found)
    stack = list(found.items())
    while stack:
        sid, adj = stack.pop()
        rest = full ^ sid
        while rest:
            width = rest.bit_length()
            bit = 1 << (width - 1)
            rest ^= bit
            up = sid | bit
            if up in seen or up >> suffix_bits not in prefixes:
                continue
            seen.add(up)
            i = total - width
            for mask in through[i]:
                if mask & up == mask:
                    break
            else:
                u, v, ubit, vbit, _ = rows[i]
                grown = list(adj)
                grown[u] |= vbit
                grown[v] |= ubit
                witness = _polynomial_witness(KPartiteGraph(part_of, grown)) if certify else None
                order = None if witness else _ham_search(n, grown, part_masks)[0]
                if order is None:
                    found[up] = grown = tuple(grown)
                    stack.append((up, grown))
                    if witness:
                        witnesses[up] = witness
                    continue
                mask = cycle = _cycle_mask(order, up, pair_bit)
                while cycle:
                    low = cycle & -cycle
                    cycle ^= low
                    _keep(through[total - low.bit_length()], mask)
    return found, witnesses


def _prefix_bits(pairs: int, shards: int) -> int:
    """The length of a shard prefix: the fewest bits that number ``shards``
    prefixes, at most the pair count."""
    return min((shards - 1).bit_length(), pairs)


def _work_units(n: int, k: int, floor: int, shards: int, shard_id: int | None) -> list:
    """Worker arguments ``(n, k, floor, shards, shard_id, unit_bits, unit)``
    for every prefix the run owns, in prefix order; a whole run names each
    prefix's owner."""
    unit_bits = _prefix_bits(len(cross_pairs(n, k)), shards)
    if shard_id is None:
        return [
            (n, k, floor, shards, unit % shards, unit_bits, unit) for unit in range(1 << unit_bits)
        ]
    return [
        (n, k, floor, shards, shard_id, unit_bits, unit)
        for unit in range(shard_id, 1 << unit_bits, shards)
    ]


def _units_below(units: list) -> list:
    """Worker arguments for the prefixes a shard run needs but does not own:
    those whose present pairs are a subset of an owned prefix's.  A
    non-Hamiltonian graph's minimal subgraphs may lie there."""
    owned = {args[6] for args in units}
    below = set()
    for unit in owned:
        sub = unit
        while sub:
            sub = (sub - 1) & unit
            below.add(sub)
    return [(*units[0][:6], unit) for unit in sorted(below - owned)]


def _run_exhaustive_shard(args, tables: _SweepTables | None = None) -> dict:
    """Worker: one work unit.  ``args[4]`` names the shard whose run needs
    the unit, which owns the unit's subsets when the unit's prefix is its id
    modulo the shard count.  Returns the subsets it owns (``space``), the
    floor-meeting graphs it owns (``meeting_floor``, counted by the DP), and
    each minimal graph under the prefix whose search finds no Hamiltonian
    cycle, as (subset id, rows).  A cycle the unit keeps decides the minimal
    graphs that hold it without a search (see ``_enumerate_minimal``).  The
    finish step climbs from the listed graphs and gives each its witness.
    ``tables`` are the run's ``_sweep_tables(n, k)``, derived here if None."""
    n, k, floor, shards, shard_id, unit_bits, unit = args
    tables = tables or _sweep_tables(n, k)
    owned = unit % shards == shard_id
    part_masks, pair_bit = tables.part_masks, tables.pair_bit
    non_ham: list[tuple[int, tuple[int, ...]]] = []

    def visit(sid: int, adj: list[int]) -> int | None:
        order = _ham_search(n, adj, part_masks)[0]
        if order is None:
            non_ham.append((sid, tuple(adj)))
            return None
        return _cycle_mask(order, sid, pair_bit)

    _enumerate_minimal(n, k, floor, 1 << unit_bits, unit, visit, tables)
    suffix_bits = len(tables.pairs) - unit_bits
    return {
        "unit": unit,
        "owned": owned,
        "space": 1 << suffix_bits if owned else 0,
        "meeting_floor": (
            _count_meeting_floor(n, k, floor, 1 << unit_bits, unit, tables) if owned else 0
        ),
        "non_hamiltonian": non_ham,
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
    are ``non_hamiltonian``, as (graph, its witness or None if not yet
    known); ``counters`` holds the sweep's own counts and gains
    ``hamiltonian_found`` and ``witnesses_found``.

    Each graph's entry carries its witness.  In an exception regime at the
    theorem's floor the entries are ``exceptional`` and carry the family
    classification read with the witness (None off n = 2k or beyond
    recognition's reach); anywhere else they are counterexamples."""
    characterize = is_exception(n, k) and floor == theorem_threshold(n, k)
    classify = characterize and n == 2 * k and n <= RECOGNIZE_SIZE_LIMIT
    entries = []
    for g, witness in non_hamiltonian:
        if witness is None:
            witness = non_hamiltonicity_witness(g)
        entry = {
            "graph": encode(g),
            "witness": witness_to_payload(witness) if witness else None,
        }
        if characterize:
            entry["classification"] = _recognize(g, witness) if classify else None
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
    shard_results: list[dict],
    kind: str,
    started: float,
    tables: _SweepTables,
) -> VerificationReport:
    """The report of a run whose work units returned ``shard_results``: the
    climb from their non-Hamiltonian minimal graphs, a kept cycle deciding
    a candidate without a search (see ``_climb``), then ``_finish_sweep``
    over the graphs the run owns, with the witnesses the climb kept."""
    counters = {
        "graphs_enumerated": sum(r["space"] for r in shard_results),
        "graphs_above_threshold": sum(r["meeting_floor"] for r in shard_results),
    }
    pairs = len(tables.pairs)
    suffix_bits = pairs - _prefix_bits(pairs, shards)
    bases = (item for r in shard_results for item in r["non_hamiltonian"])
    prefixes = {r["unit"] for r in shard_results}
    found, witnesses = _climb(n, k, bases, suffix_bits, prefixes, tables)
    owned = {r["unit"] for r in shard_results if r["owned"]}
    part_of = blocks_partition(n, k)
    # A generator: each graph object lives only while its entry is made.
    graphs = (
        (KPartiteGraph(part_of, found[sid]), witnesses.get(sid))
        for sid in sorted(found)
        if sid >> suffix_bits in owned
    )
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
    sweep runs in this process; ``jobs`` must be positive and changes
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
    units = _work_units(n, k, floor, shards, shard_id)
    if shard_id is not None:
        units += _units_below(units)
    tables = _sweep_tables(n, k)
    results = [_run_exhaustive_shard(args, tables) for args in units]
    return _finish_exhaustive(n, k, floor, shards, shard_id, results, _kind, started, tables)


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
            non_ham.append((g, None))
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
