"""Sufficient-condition predicates and cycle diagnostics.

Three checkers live here: the sorted-degree implication that forces a
Hamiltonian cycle in a balanced bipartite graph, the strongly-dominating
property of a cycle (everything off the cycle is independent and no two
neighbours of outside vertices sit consecutively on it), and a diagnostic
that reads off the successor/predecessor sets of an outside vertex along a
cycle together with the inequalities they are expected to satisfy.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import (
    CycleCertificate,
    GraphError,
    KPartiteGraph,
    SizeGuardError,
    _bits,
    connected_components,  # noqa: F401  (the traced benchmark wraps this name)
    is_independent,
)
from .solver import (
    ENUMERATE_SIZE_LIMIT,
    _cut_witness,
    enumerate_longest_cycles,
    find_hamiltonian_cycle,
    verify_cycle,
)
from .thresholds import _ceil_div

HOLDS = "holds"
NOT_APPLICABLE = "not_applicable"
VIOLATED = "violated"


def chvatal_bipartite_condition(h: KPartiteGraph, u_part: int = 0) -> bool:
    """Sorted-degree test on a balanced bipartite graph.

    With the two sides' degree sequences sorted ascending as u_1..u_{n/2} and
    v_1..v_{n/2}, returns True iff for every t < n/2, d(v_t) <= t implies
    d(u_{n/2-t}) >= n/2 - t + 1.  A True return forces a Hamiltonian cycle;
    False implies nothing.  The test is directional, so the caller designates
    which part plays U via ``u_part``.
    """
    if h.k != 2:
        raise GraphError(f"chvatal test needs a 2-partite graph, got k={h.k}")
    if u_part not in (0, 1):
        raise GraphError(f"u_part must be 0 or 1, got {u_part}")
    u_members = h.part_members(u_part)
    v_members = h.part_members(1 - u_part)
    if len(u_members) != len(v_members):
        raise GraphError(
            f"sides must have equal size, got {len(u_members)} and {len(v_members)}"
        )
    if h.n < 4:
        raise GraphError(f"chvatal test needs n >= 4, got n={h.n}")
    half = h.n // 2
    du = sorted(h.degree(v) for v in u_members)
    dv = sorted(h.degree(v) for v in v_members)
    for t in range(1, half):
        if dv[t - 1] <= t and du[half - t - 1] < half - t + 1:
            return False
    return True


def is_strongly_dominating(g: KPartiteGraph, cycle: CycleCertificate) -> bool:
    """True iff vertices off the cycle form an independent set and no two of
    their neighbours appear consecutively on the cycle."""
    if not verify_cycle(g, cycle):
        raise GraphError("certificate is not a cycle of this graph")
    adj = g.adj
    vs = cycle.vertices
    # The vertices are distinct, as ``verify_cycle`` checked.
    outside = (1 << g.n) - 1
    for v in vs:
        outside ^= 1 << v
    touched = 0
    rest = outside
    while rest:
        low = rest & -rest
        row = adj[low.bit_length() - 1]
        if row & outside:
            return False
        touched |= row
        rest ^= low
    prev = vs[-1]
    for v in vs:
        if touched >> prev & touched >> v & 1:
            return False
        prev = v
    return True


@dataclass(frozen=True)
class DomCycleOutcome:
    status: str
    counter_cycle: CycleCertificate | None = None


# The outcomes that carry no cycle; frozen, so every call can share them.
_HOLDS = DomCycleOutcome(HOLDS)
_NOT_APPLICABLE = DomCycleOutcome(NOT_APPLICABLE)


# Hamiltonian cycles the lemma check found lately, most recently used first:
# n -> [(edge mask, cycle)], at most _RECENT_CYCLES entries per n.  The edge
# mask is the cycle's own ``CycleCertificate.edge_mask`` at the stride of
# n-vertex graphs (bit u * stride + v for each cycle edge u -> v, the bit
# that edge has in ``KPartiteGraph.packed``), so it is built once per cycle.
# A cycle is kept only once it is checked to be a Hamiltonian cycle of the
# graph it was found in: n distinct vertices in range(n), the same for every
# n-vertex graph, so a kept cycle lies in another such graph exactly when its
# mask misses the graph's absent edges.  Sweeps pass near-identical graphs in
# a row, so a recent cycle often lies in the next graph too.  Over the
# 236,926 graphs of the n = 7 sweep, which need 268 distinct cycles in all,
# 64 kept cycles miss 2,097 times, 128 miss 1,018 times and 256 miss 622
# times (618 with no limit).  Timed, 128, 256 and 512 kept cycles check that
# sweep within noise of each other (1.42-1.59 s at reference speed), so 256
# keeps nearly every cycle the sweep reuses while a miss still scans at most
# 256 masks.
_RECENT_CYCLES = 256
_recent_cycles: dict[int, list[tuple[int, CycleCertificate]]] = {}


def _remember_cycle(g: KPartiteGraph, cycle: CycleCertificate) -> None:
    """Keep ``cycle`` as the most recently used of g's vertex count; raises
    GraphError unless it is a Hamiltonian cycle of g."""
    if len(cycle) != g.n or not verify_cycle(g, cycle):
        raise GraphError("only a Hamiltonian cycle of the graph is kept")
    recent = _recent_cycles.setdefault(g.n, [])
    recent.insert(0, (cycle.edge_mask(g.stride), cycle))
    del recent[_RECENT_CYCLES:]


def check_domcycle_lemma(g: KPartiteGraph) -> DomCycleOutcome:
    """Every longest cycle of a 2-connected graph with min degree >= (n+2)/3
    should be strongly dominating; this checks that claim on one graph.

    Returns NOT_APPLICABLE when the hypotheses fail, HOLDS when every longest
    cycle is strongly dominating, and VIOLATED with a counter-cycle otherwise
    (no violation is expected to exist).

    Hamiltonian cycles found by earlier calls are tried first: the last
    ``_RECENT_CYCLES`` (256) per vertex count, most recently used first, each
    checked to be a Hamiltonian cycle when it was kept and carrying its edge
    mask over ``g.packed`` (bit u * g.stride + v per cycle edge u -> v), so
    one AND tells whether its edges all lie in g.  One that does is a
    Hamiltonian cycle of g, so g (n >= 3) is 2-connected and every longest
    cycle spans it, and HOLDS follows with no hypothesis skipped; that cycle
    becomes the most recently used.  On a miss the Hamiltonian search runs
    next, for the same reason; only a graph it refutes gets the cut-vertex
    search, one depth-first search with lowpoints, and only a 2-connected
    one of those gets the longest-cycle enumeration, whose cycles (each
    listed once) ``is_strongly_dominating`` tests in turn.  The status never
    depends on which cycles are kept.  HOLDS and NOT_APPLICABLE return
    shared outcome instances.
    """
    n = g.n
    if n > ENUMERATE_SIZE_LIMIT:
        raise SizeGuardError(f"lemma check guarded at n <= {ENUMERATE_SIZE_LIMIT}, got {n}")
    if n < 3:
        return _NOT_APPLICABLE
    # Every degree at least (n + 2) / 3, rounded up.  A plain loop: cheaper
    # than min(map(int.bit_count, ...)) on a few rows, once per graph.
    floor = (n + 4) // 3
    for row in g.adj:
        if row.bit_count() < floor:
            return _NOT_APPLICABLE
    recent = _recent_cycles.get(n)
    if recent:
        missing = ~g.packed
        for i, (mask, _) in enumerate(recent):
            if not mask & missing:
                if i:
                    recent.insert(0, recent.pop(i))
                return _HOLDS
    # A Hamiltonian graph is immediate: it is 2-connected, and every longest
    # cycle spans it, leaving nothing outside.
    cycle = find_hamiltonian_cycle(g)
    if cycle is not None:
        _remember_cycle(g, cycle)
        return _HOLDS
    if _cut_witness(g) is not None:
        return _NOT_APPLICABLE
    for cycle in enumerate_longest_cycles(g):
        if not is_strongly_dominating(g, cycle):
            return DomCycleOutcome(VIOLATED, cycle)
    return _HOLDS


@dataclass(frozen=True)
class SuccessorProfile:
    """Successor/predecessor sets of an off-cycle vertex, with the sanity
    flags the surrounding argument expects of a longest cycle.

    ``succ_set`` is everything off the cycle plus the cycle-successor of each
    on-cycle neighbour of z; ``pred_set`` is the predecessor analogue.
    ``succ_parts``/``pred_parts`` count how many parts each set meets.  The
    boolean flags record, without failing, whether the expected inequalities
    hold for this instance.
    """

    cycle: CycleCertificate
    z: int
    succ_set: frozenset[int]
    pred_set: frozenset[int]
    succ_parts: int
    pred_parts: int
    succ_independent: bool
    pred_independent: bool
    sets_large_enough: bool
    parts_at_least_half: bool
    parts_below_upper: bool


def successor_profile(g: KPartiteGraph, cycle: CycleCertificate, z: int) -> SuccessorProfile:
    """Compute the successor/predecessor diagnostic for off-cycle vertex z."""
    if not verify_cycle(g, cycle):
        raise GraphError("certificate is not a cycle of this graph")
    vs = cycle.vertices
    if z in vs:
        raise GraphError(f"vertex {z} lies on the cycle")
    if not 0 <= z < g.n:
        raise GraphError(f"vertex {z} out of range")
    length = len(vs)
    position = {v: i for i, v in enumerate(vs)}
    outside = frozenset(range(g.n)) - set(vs)
    succ = set(outside)
    pred = set(outside)
    for v in _bits(g.adj[z]):
        if v in position:
            i = position[v]
            succ.add(vs[(i + 1) % length])
            pred.add(vs[(i - 1) % length])
    delta = g.min_degree()
    succ_parts = len({g.part_of[v] for v in succ})
    pred_parts = len({g.part_of[v] for v in pred})
    half_floor = _ceil_div(g.k, 2)
    half_ceil = _ceil_div(g.k + 1, 2)
    return SuccessorProfile(
        cycle=cycle,
        z=z,
        succ_set=frozenset(succ),
        pred_set=frozenset(pred),
        succ_parts=succ_parts,
        pred_parts=pred_parts,
        succ_independent=is_independent(g, succ),
        pred_independent=is_independent(g, pred),
        sets_large_enough=len(succ) >= delta + 1 and len(pred) >= delta + 1,
        parts_at_least_half=succ_parts >= half_floor and pred_parts >= half_floor,
        parts_below_upper=succ_parts + pred_parts < 2 * half_ceil,
    )
