"""Harness: exhaustive sweeps, sharding, sampling, tightness, reports."""

import dataclasses
import functools
import gc
import hashlib
import json
import random
from collections import Counter
from itertools import permutations

import pytest

from hamparts import harness, solver
from hamparts.families import (
    build_F2,
    build_family_F,
    build_family_F1,
    build_family_F3,
    recognize,
)
from hamparts.conditions import check_domcycle_lemma
from hamparts.graphs import (
    KPartiteGraph,
    SizeGuardError,
    blocks_partition,
    complete_kpartite,
    decode,
    encode,
)
from hamparts.harness import (
    VerificationReport,
    characterization_check,
    cross_pairs,
    exhaustive_verify,
    facts_report,
    sample_verify,
    tightness_scan,
)
from hamparts.solver import (
    ExhaustiveSearch,
    find_hamiltonian_cycle,
    non_hamiltonicity_witness,
    witness_to_payload,
)
from hamparts.thresholds import (
    check_appendix_facts,
    required_degree,
    scan_domcycle_threshold,
    scan_eq4_identity,
    theorem_threshold,
)
from _util import perm_oracle_hamiltonian


def naive_exhaustive_counts(n, k, floor):
    """Independent oracle: loop over all edge subsets, filter by degree,
    decide Hamiltonicity by permutations."""
    part = blocks_partition(n, k)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if part[u] != part[v]]
    total = len(pairs)
    meeting = ham = 0
    for subset in range(1 << total):
        adj = [0] * n
        for i in range(total):
            if (subset >> (total - 1 - i)) & 1:
                u, v = pairs[i]
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        if min(row.bit_count() for row in adj) < floor:
            continue
        meeting += 1
        for perm in permutations(range(1, n)):
            if perm[0] > perm[-1]:
                continue
            prev, ok = 0, True
            for v in perm:
                if not (adj[prev] >> v) & 1:
                    ok = False
                    break
                prev = v
            if ok and (adj[prev] >> 0) & 1:
                ham += 1
                break
    return meeting, ham


def test_cross_pairs_counts():
    assert len(cross_pairs(6, 3)) == 12
    assert len(cross_pairs(8, 2)) == 16
    assert len(cross_pairs(8, 4)) == 24


def test_exhaustive_6_3_matches_naive_oracle():
    report = exhaustive_verify(6, 3)
    meeting, ham = naive_exhaustive_counts(6, 3, 3)
    assert report.counters["graphs_enumerated"] == 4096
    assert report.counters["graphs_above_threshold"] == meeting == 51
    assert report.counters["hamiltonian_found"] == ham == 51
    assert report.counterexamples == []
    assert report.ok and report.self_check_ok


def test_exhaustive_8_2_required_floor():
    report = exhaustive_verify(8, 2, 3)
    assert report.counters["graphs_enumerated"] == 65536
    # Frozen from the permutation-oracle sweep over all 2^16 subsets.
    assert report.counters["graphs_above_threshold"] == 209
    assert report.counters["hamiltonian_found"] == 209
    assert report.ok


def test_exhaustive_8_2_at_threshold_collects_exceptional():
    report = exhaustive_verify(8, 2, 2)
    # Frozen from the permutation-oracle sweep over all 2^16 subsets.
    assert report.counters["graphs_above_threshold"] == 7343
    assert report.counters["hamiltonian_found"] == 6593
    assert len(report.exceptional) == 750
    assert report.counterexamples == []
    assert report.ok and report.self_check_ok
    # The canonical threshold-minus-one family member for (8, 2) has minimum
    # degree 1, so it appears one floor lower.
    low = exhaustive_verify(8, 2, 1)
    member = encode(build_family_F(2, 4).with_meta(None))
    graphs = {entry["graph"] for entry in low.counterexamples}
    assert member in graphs


# (n, k): the counters of the sweep at D = theorem_threshold(n, k), frozen from
# the labelled walk before the walk went up to symmetry.  k = n makes every
# part one vertex, so only block swaps act; no pair here is an exception.
AT_D_COUNTERS = {
    (3, 3): (2, 8, 1),
    (4, 4): (2, 64, 10),
    (5, 5): (3, 1_024, 26),
    (6, 2): (2, 512, 34),
    (6, 6): (3, 32_768, 1_858),
    (7, 7): (4, 2_097_152, 15_796),
}


def test_sweeps_at_d_are_frozen():
    for (n, k), (floor, subsets, meeting) in AT_D_COUNTERS.items():
        assert theorem_threshold(n, k) == required_degree(n, k) == floor, (n, k)
        report = exhaustive_verify(n, k)
        assert report.counters == {
            "graphs_enumerated": subsets,
            "graphs_above_threshold": meeting,
            "hamiltonian_found": meeting,
            "witnesses_found": 0,
        }, (n, k)
        assert report.counterexamples == report.exceptional == [], (n, k)
        assert report.ok and report.self_check_ok, (n, k)


def _subset_id(entry, n, k):
    """The subset id of an entry's graph: pair 0 is the most significant bit."""
    adj = decode(entry["graph"]).adj
    pairs = cross_pairs(n, k)
    return sum(
        1 << (len(pairs) - 1 - i) for i, (u, v) in enumerate(pairs) if adj[u] >> v & 1
    )


def test_exhaustive_shards_partition_counters():
    # (4, 2) has 4 cross pairs, so 20 shards leave shards 16..19 no prefix;
    # no graph meets floor 5 at (6, 3), whose cross degree is 4.
    cases = [(6, 3, None, shards) for shards in (2, 3, 4, 8)]
    cases += [(4, 2, 1, 20), (6, 3, 5, 3), (6, 3, 5, 20)]
    # Floor 2 has non-Hamiltonian graphs, and a shard climbs to some of them
    # from minimal graphs under prefixes it does not own.
    cases += [(n, k, 2, shards) for n, k in ((6, 3), (8, 2)) for shards in (2, 3, 8, 20)]
    for n, k, floor, shards in cases:
        full = exhaustive_verify(n, k, floor)
        merged = {}
        entries = []
        for shard_id in range(shards):
            part = exhaustive_verify(n, k, floor, shards=shards, shard_id=shard_id)
            for key, value in part.counters.items():
                merged[key] = merged.get(key, 0) + value
            entries += part.counterexamples + part.exceptional
        assert merged == full.counters, (n, k, floor, shards)
        entries.sort(key=lambda entry: _subset_id(entry, n, k))
        assert entries == full.counterexamples + full.exceptional, (n, k, floor, shards)


def test_shard_prefixes_cover_each_subset_once():
    pairs = cross_pairs(6, 3)
    total = len(pairs)
    degrees = []
    for sid in range(1 << total):
        deg = [0] * 6
        for i, (u, v) in enumerate(pairs):
            if (sid >> (total - 1 - i)) & 1:
                deg[u] += 1
                deg[v] += 1
        degrees.append(min(deg))
    tables = harness._sweep_tables(6, 3)
    for floor in (2, 3, 5):
        meeting = [sid for sid, low in enumerate(degrees) if low >= floor]
        non_ham = [sid for sid, _ in _minimal_reference(6, 3, floor)]
        # 5000 shards: 4096 prefixes of 12 pairs, so shards 4096.. own none.
        for shards in (1, 2, 3, 8, 20, 5000):
            suffix_bits = max(total - (shards - 1).bit_length(), 0)
            owner = [(sid >> suffix_bits) % shards for sid in range(1 << total)]
            subsets_owned = Counter(owner)
            covered = []
            for shard_id in range(shards):
                bits, prefixes = harness._shard_prefixes(total, shards, shard_id)
                assert bits == suffix_bits and len(prefixes) <= 2, (shards, shard_id)
                seen, space = [], 0
                for prefix in prefixes:
                    subsets, _ = harness._enumerate_shard(
                        6, 3, floor, 1 << (total - suffix_bits), prefix,
                        lambda sid, adj: seen.append(sid),
                    )
                    space += subsets
                owned = [sid for sid in meeting if owner[sid] == shard_id]
                assert sorted(seen) == owned, (floor, shards, shard_id)
                assert space == subsets_owned[shard_id], (floor, shards, shard_id)
                covered += seen
                if not prefixes or shards > 20:
                    continue
                # Whatever it owns, a shard walks the whole space up to
                # symmetry: the orbits of its non-Hamiltonian lex-leaders are
                # every labelled non-Hamiltonian minimal graph.
                walk = harness._run_exhaustive_shard((6, 3, floor, shards, shard_id))
                assert _closure(walk["non_hamiltonian"], tables) == non_ham, (floor, shards)
            assert sorted(covered) == meeting, (floor, shards)


def _full_sweep(n, k, floor):
    """Reference: search every floor-meeting graph.  Returns their number and
    the non-Hamiltonian ones as {subset id: rows}."""
    part_masks = harness._sweep_tables(n, k).part_masks
    non_ham = {}

    def visit(sid, adj):
        if harness._ham_search(n, adj, part_masks)[0] is None:
            non_ham[sid] = tuple(adj)

    _, meeting = harness._enumerate_shard(n, k, floor, 1, 0, visit)
    return meeting, non_ham


def _vertex_generators(n, k):
    """The part-preserving group's generators as vertex maps: the adjacent
    transpositions inside each block, then the swaps of adjacent blocks."""
    m = n // k
    maps = []
    for v in range(n - 1):
        if v // m == (v + 1) // m:
            sigma = list(range(n))
            sigma[v], sigma[v + 1] = v + 1, v
            maps.append(sigma)
    for p in range(k - 1):
        sigma = list(range(n))
        for v in range(p * m, (p + 1) * m):
            sigma[v], sigma[v + m] = v + m, v
        maps.append(sigma)
    return maps


def _pair_involution(n, k, sigma):
    """pi(j): the index of the image of pair j under the vertex map sigma."""
    pairs = cross_pairs(n, k)
    return [pairs.index(tuple(sorted((sigma[u], sigma[v])))) for u, v in pairs]


def _permuted(sid, generator, pairs):
    """The subset id of the image of graph ``sid`` under a generator given as
    its (j, pi(j)) swaps."""
    image = sid
    for j, other in generator:
        a, b = 1 << (pairs - 1 - j), 1 << (pairs - 1 - other)
        if bool(sid & a) != bool(sid & b):
            image ^= a | b
    return image


def test_lex_comparisons_wait_for_the_prefix_maximum():
    # Each generator's comparison of pairs j < pi(j) is made once pair
    # max(pi(j') : j' <= j) is decided, in increasing j.  At (8, 2), (9, 3)
    # and (12, 2) a block swap's pi(j) is not monotone in j, so scheduling at
    # pi(j) alone would be another schedule, and an unsound one.
    for n, k in ((8, 2), (9, 3), (12, 2), (8, 4), (6, 6), (6, 3)):
        tables = harness._sweep_tables(n, k)
        total = len(tables.pairs)
        expected = [[] for _ in range(total)]
        late = 0
        for g, sigma in enumerate(_vertex_generators(n, k)):
            pi = _pair_involution(n, k, sigma)
            assert sorted(pi) == list(range(total)) and all(pi[pi[j]] == j for j in pi)
            moves = tuple((j, pi[j]) for j in range(total) if j < pi[j])
            assert tables.swaps[g] == moves, (n, k, g)
            due = {}
            for j, _ in moves:
                step = max(pi[i] for i, _ in moves if i <= j)
                late += step != pi[j]
                bits = (1 << (total - 1 - j), 1 << (total - 1 - pi[j]))
                due.setdefault(step, []).append(bits)
            for step, comparisons in due.items():
                expected[step].append((1 << g, tuple(comparisons)))
        assert len(tables.swaps) == len(_vertex_generators(n, k))
        assert harness._lex_schedule(tables.swaps, total) == expected, (n, k)
        if (n, k) in ((8, 2), (9, 3), (12, 2)):
            assert late, (n, k)


def _closure(sids, tables):
    """The subset ids of the orbits of the graphs ``sids``, descending."""
    return sorted(harness._orbit_closure(sids, tables), reverse=True)


def _minimal_sweep(n, k, floor):
    """The whole-run sweep, shard 0 of 1: (the walk's result, the orbits of
    the climb's non-Hamiltonian graphs, as {subset id: rows}).  Each graph
    the climb keeps carries the certificate its own rows give."""
    tables = harness._sweep_tables(n, k)
    walk = harness._run_exhaustive_shard((n, k, floor, 1, 0), tables)
    found = harness._climb(tables, walk["non_hamiltonian"])
    part_of = blocks_partition(n, k)
    for sid, witness in found.items():
        g = KPartiteGraph(part_of, harness._rows(sid, tables))
        assert witness == solver._polynomial_witness(g), (n, k, floor, sid)
    return walk, {sid: tuple(harness._rows(sid, tables)) for sid in _closure(found, tables)}


def test_floor_count_matches_enumeration():
    # The DP against the recursion that visits every floor-meeting graph, at
    # every floor up to one above the cross degree, whole and per prefix.
    # The enumeration reads the same tables.  The prefixes a shard owns,
    # counted in one pass, give the sum of their counts one by one.
    def visit(sid, adj):
        return None

    for n, k in ((6, 3), (8, 2)):
        tables = harness._sweep_tables(n, k)
        for floor in range(6):
            visited = harness._enumerate_shard(n, k, floor, 1, 0, visit, tables)[1]
            counted = harness._count_meeting_floor(tables, floor, 1, [0])
            assert counted == visited, (n, k, floor)
    tables = harness._sweep_tables(6, 3)
    total = len(tables.pairs)
    for floor in range(6):
        each = {}
        # 3, 5 and 20 shards split the space into 4, 8 and 32 prefixes.
        for units in (2, 4, 8, 32, 64, 4096):
            for unit in range(units):
                visited = harness._enumerate_shard(6, 3, floor, units, unit, visit, tables)[1]
                counted = harness._count_meeting_floor(tables, floor, units, [unit])
                assert counted == visited, (floor, units, unit)
                each[units, unit] = counted
        for shards in (3, 5, 20):
            for shard_id in range(shards):
                suffix_bits, prefixes = harness._shard_prefixes(total, shards, shard_id)
                units = 1 << (total - suffix_bits)
                counted = harness._count_meeting_floor(tables, floor, units, prefixes)
                assert counted == sum(each[units, unit] for unit in prefixes), (floor, shards)


# Floor-meeting graphs at D over the whole space, by (n, k, D); the pair
# guard refuses all but (10, 2) as a sweep, so the DP is called directly.
FLOOR_COUNTS_AT_D = {
    (10, 2, 3): 304_186,
    (9, 3, 4): 255_241,
    (8, 8, 4): 5_651_384,
    (9, 9, 5): 160_054_952,
    (10, 5, 5): 1_312_298_150,
    (10, 10, 5): 275_322_712_826,
    (12, 2, 3): 1_709_852_332,
}


def test_floor_counts_at_d_are_frozen():
    for (n, k, floor), expected in FLOOR_COUNTS_AT_D.items():
        assert theorem_threshold(n, k) == floor, (n, k)
        tables = harness._sweep_tables(n, k)
        assert harness._count_meeting_floor(tables, floor, 1, [0]) == expected, (n, k)


def test_minimal_sweep_matches_full_enumeration():
    cases = [(6, 3, floor) for floor in range(6)]
    cases += [(8, 2, 2), (8, 2, 3), (7, 7, 3), (8, 4, 4)]
    for n, k, floor in cases:
        meeting, non_ham = _full_sweep(n, k, floor)
        walk, found = _minimal_sweep(n, k, floor)
        assert walk["meeting_floor"] == meeting, (n, k, floor)
        assert found == non_ham, (n, k, floor)


# (n, k, floor): (minimal graphs, of which non-Hamiltonian).
MINIMAL_COUNTS = {
    (8, 4, 3): (26_200, 520),
    (8, 4, 4): (4_379, 0),
    (7, 7, 3): (7_455, 105),
    (8, 2, 2): (186, 114),
    (6, 3, 2): (83, 67),
}


def _leaders(n, k, floor):
    """The subset ids the walk visits with no cycle kept, in visit order."""
    leaders = []
    tables = harness._sweep_tables(n, k)
    harness._enumerate_minimal(tables, floor, lambda sid, adj: leaders.append(sid))
    return leaders


def test_minimal_graph_counts_are_frozen():
    for (n, k, floor), expected in MINIMAL_COUNTS.items():
        tables = harness._sweep_tables(n, k)
        minimal = _closure(_leaders(n, k, floor), tables)
        walk = harness._run_exhaustive_shard((n, k, floor, 1, 0))
        non_ham = _closure(walk["non_hamiltonian"], tables)
        assert (len(minimal), len(non_ham)) == expected, (n, k, floor)


def _labelled_minimal(n, k, floor):
    """Reference: every minimal floor-meeting graph, as (subset id, rows), in
    the order of a walk that decides the pairs in subset-id order, present
    first, with no symmetry and no kept cycle: by descending subset id."""
    pairs = cross_pairs(n, k)
    top = len(pairs) - 1
    rows = [(u, v, 1 << u, 1 << v, 1 << (top - i)) for i, (u, v) in enumerate(pairs)]
    adj = [0] * n
    slack = [-floor] * n
    for u, v, *_ in rows:
        slack[u] += 1
        slack[v] += 1
    listed = []
    if min(slack) < 0:
        return listed

    def rec(i, sid, over):
        # over: the vertices above the floor, no two of which may be adjacent.
        if i == len(rows):
            listed.append((sid, tuple(adj)))
            return
        u, v, ubit, vbit, bit = rows[i]
        row_u, row_v = adj[u], adj[v]
        adj[u], adj[v] = row_u | vbit, row_v | ubit
        grown = over
        if adj[u].bit_count() > floor:
            grown |= ubit
        if adj[v].bit_count() > floor:
            grown |= vbit
        if not (grown & ubit and adj[u] & grown or grown & vbit and adj[v] & grown):
            rec(i + 1, sid | bit, grown)
        adj[u], adj[v] = row_u, row_v
        if slack[u] > 0 and slack[v] > 0:
            slack[u] -= 1
            slack[v] -= 1
            rec(i + 1, sid, over)
            slack[u] += 1
            slack[v] += 1

    rec(0, 0, 0)
    return listed


@functools.cache
def _minimal_reference(n, k, floor):
    """Reference: the non-Hamiltonian graphs of ``_labelled_minimal``, each
    searched.  Returns them as (subset id, rows), in its order."""
    part_masks = harness._sweep_tables(n, k).part_masks
    return [
        (sid, rows)
        for sid, rows in _labelled_minimal(n, k, floor)
        if harness._ham_search(n, list(rows), part_masks)[0] is None
    ]


# (n, k, floor) of the sweeps whose walk up to symmetry is checked against
# the labelled reference.
SYMMETRY_CASES = [(6, 3, floor) for floor in range(6)]
SYMMETRY_CASES += [(8, 2, 2), (8, 2, 3), (6, 6, 2), (7, 7, 3), (8, 4, 3), (8, 4, 4)]


def test_walk_up_to_symmetry_lists_every_labelled_minimal_graph():
    # The orbits of the lex-leaders the walk visits with no kept cycle are
    # exactly the labelled minimal graphs, and the orbits of the
    # non-Hamiltonian ones the walk lists, with kept cycles, exactly the
    # labelled non-Hamiltonian minimal graphs.  A lex-leader is no smaller
    # than its image under any generator.
    for n, k, floor in SYMMETRY_CASES:
        tables = harness._sweep_tables(n, k)
        leaders = _leaders(n, k, floor)
        minimal = [sid for sid, _ in _labelled_minimal(n, k, floor)]
        assert _closure(leaders, tables) == minimal, (n, k, floor)
        assert len(set(leaders)) == len(leaders) <= len(minimal), (n, k, floor)
        for sid in leaders:
            for generator in tables.swaps:
                image = _permuted(sid, generator, len(tables.pairs))
                assert image <= sid, (n, k, floor, sid)
        walk = harness._run_exhaustive_shard((n, k, floor, 1, 0))
        listed = walk["non_hamiltonian"]
        reference = _minimal_reference(n, k, floor)
        assert _closure(listed, tables) == [sid for sid, _ in reference], (n, k, floor)
        # Kept cycles skip only Hamiltonian graphs: the walk lists each
        # non-Hamiltonian lex-leader's subset id, in visit order, and the
        # byte tables give each one's rows.
        non_ham = dict(reference)
        assert listed == [sid for sid in leaders if sid in non_ham], (n, k, floor)
        for sid in listed:
            assert tuple(harness._rows(sid, tables)) == non_ham[sid], (n, k, floor, sid)


def _pair_mask(n, k, order):
    """The subset-id bits of the cycle ``order``'s pairs, from ``cross_pairs``."""
    pairs = cross_pairs(n, k)
    mask = 0
    for u, v in zip(order, order[1:] + order[:1]):
        mask |= 1 << (len(pairs) - 1 - pairs.index((min(u, v), max(u, v))))
    return mask


def test_cycle_reuse_drops_no_non_hamiltonian_graph(monkeypatch):
    kept = []
    cycle_mask = harness._cycle_mask
    climbing = False

    def spy(order, sid, pair_bit):
        mask = cycle_mask(order, sid, pair_bit)
        kept.append((order, sid, mask, climbing))
        return mask

    monkeypatch.setattr(harness, "_cycle_mask", spy)
    cases = [(6, 3, floor) for floor in range(6)]
    cases += [(8, 2, 2), (8, 2, 3), (7, 7, 3), (8, 4, 3)]
    for n, k, floor in cases:
        kept.clear()
        tables = harness._sweep_tables(n, k)
        walk = harness._run_exhaustive_shard((n, k, floor, 1, 0), tables)
        listed = walk["non_hamiltonian"]
        reference = [sid for sid, _ in _minimal_reference(n, k, floor)]
        assert _closure(listed, tables) == reference, (n, k, floor)
        # The climb keeps cycles too; its completeness is checked against
        # full enumeration in test_minimal_sweep_matches_full_enumeration.
        climbing = True
        harness._climb(tables, listed)
        climbing = False
        for order, sid, mask, climbed in kept:
            assert len(order) == n and sorted(order) == list(range(n)), (n, k, floor, order)
            assert mask == _pair_mask(n, k, list(order)), (n, k, floor, order)
            assert mask.bit_count() == n and mask & sid == mask, (n, k, floor, sid)
    # The last case, (8, 4) floor 3, keeps cycles in both steps.
    assert {climbed for *_, climbed in kept} == {False, True}


def _search_only_climb(n, k, bases):
    """Reference: the climb from ``bases``, (subset id, rows), searching
    every candidate, with no certificate and no kept cycle.  Returns
    {subset id: rows}, the bases included."""
    part_masks = harness._sweep_tables(n, k).part_masks
    pairs = cross_pairs(n, k)
    found = dict(bases)
    seen = set(found)
    stack = list(found.items())
    while stack:
        sid, adj = stack.pop()
        for i, (u, v) in enumerate(pairs):
            bit = 1 << (len(pairs) - 1 - i)
            up = sid | bit
            if up in seen:
                continue
            seen.add(up)
            grown = list(adj)
            grown[u] |= 1 << v
            grown[v] |= 1 << u
            if harness._ham_search(n, grown, part_masks)[0] is None:
                found[up] = tuple(grown)
                stack.append((up, tuple(grown)))
    return found


# The (8, 4) floor-3 climb from the 15 non-Hamiltonian lex-leaders: its
# non-Hamiltonian candidates, all refuted by a certificate, their witness
# kinds, and its bases' witness kinds.  The certificates refute every base
# but the F2 graphs.
CLIMB_WITNESSES_8_4 = (
    115,
    {"SmallCut": 50, "BipartiteDegreeOne": 65},
    {"SmallCut": 3, "BipartiteDegreeOne": 11, "NoneType": 1},
)
# The same for two sweeps of few vertices whose certificates leave some
# candidates to the search, by (n, k, floor, 1): the candidates refuted by a
# certificate, the witness kinds of the non-Hamiltonian candidates, and the
# bases' witness kinds.
CLIMB_WITNESSES_SMALL = {
    (6, 3, 2, 1): (
        13,
        {"SmallCut": 13, "NoneType": 9},
        {"SmallCut": 2, "IndependentSetTooLarge": 1, "NoneType": 3},
    ),
    (8, 2, 2, 1): (16, {"SmallCut": 16, "NoneType": 16}, {"SmallCut": 1, "NoneType": 2}),
}


def test_certificate_first_climb_matches_a_search_only_climb(monkeypatch):
    searches, refuted, base_witnesses = [], [], []
    search, certify = harness._ham_search, harness._polynomial_witness
    monkeypatch.setattr(harness, "_ham_search", lambda *args: searches.append(1) or search(*args))
    base_rows = set()

    def certify_spy(g, skip=0):
        # A base is asked with nothing inherited, before the climb starts.
        witness = certify(g, skip)
        if g.adj in base_rows:
            assert skip == 0 and not refuted
            base_witnesses.append(witness)
        else:
            refuted.append(witness is not None)
        return witness

    # (n, k, floor, 1 or -1 to climb from the walk's lex-leaders in walk
    # order or reversed).
    cases = [(6, 3, floor, 1) for floor in range(6)]
    cases += [(8, 2, 2, 1), (8, 2, 3, 1), (7, 7, 3, 1), (8, 4, 3, 1), (8, 4, 3, -1)]
    for n, k, floor, order in cases:
        tables = harness._sweep_tables(n, k)
        walk = harness._run_exhaustive_shard((n, k, floor, 1, 0), tables)
        bases = walk["non_hamiltonian"][::order]
        base_graphs = [(sid, tuple(harness._rows(sid, tables))) for sid in bases]
        base_rows = {rows for _, rows in base_graphs}
        case = (n, k, floor, order)
        reference = _search_only_climb(n, k, base_graphs)
        # The same climb without certificates, then with them.
        monkeypatch.setattr(harness, "_polynomial_witness", lambda g, skip=0: None)
        searches.clear()
        found = harness._climb(tables, bases)
        assert found == dict.fromkeys(reference), case
        without = len(searches)
        monkeypatch.setattr(harness, "_polynomial_witness", certify_spy)
        searches.clear()
        refuted.clear()
        base_witnesses.clear()
        found = harness._climb(tables, bases)
        assert found.keys() == reference.keys(), case
        assert without - len(searches) == sum(refuted), case
        # Each base is asked once, and every candidate no kept cycle decides.
        # Every graph found carries what it was asked, the witness or None
        # the solver's certificates give a graph built afresh from its rows.
        assert len(base_witnesses) == len(bases), case
        kept = [witness for witness in base_witnesses if witness]
        assert sum(map(bool, found.values())) == sum(refuted) + len(kept), case
        assert Counter(kept) == Counter(found[sid] for sid in bases if found[sid]), case
        part_of = blocks_partition(n, k)
        for sid, witness in found.items():
            assert witness == certify(KPartiteGraph(part_of, reference[sid])), (case, sid)
        base_kinds = Counter(type(witness).__name__ for witness in base_witnesses)
        kinds = Counter(type(found[sid]).__name__ for sid in found.keys() - set(bases))
        if (n, k) == (8, 4):
            # Every non-Hamiltonian climb candidate is refuted by a certificate.
            climbed, expected_kinds, expected_base_kinds = CLIMB_WITNESSES_8_4
            assert sum(refuted) == len(reference) - len(bases) == climbed, case
            assert kinds == expected_kinds, case
            assert base_kinds == expected_base_kinds, case
        if (n, k, floor) == (7, 7, 3):
            assert sum(refuted) == len(reference) - len(bases) == 14
            assert kinds == {"IndependentSetTooLarge": 14}
            assert base_kinds == {"SmallCut": 1, "IndependentSetTooLarge": 2}
        if case in CLIMB_WITNESSES_SMALL:
            assert (sum(refuted), kinds, base_kinds) == CLIMB_WITNESSES_SMALL[case], case


# (n, k, floor) of the sweeps whose climb up to symmetry is checked against a
# labelled climb from every non-Hamiltonian minimal graph.
ORBIT_CLIMB_CASES = [(6, 3, floor) for floor in range(6)]
ORBIT_CLIMB_CASES += [(8, 2, 2), (8, 2, 3), (7, 7, 3), (6, 6, 2), (8, 4, 3)]
# The listed graphs of a sweep by (n, k, floor), as (graphs the climb found
# and refuted by a certificate, graphs its orbits add and a transported
# certificate refutes, graphs refuted by a search).
ORBIT_WITNESSES = {(6, 3, floor): (0, 0, 0) for floor in range(3, 6)}
ORBIT_WITNESSES.update({
    (6, 3, 0): (3_403, 0, 108),
    (6, 3, 1): (545, 1_664, 108),
    (6, 3, 2): (16, 63, 108),
    (8, 2, 2): (17, 289, 444),
    (8, 2, 3): (0, 0, 0),
    (7, 7, 3): (17, 333, 0),
    (6, 6, 2): (118, 1_872, 0),
    (8, 4, 3): (129, 2_151, 32),
})
# The orbits of the listed graphs by (n, k, floor), one seed of the climb's
# each.
ORBITS = {(6, 3, 2): 10, (8, 2, 2): 8, (7, 7, 3): 5, (8, 4, 3): 17}


def test_climb_up_to_symmetry_lists_every_labelled_non_hamiltonian_graph():
    # The orbits of the graphs the climb from the walk's non-Hamiltonian
    # lex-leaders finds are exactly the graphs a labelled climb from every
    # non-Hamiltonian minimal graph finds.  Each listed graph, built once
    # from its subset id, carries the witness the solver gives that graph
    # built afresh.  It also carries its orbit: the subset id of a graph the
    # climb found, whose closure is exactly the listed graphs carrying it.
    for n, k, floor in ORBIT_CLIMB_CASES:
        case = (n, k, floor)
        tables = harness._sweep_tables(n, k)
        walk = harness._run_exhaustive_shard((n, k, floor, 1, 0), tables)
        found = harness._climb(tables, walk["non_hamiltonian"])
        reference = _search_only_climb(n, k, _minimal_reference(n, k, floor))
        assert _closure(found, tables) == sorted(reference, reverse=True), case
        whole = harness._shard_prefixes(len(tables.pairs), 1, 0)
        listed = list(harness._orbit_graphs(tables, found, whole))
        rows = [g.adj for g, _, _ in listed]
        assert rows == [reference[sid] for sid in sorted(reference)], case
        part_of = blocks_partition(n, k)
        sources = Counter()
        members = {}
        for sid, (g, witness, orbit) in zip(sorted(reference), listed):
            fresh = non_hamiltonicity_witness(KPartiteGraph(part_of, reference[sid]))
            assert witness == fresh, (case, sid)
            if isinstance(witness, ExhaustiveSearch):
                sources["search"] += 1
            else:
                sources["climbed" if sid in found else "orbit"] += 1
            assert orbit in found, (case, sid)
            members.setdefault(orbit, set()).add(sid)
        for seed, sids in members.items():
            assert set(harness._orbit_closure([seed], tables)) == sids, (case, seed)
        if case in ORBITS:
            assert len(members) == ORBITS[case], case
        expected = dict(zip(("climbed", "orbit", "search"), ORBIT_WITNESSES[case]))
        assert sources == Counter(expected), case


def test_byte_tables_map_subset_ids_as_the_pair_loops_do():
    # Each generator's byte tables send a subset id to its image under the
    # generator's pair involution, and the row tables give the rows that
    # deciding every pair as a prefix gives, on every pair bit and on 1,000
    # seeded subset ids for each (n, k) the pair guard admits.
    admitted = [
        (n, k)
        for n in range(3, 10)
        for k in range(2, n + 1)
        if n % k == 0 and len(cross_pairs(n, k)) <= harness.EXHAUSTIVE_MAX_PAIRS
    ]
    assert (8, 4) in admitted and (7, 7) in admitted and (8, 8) not in admitted
    rng = random.Random(35)
    for n, k in admitted:
        tables = harness._sweep_tables(n, k)
        total = len(tables.pairs)
        sids = [1 << p for p in range(total)] + [rng.getrandbits(total) for _ in range(1000)]
        involutions = [_pair_involution(n, k, sigma) for sigma in _vertex_generators(n, k)]
        assert len(tables.flips) == len(involutions), (n, k)
        for flips, pi in zip(tables.flips, involutions):
            moves = [(j, pi[j]) for j in range(total) if j < pi[j]]
            for sid in sids:
                assert harness._through(flips, sid) == _permuted(sid, moves, total), (n, k, sid)
        for sid in sids:
            rows = harness._apply_prefix(tables, 0, 1 << total, sid)[2]
            assert harness._rows(sid, tables) == rows, (n, k, sid)


# The certificate calls in a floor-3 sweep by (n, k, shards), the climb's and
# those of the graphs its orbits add: the calls by inherited or transported
# steps, then the cut and independent-set steps run.  A candidate a kept
# cycle decides is not asked, so these depend on the cap.
CERTIFICATE_STEPS = {
    (8, 4, 1): ({0: 814, 2: 1_588}, {"cut": 814, "alpha": 70}),
    (8, 4, 8): ({0: 814, 2: 1_588}, {"cut": 814, "alpha": 70}),
    (7, 7, 1): ({0: 81, 1: 288}, {"cut": 81, "alpha": 299}),
}


def _certificate_steps(monkeypatch, cases):
    """{(n, k, shards): (calls by inherited steps, steps run)} of each case's
    floor-3 sweep, asserting that every call's witness is the one the full
    call gives."""
    certify = harness._polynomial_witness
    ran = Counter()
    cut, alpha = solver._cut_witness, solver._max_independent
    monkeypatch.setattr(solver, "_cut_witness", lambda g: ran.update(["cut"]) or cut(g))
    monkeypatch.setattr(
        solver, "_max_independent", lambda *args: ran.update(["alpha"]) or alpha(*args)
    )
    steps, skips = Counter(), Counter()

    def spy(g, skip=0):
        ran.clear()
        witness = certify(g, skip)
        steps.update(ran)
        skips[skip] += 1
        assert witness == certify(g), (encode(g), skip)
        return witness

    monkeypatch.setattr(harness, "_polynomial_witness", spy)
    counts = {}
    for n, k, shards in cases:
        steps.clear()
        skips.clear()
        report = exhaustive_verify(n, k, 3, shards=shards)
        assert report.self_check_ok
        counts[n, k, shards] = (dict(skips), dict(steps))
    return counts


def test_inherited_certificate_steps_change_no_climb_witness(monkeypatch):
    # The climb passes each candidate the monotone certificate steps its
    # parent failed, and the candidate skips them; a graph of a climbed
    # orbit skips those its climbed member failed.  On every call of the
    # (8, 4) floor-3 sweep, whole with shards 1 and 8 (which make the same
    # walk and climb), and of the (7, 7) floor-3 sweep, the witness must be
    # the one the full call gives.  The climb's bases are asked with nothing
    # inherited.
    assert _certificate_steps(monkeypatch, CERTIFICATE_STEPS) == CERTIFICATE_STEPS


def test_cycle_mask_refuses_a_cycle_its_graph_does_not_hold():
    tables = harness._sweep_tables(6, 3)
    sid = (1 << len(tables.pairs)) - 1
    order = (0, 2, 4, 1, 3, 5)
    mask = harness._cycle_mask(order, sid, tables.pair_bit)
    assert mask == _pair_mask(6, 3, list(order))
    # A pair the graph lacks; a step inside one part (0 and 1 share it); six
    # distinct cross pairs on a closed walk that visits 0 twice and 1 never;
    # a cycle through five of the six vertices.
    bad = [(order, sid ^ (mask & -mask)), ((0, 1, 2, 4, 3, 5), sid)]
    bad += [((0, 2, 4, 0, 3, 5), sid), ((0, 2, 4, 1, 3), sid)]
    for walk, graph in bad:
        with pytest.raises(RuntimeError, match="does not hold"):
            harness._cycle_mask(walk, graph, tables.pair_bit)


# harness._ham_search calls of a whole (8, 4) floor-3 sweep, by shard count,
# which a whole run only names: 26,200 minimal graphs and 17,968 climb
# candidates without symmetry or cycle reuse.  The walk searches 91
# lex-leaders; the climb from the 15 non-Hamiltonian ones searches 90
# candidates, since certificates refute all 115 non-Hamiltonian ones.
SWEEP_SEARCHES = {1: 181, 8: 181, 2**16: 181}
# The same for the other sweeps whose search counts reuse moves, by (n, k,
# floor): the (7, 7) floor-3 sweep, where k = n, and the (8, 2) exception
# floor, where the climb's certificates refute 16 candidates.
OTHER_SWEEP_SEARCHES = {(8, 2, 2): 43, (7, 7, 3): 35}


def _counting_searches(monkeypatch):
    calls = []
    search = harness._ham_search
    monkeypatch.setattr(harness, "_ham_search", lambda *args: calls.append(1) or search(*args))
    return calls


def _sweep_searches(monkeypatch, shard_counts):
    """{shards: searches} of whole (8, 4) floor-3 sweeps naming each count."""
    calls = _counting_searches(monkeypatch)
    searches = {}
    for shards in shard_counts:
        calls.clear()
        report = exhaustive_verify(8, 4, 3, shards=shards)
        assert report.counters["graphs_above_threshold"] == 1_393_734
        assert len(report.exceptional) == 2_312
        searches[shards] = len(calls)
    return searches


def test_sweep_search_counts_are_frozen(monkeypatch):
    assert _sweep_searches(monkeypatch, SWEEP_SEARCHES) == SWEEP_SEARCHES


def test_other_sweep_search_counts_are_frozen(monkeypatch):
    calls = _counting_searches(monkeypatch)
    for (n, k, floor), expected in OTHER_SWEEP_SEARCHES.items():
        calls.clear()
        assert exhaustive_verify(n, k, floor).self_check_ok
        assert len(calls) == expected, (n, k, floor)


def test_a_shard_of_many_walks_at_most_the_whole_sweep(monkeypatch):
    # Shard 2**16 - 1 owns the prefix with all 16 prefix pairs present.  Like
    # every shard, it walks and climbs the whole space up to symmetry, so it
    # makes the whole run's searches, and it lists exactly the whole run's
    # entries under its prefix.
    calls = _counting_searches(monkeypatch)
    whole = exhaustive_verify(8, 4, 3, shards=2**16)
    assert len(calls) == SWEEP_SEARCHES[2**16]
    calls.clear()
    last = exhaustive_verify(8, 4, 3, shards=2**16, shard_id=2**16 - 1)
    assert len(calls) == SWEEP_SEARCHES[2**16]
    assert last.counters["graphs_enumerated"] == 2**8
    owned = [e for e in whole.exceptional if _subset_id(e, 8, 4) >> 8 == 2**16 - 1]
    assert last.exceptional == owned and owned
    assert last.self_check_ok


# SHA-256 over the ordered "sid adj..." lines of the calls below, taken before
# the recursion was rewritten around one slack count per vertex.  The lemma
# cache's hit rate on the domlemma benchmark depends on this order.
VISIT_ORDER_DIGEST = "5aa3c17e793f85afe6d8acee422adee05899518579627d0a51a9bcaced31cb1f"


def test_visit_order_is_frozen():
    lines = []

    def visit(sid, adj):
        lines.append(f"{sid} {' '.join(map(str, adj))}")

    calls = [(6, 6, 3, 1, 0)]
    calls += [(6, 3, floor, 64, unit) for floor in (2, 3) for unit in range(64)]
    for call in calls:
        harness._enumerate_shard(*call, visit)
    assert len(lines) == 2681
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == VISIT_ORDER_DIGEST


# SHA-256 over the ordered "sid adj..." lines of ``_enumerate_minimal``'s
# visits below, each call run without cycle reuse and then with it, taken
# when the walk began visiting lex-leaders only.  The cycles a walk keeps,
# and so the searches it makes, depend on this order.
MINIMAL_VISIT_ORDER_DIGEST = "2a61d5aa6a9b4797d35a36af3ed4761d9c8a2305e3e4500311393b5ae70b6a06"


def _minimal_visit_lines():
    lines = []
    for n, k, floor in ((6, 3, 2), (7, 7, 3), (8, 4, 3)):
        tables = harness._sweep_tables(n, k)
        for reuse in (False, True):

            def visit(sid, adj):
                lines.append(f"{sid} {' '.join(map(str, adj))}")
                order = harness._ham_search(n, adj, tables.part_masks)[0] if reuse else None
                return None if order is None else harness._cycle_mask(order, sid, tables.pair_bit)

            harness._enumerate_minimal(tables, floor, visit)
    return len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_minimal_visit_order_is_frozen():
    assert _minimal_visit_lines() == (506, MINIMAL_VISIT_ORDER_DIGEST)


def test_packed_store_at_cap_32_reproduces_the_list_buckets(monkeypatch):
    # At 32 masks a bucket the packed store must make the searches and
    # certificate calls frozen at that cap.  The store reads the cap when it
    # is built.  The visit order was frozen at that cap when the walk went up
    # to symmetry.  Since the climb starts from the lex-leaders, it makes
    # few enough searches that the cap no longer moves these counts.
    monkeypatch.setattr(harness, "CYCLE_BUCKET_CAP", 32)
    shards = (1, 8, 2**16)
    assert _sweep_searches(monkeypatch, shards) == dict.fromkeys(shards, 181)
    assert _minimal_visit_lines() == (
        506,
        "b7afc079378a21336a58d12e0288595e4407579225c748ed4e450a1fc789a2da",
    )
    steps = ({0: 814, 2: 1_588}, {"cut": 814, "alpha": 70})
    assert _certificate_steps(monkeypatch, [(8, 4, 1)]) == {(8, 4, 1): steps}


def test_packed_cycle_store_agrees_with_a_list_scan():
    # Bucket 0 stays empty; buckets 1 and 2 are filled past the cap, bucket 2
    # with masks on pair 0's subset-id bit (the top one) or on the lowest.
    # After each keep, every bucket must hold exactly its newest ``cap``
    # masks, guard bits clear, and ``holds`` must agree with a list scan of
    # them on random graphs, on each kept mask, and on each with a bit gone.
    rng = random.Random(33)
    cap = harness.CYCLE_BUCKET_CAP
    outcomes = Counter()
    for pairs in (12, 24, 36):
        full = (1 << pairs) - 1
        ends = [1 << (pairs - 1), 1, 1 << (pairs - 1) | 1]
        store = harness._CycleStore(3, pairs)
        kept = [[], [], []]
        for step in range(2 * cap + 5):
            mask = 0
            for _ in range(rng.randrange(1, 9)):
                mask |= 1 << rng.randrange(pairs)
            bucket = 1 + step % 2
            if bucket == 2:
                mask |= ends[step % 3]
            store.keep(bucket, mask)
            kept[bucket].insert(0, mask)
            del kept[bucket][cap:]
            graphs = [rng.getrandbits(pairs) | rng.getrandbits(pairs) for _ in range(4)]
            graphs += [full, 0, full ^ ends[0], full ^ ends[1]]
            for masks in kept:
                graphs += masks[:3] + [m ^ (m & -m) for m in masks[:3]]
                graphs += [m ^ 1 << (m.bit_length() - 1) for m in masks[:3]]
            for i, masks in enumerate(kept):
                lanes = [store.packed[i] >> store.width * j & full for j in range(store.filled[i])]
                assert lanes == masks and store.packed[i] >> store.width * cap == 0
                assert store.packed[i] & store.tops[cap] == 0, (pairs, i)
                for graph in graphs:
                    expected = any(m & graph == m for m in masks)
                    assert store.holds(i, graph) == expected, (pairs, i, graph)
                    outcomes[i, expected] += 1
    assert all(outcomes[i, hit] for i in (1, 2) for hit in (False, True)), outcomes
    assert not outcomes[0, True]


def test_a_run_makes_at_most_one_walk(monkeypatch):
    calls = []
    worker = harness._run_exhaustive_shard

    def counted(args, *tables):
        calls.append(args)
        return worker(args, *tables)

    monkeypatch.setattr(harness, "_run_exhaustive_shard", counted)
    full = exhaustive_verify(4, 2, 1)
    # A whole run is shard 0 of 1, whatever the shard count it names.
    for shards in (1, 8, 2**40):
        calls.clear()
        report = exhaustive_verify(4, 2, 1, shards=shards)
        assert report.counters == full.counters and report.params["shards"] == shards
        assert calls == [(4, 2, 1, 1, 0)], shards
    # (4, 2) has 4 cross pairs, so 16 prefixes: shard 2**39 of 2**40 owns none.
    calls.clear()
    empty = exhaustive_verify(4, 2, 1, shards=2**40, shard_id=2**39)
    assert calls == [] and set(empty.counters.values()) == {0}


# Each report's JSON with the timing field zeroed, SHA-256 over the reports
# of a row joined by newlines; taken before the sweep harness was reduced to
# one enumeration recursion, one shard dispatch and one report finisher, and
# "sample 8,4 floor 2" before both sweeps built their entries in one routine.
# A "pooled" row runs with jobs=2 and shares its digest with the row above
# it, since jobs changes nothing.
FROZEN_REPORTS = [
    ("exhaustive 6,3 floor 2", lambda: [exhaustive_verify(6, 3, 2)], "683b6a284c3e672fb4531029c730374707ab68f439142ba8cd8553ce68b61522"),
    ("exhaustive 6,3 floor 3", lambda: [exhaustive_verify(6, 3, 3)], "f38176972b4b7c932ad476e9e684e8a5359c6a31d01355ff773af75eea673036"),
    ("exhaustive 8,2 floor 2", lambda: [exhaustive_verify(8, 2, 2)], "eaac74f0f8bb7b98427293ef7b71e081197977360de74cc8f215bee3884e6a70"),
    ("exhaustive 8,2 floor 3", lambda: [exhaustive_verify(8, 2, 3)], "1d84bd7255b7827c5bc4ec475738075aeadbf613a9ae6a254522e7ebef8d3bfc"),
    # The one sweep whose certificates include independent-set witnesses.
    ("exhaustive 7,7 floor 3", lambda: [exhaustive_verify(7, 7, 3)], "583389a917d697d5e922cb33ce73c06b16eefe662148c400d22221fcd3eaab0a"),
    (
        "exhaustive 6,3, each of 3 shards",
        lambda: [exhaustive_verify(6, 3, shards=3, shard_id=i) for i in range(3)],
        "c869e312ec03faca1b452b9846073bb1c1ca7d20b1edd77a66da816716498d1b",
    ),
    (
        "exhaustive 6,3, each of 3 shards, pooled",
        lambda: [exhaustive_verify(6, 3, shards=3, shard_id=i, jobs=2) for i in range(3)],
        "c869e312ec03faca1b452b9846073bb1c1ca7d20b1edd77a66da816716498d1b",
    ),
    (
        "exhaustive 6,3, 3 shards merged, serial and pooled",
        lambda: [exhaustive_verify(6, 3, shards=3, jobs=jobs) for jobs in (1, 2)],
        "f6171eddab37b882f23f8cdc1d7fa14542c0286cde7a3a48e26f081f580ebf2b",
    ),
    (
        # 16 prefixes over 20 shards: shards 16..19 own none.
        "exhaustive 4,2 floor 1, each of 20 shards",
        lambda: [exhaustive_verify(4, 2, 1, shards=20, shard_id=i) for i in range(20)],
        "604f153c84bfe18e7d750fe004bc29f77c5fed7c2d1e60bee31210ac7af79420",
    ),
    (
        "exhaustive 4,2 floor 1, each of 20 shards, pooled",
        lambda: [exhaustive_verify(4, 2, 1, shards=20, shard_id=i, jobs=2) for i in range(20)],
        "604f153c84bfe18e7d750fe004bc29f77c5fed7c2d1e60bee31210ac7af79420",
    ),
    (
        # The cross degree is 4, so no graph meets floor 5.
        "exhaustive 6,3 floor 5, whole and each of 3 shards",
        lambda: [exhaustive_verify(6, 3, 5)]
        + [exhaustive_verify(6, 3, 5, shards=3, shard_id=i) for i in range(3)],
        "fe2bb1e23b662fec2b7fba41ca374d7ed1f9470b1a0e9c38fc685be80e1d4f27",
    ),
    (
        "characterization 8,4, shard 63 of 64",
        lambda: [exhaustive_verify(8, 4, 3, shards=64, shard_id=63, _kind="characterization")],
        "afd8f7105cba8085d5d36f3ba849b2e630a61bbbdcb092a9616400b20dfb4448",
    ),
    ("sample 8,2", lambda: [sample_verify(8, 2, 100, seed=13, degree_floor=2)], "d1bca6246fc01ffb5ff8ff947e1e9943b5727be6829b0a545ae589d5891de25d"),
    ("sample 8,4", lambda: [sample_verify(8, 4, 400, seed=3, degree_floor=3)], "998cee04d9591a611f4fb8684704cf7b58a36cf8136190398ef344abadd61b31"),
    # Off the exception floor: 59 counterexamples, none exceptional.
    ("sample 8,4 floor 2", lambda: [sample_verify(8, 4, 300, seed=5, degree_floor=2)], "048650314cac535864afbd7514801038b74dcb125bb84640d350d42e99b63709"),
    ("tightness 8,4", lambda: [tightness_scan(8, 4)], "647cdcbc8ddc773c1d26fbeff9be5c974a04d582f3cf832f36204d46cb15fd2b"),
    ("facts 40,15", lambda: [facts_report(40, 15)], "1c9a5b7662a4d3789daf5eea712b18e7e451a1461dd7b1e91242baa67fa232e7"),
]


def _reports_digest(reports):
    text = "\n".join(
        dataclasses.replace(report, wall_time_seconds=0.0).to_json() for report in reports
    )
    return hashlib.sha256(text.encode()).hexdigest()


def test_reports_are_frozen():
    changed = [
        name for name, run, expected in FROZEN_REPORTS if _reports_digest(run()) != expected
    ]
    assert changed == []


def _lemma_on_every_graph_of_7_vertices():
    """The lemma check on every graph with n = k = 7 and minimum degree 3."""
    part_of = blocks_partition(7, 7)
    graphs = []
    harness._enumerate_shard(7, 7, 3, 1, 0, lambda sid, adj: graphs.append(tuple(adj)))
    for adj in graphs:
        check_domcycle_lemma(KPartiteGraph(part_of, adj))


def test_sweeps_and_lemma_checks_leave_no_cyclic_garbage():
    # The recursive closures are cleared once they return, so what a sweep
    # or a lemma check leaves behind is freed by reference counting alone:
    # with the cycle collector off, a collection afterwards finds nothing.
    runs = {
        "characterization 8,4 in 8 shards": lambda: characterization_check(8, 4, shards=8),
        "exhaustive 8,2 floor 2": lambda: exhaustive_verify(8, 2, 2),
        "lemma on n = 7": _lemma_on_every_graph_of_7_vertices,
    }
    for name, run in runs.items():
        gc.collect()
        gc.disable()
        try:
            run()
            assert gc.collect() == 0, name
        finally:
            gc.enable()


def test_exhaustive_jobs_consistent():
    solo = exhaustive_verify(6, 3, shards=4)
    multi = exhaustive_verify(6, 3, shards=4, jobs=2)
    assert solo.counters == multi.counters



def test_exhaustive_guards_and_validation(monkeypatch):
    def refuse(args):
        raise AssertionError(f"guarded sweep {args} started enumerating")

    monkeypatch.setattr(harness, "_run_exhaustive_shard", refuse)
    # The guard bounds the edge-subset count at 2^24, the (8, 4) sweep:
    # (8, 8) has 2^28 subsets and (9, 9) has 2^36, though both have n <= 9.
    for n, k in ((12, 4), (8, 8), (9, 9), (9, 3)):
        with pytest.raises(SizeGuardError, match=r"2\^24 edge subsets"):
            exhaustive_verify(n, k)
    with pytest.raises(ValueError):
        exhaustive_verify(8, 3)
    with pytest.raises(ValueError):
        exhaustive_verify(6, 3, shards=2, shard_id=5)
    for jobs in (0, -4):
        with pytest.raises(ValueError, match="jobs must be positive"):
            exhaustive_verify(6, 3, jobs=jobs)
        with pytest.raises(ValueError, match="jobs must be positive"):
            characterization_check(8, 4, jobs=jobs)


def test_sweeps_refuse_a_negative_degree_floor(monkeypatch):
    # Floor 0 is the least floor: every graph meets it.
    assert exhaustive_verify(6, 3, 0).counters["graphs_above_threshold"] == 1 << 12
    assert sample_verify(6, 3, 10, 0, degree_floor=0).params["degree_floor"] == 0

    def refuse(args):
        raise AssertionError(f"sweep {args} with a negative floor started enumerating")

    monkeypatch.setattr(harness, "_run_exhaustive_shard", refuse)
    for floor in (-1, -3):
        message = rf"^degree floor must be non-negative, got {floor}$"
        with pytest.raises(ValueError, match=message):
            exhaustive_verify(6, 3, floor)
        with pytest.raises(ValueError, match=message):
            exhaustive_verify(6, 3, floor, shards=3, shard_id=1)
        with pytest.raises(ValueError, match=message):
            sample_verify(6, 3, 10, 0, degree_floor=floor)


def test_sample_verify_size_guard():
    with pytest.raises(SizeGuardError, match="sampling guarded at n <= 40"):
        sample_verify(44, 4, 1, 0)


def test_sample_verify_deterministic():
    a = sample_verify(12, 4, 150, seed=11)
    b = sample_verify(12, 4, 150, seed=11)
    pa = json.loads(a.to_json())
    pb = json.loads(b.to_json())
    pa.pop("wall_time_seconds")
    pb.pop("wall_time_seconds")
    assert pa == pb
    assert a.counterexamples == []
    assert a.counters["graphs_above_threshold"] > 0


def test_sample_verify_seed_changes_stream():
    a = sample_verify(12, 4, 50, seed=1)
    b = sample_verify(12, 4, 50, seed=2)
    assert a.counters != b.counters or a.to_json() != b.to_json()


def test_sample_verify_exception_floor_classifies():
    report = sample_verify(8, 4, 400, seed=3, degree_floor=3)
    for entry in report.exceptional:
        assert entry["classification"] in ("F1", "F2", "F3")
    assert report.ok


def test_sample_verify_16_8_regimes():
    # Above the threshold (floor n/2 = threshold + 1): everything Hamiltonian.
    above = sample_verify(16, 8, 100, seed=21, degree_floor=8)
    assert above.counterexamples == [] and above.exceptional == []
    # At the threshold inside the exception regime: any non-Hamiltonian
    # sample must classify.
    at = sample_verify(16, 8, 100, seed=22, degree_floor=7)
    assert at.counterexamples == []
    for entry in at.exceptional:
        assert entry["classification"] in ("F1", "F2", "F3")
    assert at.ok


def test_sample_verify_oracle_agreement():
    # Every sampled graph the harness calls Hamiltonian must really be so.
    report = sample_verify(8, 2, 100, seed=13, degree_floor=2)
    for entry in report.exceptional + report.counterexamples:
        g = decode(entry["graph"])
        assert not perm_oracle_hamiltonian(g)


def test_characterization_8_4_single_shard():
    # One shard of 16 exercises the full path cheaply; the complete sweep
    # with frozen counts runs in the acceptance suite.
    report = exhaustive_verify(
        8, 4, 3, shards=16, shard_id=15, _kind="characterization"
    )
    assert report.counters["graphs_enumerated"] == (1 << 24) // 16
    assert report.counterexamples == []
    assert report.exceptional
    for entry in report.exceptional:
        assert entry["classification"] in ("F1", "F2", "F3")
    assert report.ok and report.self_check_ok


def test_each_orbit_is_classified_once_and_every_member_alike(monkeypatch):
    # The finish step classifies the first listed member of each orbit and
    # gives its class to every member: a whole (8, 4) floor-3 run recognizes
    # 17 graphs for its 2,312 entries.  Each entry's class, in the whole run,
    # in each of its 8 shard runs and at (4, 2) at D, is the one recognize
    # gives the entry's own graph.
    calls = []
    classify = harness.recognize
    monkeypatch.setattr(harness, "recognize", lambda g: calls.append(g) or classify(g))
    whole = exhaustive_verify(8, 4, 3)
    assert len(calls) == 17 and len(whole.exceptional) == 2_312
    shards = [exhaustive_verify(8, 4, 3, shards=8, shard_id=i) for i in range(8)]
    for report in [whole, *shards, exhaustive_verify(4, 2, theorem_threshold(4, 2))]:
        assert report.exceptional and report.self_check_ok
        for entry in report.exceptional:
            assert entry["classification"] == recognize(decode(entry["graph"])), entry


def test_self_check_certifies_exhaustive_witnesses(monkeypatch):
    # F2's recorded witness is an exhaustive search; the self-check accepts it
    # only while the second decider refutes the graph too.
    g = build_F2()
    entry = {"graph": encode(g), "witness": witness_to_payload(non_hamiltonicity_witness(g))}
    assert entry["witness"]["type"] == "exhaustive_search"
    report = VerificationReport(kind="characterization", params={}, exceptional=[entry])
    assert harness._self_check(report)
    monkeypatch.setattr(solver, "_forced_edge_search", lambda n, adj, independent: (0,))
    assert not harness._self_check(report)


def test_self_check_re_solves_every_witness_type(monkeypatch):
    # Each recorded graph is re-solved by the second decider, whatever its
    # witness; only an exhaustive search's node count runs the path search.
    graphs = {
        "small_cut": build_family_F1(4),
        "independent_set": build_family_F(3, 2),
        "bipartite_degree_one": build_family_F3(4),
        "exhaustive_search": build_F2(),
    }
    searches = []
    search = solver._ham_search
    monkeypatch.setattr(solver, "_ham_search", lambda *args: searches.append(1) or search(*args))
    reports = {}
    for name, g in graphs.items():
        entry = {"graph": encode(g), "witness": witness_to_payload(non_hamiltonicity_witness(g))}
        assert entry["witness"]["type"] == name
        reports[name] = VerificationReport(kind="exhaustive", params={}, counterexamples=[entry])
        searches.clear()
        assert harness._self_check(reports[name]), name
        assert len(searches) == (name == "exhaustive_search"), name
    monkeypatch.setattr(solver, "_forced_edge_search", lambda n, adj, independent: (0,))
    for name, report in reports.items():
        assert not harness._self_check(report), name


def test_self_check_refuses_hamiltonian_graphs_and_skips_graphless_entries():
    f2 = build_F2()
    f2_entry = {"graph": encode(f2), "witness": witness_to_payload(non_hamiltonicity_witness(f2))}
    graphless = {"classification": "F2"}
    report = VerificationReport(
        kind="characterization", params={}, exceptional=[graphless, f2_entry]
    )
    assert harness._self_check(report)
    # A listed graph that has a Hamiltonian cycle fails the check, with or
    # without a witness.
    octahedron = encode(complete_kpartite(3, 2))
    for entry in ({"graph": octahedron}, {"graph": octahedron, "witness": f2_entry["witness"]}):
        report = VerificationReport(kind="exhaustive", params={}, counterexamples=[entry])
        assert not harness._self_check(report)


def test_self_check_reproduces_search_nodes():
    # The second decider ignores an exhaustive witness's node count, so the
    # self-check compares it with the count of its own re-solve.
    report = exhaustive_verify(8, 2, 2)
    assert report.self_check_ok
    entry = next(
        entry
        for entry in report.exceptional
        if entry["witness"] and entry["witness"]["type"] == "exhaustive_search"
    )
    entry["witness"]["nodes"] = 10**9
    assert not harness._self_check(report)


def test_sweep_witnesses_search_only_exhaustive_entries(monkeypatch):
    # The sweep's own searches only filter, so the expansion searches each
    # graph whose witness is an exhaustive search once, through the solver,
    # and a graph with a small cut never.  The self-check re-solves every
    # listed graph with the second decider, and runs the path search again
    # only to reproduce an exhaustive search's node count.
    searches = []
    search = solver._ham_search
    monkeypatch.setattr(solver, "_ham_search", lambda *args: searches.append(1) or search(*args))
    re_solves = []
    second = solver._forced_edge_search
    monkeypatch.setattr(
        solver, "_forced_edge_search", lambda *args: re_solves.append(1) or second(*args)
    )
    entries = []
    expansion = []
    finish = harness._finish_sweep

    def finish_spy(kind, n, k, floor, counters, non_hamiltonian, *args, **kwargs):
        # The graphs the finish step lists, after the climb, each with the
        # witness the climb or the expansion gave it, and its orbit.
        entries.extend(non_hamiltonian)
        expansion.append(len(searches))
        return finish(kind, n, k, floor, counters, entries, *args, **kwargs)

    monkeypatch.setattr(harness, "_finish_sweep", finish_spy)
    report = exhaustive_verify(8, 2, 2)
    assert report.self_check_ok
    assert len(entries) == 750
    assert [encode(g) for g, _, _ in entries] == [entry["graph"] for entry in report.exceptional]
    # Every graph reaches the finish step with its witness, which the
    # report records as it is.
    witnesses = [witness_to_payload(witness) for _, witness, _ in entries]
    assert witnesses == [entry["witness"] for entry in report.exceptional]
    kinds = Counter(type(witness).__name__ for _, witness, _ in entries)
    assert kinds == {"ExhaustiveSearch": 444, "SmallCut": 306}
    assert expansion == [444]
    assert len(searches) == 444 + 444
    assert len(re_solves) == 750


def test_exhaustive_sweeps_never_ask_the_full_witness(monkeypatch):
    # An exhaustive sweep gives every listed graph its witness from the
    # climb's certificates, the certificates of its orbit, or its search:
    # it never runs the whole witness chain again.
    def refuse(g):
        raise AssertionError(f"non_hamiltonicity_witness asked of {encode(g)}")

    monkeypatch.setattr(harness, "non_hamiltonicity_witness", refuse)
    for run in (
        lambda: exhaustive_verify(8, 2, 2),
        lambda: exhaustive_verify(6, 3, 0),
        lambda: exhaustive_verify(7, 7, 3, shards=4, shard_id=1),
        lambda: exhaustive_verify(4, 2, theorem_threshold(4, 2)),
        lambda: characterization_check(8, 4),
    ):
        report = run()
        assert report.exceptional + report.counterexamples and report.self_check_ok


def test_characterization_validation():
    with pytest.raises(ValueError):
        characterization_check(8, 2)
    # Only (8, 4) is swept: (4, 2) lies below it and n = 12 has 2^60 subsets.
    for n, k in ((4, 2), (12, 6)):
        with pytest.raises(SizeGuardError):
            characterization_check(n, k)


def test_tightness_scan_small():
    report = tightness_scan(8, 4)
    assert report.counterexamples == []
    assert report.counters["members_checked"] > 0
    assert report.counters["certificates_valid"] == report.counters["members_checked"]
    assert report.ok


def test_facts_report_small():
    report = facts_report(40, 15)
    assert report.counterexamples == []
    assert report.counters["domcycle_expected_failures"] == 1
    assert report.ok


def test_report_round_trip():
    for name, run, _ in FROZEN_REPORTS:
        for report in run():
            text = report.to_json()
            back = VerificationReport.from_json(text)
            assert back == report, name
            assert back.to_json() == text, name
            # Every recorded graph re-decodes and re-solves to the recorded status.
            for entry in back.counterexamples + back.exceptional:
                if "graph" in entry:
                    assert find_hamiltonian_cycle(decode(entry["graph"])) is None, name


def test_report_write_read(tmp_path):
    report = exhaustive_verify(6, 3)
    path = tmp_path / "report.json"
    report.write(path)
    back = VerificationReport.from_json(path.read_text())
    assert back.counters == report.counters
    assert back.schema_version == 1


def test_report_rejects_unknown_schema_version():
    payload = json.loads(exhaustive_verify(6, 3).to_json())
    payload["schema_version"] = 2
    with pytest.raises(ValueError, match="schema_version"):
        VerificationReport.from_json(json.dumps(payload))
    # Neither a non-object payload nor a missing version gets past the parser.
    del payload["schema_version"]
    for text in (json.dumps(payload), "[]", "3", '"report"', "null"):
        with pytest.raises(ValueError, match="JSON object with a schema_version"):
            VerificationReport.from_json(text)
    # A field without a default is named when missing, in field order.
    for text, name in (
        ('{"schema_version": 1}', "kind"),
        ('{"schema_version": 1, "params": {}}', "kind"),
        ('{"schema_version": 1, "kind": "exhaustive"}', "params"),
    ):
        with pytest.raises(ValueError, match=rf"^report field '{name}' is missing$"):
            VerificationReport.from_json(text)


def test_scan_ranges_are_checked_once():
    for scan in (check_appendix_facts, scan_eq4_identity, scan_domcycle_threshold,
                 tightness_scan):
        with pytest.raises(ValueError, match=r"^k_max must be at least 2, got 1$"):
            scan(1, 3)
        with pytest.raises(ValueError, match=r"^m_max must be at least 1, got 0$"):
            scan(4, 0)
