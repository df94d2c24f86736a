"""Harness: exhaustive sweeps, sharding, sampling, tightness, reports."""

import dataclasses
import gc
import hashlib
import json
from collections import Counter
from itertools import permutations

import pytest

from hamparts import harness, solver
from hamparts.families import build_F2, build_family_F, build_family_F1, build_family_F3
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
from hamparts.solver import find_hamiltonian_cycle, non_hamiltonicity_witness, witness_to_payload
from hamparts.thresholds import check_appendix_facts, scan_domcycle_threshold, scan_eq4_identity
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


def test_work_units_visit_each_subset_of_their_shard_once():
    pairs = cross_pairs(6, 3)
    degrees = []
    for sid in range(1 << len(pairs)):
        deg = [0] * 6
        for i, (u, v) in enumerate(pairs):
            if (sid >> (len(pairs) - 1 - i)) & 1:
                deg[u] += 1
                deg[v] += 1
        degrees.append(min(deg))
    for floor in (2, 3, 5):
        meeting = [sid for sid, low in enumerate(degrees) if low >= floor]
        for shards in (1, 2, 3, 8, 20):
            suffix_bits = len(pairs) - min((shards - 1).bit_length(), len(pairs))
            whole = []
            for shard_id in range(shards):
                units = harness._work_units(6, 3, floor, shards, shard_id)
                assert all(args[:5] == (6, 3, floor, shards, shard_id) for args in units)
                seen, space = [], 0
                for args in units:
                    unit_bits, unit = args[5:]
                    covered, _ = harness._enumerate_shard(
                        6, 3, floor, 1 << unit_bits, unit, lambda sid, adj: seen.append(sid)
                    )
                    space += covered
                owned = [sid for sid in meeting if (sid >> suffix_bits) % shards == shard_id]
                assert sorted(seen) == owned, (floor, shards, shard_id)
                assert space == sum(
                    1 for sid in range(len(degrees)) if (sid >> suffix_bits) % shards == shard_id
                )
                whole += units
            assert sorted(whole) == sorted(harness._work_units(6, 3, floor, shards, None))


def _full_sweep(n, k, floor):
    """Reference: search every floor-meeting graph.  Returns their number and
    the non-Hamiltonian ones as {subset id: rows}."""
    part_masks = harness._part_masks(n, k)
    non_ham = {}

    def visit(sid, adj):
        if harness._ham_search(n, adj, part_masks)[0] is None:
            non_ham[sid] = tuple(adj)

    _, meeting = harness._enumerate_shard(n, k, floor, 1, 0, visit)
    return meeting, non_ham


def _minimal_sweep(n, k, floor):
    """The whole-run sweep as one unit: (the unit's result, the climb's
    non-Hamiltonian graphs)."""
    unit = harness._run_exhaustive_shard((n, k, floor, 1, 0, 0, 0))
    found, _ = harness._climb(n, k, unit["non_hamiltonian"], len(cross_pairs(n, k)), {0})
    return unit, found


def test_floor_count_matches_enumeration():
    # The DP against the recursion that visits every floor-meeting graph, at
    # every floor up to one above the cross degree, whole and per unit.
    for n, k in ((6, 3), (8, 2)):
        for floor in range(6):
            visited = harness._enumerate_shard(n, k, floor, 1, 0, lambda sid, adj: None)[1]
            assert harness._count_meeting_floor(n, k, floor, 1, 0) == visited, (n, k, floor)
    for floor in range(6):
        for units in (2, 8, 64, 4096):
            for unit in range(units):
                visited = harness._enumerate_shard(6, 3, floor, units, unit, lambda s, a: None)[1]
                counted = harness._count_meeting_floor(6, 3, floor, units, unit)
                assert counted == visited, (floor, units, unit)


def test_minimal_sweep_matches_full_enumeration():
    cases = [(6, 3, floor) for floor in range(6)]
    cases += [(8, 2, 2), (8, 2, 3), (7, 7, 3), (8, 4, 4)]
    for n, k, floor in cases:
        meeting, non_ham = _full_sweep(n, k, floor)
        unit, found = _minimal_sweep(n, k, floor)
        assert unit["meeting_floor"] == meeting, (n, k, floor)
        assert found == non_ham, (n, k, floor)


# (n, k, floor): (minimal graphs, of which non-Hamiltonian).
MINIMAL_COUNTS = {
    (8, 4, 3): (26_200, 520),
    (8, 4, 4): (4_379, 0),
    (7, 7, 3): (7_455, 105),
    (8, 2, 2): (186, 114),
    (6, 3, 2): (83, 67),
}


def test_minimal_graph_counts_are_frozen():
    for (n, k, floor), expected in MINIMAL_COUNTS.items():
        minimal = harness._enumerate_minimal(n, k, floor, 1, 0, lambda sid, adj: None)
        unit = harness._run_exhaustive_shard((n, k, floor, 1, 0, 0, 0))
        assert (minimal, len(unit["non_hamiltonian"])) == expected, (n, k, floor)


def _minimal_reference(n, k, floor, units, unit):
    """Reference: one unit's enumeration searching every minimal graph and
    keeping no cycle.  Returns the non-Hamiltonian ones as (subset id,
    rows), in visit order."""
    part_masks = harness._part_masks(n, k)
    non_ham = []

    def visit(sid, adj):
        if harness._ham_search(n, adj, part_masks)[0] is None:
            non_ham.append((sid, tuple(adj)))

    harness._enumerate_minimal(n, k, floor, units, unit, visit)
    return non_ham


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

    def spy(order, sid, pair_bit):
        mask = cycle_mask(order, sid, pair_bit)
        kept.append((order, sid, mask))
        return mask

    monkeypatch.setattr(harness, "_cycle_mask", spy)
    cases = [(6, 3, floor, 1) for floor in range(6)]
    cases += [(8, 2, 2, 1), (8, 2, 3, 1), (7, 7, 3, 1)]
    cases += [(8, 4, 3, units) for units in (1, 8, 64)]
    for n, k, floor, units in cases:
        kept.clear()
        bases = []
        for unit in range(units):
            args = (n, k, floor, units, unit, units.bit_length() - 1, unit)
            listed = harness._run_exhaustive_shard(args)["non_hamiltonian"]
            assert listed == _minimal_reference(n, k, floor, units, unit), (n, k, floor, unit)
            bases += listed
        # The climb keeps cycles too; its completeness is checked against
        # full enumeration in test_minimal_sweep_matches_full_enumeration.
        suffix_bits = len(cross_pairs(n, k)) - units.bit_length() + 1
        harness._climb(n, k, bases, suffix_bits, set(range(units)))
        for order, sid, mask in kept:
            assert len(order) == n and sorted(order) == list(range(n)), (n, k, floor, order)
            assert mask == _pair_mask(n, k, list(order)), (n, k, floor, order)
            assert mask.bit_count() == n and mask & sid == mask, (n, k, floor, sid)
    # The last case, (8, 4) at floor 3 in 64 units, keeps cycles.
    assert kept


def _search_only_climb(n, k, bases, suffix_bits, prefixes):
    """Reference: the climb searching every candidate, with no certificate
    and no kept cycle.  Returns {subset id: rows}, the bases included."""
    part_masks = harness._part_masks(n, k)
    pairs = cross_pairs(n, k)
    found = dict(bases)
    seen = set(found)
    stack = list(found.items())
    while stack:
        sid, adj = stack.pop()
        for i, (u, v) in enumerate(pairs):
            up = sid | 1 << (len(pairs) - 1 - i)
            if up in seen or up >> suffix_bits not in prefixes:
                continue
            seen.add(up)
            grown = list(adj)
            grown[u] |= 1 << v
            grown[v] |= 1 << u
            if harness._ham_search(n, grown, part_masks)[0] is None:
                found[up] = tuple(grown)
                stack.append((up, tuple(grown)))
    return found


def test_certificate_first_climb_matches_a_search_only_climb(monkeypatch):
    searches, refuted = [], []
    search, certify = harness._ham_search, harness._polynomial_witness
    monkeypatch.setattr(harness, "_ham_search", lambda *args: searches.append(1) or search(*args))

    def certify_spy(g):
        witness = certify(g)
        refuted.append(witness is not None)
        return witness

    cases = [(6, 3, floor, 1) for floor in range(6)]
    cases += [(8, 2, 2, 1), (8, 2, 3, 1), (7, 7, 3, 1)]
    cases += [(8, 4, 3, units) for units in (1, 8, 64)]
    for n, k, floor, units in cases:
        bases = []
        for unit in range(units):
            args = (n, k, floor, units, unit, units.bit_length() - 1, unit)
            bases += harness._run_exhaustive_shard(args)["non_hamiltonian"]
        suffix_bits = len(cross_pairs(n, k)) - units.bit_length() + 1
        prefixes = set(range(units))
        reference = _search_only_climb(n, k, bases, suffix_bits, prefixes)
        # The same climb without certificates, then with them.
        monkeypatch.setattr(harness, "_polynomial_witness", lambda g: None)
        searches.clear()
        found, witnesses = harness._climb(n, k, bases, suffix_bits, prefixes)
        assert found == reference and witnesses == {}, (n, k, floor)
        without = len(searches)
        monkeypatch.setattr(harness, "_polynomial_witness", certify_spy)
        searches.clear()
        refuted.clear()
        found, witnesses = harness._climb(n, k, bases, suffix_bits, prefixes)
        assert found == reference, (n, k, floor)
        assert without - len(searches) == sum(refuted), (n, k, floor, units)
        # A refuted candidate keeps its witness, and it is the one the solver
        # gives a graph built afresh from its rows.
        assert len(witnesses) == sum(refuted), (n, k, floor, units)
        assert witnesses.keys() <= found.keys() - dict(bases).keys(), (n, k, floor, units)
        part_of = blocks_partition(n, k)
        for sid, witness in witnesses.items():
            fresh = non_hamiltonicity_witness(KPartiteGraph(part_of, found[sid]))
            assert witness == fresh, (n, k, floor, sid)
        if n < 7 or 2 * floor < n - 2:
            # Refuting searches cost less than the certificates there.
            assert not refuted, (n, k, floor)
        if (n, k) == (8, 4):
            # Every non-Hamiltonian climb candidate is refuted by a certificate.
            assert sum(refuted) == len(reference) - len(bases) == 1_792, units
            kinds = Counter(type(witness).__name__ for witness in witnesses.values())
            assert kinds == {"SmallCut": 544, "BipartiteDegreeOne": 1_248}, units
        if (n, k, floor) == (7, 7, 3):
            assert sum(refuted) == len(reference) - len(bases) == 245
            kinds = Counter(type(witness).__name__ for witness in witnesses.values())
            assert kinds == {"IndependentSetTooLarge": 245}


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


# harness._ham_search calls of a whole (8, 4) floor-3 sweep, by shard count:
# 26,200 minimal graphs and 17,968 climb candidates without cycle reuse, and
# 1,792 fewer than with reuse alone, since certificates refute every
# non-Hamiltonian climb candidate.
SWEEP_SEARCHES = {1: 3_797, 8: 4_197}


def test_sweep_search_counts_are_frozen(monkeypatch):
    calls = []
    search = harness._ham_search
    monkeypatch.setattr(harness, "_ham_search", lambda *args: calls.append(1) or search(*args))
    for shards, expected in SWEEP_SEARCHES.items():
        calls.clear()
        report = exhaustive_verify(8, 4, 3, shards=shards)
        assert report.counters["graphs_above_threshold"] == 1_393_734
        assert len(report.exceptional) == 2_312
        assert len(calls) == expected, shards


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
# before the recursion visited both completions of the last pair in the frame
# that decides it.  The cycles a unit keeps, and so the searches it makes,
# depend on this order.
MINIMAL_VISIT_ORDER_DIGEST = "32ed570aa3af6a114fcc0b6aff34b626053e33a690df89cd099f32971436d05e"


def test_minimal_visit_order_is_frozen():
    lines = []
    for n, k, floor, units, unit in ((6, 3, 2, 1, 0), (7, 7, 3, 1, 0), (8, 4, 3, 8, 3)):
        tables = harness._sweep_tables(n, k)
        for reuse in (False, True):

            def visit(sid, adj):
                lines.append(f"{sid} {' '.join(map(str, adj))}")
                order = harness._ham_search(n, adj, tables.part_masks)[0] if reuse else None
                return None if order is None else harness._cycle_mask(order, sid, tables.pair_bit)

            harness._enumerate_minimal(n, k, floor, units, unit, visit, tables)
    assert len(lines) == 12_819
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == MINIMAL_VISIT_ORDER_DIGEST


def test_whole_run_units_are_bounded_by_the_subset_space(monkeypatch):
    calls = []
    worker = harness._run_exhaustive_shard

    def counted(args, *tables):
        calls.append(args)
        return worker(args, *tables)

    monkeypatch.setattr(harness, "_run_exhaustive_shard", counted)
    full = exhaustive_verify(4, 2, 1)
    # (4, 2) has 4 cross pairs: 2^40 shards still make 16 units, one per subset.
    calls.clear()
    assert exhaustive_verify(4, 2, 1, shards=2**40).counters == full.counters
    assert len(calls) == 16
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
    # The one sweep whose climb certifies with independent-set witnesses (245).
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
    # The sweep's own searches only filter, so the witness step searches each
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
    finish = harness._finish_sweep

    def finish_spy(kind, n, k, floor, counters, non_hamiltonian, *args, **kwargs):
        # The graphs the finish step lists, after the climb, each with the
        # witness a climb certificate gave it, if any.
        entries.extend(non_hamiltonian)
        return finish(kind, n, k, floor, counters, entries, *args, **kwargs)

    monkeypatch.setattr(harness, "_finish_sweep", finish_spy)
    witness_searches = Counter()
    witness = harness.non_hamiltonicity_witness

    def witness_spy(g):
        before = len(searches)
        found = witness(g)
        witness_searches[type(found).__name__] += len(searches) - before
        return found

    monkeypatch.setattr(harness, "non_hamiltonicity_witness", witness_spy)
    report = exhaustive_verify(8, 2, 2)
    assert report.self_check_ok
    assert len(entries) == 750
    assert [encode(g) for g, _ in entries] == [entry["graph"] for entry in report.exceptional]
    # The climb asks no certificate at (8, 2) floor 2, so every witness is
    # the finish step's own.
    assert all(witness is None for _, witness in entries)
    kinds = Counter(entry["witness"]["type"] for entry in report.exceptional)
    assert kinds == {"exhaustive_search": 444, "small_cut": 306}
    assert witness_searches == {"ExhaustiveSearch": 444, "SmallCut": 0}
    assert len(searches) == 444 + 444
    assert len(re_solves) == 750


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
