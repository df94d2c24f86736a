"""Harness: exhaustive sweeps, sharding, sampling, tightness, reports."""

import json
from itertools import permutations

import pytest

from hamparts import harness
from hamparts.families import build_family_F
from hamparts.graphs import SizeGuardError, blocks_partition, decode, encode
from hamparts.harness import (
    VerificationReport,
    characterization_check,
    cross_pairs,
    exhaustive_verify,
    facts_report,
    sample_verify,
    tightness_scan,
)
from hamparts.solver import find_hamiltonian_cycle
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


def test_exhaustive_shards_partition_counters():
    full = exhaustive_verify(6, 3)
    for shards in (2, 3, 4, 8):
        merged = {}
        for shard_id in range(shards):
            part = exhaustive_verify(6, 3, shards=shards, shard_id=shard_id)
            for key, value in part.counters.items():
                merged[key] = merged.get(key, 0) + value
        assert merged == full.counters, shards


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
    report = exhaustive_verify(8, 2, 2)
    text = report.to_json()
    back = VerificationReport.from_json(text)
    assert back.counters == report.counters
    assert back.exceptional == report.exceptional
    assert back.kind == report.kind
    # Every recorded graph re-decodes and re-solves to the recorded status.
    for entry in back.exceptional:
        assert find_hamiltonian_cycle(decode(entry["graph"])) is None


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
