"""CLI: subcommand output, file formats, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import hamparts
from hamparts import cli
from hamparts.cli import main
from hamparts.families import build_F2
from hamparts.graphs import encode
from hamparts.harness import VerificationReport, exhaustive_verify


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_threshold_output(capsys):
    code, out, _ = run_cli(capsys, "threshold", "--n", "8", "--k", "4")
    assert code == 0
    assert "threshold=3" in out
    assert "exception=true" in out
    assert "required_degree=4" in out
    assert "cfgjl_bound=10/3" in out


def test_threshold_invalid_input(capsys):
    code, _, err = run_cli(capsys, "threshold", "--n", "7", "--k", "3")
    assert code == 2
    assert "error" in err


def test_construct_f2_g6(capsys, tmp_path):
    path = tmp_path / "f2.kpart"
    code, _, _ = run_cli(
        capsys, "construct", "--family", "F2", "--out", str(path)
    )
    assert code == 0
    assert path.read_text().strip() == encode(build_F2())


def test_construct_family_f_sizes(capsys):
    code, out, _ = run_cli(
        capsys, "construct", "--family", "F", "--k", "2", "--m", "4",
        "--sizes", "3,2",
    )
    assert code == 0
    assert out.startswith("kpart 2:")


def test_construct_dot(capsys):
    code, out, _ = run_cli(capsys, "construct", "--family", "F2", "--format", "dot")
    assert code == 0
    assert out.startswith("graph G {")
    assert out.count("--") == 15


def test_construct_from_spec(capsys, tmp_path):
    spec = tmp_path / "member.spec"
    spec.write_text("family: F1\nk: 4\nxk_missing: 1\n")
    code, out, _ = run_cli(capsys, "construct", "--spec", str(spec))
    assert code == 0
    assert out.startswith("kpart 4:")


def test_construct_rejects_unknown_option(capsys):
    code, _, err = run_cli(
        capsys, "construct", "--family", "F1", "--k", "4", "--option", "bogus=1"
    )
    assert code == 2
    assert "bogus" in err
    # --option takes the spec-file keys, so it may not repeat a flag's key.
    code, _, err = run_cli(
        capsys, "construct", "--family", "F1", "--k", "4", "--option", "k=5"
    )
    assert code == 2
    assert "repeated family spec key 'k'" in err
    for item in ("novalue", "#k=5", "x_prime=1\nk: 5"):
        code, _, err = run_cli(
            capsys, "construct", "--family", "F3", "--k", "4", "--option", item
        )
        assert code == 2
        assert "is not KEY=VALUE" in err


def test_construct_option_matches_spec(capsys, tmp_path):
    spec = tmp_path / "member.spec"
    spec.write_text("family: F3\nk: 4\ny_dprime: 5\nyy_edges: 4-7 5-7\nxy_edge: true\n")
    _, from_spec, _ = run_cli(capsys, "construct", "--spec", str(spec))
    code, from_flags, _ = run_cli(
        capsys, "construct", "--family", "F3", "--k", "4", "--option", "y_dprime=5",
        "--option", "yy_edges=4-7,5-7", "--option", "xy_edge=true",
    )
    assert code == 0
    assert from_flags == from_spec


def test_construct_spec_rejects_bad_keys(capsys, tmp_path):
    spec = tmp_path / "member.spec"
    for text, key in (
        ("family: F3\nk: 4\ny_dprim: 5\n", "y_dprim"),
        ("family: F3\nk: 4\nk: 6\n", "k"),
    ):
        spec.write_text(text)
        code, out, err = run_cli(capsys, "construct", "--spec", str(spec))
        assert code == 2
        assert out == ""
        assert repr(key) in err


def test_construct_refuses_fields_outside_variant(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "construct", "--family", "F2", "--k", "9", "--m", "3",
        "--option", "yy_edges=0-1",
    )
    assert code == 2
    assert out == ""
    assert "family F2 does not take 'k'" in err
    spec = tmp_path / "f3.spec"
    spec.write_text("family: F3\nk: 4\nyy_missing: 0-1\n")
    code, out, err = run_cli(capsys, "construct", "--spec", str(spec))
    assert code == 2
    assert out == ""
    assert "family F3 does not take 'yy_missing'" in err


def test_construct_spec_refuses_member_flags(capsys, tmp_path):
    spec = tmp_path / "f3.spec"
    spec.write_text("family: F3\nk: 4\n")
    code, out, err = run_cli(
        capsys, "construct", "--spec", str(spec), "--k", "9", "--option", "bogus=1"
    )
    assert code == 2
    assert out == ""
    assert "--k, --option" in err
    for flags in (["--family", "F1"], ["--m", "2"], ["--sizes", "3,2"]):
        code, out, err = run_cli(capsys, "construct", "--spec", str(spec), *flags)
        assert code == 2
        assert out == ""
        assert flags[0] in err


def test_check_f2(capsys, tmp_path):
    path = tmp_path / "f2.kpart"
    path.write_text(encode(build_F2()) + "\n")
    code, out, _ = run_cli(
        capsys, "check", "--in", str(path), "--ham", "--alpha", "--kappa"
    )
    assert code == 0
    assert "ham: none witness={'type': 'exhaustive_search', 'nodes': " in out
    assert "alpha: 3" in out
    assert "kappa: 2" in out


def test_check_dominating(capsys, tmp_path):
    path = tmp_path / "f2.kpart"
    path.write_text(encode(build_F2()) + "\n")
    code, out, _ = run_cli(
        capsys, "check", "--in", str(path), "--dominating",
        "--cycle", "0,1,2,3,4,5",
    )
    assert code == 0
    assert "dominating: false" in out


def test_check_names_the_flag_of_a_malformed_list(capsys, tmp_path):
    path = tmp_path / "f2.kpart"
    path.write_text(encode(build_F2()) + "\n")
    cases = [
        (["--dominating", "--cycle", "0,1,x"], "--cycle must be comma-separated vertex ids, got '0,1,x'"),
        (["--chvatal", "--sides", "0,x"], "--sides must be 'U,V' part ids, got '0,x'"),
    ]
    for flags, message in cases:
        code, out, err = run_cli(capsys, "check", "--in", str(path), *flags)
        assert (code, out, err) == (2, "", f"error: {message}\n"), flags


def test_check_chvatal(capsys, tmp_path):
    from hamparts.graphs import complete_kpartite

    path = tmp_path / "k44.kpart"
    path.write_text(encode(complete_kpartite(2, 4)) + "\n")
    code, out, _ = run_cli(
        capsys, "check", "--in", str(path), "--chvatal", "--sides", "0,1"
    )
    assert code == 0
    assert "chvatal: true" in out


def test_check_missing_file(capsys):
    code, _, err = run_cli(capsys, "check", "--in", "/nonexistent", "--ham")
    assert code == 2


def test_verify_exhaustive(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "verify", "--n", "6", "--k", "3", "--exhaustive",
        "--out", str(out_path),
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["kind"] == "exhaustive"
    assert payload["counters"]["graphs_enumerated"] == 4096
    assert payload["counterexamples"] == []


def test_verify_below_threshold_fails(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "verify", "--n", "6", "--k", "3", "--floor", "2",
        "--exhaustive", "--out", str(out_path),
    )
    # Non-Hamiltonian graphs exist below the threshold: exit 1, report written.
    assert code == 1
    payload = json.loads(out_path.read_text())
    assert payload["counterexamples"]


def test_verify_refuses_a_negative_floor(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    for mode in (("--exhaustive",), ("--sample", "10")):
        code, _, err = run_cli(
            capsys, "verify", "--n", "6", "--k", "3", "--floor", "-3", *mode,
            "--out", str(out_path),
        )
        assert code == 2, mode
        assert "degree floor must be non-negative, got -3" in err, mode
        assert not out_path.exists(), mode
    # Floor 0 stays valid: every graph meets it, and the non-Hamiltonian
    # ones are listed.
    code, _, _ = run_cli(
        capsys, "verify", "--n", "6", "--k", "3", "--floor", "0", "--exhaustive",
        "--out", str(out_path),
    )
    assert code == 1
    payload = json.loads(out_path.read_text())
    assert payload["params"]["degree_floor"] == 0
    assert len(payload["counterexamples"]) == 3_511


def test_verify_sample(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "verify", "--n", "12", "--k", "4", "--sample", "50",
        "--seed", "5", "--out", str(out_path),
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["kind"] == "sample"
    assert payload["params"]["seed"] == 5


def test_verify_sample_refuses_shard_flags(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, err = run_cli(
        capsys, "verify", "--n", "8", "--k", "4", "--sample", "5", "--shards", "4",
        "--shard", "9", "--jobs", "3", "--out", str(out_path),
    )
    assert code == 2
    assert "--shards, --shard, --jobs" in err
    for flag in ("--shards", "--shard", "--jobs"):
        code, _, err = run_cli(
            capsys, "verify", "--n", "8", "--k", "4", "--sample", "5", flag, "1",
            "--out", str(out_path),
        )
        assert code == 2
        assert flag in err
    assert not out_path.exists()


def test_verify_guard_exit_code(capsys, tmp_path):
    for n, k in (("12", "4"), ("8", "8"), ("9", "9")):
        code, _, err = run_cli(
            capsys, "verify", "--n", n, "--k", k, "--exhaustive",
            "--out", str(tmp_path / "r.json"),
        )
        assert code == 3
        assert "edge subsets" in err
    code, _, err = run_cli(
        capsys, "verify", "--n", "44", "--k", "4", "--sample", "1",
        "--out", str(tmp_path / "r.json"),
    )
    assert code == 3
    assert "sampling guarded at n <= 40" in err
    assert not (tmp_path / "r.json").exists()


def test_sweeps_refuse_nonpositive_jobs(capsys, tmp_path):
    out_path = tmp_path / "r.json"
    for argv in (
        ("verify", "--n", "6", "--k", "3", "--exhaustive", "--jobs", "-4"),
        ("verify", "--n", "6", "--k", "3", "--exhaustive", "--jobs", "0", "--shards", "2"),
        ("characterize", "--n", "8", "--k", "4", "--jobs", "0"),
    ):
        code, _, err = run_cli(capsys, *argv, "--out", str(out_path))
        assert code == 2
        assert "jobs must be positive" in err
    assert not out_path.exists()


def test_verify_shard_flag(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys, "verify", "--n", "6", "--k", "3", "--exhaustive",
        "--shards", "4", "--shard", "2", "--out", str(out_path),
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["params"]["shards"] == 4
    assert payload["params"]["shard_id"] == 2
    assert payload["counters"]["graphs_enumerated"] == 1024


def test_jobs_never_change_the_report(capsys, tmp_path):
    # --shards defaults to 1 whatever --jobs is, and --jobs changes nothing,
    # so the reports are equal apart from their wall time.
    reports = []
    for jobs in ("1", "2"):
        out_path = tmp_path / f"jobs{jobs}.json"
        code, _, _ = run_cli(
            capsys, "verify", "--n", "6", "--k", "3", "--exhaustive",
            "--jobs", jobs, "--out", str(out_path),
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        del payload["wall_time_seconds"]
        reports.append(payload)
    assert reports[0] == reports[1]
    assert reports[0]["params"]["shards"] == 1
    # Without --shards, --shard 1 is outside the one shard's range.
    out_path = tmp_path / "shard.json"
    code, _, err = run_cli(
        capsys, "verify", "--n", "6", "--k", "3", "--exhaustive", "--shard", "1",
        "--jobs", "2", "--out", str(out_path),
    )
    assert code == 2
    assert "shard_id must lie in [0, 1), got 1" in err
    assert not out_path.exists()


def test_facts_command(capsys):
    code, out, _ = run_cli(capsys, "facts", "--k-max", "20", "--m-max", "8")
    assert code == 0
    assert "all facts hold" in out


def test_tightness_command(capsys):
    code, out, _ = run_cli(capsys, "tightness", "--k-max", "6", "--m-max", "3")
    assert code == 0
    assert "all members tight" in out
    code, _, err = run_cli(capsys, "tightness", "--k-max", "1", "--m-max", "3")
    assert code == 2
    assert err == "error: k_max must be at least 2, got 1\n"


def _recording(monkeypatch, name):
    """Replace ``cli.<name>`` by a wrapper that keeps each report it returns."""
    built = []
    real = getattr(cli, name)

    def record(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(cli, name, record)
    return built


def test_facts_and_tightness_write_the_reports_they_built(capsys, tmp_path, monkeypatch):
    for command, name in (("facts", "facts_report"), ("tightness", "tightness_scan")):
        built = _recording(monkeypatch, name)
        out_path = tmp_path / f"{command}.json"
        code, _, _ = run_cli(
            capsys, command, "--k-max", "6", "--m-max", "3", "--out", str(out_path)
        )
        assert code == 0
        assert len(built) == 1
        assert VerificationReport.from_json(out_path.read_text()) == built[0]


def test_characterize_command_writes_and_tallies(capsys, tmp_path, monkeypatch):
    # The whole (8, 4) sweep runs in CI; here one frozen shard stands in.
    report = exhaustive_verify(8, 4, 3, shards=64, shard_id=63, _kind="characterization")
    calls = []

    def characterization_check(*args, **kwargs):
        calls.append((args, kwargs))
        return report

    monkeypatch.setattr(cli, "characterization_check", characterization_check)
    out_path = tmp_path / "c84.json"
    code, out, _ = run_cli(
        capsys, "characterize", "--n", "8", "--k", "4", "--shards", "8", "--jobs", "2",
        "--out", str(out_path),
    )
    assert code == 0
    assert calls == [((8, 4), {"shards": 8, "jobs": 2})]
    assert out.splitlines() == ["non_hamiltonian=220 F1=32 F2=8 F3=180", f"report={out_path}"]
    assert VerificationReport.from_json(out_path.read_text()) == report


def test_characterize_command_guard(capsys, tmp_path):
    code, _, _ = run_cli(
        capsys, "characterize", "--n", "12", "--k", "6",
        "--out", str(tmp_path / "r.json"),
    )
    assert code == 3


def test_cli_import_leaves_the_pool_modules_out():
    # CI runs the same check against the installed package.  A sweep runs
    # in one process whatever ``jobs`` says, so it imports no pool either.
    paths = [str(Path(hamparts.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    sweep = "hamparts.harness.exhaustive_verify(6, 3, 2, shards=3, jobs=2)"
    for run in ("", f"{sweep}; "):
        check = f'import sys, hamparts.cli; {run}sys.exit("concurrent.futures" in sys.modules)'
        result = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True)
        assert result.returncode == 0, (run, result.stderr.decode())
