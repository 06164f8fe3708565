"""Command line surface: subcommands, outputs, exit codes."""

import concurrent.futures
import json
import subprocess
import sys

import pytest

from fvrlab import cli, experiments, geometry
from fvrlab.cli import _emit, main
from fvrlab.report import BoundRow, CheckReport, ReportBlock
from fvrlab.ring import parse_ring_spec

from conftest import child_env


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ring_info_zpr(capsys):
    code, out, err = run_cli(capsys, "ring", "info", "zpr:p=3,r=2")
    assert code == 0 and err == ""
    assert out == (
        "spec: zpr:p=3,r=2\n"
        "kind: zpr\n"
        "p: 3\n"
        "s: 1\n"
        "q: 3\n"
        "r: 2\n"
        "order: 9\n"
        "units: 6\n"
        "uniformizer: 3\n"
        "uniformizer_degenerate: false\n"
        "ideal_sizes: 9,3,1\n"
    )


def test_ring_info_field_case(capsys):
    code, out, _ = run_cli(capsys, "ring", "info", "fqxr:p=3,s=2,r=1")
    assert code == 0
    assert "q: 9\n" in out
    assert "uniformizer_degenerate: true\n" in out
    assert "residue_field_modulus: 1 + y^2\n" in out


def test_ring_info_bad_spec(capsys):
    code, out, err = run_cli(capsys, "ring", "info", "zpr:p=4,r=2")
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_ring_info_refuses_huge_specs_at_once(capsys):
    # trial division of 2**89 - 1 and 3**99999999999 both ran for minutes
    for spec in ("zpr:p=618970019642690137449562111,r=1", "zpr:p=3,r=99999999999"):
        code, out, err = run_cli(capsys, "ring", "info", spec)
        assert code == 2 and out == "" and "exceeds" in err, spec


def test_import_loads_no_pool_and_no_openssl(tmp_path):
    # a serial sweep needs neither; hashlib alone loads OpenSSL (3.5 MB)
    code = (
        "import sys, numpy; base = set(sys.modules); import fvrlab.cli; "
        "print(sorted({'concurrent.futures', 'multiprocessing', 'hashlib'} & (set(sys.modules) - base)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=child_env(),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_check_full_grid_incidences(capsys):
    code, out, _ = run_cli(
        capsys, "check", "T2_2", "--ring", "zpr:p=3,r=1", "--points", "all", "--planes", "all"
    )
    assert code == 0
    lines = out.strip().split("\n")
    report = json.loads(lines[0])
    assert report["sets"]["incidences"] == "243"
    assert report["verdict"] == "pass"
    summary = json.loads(lines[-1])["summary"]
    assert summary["verdicts"]["pass"] == 1


def test_check_writes_identical_files(tmp_path, capsys):
    argv = [
        "check", "T1_5", "--ring", "zpr:p=3,r=2",
        "--mode", "random:6:10", "--seed", "42",
    ]
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run_cli(capsys, *argv, "--out", str(a))[0] == 0
    assert run_cli(capsys, *argv, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    assert len(a.read_text().strip().split("\n")) == 10


def test_check_csv_output(tmp_path, capsys):
    out_path = tmp_path / "r.csv"
    code, out, _ = run_cli(
        capsys, "check", "T1_6", "--ring", "zpr:p=3,r=2",
        "--mode", "random:5:4", "--seed", "1",
        "--out", str(out_path), "--format", "csv",
    )
    assert code == 0
    header = out_path.read_text().split("\n")[0]
    assert header.startswith("theorem,ring,verdict,lhs,rhs,ratio,seed")
    # stdout carries only the summary when reports go to a file
    assert out.count("\n") == 1 and out.startswith('{"summary"')


def test_check_csv_needs_out(tmp_path, monkeypatch, capsys):
    # refused before any report is built
    def no_sweep(config):
        raise AssertionError("the sweep ran before csv without --out was refused")

    monkeypatch.setattr(cli, "run_experiment", no_sweep)
    code, out, err = run_cli(
        capsys, "check", "T1_6", "--ring", "zpr:p=3,r=2",
        "--mode", "random:5:4", "--format", "csv",
    )
    assert code == 2 and out == "" and "csv format needs --out" in err

    cfg = tmp_path / "t16.cfg"
    cfg.write_text("theorem = T1_6\nring = zpr:p=3,r=2\nmode = random:5:4\nformat = csv\n")
    code, out, err = run_cli(capsys, "sweep", str(cfg))
    assert code == 2 and out == "" and "csv format needs --out" in err

    # the family files are not read either
    code, out, err = run_cli(
        capsys, "incidence", "--ring", "zpr:p=3,r=2", "--format", "csv",
        "--points-file", str(tmp_path / "none.txt"), "--planes-file", str(tmp_path / "none.txt"),
    )
    assert code == 2 and out == "" and "csv format needs --out" in err


def test_flags_parse_like_config_values(capsys):
    base = ["check", "T1_9", "--ring", "zpr:p=3,r=2", "--mode", "random:4:2"]
    code, out, err = run_cli(capsys, *base, "--d", "0")
    assert code == 2 and out == "" and "d must be a positive integer" in err
    code, out, err = run_cli(capsys, *base, "--seed", "x")
    assert code == 2 and out == "" and err.startswith("error:")
    code, out, _ = run_cli(capsys, *base)
    summary = json.loads(out.strip().split("\n")[-1])["summary"]
    assert summary["seed"] == 0 and summary["inputs"] == 2


def test_random_family_counts_come_from_the_mode(tmp_path, monkeypatch, capsys):
    # points/planes beside a random mode were once silently preferred to its sizes
    def no_input(*args):
        raise AssertionError("an input ran before points/planes were refused")

    monkeypatch.setattr(experiments, "_run_input", no_input)
    code, out, err = run_cli(
        capsys, "check", "T2_2", "--ring", "zpr:p=3,r=2",
        "--points", "5", "--planes", "4", "--mode", "random:1,1:2",
    )
    assert code == 2 and out == "" and "points/planes" in err
    cfg = tmp_path / "t22.cfg"
    cfg.write_text("theorem = T2_2\nring = zpr:p=3,r=2\nmode = random:1,1:2\nplanes = 4\n")
    code, out, err = run_cli(capsys, "sweep", str(cfg))
    assert code == 2 and out == "" and "points/planes" in err


def test_unread_keys_are_refused(tmp_path, monkeypatch, capsys):
    # keys the theorem or mode does not read were once silently dropped
    def no_input(*args):
        raise AssertionError("an input ran before an unread key was refused")

    monkeypatch.setattr(experiments, "_run_input", no_input)
    t15 = ["check", "T1_5", "--ring", "zpr:p=3,r=2"]
    cases = [
        ([*t15, "--A", "1,2", "--points", "5"], "T1_5 does not read 'points'"),
        ([*t15, "--A", "1,2", "--d", "3"], "T1_5 does not read 'd'"),
        ([*t15, "--A", "1,2", "--d", "1"], "T1_5 does not read 'd'"),  # the default, given
        ([*t15, "--mode", "exhaustive:1", "--planes", "3"], "T1_5 does not read 'planes'"),
        ([*t15, "--A", "1,2", "--B", "3"], "T1_5 does not read 'B'"),
        (
            ["check", "T2_2", "--ring", "zpr:p=3,r=2", "--mode", "random:2,2:1", "--A", "1,2"],
            "T2_2 does not read 'A'",
        ),
        ([*t15, "--mode", "random:2:1", "--A", "1,2"], "a mode draws its own sets"),
        (["geometry", "--ring", "zpr:p=3,r=2", "--mode", "random:2:1", "--A", "1,2"],
         "a mode draws its own sets"),
    ]
    for argv, message in cases:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and message in err, argv

    cfg = tmp_path / "t15.cfg"
    cfg.write_text("theorem = T1_5\nring = zpr:p=3,r=2\nA = 1,2\nmax_weight = 4\n")
    code, out, err = run_cli(capsys, "sweep", str(cfg))
    assert code == 2 and out == "" and "T1_5 does not read 'max_weight'" in err
    cfg.write_text(
        "theorem = T1_3\nring = zpr:p=3,r=2\nmode = random:2,2,2:1\n"
        "f = a=1;R=0,0,0;S=0,0,0;T=0,1,0\nC = 1\n"
    )
    code, out, err = run_cli(capsys, "sweep", str(cfg))
    assert code == 2 and out == "" and "a mode draws its own sets" in err


def test_uniform_weights_do_not_read_max_weight(monkeypatch, capsys):
    # points = planes = all weighs every triple 1, so --max-weight was once dropped
    base = ["check", "T2_4", "--ring", "zpr:p=3,r=1", "--points", "all", "--planes", "all"]
    with monkeypatch.context() as patch:
        def no_input(*args):
            raise AssertionError("an input ran before max_weight was refused")

        patch.setattr(experiments, "_run_input", no_input)
        for weight in ("3", "4"):
            code, out, err = run_cli(capsys, *base, "--max-weight", weight)
            assert code == 2 and out == "" and "T2_4 does not read 'max_weight'" in err
    code, out, _ = run_cli(capsys, *base)
    assert code == 0 and json.loads(out.splitlines()[0])["theorem"] == "T2_4"
    code, out, _ = run_cli(
        capsys, "check", "T2_4", "--ring", "zpr:p=3,r=1", "--points", "4", "--planes", "4",
        "--max-weight", "3",
    )
    assert code == 0 and json.loads(out.splitlines()[0])["theorem"] == "T2_4"


def test_all_points_past_the_budget_are_refused_up_front(monkeypatch, capsys):
    # points = all once allocated all order**3 triples, about 387M on Z_729
    def no_family(*args):
        raise AssertionError("a family was built before its size was refused")

    monkeypatch.setattr(experiments, "_family", no_family)
    for argv in (
        ["check", "T2_2", "--ring", "zpr:p=3,r=6", "--points", "all", "--planes", "all"],
        ["check", "T2_4", "--ring", "zpr:p=3,r=5", "--points", "all", "--planes", "5"],
        ["check", "T2_2", "--ring", "zpr:p=3,r=5", "--points", "5", "--planes", "all"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and "(budget 10000000)" in err, argv
    # 125**3 triples fit the budget
    ring_spec = "zpr:p=5,r=3"
    config = experiments.ExperimentConfig(
        theorem="T2_2", ring_spec=ring_spec, points="all", planes="all"
    )
    assert experiments.input_count(config, parse_ring_spec(ring_spec)) == 1


def test_t71_grid_pairs_past_the_budget_are_refused_up_front(monkeypatch, capsys):
    # the orbit pass keys m(m - 1)/2 pairs of m = |A|**2 grid points at once;
    # the weak count and the orbit pass both start from _grid
    def no_grid(*args):
        raise AssertionError("a grid was built before its size was refused")

    monkeypatch.setattr(geometry, "_grid", no_grid)
    big = ",".join(str(a) for a in range(67))
    for argv in (
        ["geometry", "--ring", "zpr:p=3,r=4", "--mode", "random:67:1"],
        ["check", "T7_1", "--ring", "zpr:p=3,r=4", "--mode", "random:80:3"],
        ["geometry", "--ring", "zpr:p=3,r=4", "--A", big],
        ["check", "T7_1", "--ring", "zpr:p=3,r=4", "--A", "all"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and "grid pairs (budget 10000000)" in err, argv
    # 66**2 grid points make 9,485,190 pairs, inside the budget
    ring_spec = "zpr:p=3,r=4"
    random_66 = experiments.ExperimentConfig(
        theorem="T7_1", ring_spec=ring_spec, mode=experiments.parse_mode("random:66:2")
    )
    literal_66 = experiments.ExperimentConfig(
        theorem="T7_1", ring_spec=ring_spec, literals={"A": big.rsplit(",", 1)[0]}
    )
    assert experiments.input_count(random_66, parse_ring_spec(ring_spec)) == 2
    assert experiments.input_count(literal_66, parse_ring_spec(ring_spec)) == 1


def test_seed_must_fit_64_bits(capsys):
    base = ["check", "T1_5", "--ring", "zpr:p=3,r=2", "--mode", "random:6:2"]
    for seed in ("18446744073709551617", "-5"):  # once aliased seeds 1 and 2**64 - 5
        code, out, err = run_cli(capsys, *base, "--seed", seed)
        assert code == 2 and out == "" and "outside [0, 2**64)" in err
    code, out, _ = run_cli(capsys, *base, "--seed", "18446744073709551615")
    summary = json.loads(out.strip().split("\n")[-1])["summary"]
    assert code == 0 and summary["seed"] == 2**64 - 1 and summary["inputs"] == 2


def test_random_sizes_past_the_domain_are_refused_up_front(monkeypatch, capsys):
    # these once failed inside the first draw, in a pool worker with FVRLAB_WORKERS
    def no_draw(*args):
        raise AssertionError("a draw or a pool started before the size was refused")

    for name in ("_run_input", "sample_subsets"):
        monkeypatch.setattr(experiments, name, no_draw)
    # run_experiment imports the pool class from here when a pool starts
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_draw)
    monkeypatch.setenv("FVRLAB_WORKERS", "2")
    cases = [
        (["check", "T1_5", "--ring", "zpr:p=3,r=2", "--mode", "random:10:2"],
         "subset size 10 out of range [1, 9]"),
        (["check", "T1_3", "--ring", "zpr:p=3,r=2", "--f", "a=1;R=0,0,0;S=0,0,0;T=0,1,0",
          "--mode", "random:3,10,3:5"], "subset size 10 out of range [1, 9]"),
        (["check", "T1_9", "--ring", "zpr:p=3,r=2", "--d", "2", "--mode", "random:7:2"],
         "unit subset size 7 out of range [1, 6]"),
        (["check", "T2_2", "--ring", "zpr:p=3,r=1", "--mode", "random:28,2:2"],
         "cannot draw 28 distinct values from 27"),
    ]
    for argv, message in cases:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and message in err, argv
    with pytest.raises(AssertionError, match="before the size"):  # sizes that fit do draw
        main(["check", "T1_9", "--ring", "zpr:p=3,r=2", "--d", "2", "--mode", "random:6:1"])


def test_check_family_exhaustive_rejected(capsys):
    code, _, err = run_cli(
        capsys, "check", "T2_2", "--ring", "zpr:p=3,r=1", "--mode", "exhaustive:2"
    )
    assert code == 2 and "random-mode only" in err


def test_exit_one_on_fail_verdict(capsys):
    rep = CheckReport(
        theorem="T1_5",
        ring="zpr:p=3,r=2",
        hypotheses=[BoundRow("gate_size", True, 6, 6)],
        lhs=1,
        rhs=2,
        ratio=None,
        verdict="fail",
    )
    summary = {"verdicts": {"fail": 1}}
    assert _emit([rep], summary, None, "jsonl") == 1
    out = capsys.readouterr().out
    assert '"verdict":"fail"' in out


def test_sweep_from_config(tmp_path, capsys):
    cfg = tmp_path / "t16.cfg"
    out_path = tmp_path / "t16.jsonl"
    cfg.write_text(
        "theorem = T1_6\n"
        "ring = zpr:p=3,r=2\n"
        "mode = exhaustive:1\n"
        f"out = {out_path}\n"
    )
    code, out, _ = run_cli(capsys, "sweep", str(cfg))
    assert code == 0
    assert len(out_path.read_text().strip().split("\n")) == 9
    summary = json.loads(out.strip())["summary"]
    assert summary["inputs"] == 9

    csv_path = tmp_path / "t16.csv"
    code, _, _ = run_cli(capsys, "sweep", str(cfg), "--out", str(csv_path), "--format", "csv")
    assert code == 0
    assert csv_path.read_text().startswith("theorem,ring,verdict")


def test_sweep_missing_file(capsys):
    code, _, err = run_cli(capsys, "sweep", "/nonexistent/sweep.cfg")
    assert code == 2 and err.startswith("error:")


def test_incidence_from_files(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    pls = tmp_path / "pls.txt"
    pts.write_text("0,0,0\n1,2,3\n")
    pls.write_text("1,1,1\n0,0,0\n")
    code, out, _ = run_cli(
        capsys, "incidence", "--ring", "zpr:p=3,r=2",
        "--points-file", str(pts), "--planes-file", str(pls),
    )
    assert code == 0
    report = json.loads(out.strip().split("\n")[0])
    assert report["theorem"] == "T2_2"

    weighted = tmp_path / "wpts.txt"
    weighted.write_text("0,0,0@2\n1,2,3\n")
    code, _, err = run_cli(
        capsys, "incidence", "--ring", "zpr:p=3,r=2",
        "--points-file", str(weighted), "--planes-file", str(pls),
    )
    assert code == 2 and "pass --weighted" in err

    code, out, _ = run_cli(
        capsys, "incidence", "--ring", "zpr:p=3,r=2",
        "--points-file", str(weighted), "--planes-file", str(pls), "--weighted",
    )
    assert code == 0
    report = json.loads(out.strip().split("\n")[0])
    assert report["theorem"] == "T2_4"


def test_incidence_report_is_a_block(tmp_path, capsys, monkeypatch):
    pts = tmp_path / "pts.txt"
    pts.write_text("0,0,0\n1,2,3\n")
    emitted = []

    def emit(reports, *args):
        emitted.append(reports)
        return _emit(reports, *args)

    monkeypatch.setattr(cli, "_emit", emit)
    for weighted in ((), ("--weighted",)):
        code, out, _ = run_cli(
            capsys, "incidence", "--ring", "zpr:p=3,r=2",
            "--points-file", str(pts), "--planes-file", str(pts), *weighted,
        )
        assert code == 0
        reports = emitted[-1]
        assert [type(part) for part in reports.parts] == [ReportBlock]
        assert out.splitlines()[0] == reports[0].to_json_line()
    assert [reports[0].theorem for reports in emitted] == ["T2_2", "T2_4"]


def test_geometry_single_set(capsys):
    code, out, _ = run_cli(capsys, "geometry", "--ring", "zpr:p=3,r=1", "--A", "0,1")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 3  # bound report, line report, summary
    geo = json.loads(lines[0])
    assert geo["sets"]["triples"] == "28"
    assert geo["sets"]["lines"] == "6"
    summary = json.loads(lines[-1])["summary"]
    assert summary["reports"] == 2


def test_geometry_random_mode(capsys):
    code, out, _ = run_cli(
        capsys, "geometry", "--ring", "zpr:p=3,r=2",
        "--mode", "random:3:5", "--seed", "4",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 11
    summary = json.loads(lines[-1])["summary"]
    assert summary["inputs"] == 5 and summary["reports"] == 10


def test_spec_units_match_ring(capsys):
    # the unit count printed by ring info is the group order, not a listing
    ring = parse_ring_spec("fqxr:p=3,s=1,r=2")
    code, out, _ = run_cli(capsys, "ring", "info", "fqxr:p=3,s=1,r=2")
    assert code == 0
    assert f"units: {len(ring.units())}\n" in out
