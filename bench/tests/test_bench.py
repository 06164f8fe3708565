"""Tests of the benchmark itself, on the smoke sizes.

    PYTHONPATH=src python3 -m pytest bench/tests -q
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, gate, load_digests  # noqa: E402


@pytest.fixture(scope="module")
def config():
    return run.bench_config()


@pytest.fixture(scope="module")
def smoke_results():
    """The e2e and traced smoke runs of one workload."""
    os.makedirs(run.WORK, exist_ok=True)
    return {
        trace: run.run_workload("geometry_zpr", 0, 0.0, trace, smoke=True)
        for trace in (False, True)
    }


def test_metric_names_match_benchmark_json(config, smoke_results):
    e2e = {m["name"] for m in config["end_to_end"]}
    per_layer = {m["name"] for m in config["per_layer"]}
    assert set(smoke_results[False]["metrics"]) == e2e
    assert set(smoke_results[True]["metrics"]) == per_layer
    for layer in spans.LAYERS:
        assert any(name.startswith(layer + ".") for name in per_layer), layer


def test_smoke_runs_pass_the_gate(smoke_results):
    for res in smoke_results.values():
        assert res["failed"] == 0, [r["problems"] for r in res["runs"]]
    kinds = [r["kind"] for r in smoke_results[True]["runs"]]
    # two traced runs, so the counter comparison ran
    assert kinds.count("traced") >= 2 and kinds.count("inproc") >= 2


def test_traced_counters_are_exact(smoke_results):
    counters = smoke_results[True]["exact_counters"]
    assert counters["experiments._run_input.calls"] == 4
    assert counters["geometry._spanned_orbits.calls"] == 8
    assert counters["checks.verdict.pass"] == 4
    assert counters["report.records"] == 8


def test_self_times_never_exceed_the_enclosing_span(smoke_results):
    for name, row in smoke_results[True]["functions"].items():
        assert -1e-9 <= row["self_s"] <= row["total_s"] + 1e-9, name


def test_nesting_check_catches_an_overlong_child():
    tracer = spans.Tracer()
    outer = tracer.wrap(lambda: inner(), "x.outer")
    inner = tracer.wrap(lambda: None, "x.inner")
    outer()
    assert spans.nesting_problems(tracer) == []
    tracer.span_end[1] = tracer.span_end[0] + 1.0  # child outlives its parent
    assert spans.nesting_problems(tracer)


def test_gate_catches_a_corrupted_output(tmp_path):
    workload = WORKLOADS["expander_sweep"]
    digests = load_digests()
    out = tmp_path / "out.jsonl"
    argv = [sys.executable, "-m", "fvrlab", *workload.argv(workload.smoke_mode, 0, str(out))]
    result = run.run_child(argv, run.child_env(None), "test")
    args = (workload, workload.smoke_mode, 0, result["returncode"], result["stdout"], str(out))
    problems, digest = gate(*args, digests)
    assert problems == []
    assert digests[workload.name][workload.smoke_mode]["0"] == digest

    data = bytearray(out.read_bytes())
    data[10] ^= 1
    out.write_bytes(bytes(data))
    problems, _ = gate(*args, digests)
    assert any("frozen" in p for p in problems)

    out.write_bytes(bytes(data[: data.rindex(b"\n", 0, len(data) - 1) + 1]))
    problems, _ = gate(*args, digests)
    assert any("lines" in p for p in problems)

    bad_summary = result["stdout"].replace('"inputs":200', '"inputs":199')
    problems, _ = gate(workload, workload.smoke_mode, 0, 1, bad_summary, str(out), {})
    assert any("exit code" in p for p in problems)
    assert any("summary inputs" in p for p in problems)


def test_round_catches_two_worker_bytes_that_differ(monkeypatch):
    """At a seed without a frozen digest, serial/parallel identity is the check."""
    real = run.run_child

    def corrupting(argv, env, tag):
        result = real(argv, env, tag)
        if env.get("FVRLAB_WORKERS") == "2":
            out = Path(argv[argv.index("--out") + 1])
            out.write_bytes(out.read_bytes() + b"\n")
        return result

    monkeypatch.setattr(run, "run_child", corrupting)
    workload = WORKLOADS["expander_sweep"]
    session = run.Session(workload, 12345, workload.smoke_mode, load_digests())
    rounds = session.round(setups=1)
    assert rounds["serial"]["problems"] == []
    assert rounds["w2"]["problems"]
    assert session.failed == 1


def test_tail_percentile():
    assert spans.tail_percentile(range(20000))[0] == 99.9
    assert spans.tail_percentile(range(60)) == (75.0, 44)
    assert spans.tail_percentile(range(10)) == (100.0, 9)


def test_stripped_directory_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "expander_sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
