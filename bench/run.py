"""fvrlab benchmark: CLI sweeps in fresh processes, plus a traced in-process run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all ...   # every workload, one table
    python3 bench/run.py --smoke              # tiny sizes, gate and tracer

Run it from the repository root; it imports the program from ``src/``.
The load is a closed loop: one client, one ``python -m fvrlab`` process at
a time, and that process starts at most ``FVRLAB_WORKERS=2`` workers.

``--trace 0`` measures the end-to-end metrics.  It runs rounds of (two
set-up runs on one smallest input, the serial sweep, the same sweep with
FVRLAB_WORKERS=2) until the next round would overrun ``--seconds``, and
reports medians.  ``--trace 1`` runs one such round for the process
counters, then alternates untraced and traced in-process calls of
``fvrlab.cli.main`` and reports the per-layer metrics of the first traced
call (see spans.py).  Every run passes the correctness gate in
workloads.py, and serial, two-worker, untraced and traced runs of one
sweep must write identical ``--out`` bytes.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  Details (machine, git sha, every run) go to the line
before it and to ``.bench_run/`` under the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.metadata
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_run")
CHILD_TIMEOUT_S = 150.0

sys.path.insert(0, HERE)
from spans import LAYERS, Tracer, layer_metrics, nesting_problems  # noqa: E402
from workloads import WORKLOADS, gate, load_digests, mode_inputs  # noqa: E402


def machine_info() -> dict:
    model = None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": sha,
    }


def child_env(workers: int | None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("FVRLAB_WORKERS", None)
    if workers is not None:
        env["FVRLAB_WORKERS"] = str(workers)
    return env


def run_child(argv: list[str], env: dict, tag: str) -> dict:
    """Run one child process to completion; wall time and rusage from wait4."""
    stdout_path = os.path.join(WORK, f"{tag}.stdout")
    stderr_path = os.path.join(WORK, f"{tag}.stderr")
    with open(stdout_path, "w") as out, open(stderr_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=out, stderr=err, env=env, cwd=ROOT, start_new_session=True
        )
        # kill the whole process group (pool workers too) if it hangs
        timer = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(stdout_path) as fh:
        stdout = fh.read()
    with open(stderr_path) as fh:
        stderr = fh.read()
    return {
        "returncode": proc.returncode,
        "wall_s": wall,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "invol_ctx_switches": usage.ru_nivcsw,
        "stdout": stdout,
        "stderr": stderr[-2000:],
    }


class Session:
    """The runs of one benchmark invocation on one workload and seed."""

    def __init__(self, workload, seed: int, mode: str, digests: dict):
        self.workload = workload
        self.seed = seed
        self.mode = mode
        self.digests = digests
        self.runs: list[dict] = []

    @property
    def failed(self) -> int:
        return sum(1 for r in self.runs if r["problems"])

    def out_path(self, kind: str) -> str:
        return os.path.join(WORK, f"{self.workload.name}.{kind}.jsonl")

    def _record(self, kind: str, mode: str, result: dict, out: str) -> dict:
        problems, digest = gate(
            self.workload, mode, self.seed, result["returncode"], result["stdout"], out,
            self.digests,
        )
        if problems and result.get("stderr"):
            problems.append("stderr: " + result["stderr"].strip().splitlines()[-1])
        with contextlib.suppress(FileNotFoundError):
            os.remove(out)
        rec = {k: v for k, v in result.items() if k not in ("stdout", "stderr")}
        rec.update(kind=kind, sha256=digest, problems=problems)
        self.runs.append(rec)
        return rec

    def cli(self, kind: str, workers: int | None = None) -> dict:
        """One fresh-process CLI run: kind is warmup, setup, serial or w2."""
        mode = self.workload.setup_mode if kind in ("setup", "warmup") else self.mode
        out = self.out_path(kind)
        argv = [sys.executable, "-m", "fvrlab", *self.workload.argv(mode, self.seed, out)]
        result = run_child(argv, child_env(workers), f"{self.workload.name}.{kind}")
        return self._record(kind, mode, result, out)

    def round(self, setups: int) -> dict:
        """setups set-up runs, the serial sweep and the two-worker sweep."""
        setup = [self.cli("setup")["wall_s"] for _ in range(setups)]
        serial = self.cli("serial")
        w2 = self.cli("w2", workers=2)
        if serial["sha256"] != w2["sha256"]:
            w2["problems"].append("two-worker --out bytes differ from the serial run")
        return {"setup": setup, "serial": serial, "w2": w2}

    def in_process(self, kind: str, tracer=None) -> tuple[dict, float]:
        """One call of fvrlab.cli.main in this process, caches cleared first."""
        for layer in LAYERS:
            for obj in vars(importlib.import_module(f"fvrlab.{layer}")).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()
        out = self.out_path(kind)
        argv = self.workload.argv(self.mode, self.seed, out)
        buf = io.StringIO()
        if tracer is not None:
            tracer.install()
        try:
            start = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                rc = importlib.import_module("fvrlab.cli").main(argv)
            wall = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        result = {"returncode": rc, "wall_s": wall, "stdout": buf.getvalue()}
        return self._record(kind, self.mode, result, out), wall


def measure_e2e(session: Session, seconds: float) -> dict:
    session.cli("warmup")  # compiles bytecode and fills the file cache; not timed
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(session.round(setups=2))
        elapsed = time.perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break
    wall = statistics.median(r["serial"]["wall_s"] for r in rounds)
    setup = statistics.median(s for r in rounds for s in r["setup"])
    inputs = mode_inputs(session.mode)
    return {
        "wall_s": wall,
        # smoke sizes can finish within the set-up time's noise
        "inputs_per_s": inputs / (wall - setup) if wall > setup else inputs / wall,
        "setup_s": setup,
        "peak_rss_mb": statistics.median(r["serial"]["peak_rss_mb"] for r in rounds),
        "w2_wall_s": statistics.median(r["w2"]["wall_s"] for r in rounds),
    }


def import_seconds() -> float:
    code = "import time; t = time.perf_counter(); import fvrlab.cli; print(time.perf_counter() - t)"
    times = []
    for i in range(3):
        result = run_child([sys.executable, "-c", code], child_env(None), f"import{i}")
        times.append(float(result["stdout"]))
    return statistics.median(times)


def measure_trace(session: Session, seconds: float) -> tuple[dict, dict]:
    start = time.perf_counter()
    session.cli("warmup")
    first = session.round(setups=2)
    serial = first["serial"]
    import_s = import_seconds()

    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    os.environ.pop("FVRLAB_WORKERS", None)
    fvrlab = importlib.import_module("fvrlab")
    if not os.path.abspath(fvrlab.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported fvrlab from {fvrlab.__file__}, not from {SRC}")

    # pairs of untraced and traced calls; at least two, so the counters of
    # two traced runs can be compared, and the first traced run is reported
    plain_walls, traced_walls, tracer = [], [], None
    loop_start = time.perf_counter()
    while True:
        plain, plain_wall = session.in_process("inproc")
        current = Tracer()
        traced, traced_wall = session.in_process("traced", current)
        plain_walls.append(plain_wall)
        traced_walls.append(traced_wall)
        for rec in (plain, traced):
            if rec["sha256"] != serial["sha256"]:
                rec["problems"].append("in-process --out bytes differ from the CLI run")
        traced["problems"].extend(nesting_problems(current))
        if tracer is None:
            tracer = current
        elif current.exact_counters() != tracer.exact_counters():
            traced["problems"].append("trace counters differ from the first traced run")
        now = time.perf_counter()
        per_pair = (now - loop_start) / len(plain_walls)
        if len(plain_walls) >= 2 and now + per_pair - start > seconds:
            break

    tracer.save(os.path.join(WORK, f"spans_{session.workload.name}.npz"))
    metrics = layer_metrics(tracer)
    metrics["experiments.w2_efficiency"] = serial["wall_s"] / (2.0 * first["w2"]["wall_s"])
    metrics["cli.import_s"] = import_s
    metrics["proc.cpu_s"] = serial["cpu_s"]
    metrics["proc.invol_ctx_switches"] = serial["invol_ctx_switches"]
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
    extra = {"functions": tracer.table(), "exact_counters": tracer.exact_counters()}
    return metrics, extra


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    workload = WORKLOADS[name]
    mode = workload.smoke_mode if smoke else workload.mode
    session = Session(workload, seed, mode, load_digests())
    extra = {}
    if trace:
        metrics, extra = measure_trace(session, seconds)
    else:
        metrics = measure_e2e(session, seconds)
    return {
        "workload": name,
        "mode": mode,
        "seed": seed,
        "trace": int(trace),
        "attempted": len(session.runs),
        "failed": session.failed,
        "metrics": metrics,
        "runs": session.runs,
        **extra,
    }


def bench_config() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def unit_of(config: dict, metric: str) -> str:
    for entry in config["end_to_end"] + config["per_layer"]:
        if entry["name"] == metric:
            return entry["unit"]
    raise KeyError(f"{metric} is not listed in BENCHMARK.json")


def result_line(results: list[dict], config: dict, prefix: bool) -> dict:
    metrics = {}
    for res in results:
        for key, value in res["metrics"].items():
            name = f"{res['workload']}.{key}" if prefix else key
            metrics[name] = {"value": value, "unit": unit_of(config, key)}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def print_table(results: list[dict], config: dict) -> None:
    for res in results:
        rate = res["failed"] / res["attempted"]
        print(f"{res['workload']} ({res['mode']}, seed {res['seed']}): error_rate {rate:g}")
        for key, value in res["metrics"].items():
            print(f"  {key:36s} {value:>16.6g} {unit_of(config, key)}")
        for run in res["runs"]:
            for problem in run["problems"]:
                print(f"  FAILED {run['kind']}: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, e2e and trace")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fvrlab", "cli.py")):
        print(f"error: no fvrlab sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    config = bench_config()
    seconds = config["run_seconds"] if args.seconds is None else args.seconds
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    results = []
    for name in names:
        if args.smoke:
            results.append(run_workload(name, args.seed, 0.0, False, True))
            results.append(run_workload(name, args.seed, 0.0, True, True))
        else:
            results.append(run_workload(name, args.seed, seconds, bool(args.trace), False))
    info = machine_info()
    stamp = time.strftime("%Y%m%dT%H%M%S")
    for res in results:
        res["machine"] = info
        path = os.path.join(WORK, f"result_{res['workload']}_s{res['seed']}_t{res['trace']}.json")
        with open(path, "w") as fh:
            json.dump({"time": stamp, **res}, fh, indent=1, default=float)
    print_table(results, config)
    runs = [dict(run, workload=res["workload"]) for res in results for run in res["runs"]]
    print(json.dumps({"machine": info, "runs": runs}, default=float))
    print(json.dumps(result_line(results, config, prefix=len(results) > 1), default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
