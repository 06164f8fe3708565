"""The four benchmark workloads and the correctness gate every run passes.

A workload is one fvrlab CLI sweep.  Its seed comes from the benchmark's
``--seed`` and reaches the program only as the CLI's ``--seed``; the
program generates the inputs from it.  Each workload has three sizes:

* ``mode``: the measured size,
* ``smoke_mode``: a tiny size for the smoke run and the benchmark's tests,
* ``setup_mode``: one smallest input, timed as the set-up cost (interpreter
  start, imports, argument parsing, ring construction, first-input tables).

Why each workload was chosen is written in BENCHMARK.json and README.md.

The gate checks a run's exit code, the summary's ``inputs`` and verdict
counts, the ``--out`` line count against the summary, and the sha256 of the
``--out`` bytes against ``digests.json`` where a digest is frozen for that
(workload, mode, seed).  Identity between serial, two-worker and traced
bytes is checked by the caller, which sees all three.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")

# every workload sweep runs in random mode; seeds with frozen digests
FROZEN_SEEDS = tuple(range(100))


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]  # subcommand and fixed flags, without mode/seed/out
    mode: str
    smoke_mode: str
    setup_mode: str
    reports_per_input: int = 1

    def argv(self, mode: str, seed: int, out: str) -> list[str]:
        return [*self.args, "--mode", mode, "--seed", str(seed), "--out", out]


def mode_inputs(mode: str) -> int:
    """Input count of a random:SIZES:TRIALS mode."""
    return int(mode.rsplit(":", 1)[1])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "expander_sweep",
            ("check", "T1_3", "--ring", "zpr:p=3,r=2", "--f", "a=1;R=0,0,0;S=0,0,0;T=0,1,0"),
            mode="random:3,3,3:10000",
            smoke_mode="random:3,3,3:200",
            setup_mode="random:1,1,1:1",
        ),
        Workload(
            "incidence_fqxr",
            ("check", "T2_2", "--ring", "fqxr:p=3,s=2,r=2"),
            mode="random:450,450:10",
            smoke_mode="random:40,40:3",
            setup_mode="random:1,1:1",
        ),
        Workload(
            "geometry_zpr",
            ("geometry", "--ring", "zpr:p=3,r=4"),
            mode="random:6:40",
            smoke_mode="random:3:4",
            setup_mode="random:2:1",
            reports_per_input=2,
        ),
        Workload(
            "growth_fqxr",
            ("check", "T1_8", "--ring", "fqxr:p=3,s=3,r=2"),
            mode="random:250:20",
            smoke_mode="random:250:2",
            setup_mode="random:2:1",
        ),
    )
}


def load_digests() -> dict:
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)


def frozen_digest(digests: dict, workload: str, mode: str, seed: int) -> str | None:
    return digests.get(workload, {}).get(mode, {}).get(str(seed))


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def summary_of(stdout: str) -> dict | None:
    """The summary object from the CLI's last stdout line, or None."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        obj = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return obj.get("summary") if isinstance(obj, dict) else None


def gate(
    workload: Workload,
    mode: str,
    seed: int,
    returncode: int,
    stdout: str,
    out_path: str,
    digests: dict,
) -> tuple[list[str], str | None]:
    """Check one CLI run; returns (problems, sha256 of the --out bytes)."""
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    inputs = mode_inputs(mode)
    reports = inputs * workload.reports_per_input
    summary = summary_of(stdout)
    if summary is None:
        problems.append("no summary line on stdout")
    else:
        if summary.get("inputs") != inputs:
            problems.append(f"summary inputs {summary.get('inputs')} != {inputs}")
        if summary.get("reports") != reports:
            problems.append(f"summary reports {summary.get('reports')} != {reports}")
        verdicts = summary.get("verdicts") or {}
        if sum(verdicts.values()) != reports:
            problems.append(f"verdict counts {verdicts} do not sum to {reports}")
        if verdicts.get("fail", 0):
            problems.append(f"{verdicts['fail']} fail verdicts")
    if not os.path.exists(out_path):
        problems.append("no --out file")
        return problems, None
    digest = sha256_file(out_path)
    with open(out_path, "rb") as fh:
        lines = fh.read().count(b"\n")
    if lines != reports:
        problems.append(f"--out has {lines} lines, expected {reports}")
    expected = frozen_digest(digests, workload.name, mode, seed)
    if expected is not None and digest != expected:
        problems.append(f"--out sha256 {digest[:16]} != frozen {expected[:16]}")
    return problems, digest
