"""Freeze the sha256 of each workload's --out bytes into digests.json.

    python3 bench/freeze_digests.py

Runs the serial CLI for every workload at its measured and smoke sizes and
every seed in FROZEN_SEEDS, and adds the digests that digests.json lacks.
A digest already frozen is never rewritten: the gate compares against it,
and fvrlab's output bytes are a function of the config alone.
"""

from __future__ import annotations

import json
import os
import sys

import run
from workloads import DIGESTS_PATH, FROZEN_SEEDS, WORKLOADS, load_digests, sha256_file


def main() -> int:
    digests = load_digests() if os.path.exists(DIGESTS_PATH) else {}
    os.makedirs(run.WORK, exist_ok=True)
    out = os.path.join(run.WORK, "freeze.jsonl")
    for workload in WORKLOADS.values():
        for mode in (workload.mode, workload.smoke_mode):
            table = digests.setdefault(workload.name, {}).setdefault(mode, {})
            for seed in FROZEN_SEEDS:
                if str(seed) in table:
                    continue
                argv = [sys.executable, "-m", "fvrlab", *workload.argv(mode, seed, out)]
                result = run.run_child(argv, run.child_env(None), "freeze")
                if result["returncode"] != 0:
                    print(f"{workload.name} {mode} seed {seed}: exit {result['returncode']}")
                    return 1
                table[str(seed)] = sha256_file(out)
                print(f"{workload.name} {mode} seed {seed}: {table[str(seed)][:16]}")
    os.remove(out)
    with open(DIGESTS_PATH, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
