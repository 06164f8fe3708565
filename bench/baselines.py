"""Re-measure the hand-measured baselines listed in ROADMAP.md, once each.

    python3 bench/baselines.py

These commands are not benchmark workloads; they exist so the first
benchmark numbers can be set beside the earlier hand measurements (see
bench/README.md).  Each prints wall time, peak RSS and --out size.
"""

from __future__ import annotations

import os
import sys

import run

T13 = ["check", "T1_3", "--ring", "zpr:p=3,r=2", "--f", "a=1;R=0,0,0;S=0,0,0;T=0,1,0"]
COMMANDS = (
    ("T1_3 exhaustive:2, serial", T13 + ["--mode", "exhaustive:2"], None),
    ("T1_3 exhaustive:2, FVRLAB_WORKERS=2", T13 + ["--mode", "exhaustive:2"], 2),
    ("geometry fqxr:p=3,s=2,r=2 random:6:100",
     ["geometry", "--ring", "fqxr:p=3,s=2,r=2", "--mode", "random:6:100"], None),
    ("geometry zpr:p=3,r=4 random:6:100",
     ["geometry", "--ring", "zpr:p=3,r=4", "--mode", "random:6:100"], None),
    ("CLI start-up (ring info)", ["ring", "info", "zpr:p=3,r=2"], None),
)


def main() -> int:
    os.makedirs(run.WORK, exist_ok=True)
    out = os.path.join(run.WORK, "baseline.jsonl")
    for label, args, workers in COMMANDS:
        argv = [sys.executable, "-m", "fvrlab", *args]
        if args[0] != "ring":
            argv += ["--out", out]
        result = run.run_child(argv, run.child_env(workers), "baseline")
        size = os.path.getsize(out) / 1e6 if os.path.exists(out) else 0.0
        print(
            f"{label:42s} wall {result['wall_s']:6.2f} s  rss {result['peak_rss_mb']:6.1f} MB"
            f"  out {size:5.1f} MB  exit {result['returncode']}"
        )
        if os.path.exists(out):
            os.remove(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
