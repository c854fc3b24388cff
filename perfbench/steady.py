"""Steadiness self-check: per-layer counts must repeat exactly.

Usage (from the root of a checkout):

    python3 perfbench/steady.py [--seed N] [WORKLOAD ...]

Runs the traced benchmark twice per workload with the same seed and
compares every per-layer metric whose unit is ``count`` (calls, kept
subspaces, fields sampled, store hits and puts).  Store bytes are left out:
each record carries a wall-clock timestamp whose printed length varies.
Exits 1 if any count differs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("kron-certify", "hall-census", "cyclic-store")


def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("workloads", nargs="*", default=WORKLOADS)
    args = ap.parse_args(argv)
    status = 0
    for w in args.workloads:
        first, second = traced_counts(w, args.seed), traced_counts(w, args.seed)
        diffs = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
        print(f"{w} seed {args.seed}: {len(first)} counts, "
              + ("identical" if not diffs else f"differ: {diffs}"))
        status |= bool(diffs)
    return status


if __name__ == "__main__":
    sys.exit(main())
