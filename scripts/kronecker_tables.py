#!/usr/bin/env python3
"""Print canonical-basis tables for the Kronecker quiver.

Example:
    python3 scripts/kronecker_tables.py --max 2 --cache-dir /tmp/hallstore
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from hallcanon.canonical import CanonicalSolver
from hallcanon.config import JobConfig
from hallcanon.hallalg import HallEngine
from hallcanon.pbw import IndexSystem
from hallcanon.quiver import kronecker


def describe(idx):
    frame, lam = idx
    _, cm, _, cp, _ = frame
    bits = []
    if cm:
        bits.append("P(" + ",".join(f"{t}^{m}" for t, m in cm) + ")")
    if lam:
        bits.append(f"S_{list(lam)}")
    if cp:
        bits.append("I(" + ",".join(f"{t}^{m}" for t, m in cp) + ")")
    return " ".join(bits) or "1"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--max", type=int, default=2, help="largest coordinate of nu")
    ap.add_argument("--cache-dir", default=os.environ.get("HALLCANON_CACHE"))
    args = ap.parse_args()
    cfg = JobConfig(cache_dir=args.cache_dir)
    solver = CanonicalSolver(IndexSystem(HallEngine(kronecker(), cfg)))
    for a in range(args.max + 1):
        for b in range(args.max + 1):
            if a + b == 0:
                continue
            nu = (a, b)
            data = solver.solve(nu)
            report = solver.verify(nu, data)
            print(f"== nu = {nu}   ({len(data.pbw.order)} elements, ok={report['ok']})")
            for idx in data.pbw.order:
                row = data.C_over_mon[idx]
                terms = " + ".join(
                    f"({c.text()}) m[{describe(b2)}]"
                    for b2, c in sorted(row.items(), key=lambda kv: str(kv[0]))
                )
                print(f"  C[{describe(idx)}] = {terms}")


if __name__ == "__main__":
    main()
