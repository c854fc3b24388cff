#!/usr/bin/env python3
"""Print the digest of the canonical bundle of each quick Baseline row.

One line per row, ``quiver dim digest ok``: the first 8 hex digits of the
sha256 of the bundle that ``hallcanon canonical`` writes, as canonical JSON
(sorted keys, no spaces), and ``ok`` when its certificates hold (``FAILED``
otherwise).  No store is read or written.  Two trees give the same bytes
when their outputs are the same:

    python3 scripts/bundle_digests.py > after.txt
"""

import hashlib
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from hallcanon.cli import main

# The rows of ROADMAP.md's Baseline table that certify in seconds.
ROWS = [
    ("kronecker", "3,2"),
    ("kronecker", "3,3"),
    ("kronecker", "4,3"),
    ("an:3:><", "2,2,2"),
    ("an:4", "2,2,2,2"),
    ("cyclic:3", "2,2,1"),
    ("cyclic:3", "2,2,2"),
    ("cyclic:2", "4,3"),
    ("cyclic:2", "4,4"),
    ("cyclic:4", "2,2,2,2"),
]


def digest_line(quiver: str, dim: str, out: str) -> str:
    if main(["canonical", "--quiver", quiver, "--dim", dim, "--out", out]) != 0:
        return f"{quiver} {dim} - FAILED"
    with open(out) as f:
        bundle = json.load(f)
    text = json.dumps(bundle, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(text.encode()).hexdigest()
    status = "ok" if bundle["certificates"]["ok"] else "FAILED"
    return f"{quiver} {dim} {digest[:8]} {status}"


if __name__ == "__main__":
    os.environ.pop("HALLCANON_CACHE", None)
    with tempfile.TemporaryDirectory() as tmp:
        for quiver, dim in ROWS:
            print(digest_line(quiver, dim, os.path.join(tmp, "bundle.json")), flush=True)
