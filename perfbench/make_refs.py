"""Regenerate perfbench/refs.json, the outputs every benchmark run is checked against.

Usage (from the root of a checkout): python3 perfbench/make_refs.py

Run it only on a commit whose outputs are trusted; the references pin the
bundles' canonical-JSON sha256 digests and the text of every census Hall
polynomial.  It takes about a minute on one core.

The census inputs are every triple (L, M, N) with 0 < dim N < dim L whose
Hall number at q = 2 is non-zero, in concrete descriptors at q = 2.  One
triple fails interpolation at the commit the references were made from; it
is recorded as a known failure together with its true polynomial, so that
the run counts it as failed today and as correct once it is fixed.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from hallcanon import cli  # noqa: E402
from hallcanon.config import HallcanonError, JobConfig  # noqa: E402
from hallcanon.hallalg import HallEngine  # noqa: E402
from hallcanon.quiver import from_spec  # noqa: E402
from run import bundle_digest  # noqa: E402  (this directory is on sys.path)

BUNDLES = [("kronecker", "2,2"), ("cyclic:3", "2,2,1")]
CENSUSES = [("kronecker", (2, 3)), ("cyclic:2", (3, 3))]
# hallcanon hallpoly --quiver kronecker --L '{"cm":[[-2,1]]}' --M '{"cp":[[2,1]]}'
#   --N '{"cm":[[0,2]]}' exits 2 with InterpolationError; its Hall number is q^2.
KNOWN_FAILURES = {
    json.dumps([{"cm": [[-2, 1]]}, {"cp": [[2, 1]]}, {"cm": [[0, 2]]}]): "q^2",
}


def desc_json(desc):
    """The CLI's descriptor JSON for an internal descriptor."""
    if desc[0] == "m":
        return [[i, l, m] for (i, l), m in desc[1]]
    _, cm, _c0, cp, homog = desc
    out = {}
    if cm:
        out["cm"] = [list(p) for p in cm]
    if cp:
        out["cp"] = [list(p) for p in cp]
    if homog:
        out["homog"] = [
            ["inf" if pt == ("i",) else list(pt[1]), list(lam)] for pt, lam in homog
        ]
    return out


def census_triples(quiver: str, nu_l):
    ctx = HallEngine(from_spec(quiver), JobConfig(cache_dir=None)).polyeng.ctx(2)
    triples = set()
    for nu_n in itertools.product(*(range(d + 1) for d in nu_l)):
        if nu_n == tuple(nu_l) or not any(nu_n):
            continue
        by_l, _ = ctx.hall_table(nu_l, nu_n)
        for d_l, counts in by_l.items():
            triples.update((d_l, d_m, d_n) for d_m, d_n in counts)
    return sorted(triples)


def census_refs(quiver: str, nu_l):
    engine = HallEngine(from_spec(quiver), JobConfig(cache_dir=None))
    out = []
    for triple in census_triples(quiver, nu_l):
        cli_form = [desc_json(d) for d in triple]
        parsed = tuple(cli._parse_desc(engine, d) for d in cli_form)
        if parsed != triple:
            raise SystemExit(f"descriptor JSON does not round-trip: {triple}")
        key = json.dumps(cli_form)
        try:
            expect = engine.polyeng.hall_polynomial(*triple).text()
        except HallcanonError as exc:
            if key not in KNOWN_FAILURES:
                raise
            expect = {"known_failure": type(exc).__name__, "true": KNOWN_FAILURES[key]}
        out.append(cli_form + [expect])
    return out


def main():
    refs = {"bundles": {}, "census": {}}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for quiver, dim in BUNDLES:
            path = os.path.join(tmp, "bundle.json")
            rc = cli.main(["canonical", "--quiver", quiver, "--dim", dim, "--out", path])
            with open(path) as fh:
                bundle = json.load(fh)
            if rc != 0 or not bundle["certificates"]["ok"]:
                raise SystemExit(f"{quiver} {dim}: certificates do not hold")
            refs["bundles"][f"{quiver} {dim}"] = bundle_digest(bundle)
    for quiver, nu_l in CENSUSES:
        name = f"{quiver} {','.join(map(str, nu_l))}"
        refs["census"][name] = census_refs(quiver, nu_l)
    # One census entry per line, so that a changed reference shows as one line.
    census = ",\n".join(
        f"{json.dumps(name)}: [\n" + ",\n".join(json.dumps(e, sort_keys=True) for e in entries) + "\n]"
        for name, entries in sorted(refs["census"].items())
    )
    with open(os.path.join(ROOT, "perfbench", "refs.json"), "w") as fh:
        fh.write(f'{{"bundles": {json.dumps(refs["bundles"], sort_keys=True)},\n')
        fh.write(f'"census": {{\n{census}\n}}}}\n')


if __name__ == "__main__":
    main()
