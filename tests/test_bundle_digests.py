"""Bundles are pinned byte for byte.

Each digest is the sha256 of the bundle's canonical JSON (sorted keys, no
spaces), as ``perfbench`` computes it.  A refactor that changes any byte of a
bundle fails here; the kronecker (2,2) and cyclic:3 (2,2,1) digests equal the
ones in ``perfbench/refs.json``.
"""

import hashlib
import json

import pytest

from hallcanon.canonical import CanonicalSolver, _bundle_gram, _bundle_rows, verify_bundle
from hallcanon.cli import main
from hallcanon.hallalg import HallEngine
from hallcanon.pbw import IndexSystem
from hallcanon.quiver import from_spec
from oracles import gram_C_almost_orthonormal

DIGESTS = [
    ("kronecker", "2,2", "fddc17462063246f33a9a01f03788ba1e04037c3719e394480661ed98a6afe05"),
    ("kronecker", "2,1", "ef9a907a8b8d223c5a242e94b098c52f0b2f1657b83f76a951794dbd29d05dad"),
    ("kronecker", "1,2", "2014ad828cec1dee9546ac9ebea0ce95d70b4217ab0c7940cbbcb21376f9f8e8"),
    ("cyclic:3", "2,2,1", "04e8f4832f50385a4a554c354a27aa5725df3fd290ff810825491651286e3e3b"),
    ("cyclic:3", "1,3,2", "e65a4b3bc980029eed785ce496ff924655162bbf501677ec127c9c0000da2407"),
    ("cyclic:2", "3,3", "aa2e655172142f5ac576a01c59edbe53b181d34989d1c6e535f3cb035b5c0fcd"),
    ("an:3:><", "2,2,2", "5f21e6a59a484b78e21d8215610ab55621724a6d3005e0c71f36ad1eb5d9c79c"),
    ("an:2", "2,2", "5e9e54ab262e0a96fed56cce3b5afaad54a5d08f38e3281822e7caae9407d24c"),
    ("jordan", "3", "42c68fc5163dedc4abf73ebb27e56c13d3f3a2c1b5d3204521c875ef07d62caf"),
]


@pytest.mark.parametrize("quiver, dim, digest", DIGESTS, ids=[f"{q} {d}" for q, d, _ in DIGESTS])
def test_bundle_digest(quiver, dim, digest, tmp_path, monkeypatch):
    monkeypatch.delenv("HALLCANON_CACHE", raising=False)
    out = tmp_path / "bundle.json"
    assert main(["canonical", "--quiver", quiver, "--dim", dim, "--out", str(out)]) == 0
    bundle = json.loads(out.read_text())
    text = json.dumps(bundle, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "quiver, dim", [(q, d) for q, d, _ in DIGESTS], ids=[f"{q} {d}" for q, d, _ in DIGESTS]
)
def test_digest_bundle_passes_every_check(quiver, dim):
    # pbw_shape and positive hold, and almost orthogonality decided on gram_E
    # agrees with the oracle that sums each (C_i, C_j).
    solver = CanonicalSolver(IndexSystem(HallEngine(from_spec(quiver))))
    bundle = json.loads(json.dumps(solver.bundle(tuple(map(int, dim.split(","))))))
    report = verify_bundle(bundle)
    assert report["ok"] and report["pbw_shape"] and report["positive"]
    n = len(bundle["indices"])
    oracle = gram_C_almost_orthonormal(_bundle_rows(bundle, "g", n), _bundle_gram(bundle, n))
    assert report["almost_orthogonal"] is oracle is True
