"""Command line driver: canonical bases, Hall polynomials, verification, cache.

Exit codes: 0 on success (for ``canonical``/``verify``: certificates hold),
1 when certificates fail, 2 on errors (budget, validation, bad input, an
internal check that breaks), in which case a machine-readable error object
is printed.  Usage errors (a missing or malformed option, an unknown
command) are such errors; ``--help`` prints usage and exits 0.

Each command imports the layers it runs, so ``verify`` loads only
``canonical``, ``config`` and ``laurent``, a ``canonical`` run served a
stored bundle (see ``_bundle``) loads only those, ``quiver`` and ``store``,
a cyclic ``canonical`` loads no ``gf``, ``fqrep`` or ``hallpoly`` (its Hall
numbers are closed forms in ``combinatorics``), and ``hallpoly`` loads
neither ``canonical`` nor ``pbw``.
No command loads ``hashlib`` or OpenSSL: the store hashes with the
interpreter's built-in sha256 (see ``store``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING

from .config import BarSolveError, BundleFormatError, HallcanonError, JobConfig

if TYPE_CHECKING:
    from .hallalg import HallEngine
    from .quiver import Quiver


def _config_from_args(args) -> JobConfig:
    cache_dir = getattr(args, "cache_dir", None) or os.environ.get("HALLCANON_CACHE")
    kwargs = dict(cache_dir=cache_dir)
    if getattr(args, "primes", None) is not None:
        kwargs["primes"] = tuple(int(p) for p in args.primes.split(",")) if args.primes else ()
    if getattr(args, "budget_subspaces", None) is not None:
        kwargs["budget_subspaces"] = args.budget_subspaces
    return JobConfig(**kwargs)


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _emit(args, text: str):
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_desc(engine: HallEngine, data):
    """Descriptor JSON: a list of [i, l, mult] segments for cyclic quivers,
    else {"cm": [[t, m]...], "cp": [[t, m]...], "homog": [[point, [parts]]...]}
    with point either "inf" or a non-empty integer list.  Only the list's
    length (the point's degree) and its identity are read, so [0, 0] (x^2)
    answers as any point of degree 2 would.  cm needs t <= 0 with beta_t
    defined, cp needs t >= 1; multiplicities are >= 0 and parts positive.
    cp and homog are Kronecker only.  Anything else raises ValueError."""
    from .combinatorics import make_cdesc, mseg_normalize

    cyclic = engine.kind == "cyclic"
    if not isinstance(data, list if cyclic else dict):
        raise ValueError(
            f"{engine.quiver.name} descriptors are "
            + ("lists of [vertex, length, mult]" if cyclic else "objects")
        )
    if cyclic:
        n, segs = engine.quiver.n, []
        for seg in data:
            if not (isinstance(seg, list) and len(seg) == 3 and all(type(x) is int for x in seg)):
                raise ValueError(f"segment {seg!r} is not [vertex, length, mult] of integers")
            i, l, m = seg
            if not (1 <= i <= n and l >= 1 and m >= 0):
                raise ValueError(
                    f"segment [{i}, {l}, {m}] needs vertex in 1..{n}, "
                    "length >= 1 and multiplicity >= 0"
                )
            segs.append(((i, l), m))
        return ("m", mseg_normalize(segs))
    kron = engine.kind == "kronecker"
    unknown = set(data) - {"cm", "cp", "homog"}
    if unknown:
        raise ValueError(f"unknown descriptor keys {sorted(unknown)}")
    for key in ("cp", "homog"):
        if data.get(key) and not kron:
            raise ValueError(f"{key!r} entries are for the Kronecker quiver only")
    seq = engine.seq

    def entries(key, shape):
        items = data.get(key, [])
        if not isinstance(items, list) or not all(
            isinstance(x, list) and len(x) == 2 for x in items
        ):
            raise ValueError(f"{key!r} is not a list of {shape} pairs")
        return items

    def roots(key, side_ok, side):
        out = {}
        for t, m in entries(key, "[t, mult]"):
            if not (type(t) is int and type(m) is int and side_ok(t) and m >= 0):
                raise ValueError(
                    f"{key!r} entry [{t!r}, {m!r}] needs an integer t {side} "
                    "and an integer multiplicity >= 0"
                )
            if not kron:  # finite type: the beta chain ends
                try:
                    seq.beta(t)
                except IndexError:
                    raise ValueError(f"beta_{t} is not defined on {engine.quiver.name}") from None
            if t in out:
                raise ValueError(f"{key!r} repeats t = {t}")
            out[t] = m
        return tuple(out.items())

    cm = roots("cm", lambda t: t <= 0, "<= 0")
    cp = roots("cp", lambda t: t >= 1, ">= 1")
    homog = {}
    for pt, lam in entries("homog", "[point, partition]"):
        if pt == "inf":
            point = ("i",)
        elif isinstance(pt, list) and pt and all(type(c) is int for c in pt):
            point = ("f", tuple(pt))
        else:
            raise ValueError(f"point {pt!r} is neither \"inf\" nor a non-empty integer list")
        if not (isinstance(lam, list) and all(type(x) is int and x >= 1 for x in lam)):
            raise ValueError(f"partition {lam!r} is not a list of positive integers")
        if point in homog:
            raise ValueError(f"point {pt!r} repeats")
        homog[point] = tuple(sorted(lam, reverse=True))
    return make_cdesc(cm=cm, cp=cp, homog=tuple(homog.items()))


def _serves(bundle, quiver: Quiver, nu, primes) -> bool:
    """Whether a stored bundle may be printed for this run: it is the bundle
    of (quiver, nu) at this sample pool and it still certifies."""
    from .canonical import verify_bundle

    try:
        return bool(
            bundle["quiver"] == quiver.to_json()
            and bundle["dim"] == list(nu)
            and bundle["meta"]["primes"] == list(primes)
            and bundle["certificates"]["ok"] is True
            and verify_bundle(bundle)["ok"]
        )
    except (BarSolveError, BundleFormatError, KeyError, TypeError):
        return False


def _bundle(cfg: JobConfig, quiver: Quiver, nu) -> dict:
    """The certificate bundle of (quiver, nu), read from the store if it
    holds one that ``_serves``, else computed; a computed bundle that
    certifies is stored, over whatever record its key held.

    The store key is ("bundle", schema, dim, primes) under the quiver's
    directory.  The engine, the index system and the solver are imported and
    built only when the store has no bundle to serve.
    """
    from .canonical import BUNDLE_SCHEMA, CanonicalSolver

    store = key = None
    if cfg.cache_dir:
        from .store import CacheStore

        store = CacheStore(cfg.cache_dir)
        key = ("bundle", BUNDLE_SCHEMA, nu, cfg.primes)
        record = store.get(quiver.name, key)
        if record is not None and _serves(record.get("bundle"), quiver, nu, cfg.primes):
            return record["bundle"]
    from .hallalg import HallEngine
    from .pbw import IndexSystem

    bundle = CanonicalSolver(IndexSystem(HallEngine(quiver, cfg))).bundle(nu)
    if store is not None and bundle["certificates"]["ok"]:
        store.put(quiver.name, key, {"bundle": bundle})
    return bundle


def cmd_canonical(args) -> int:
    from .quiver import from_spec

    cfg = _config_from_args(args)
    quiver = from_spec(args.quiver)
    nu = tuple(int(x) for x in args.dim.split(","))
    bundle = _bundle(cfg, quiver, nu)
    if args.format == "latex":
        from .canonical import latex_table

        _emit(args, latex_table(bundle) + "\n")
    else:
        _emit(args, _dump(bundle))
    return 0 if bundle["certificates"]["ok"] else 1


def cmd_hallpoly(args) -> int:
    from .hallalg import HallEngine
    from .quiver import from_spec

    cfg = _config_from_args(args)
    quiver = from_spec(args.quiver)
    engine = HallEngine(quiver, cfg)
    polyeng = engine.polyeng
    L = _parse_desc(engine, json.loads(args.L))
    M = _parse_desc(engine, json.loads(args.M))
    N = _parse_desc(engine, json.loads(args.N))
    poly = polyeng.hall_polynomial(L, M, N)
    out = {
        "polynomial": poly.text(),
        "coeffs": list(poly.coeffs),
        "samples": [list(s) for s in poly.samples],
        "validations": [list(s) for s in poly.validations],
        "min_q": poly.min_q,
    }
    _emit(args, _dump(out))
    return 0


def cmd_verify(args) -> int:
    from .canonical import verify_bundle

    with open(args.bundle) as fh:
        bundle = json.load(fh)
    report = verify_bundle(bundle)
    _emit(args, _dump(report))
    return 0 if report["ok"] else 1


def cmd_cache(args) -> int:
    from .store import CacheStore

    cache_dir = args.cache_dir or os.environ.get("HALLCANON_CACHE")
    if not cache_dir:
        raise HallcanonError("no cache directory (use --cache-dir or HALLCANON_CACHE)")
    store = CacheStore(cache_dir)
    if args.action == "list":
        _emit(args, _dump({"entries": list(store.entries())}))
    elif args.action == "verify":
        report = store.verify()
        _emit(args, _dump({"records": [[p, ok] for p, ok in report]}))
        return 0 if all(ok for _, ok in report) else 1
    elif args.action == "gc":
        removed = store.gc()
        _emit(args, _dump({"removed": removed}))
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises on a usage error, so ``main`` reports it as a JSON error object.

    Subcommand parsers inherit the class, so their errors raise as well;
    ``--help`` still prints and exits 0.
    """

    def error(self, message):
        # Not ArgumentError: argparse catches that and calls error() again.
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="hallcanon",
        description="Exact canonical bases of Hall composition algebras",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--quiver", required=True, help="kronecker | jordan | cyclic:N | an:N[:orient]")
        p.add_argument("--primes", help="comma separated sample prime powers in 2..64")
        p.add_argument("--budget-subspaces", type=int, dest="budget_subspaces")
        p.add_argument("--cache-dir", dest="cache_dir")
        p.add_argument("--out", help="write output to a file instead of stdout")

    pc = sub.add_parser("canonical", help="compute and certify a canonical basis")
    common(pc)
    pc.add_argument("--dim", required=True, help="dimension vector, e.g. 1,1")
    pc.add_argument("--format", choices=("json", "latex"), default="json")
    pc.set_defaults(fn=cmd_canonical)

    ph = sub.add_parser("hallpoly", help="interpolate one Hall polynomial")
    common(ph)
    ph.add_argument("--L", required=True, help="descriptor JSON for the extension")
    ph.add_argument("--M", required=True, help="descriptor JSON for the quotient")
    ph.add_argument("--N", required=True, help="descriptor JSON for the submodule")
    ph.set_defaults(fn=cmd_hallpoly)

    pv = sub.add_parser("verify", help="re-check a certificate bundle")
    pv.add_argument("--bundle", required=True)
    pv.add_argument("--out")
    pv.set_defaults(fn=cmd_verify)

    pg = sub.add_parser("cache", help="manage the on-disk store")
    pg.add_argument("action", choices=("list", "gc", "verify"))
    pg.add_argument("--cache-dir", dest="cache_dir")
    pg.add_argument("--out")
    pg.set_defaults(fn=cmd_cache)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except HallcanonError as exc:
        sys.stdout.write(_dump({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return 2
    except (OSError, json.JSONDecodeError, ValueError, ArithmeticError) as exc:
        sys.stdout.write(_dump({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
