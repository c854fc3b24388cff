"""hallcanon benchmark: three workloads over the exact pipeline.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

NAME is ``kron-certify``, ``hall-census``, ``cyclic-store`` or ``all``.
Every leg of a workload runs in a fresh interpreter (perfbench/child.py),
because hallcanon keeps process-wide caches and a second leg in the same
process would not be cold.  Each run checks every output against
perfbench/refs.json.

``--trace 0`` repeats the workload while ``--seconds`` last (at least once)
and prints the end-to-end metrics of BENCHMARK.json: medians over passes,
and the median set-up time of several set-up-only processes.
``--trace 1`` runs one untraced and one traced pass and prints the
per-layer metrics of BENCHMARK.json, taken from the traced pass; its spans
are written to .perfbench/trace-NAME-seedN/.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
perfbench/README.md for the workloads and what each metric should show.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
CHILD = os.path.join(HERE, "child.py")

# A run must end within 180 s; no leg starts or runs past this.
DEADLINE_S = 170
LEG_CAP_S = 150  # one canonical, verify or census process
TRIPLE_CAP_S = 60  # one Hall polynomial inside a census process
SETUP_PROBES = 9
# Reported times are scaled to a host on which child.calibration_loop takes
# this long: t * REF_CALIB_S / (mean loop duration measured alongside t).
REF_CALIB_S = 0.0005
LAYERS = ("gf", "fqrep", "hallpoly", "hallalg", "pbw", "canonical", "laurent", "cli")


class RunAborted(Exception):
    """A set-up process failed, so nothing can be measured."""


def bundle_digest(bundle: dict) -> str:
    text = json.dumps(bundle, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Run:
    """One benchmark run: its scratch directory, deadline and tallies."""

    def __init__(self, refs, seed: int, spans_dir: str | None):
        os.makedirs(WORK, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="run-", dir=WORK)
        self.refs = refs
        self.seed = seed
        self.spans_dir = spans_dir
        # Traced runs compare an untraced with a traced pass; neither calibrates.
        self.calibrate = spans_dir is None
        self.tracing = False
        self.deadline = time.monotonic() + DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.maxrss_kb = 0
        self.traces: list[dict] = []
        self.calib = [0.0, 0]
        self.n = 0

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def child(self, spec: dict):
        """Run one leg in a fresh interpreter: (wall_s, result, error)."""
        self.n += 1
        tag = f"{self.n:03d}-{spec['leg']}"
        spec = dict(
            spec,
            root=ROOT,
            trace=self.tracing,
            calibrate=self.calibrate,
            out=os.path.join(self.tmp, tag + ".out"),
        )
        if self.tracing:
            spec["spans"] = os.path.join(self.spans_dir, tag + ".jsonl")
        spec_path = os.path.join(self.tmp, tag + ".spec")
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        timeout = min(LEG_CAP_S, self.deadline - time.monotonic())
        if timeout < 1:
            return 0.0, None, "not started: run deadline reached"
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, CHILD, spec_path],
                cwd=ROOT,
                stdin=subprocess.DEVNULL,
                capture_output=True,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return time.monotonic() - t0, None, f"killed after {timeout:.0f} s"
        wall = time.monotonic() - t0
        if proc.returncode != 0:
            tail = (proc.stderr or proc.stdout).strip().splitlines()[-1:]
            return wall, None, f"exit {proc.returncode}: {' '.join(tail)}"
        with open(spec["out"]) as fh:
            result = json.load(fh)
        result["t_spawn"] = t0
        self.maxrss_kb = max(self.maxrss_kb, result["maxrss_kb"])
        if "calib" in result:
            self.calib[0] += result["calib"][0]
            self.calib[1] += result["calib"][1]
        if "trace" in result:
            self.traces.append(result["trace"])
        return wall, result, None

    def op_failed(self, what: str, err: str, known: bool = False):
        self.failed += 1
        if not known:
            self.errors.append(f"{what}: {err}")

    def speed_scale(self) -> float:
        """REF_CALIB_S over the mean calibration time since the last call."""
        total, n = self.calib
        self.calib = [0.0, 0]
        return REF_CALIB_S * n / total if n else 1.0

    def setup_probe(self, quiver: str) -> float:
        """Time from spawn until hallcanon is imported and a HallEngine built."""
        _, result, err = self.child({"leg": "setup", "quiver": quiver})
        if err:
            raise RunAborted(f"set-up failed: {err}")
        return result["t_ready"] - result["t_spawn"]

    # -- operations ---------------------------------------------------------

    def canonical(self, quiver: str, dim: str, store: str | None = None):
        """``hallcanon canonical``; the bundle must certify and match its digest."""
        self.attempted += 1
        path = os.path.join(self.tmp, f"bundle-{self.n + 1:03d}.json")
        argv = ["canonical", "--quiver", quiver, "--dim", dim, "--out", path]
        if store:
            argv += ["--cache-dir", store]
        wall, result, err = self.child({"leg": "canonical", "argv": argv})
        if err is None and result["rc"] != 0:
            err = f"exit code {result['rc']}"
        if err is None:
            with open(path) as fh:
                bundle = json.load(fh)
            if not bundle["certificates"]["ok"]:
                err = "certificates do not hold"
            elif bundle_digest(bundle) != self.refs["bundles"][f"{quiver} {dim}"]:
                err = "bundle differs from its reference digest"
        if err:
            self.op_failed(f"canonical {quiver} {dim}", err)
            return wall, None
        return wall, path

    def verify(self, path: str | None):
        """``hallcanon verify`` on a bundle; its report must say ok."""
        self.attempted += 1
        if path is None:
            self.op_failed("verify", "no bundle to verify")
            return 0.0
        report = path + ".report"
        wall, result, err = self.child(
            {"leg": "verify", "argv": ["verify", "--bundle", path, "--out", report]}
        )
        if err is None and result["rc"] != 0:
            err = f"exit code {result['rc']}"
        if err is None:
            with open(report) as fh:
                if not json.load(fh)["ok"]:
                    err = "verify report is not ok"
        if err:
            self.op_failed("verify", err)
        return wall

    def census(self, name: str, quiver: str):
        """Every Hall polynomial of one census, in an order drawn from the seed."""
        refs = self.refs["census"][name]
        order = list(range(len(refs)))
        random.Random(f"{self.seed}:{name}").shuffle(order)
        spec = {
            "leg": "census",
            "quiver": quiver,
            "triples": [refs[i][:3] for i in order],
            "op_cap_s": TRIPLE_CAP_S,
        }
        self.attempted += len(order)
        wall, result, err = self.child(spec)
        if err:
            for _ in order:
                self.op_failed(f"census {name}", err)
            return wall, 0
        done = 0
        for i, out in zip(order, result["results"]):
            what = f"hallpoly {quiver} {json.dumps(refs[i][:3])}"
            expect = refs[i][3]
            if isinstance(expect, dict):  # a recorded known failure
                if out.get("error") == expect["known_failure"]:
                    self.op_failed(what, out["error"], known=True)
                    continue
                expect = expect["true"]
            if "error" in out:
                self.op_failed(what, out.get("detail", out["error"]).strip().splitlines()[-1])
            elif out["text"] != expect:
                self.op_failed(what, f"got {out['text']!r}, expected {expect!r}")
            else:
                done += 1
        return wall, done


# -- workloads: one pass each; every pass returns its timings -------------------


def kron_certify(run: Run) -> dict:
    t0 = time.monotonic()
    bundle_s, path = run.canonical("kronecker", "2,2")
    verify_s = run.verify(path)
    return {"wall_s": time.monotonic() - t0, "bundle_s": bundle_s, "verify_s": verify_s}


def hall_census(run: Run) -> dict:
    t0 = time.monotonic()
    walls, done = 0.0, 0
    for name, quiver in (("kronecker 2,3", "kronecker"), ("cyclic:2 3,3", "cyclic:2")):
        wall, n = run.census(name, quiver)
        walls += wall
        done += n
    return {"wall_s": time.monotonic() - t0, "hallpoly_per_s": done / walls if walls else 0.0}


def cyclic_store(run: Run) -> dict:
    t0 = time.monotonic()
    store = tempfile.mkdtemp(prefix="store-", dir=run.tmp)
    bundle_s, path = run.canonical("cyclic:3", "2,2,1", store)
    warm_bundle_s, _ = run.canonical("cyclic:3", "2,2,1", store)
    verify_s = run.verify(path)
    return {
        "wall_s": time.monotonic() - t0,
        "bundle_s": bundle_s,
        "warm_bundle_s": warm_bundle_s,
        "verify_s": verify_s,
    }


WORKLOADS = {
    "kron-certify": (kron_certify, "kronecker"),
    "hall-census": (hall_census, "kronecker"),
    "cyclic-store": (cyclic_store, "cyclic:3"),
}
INFO_UNITS = {
    "bundle_s": "s",
    "warm_bundle_s": "s",
    "verify_s": "s",
    "hallpoly_per_s": "1/s",
    "raw_wall_s": "s",
    "speed_scale": "ratio",
}


# -- metrics ------------------------------------------------------------------------


def end_to_end(run: Run, workload: str, seconds: float) -> dict:
    one_pass, quiver = WORKLOADS[workload]
    setups = [run.setup_probe(quiver) for _ in range(SETUP_PROBES)]
    setup_s = statistics.median(setups) * run.speed_scale()
    passes = []
    start = time.monotonic()
    while True:
        raw = one_pass(run)
        now = time.monotonic()
        scale = run.speed_scale()
        scaled = {k: v / scale if k.endswith("_per_s") else v * scale for k, v in raw.items()}
        passes.append(dict(scaled, raw_wall_s=raw["wall_s"], speed_scale=scale))
        if now - start >= seconds or now + 1.5 * raw["wall_s"] > run.deadline:
            break
    values = {k: statistics.median(p[k] for p in passes) for k in passes[0]}
    values["setup_s"] = setup_s
    values["peak_rss_mb"] = run.maxrss_kb / 1024
    values["passes"] = len(passes)
    return values


def per_layer(run: Run, workload: str, names) -> dict:
    one_pass, _ = WORKLOADS[workload]
    untraced = one_pass(run)["wall_s"]
    run.tracing = True
    traced = one_pass(run)["wall_s"]
    calls, incl, self_s, counts = Counter(), Counter(), Counter(), Counter()
    for t in run.traces:
        calls.update(t["calls"])
        incl.update(t["s"])
        self_s.update(t["self_s"])
        counts.update(t["counts"])
    size = counts["fqrep.graded_stable_subspaces.size"]
    values = {
        "fqrep.census.kept_over_size": counts["fqrep.graded_stable_subspaces.kept"] / size
        if size
        else 0.0,
        "trace.wall_s": traced,
        "trace.untraced_wall_s": untraced,
        "trace.overhead_s": traced - untraced,
        "trace.self_sum_over_wall": sum(self_s.values()) / traced,
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
    fields = {"calls": calls, "s": incl, "self_s": self_s}
    for name in names:
        base, field = name.rsplit(".", 1)
        if name not in values:
            values[name] = fields[field][base] if field in fields else counts[name]
    return values


def measure(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    with open(os.path.join(HERE, "refs.json")) as fh:
        refs = json.load(fh)
    spans_dir = None
    if trace:
        spans_dir = os.path.join(WORK, f"trace-{workload}-seed{seed}")
        shutil.rmtree(spans_dir, ignore_errors=True)
        os.makedirs(spans_dir)
    run = Run(refs, seed, spans_dir)
    try:
        if trace:
            values = per_layer(run, workload, [m["name"] for m in spec["per_layer"]])
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
            ratio = metrics["trace.self_sum_over_wall"]["value"]
            if not 0.9 <= ratio <= 1.1:
                print(f"warning: per-layer self times cover {ratio:.1%} of traced wall")
        else:
            values = end_to_end(run, workload, seconds)
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
            print(f"passes {values['passes']}")
            for name, unit in INFO_UNITS.items():
                if name in values:
                    print(f"{name} {values[name]:.4f} {unit}")
    finally:
        run.close()
    for err in run.errors:
        print(f"FAILED {err}")
    print(f"ops_failed_ratio {run.failed}/{run.attempted} = {run.failed / run.attempted:.4f}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    return {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=5)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "hallcanon", "__init__.py")):
        print("perfbench: no hallcanon source tree under src/", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        print(f"== {name} seed {args.seed} trace {args.trace}")
        try:
            result = measure(name, args.seed, args.seconds, bool(args.trace), spec)
        except RunAborted as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
