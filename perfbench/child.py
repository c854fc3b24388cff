"""One leg of a benchmark workload, in a fresh interpreter.

Usage: python3 perfbench/child.py SPEC.json

The spec names the leg (``setup``, ``canonical``, ``verify`` or
``census``), its inputs, whether to trace it, and the file the result is
written to.  Every leg first imports hallcanon; ``setup`` then builds the
workload's HallEngine and stops.  A fresh interpreter per leg is what makes
a leg cold: several modules keep process-wide ``lru_cache``s.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import sys
import time
import traceback


# The host's speed drifts by tens of percent within a minute.  Every child
# therefore times a fixed calibration loop at regular intervals of its own
# CPU time, and the benchmark scales its timings by the loop's mean duration.
# The mean, not the median, because much of the drift comes as short stalls.
CALIB_EVERY_S = 0.025
CALIB_MIN_SAMPLES = 5


def calibration_loop():
    """Fixed pure-Python work that uses none of hallcanon's code."""
    d = {}
    s = 0
    for i in range(1500):
        k = (i * 7919) % 257
        d[k] = d.get(k, 0) + i * i
        s += len(str(i))
    return s


class SpeedProbe:
    """Durations of the calibration loop, sampled while this process runs."""

    def __init__(self):
        self.total = 0.0
        self.n = 0

    def sample(self, *_):
        t0 = time.perf_counter()
        calibration_loop()
        self.total += time.perf_counter() - t0
        self.n += 1

    def start(self):
        signal.signal(signal.SIGVTALRM, self.sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, CALIB_EVERY_S, CALIB_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        while self.n < CALIB_MIN_SAMPLES:
            self.sample()
        return [self.total, self.n]


class OpTimeout(Exception):
    """One Hall polynomial ran past its cap."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def run_census(spec, tracer):
    """Drive HallPolyEngine.hall_polynomial, as ``hallcanon hallpoly`` does."""
    from hallcanon.cli import _parse_desc
    from hallcanon.config import JobConfig
    from hallcanon.hallalg import HallEngine
    from hallcanon.quiver import from_spec

    engine = HallEngine(from_spec(spec["quiver"]), JobConfig(cache_dir=None))
    polyeng = engine.polyeng
    signal.signal(signal.SIGALRM, _on_alarm)
    results = []

    def loop():
        for L, M, N in spec["triples"]:
            signal.setitimer(signal.ITIMER_REAL, spec["op_cap_s"])
            try:
                descs = [_parse_desc(engine, d) for d in (L, M, N)]
                out = {"text": polyeng.hall_polynomial(*descs).text()}
            except OpTimeout:
                out = {"error": "timeout"}
            except Exception as exc:  # an operation failed; record and go on
                out = {"error": type(exc).__name__, "detail": traceback.format_exc(limit=2)}
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            results.append(out)

    if tracer is None:
        loop()
    else:
        tracer.root("cli.hallpoly", loop)
    return {"results": results}


def run_cli(spec, tracer):
    from hallcanon import cli

    argv = spec["argv"]
    if tracer is None:
        return {"rc": cli.main(argv)}
    return {"rc": tracer.root(f"cli.{argv[0]}", lambda: cli.main(argv))}


def main():
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    probe = SpeedProbe() if spec["calibrate"] else None
    if probe:
        probe.start()
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    import hallcanon.cli  # noqa: F401  (the whole package)

    out = {}
    if spec["leg"] == "setup":
        from hallcanon.config import JobConfig
        from hallcanon.hallalg import HallEngine
        from hallcanon.quiver import from_spec

        HallEngine(from_spec(spec["quiver"]), JobConfig(cache_dir=None))
        out["t_ready"] = time.monotonic()
    else:
        tracer = None
        if spec["trace"]:
            from tracing import Tracer, install

            tracer = Tracer()
            install(tracer)
        leg = run_census if spec["leg"] == "census" else run_cli
        out.update(leg(spec, tracer))
        if tracer is not None:
            out["trace"] = tracer.summary()
            tracer.dump(spec["spans"])
    if probe:
        out["calib"] = probe.stop()
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(spec["out"], "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
