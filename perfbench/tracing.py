"""Outside-in tracing of hallcanon's layers.

The benchmark patches the public functions of each module with wrappers
that record a span per call: name, start, end and the enclosing span.
Nothing in the package is edited.  A name is patched where callers look it
up: on its module, on every module that imported it by name, and on its
class for methods.

Spans of coarse layer boundaries are kept in memory and written out when
the traced leg ends.  Kernels that run millions of times (``gf.rref``,
``laurent`` arithmetic, ...) only update per-name aggregates, so the trace
stays small.  Self time is a span's duration minus the time its child spans
cover, so self times over all names add up to the duration of the root span.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter

now = time.perf_counter

# (module, attribute path, span name, keep each span?).  Names without
# kept spans run too often to keep one record per call.
TARGETS = [
    ("gf", "rref", "gf.rref", False),
    ("gf", "nullspace", "gf.nullspace", False),
    ("fqrep", "aut_order", "fqrep.aut_order", True),
    ("fqrep", "hom_dim", "fqrep.hom_dim", False),
    ("fqrep", "FieldContext.aut", "fqrep.FieldContext.aut", False),
    ("fqrep", "FieldContext.classify", "fqrep.FieldContext.classify", False),
    ("fqrep", "FieldContext.hall_table", "fqrep.FieldContext.hall_table", True),
    ("hallpoly", "HallPolyEngine.hall_polynomial", "hallpoly.hall_polynomial", True),
    ("hallpoly", "HallPolyEngine.aut_polynomial", "hallpoly.aut_polynomial", True),
    ("hallpoly", "fit_integer_poly", "hallpoly.fit_integer_poly", False),
    ("hallpoly", "fit_rational_function", "hallpoly.fit_rational_function", True),
    ("hallpoly", "CacheStore.get", "hallpoly.store.get", True),
    ("hallpoly", "CacheStore.put", "hallpoly.store.put", True),
    ("hallalg", "HallEngine.lift_family", "hallalg.lift_family", True),
    ("hallalg", "HallEngine.express_in_N", "hallalg.express_in_N", False),
    ("hallalg", "HallEngine.s_gram", "hallalg.s_gram", True),
    ("hallalg", "HallEngine.green_generic", "hallalg.green_generic", True),
    ("pbw", "IndexSystem.pbw_basis", "pbw.IndexSystem.pbw_basis", True),
    ("pbw", "IndexSystem.monomial_over_N", "pbw.IndexSystem.monomial_over_N", True),
    ("pbw", "IndexSystem.enumerate_indices", "pbw.IndexSystem.enumerate_indices", True),
    ("canonical", "zeta_matrix", "canonical.zeta_matrix", True),
    ("canonical", "lusztig_solve", "canonical.lusztig_solve", True),
    ("canonical", "CanonicalSolver.truncation", "canonical.CanonicalSolver.truncation", True),
    ("canonical", "CanonicalSolver.verify", "canonical.CanonicalSolver.verify", True),
    ("canonical", "CanonicalSolver.gram_E", "canonical.CanonicalSolver.gram_E", True),
    ("canonical", "verify_bundle", "canonical.verify_bundle", True),
    ("laurent", "RationalFn.__add__", "laurent.RationalFn.add", False),
    ("laurent", "RationalFn.__radd__", "laurent.RationalFn.add", False),
]

# Called too often for a span each; only their calls are counted, and their
# time stays in the caller's self time.
COUNTED = [
    ("laurent", "LaurentPoly.__mul__", "laurent.LaurentPoly.mul"),
    ("laurent", "LaurentPoly.__rmul__", "laurent.LaurentPoly.mul"),
]


class Tracer:
    """Span stack, per-name aggregates and the kept spans of one process."""

    def __init__(self):
        self.stack = []  # open spans: [child_s, span_id]
        self.spans = []  # kept spans: (id, parent_id, name, start, end)
        self.calls = Counter()
        self.incl = Counter()  # inclusive seconds, outermost calls only
        self.self_s = Counter()
        self.counts = Counter()  # hits, bytes, kept subspaces, fields sampled...
        self.active = Counter()
        self.next_id = 0

    def _enter(self):
        self.next_id += 1
        frame = [0.0, self.next_id]
        parent = self.stack[-1][1] if self.stack else -1
        self.stack.append(frame)
        return frame, parent, now()

    def _exit(self, name, keep, frame, parent, t0):
        t1 = now()
        dt = t1 - t0
        self.stack.pop()
        self.self_s[name] += dt - frame[0]
        if self.stack:
            self.stack[-1][0] += dt
        if keep:
            self.spans.append((frame[1], parent, name, t0, t1))
        return dt

    def wrap(self, fn, name, keep):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            outer = not tracer.active[name]
            tracer.active[name] += 1
            frame, parent, t0 = tracer._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = tracer._exit(name, keep, frame, parent, t0)
                tracer.active[name] -= 1
                if outer:
                    tracer.incl[name] += dt

        return wrapper

    def count_calls(self, fn, name):
        counts = self.calls

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def wrap_generator(self, fn, name, size_of):
        """A span for each resumption of the generator; kept items counted."""
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            tracer.counts[name + ".size"] += size_of(*args)
            it = fn(*args, **kwargs)
            while True:
                frame, parent, t0 = tracer._enter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.incl[name] += tracer._exit(name, False, frame, parent, t0)
                tracer.counts[name + ".kept"] += 1
                yield item

        return wrapper

    def root(self, name, fn):
        """Run fn as the root span of this process."""
        return self.wrap(fn, name, True)()

    def dump(self, path):
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps([sid, parent, name, t0, t1]) + "\n")

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "s": dict(self.incl),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
        }


def _resolve(owner, path):
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


def install(tracer: Tracer):
    """Patch every target, and the counters around them, where it is looked up."""
    import importlib

    mods = {
        m: importlib.import_module(f"hallcanon.{m}")
        for m in ("gf", "fqrep", "hallpoly", "hallalg", "pbw", "canonical", "laurent", "cli")
    }
    for mod, path, name, keep in TARGETS:
        owner, attr = _resolve(mods[mod], path)
        original = getattr(owner, attr)
        wrapped = tracer.wrap(original, name, keep)
        setattr(owner, attr, wrapped)
        if "." not in path:
            # Rebind the name in every module that imported it by name.
            for other in mods.values():
                if getattr(other, attr, None) is original:
                    setattr(other, attr, wrapped)
    for mod, path, name in COUNTED:
        owner, attr = _resolve(mods[mod], path)
        setattr(owner, attr, tracer.count_calls(getattr(owner, attr), name))

    fqrep, hallpoly, hallalg = mods["fqrep"], mods["hallpoly"], mods["hallalg"]

    census_size = fqrep.census_size
    fqrep.graded_stable_subspaces = tracer.wrap_generator(
        fqrep.graded_stable_subspaces,
        "fqrep.graded_stable_subspaces",
        lambda M, target, *rest: census_size(M, target),
    )

    init = fqrep.FieldContext.__init__

    def counted_init(self, *args, **kwargs):
        tracer.counts["fqrep.FieldContext.created"] += 1
        init(self, *args, **kwargs)

    fqrep.FieldContext.__init__ = counted_init

    get = hallpoly.CacheStore.get

    def get_with_hits(self, quiver_id, key):
        record = get(self, quiver_id, key)
        if record is not None:
            tracer.counts["hallpoly.store.get.hits"] += 1
        return record

    hallpoly.CacheStore.get = get_with_hits

    put = hallpoly.CacheStore.put

    def put_with_bytes(self, quiver_id, key, payload):
        record = put(self, quiver_id, key, payload)
        tracer.counts["hallpoly.store.put.bytes"] += os.path.getsize(
            self.path_for(quiver_id, key)
        )
        return record

    hallpoly.CacheStore.put = put_with_bytes

    lift = hallalg.HallEngine.lift_family

    def lift_counting_fields(self, builder):
        def counted_builder(q):
            tracer.counts["hallalg.lift_family.fields_sampled"] += 1
            return builder(q)

        return lift(self, counted_builder)

    hallalg.HallEngine.lift_family = lift_counting_fields
