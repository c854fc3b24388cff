"""The combinatorial context against FieldContext, and the field layer that
a cyclic engine leaves unloaded."""

import json
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from hallcanon.combinatorics import CombinatorialContext, mseg_normalize
from hallcanon.config import JobConfig, UnsupportedQuiverError
from hallcanon.fqrep import FieldContext, hom_dim
from hallcanon.hallalg import HallEngine
from hallcanon.quiver import cyclic
from oracles import census_row, classes

FIELD_LAYER = {"hallcanon.gf", "hallcanon.fqrep", "hallcanon.hallpoly"}


def run_python(script: str, *args) -> dict:
    """Run script in a fresh interpreter on this checkout's package; the JSON
    object on its last line of output."""
    root = Path(__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "HALLCANON_CACHE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, env=env, timeout=300
    )
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("n", [2, 3])
def test_combinatorial_context_agrees_with_field_context(n, q):
    # A cyclic engine's context serves classes, dimensions, End, |Aut| and
    # the products by S_i^(a) without a field.  FieldContext builds each
    # module, solves its Homs and censuses each L: on every nu with
    # |nu| <= 4 the two agree.
    base, field = CombinatorialContext(cyclic(n), q), FieldContext(cyclic(n), q)
    nus = [nu for nu in product(range(5), repeat=n) if sum(nu) <= 4]
    for nu in nus:
        assert base.type_classes(nu) == field.type_classes(nu)
        for d in classes(base, nu):
            M = field.build(d)
            assert base.desc_dim(d) == field.desc_dim(d) == M.dims
            assert base.end(d) == field.end(d) == hom_dim(M, M)
            assert base.aut_coeffs(d) == field.aut_coeffs(d)
            assert base.aut(d) == field.aut(d)
    products = 0
    for nu in nus:
        for i, a in product(range(1, n + 1), range(1, 5 - sum(nu))):
            S = ("m", mseg_normalize([((i, 1), a)]))
            nuN = base.desc_dim(S)
            nuL = tuple(x + y for x, y in zip(nu, nuN))
            expected: dict = {}
            for dL in classes(field, nuL):
                for pair, g in census_row(field, field.build(dL), nuN).items():
                    expected.setdefault(pair, []).append((dL, g))
            for dM in classes(base, nu):
                got = base.hall_products(dM, S)
                assert got == expected.get((dM, S), []), (dM, S)
                products += len(got)
    assert products


def test_cyclic_engine_context_refuses_a_census_row():
    # A row with no closed form, on the Jordan quiver or at dim N = (1, 1)
    # on cyclic:2, needs a census: a cyclic engine's context names the row
    # it cannot count and builds no field, and the field's context counts it.
    L1 = ("m", mseg_normalize([((1, 2), 1), ((1, 1), 1)]))
    L2 = ("m", mseg_normalize([((1, 2), 1), ((2, 2), 1)]))
    for quiver, L, nuN in ((cyclic(1), L1, (1,)), (cyclic(2), L2, (1, 1))):
        engine = HallEngine(quiver, JobConfig(cache_dir=None))
        ctx = engine.ctx(2)
        assert type(ctx) is CombinatorialContext
        with pytest.raises(UnsupportedQuiverError, match="needs a census over GF"):
            ctx.hall_row(L, nuN)
        assert "polyeng" not in vars(engine)
        assert sum(FieldContext(quiver, 2).hall_row(L, nuN).values()) > 0


SETUP_LEG = """
import json, sys
from hallcanon.config import JobConfig
from hallcanon.hallalg import HallEngine
from hallcanon.quiver import from_spec

spec = sys.argv[1] if len(sys.argv) > 1 else "cyclic:3"
engine = HallEngine(from_spec(spec), JobConfig(cache_dir=None))
before = sorted(sys.modules)
ctx = type(engine.polyeng.ctx(2)).__name__
print(json.dumps({"before": before, "after": sorted(sys.modules), "ctx": ctx}))
"""


def test_cyclic_engine_loads_the_field_layer_on_first_use():
    # perfbench's set-up leg builds a cyclic:3 engine: that loads no field
    # layer, and touching ``polyeng`` still builds it.
    report = run_python(SETUP_LEG)
    assert not FIELD_LAYER & set(report["before"])
    assert FIELD_LAYER <= set(report["after"])
    assert report["ctx"] == "FieldContext"


def test_kronecker_engine_loads_the_field_layer_on_first_use():
    # kron-certify and hall-census build a Kronecker engine: that loads no
    # field layer and no fractions (the quiver's kernels are over Z), and
    # touching ``polyeng`` builds it.
    report = run_python(SETUP_LEG, "kronecker")
    assert not (FIELD_LAYER | {"fractions"}) & set(report["before"])
    assert FIELD_LAYER <= set(report["after"])
    assert report["ctx"] == "FieldContext"


FORGED_WORD = """
import json, sys
from hallcanon import hallalg
from hallcanon.config import JobConfig
from hallcanon.quiver import cyclic

extensions = hallalg.mseg_socle_extensions


def forged(n, pi, i, a):
    (L, g), *rest = extensions(n, pi, i, a)
    return [(L, (g[0] + 1,) + tuple(g[1:])), *rest]


hallalg.mseg_socle_extensions = forged
engine = hallalg.HallEngine(cyclic(2), JobConfig(cache_dir=None))
try:
    engine.generic_word(((1, 1), (2, 1), (1, 1)))
    error = None
except ArithmeticError as exc:
    error = str(exc)
print(json.dumps({"error": error, "modules": sorted(sys.modules)}))
"""


def test_forged_socle_extension_fails_the_cyclic_recheck():
    # One entry of the closed form that builds a cyclic word, changed as
    # hallalg sees it: the re-check at primes[0], whose rows read the socle
    # formula backwards on the combinatorial context, still catches it, and
    # still loads no field layer.
    report = run_python(FORGED_WORD)
    assert report["error"] == "generic expansion of word ((1, 1), (2, 1), (1, 1)) fails at q=2"
    assert not FIELD_LAYER & set(report["modules"])
