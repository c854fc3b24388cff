"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (run pytest with -s to see them)
and enforces the stated runtime limit.  Tolerances are exact: every
comparison is in exact integer, Laurent or rational arithmetic; series
memberships are decided exactly.
"""

import itertools
import random
import time

import pytest

from hallcanon.canonical import CanonicalSolver, dim_f
from hallcanon.cli import main as cli_main
from hallcanon.combinatorics import enumerate_msegs, eval_poly, make_cdesc
from hallcanon.config import JobConfig
from hallcanon.hallalg import HallEngine, nindex
from hallcanon.laurent import ONE, ZERO, LaurentPoly
from hallcanon.partitions import character, kostka, partitions
from hallcanon.pbw import IndexSystem
from hallcanon.quiver import cyclic, kronecker, linear_an
from oracles import (
    coproduct,
    field_class,
    grading,
    green_field,
    is_integral,
    nmul,
    serre_sum,
    tensor_green,
    u_coeff,
)

V = LaurentPoly.v_power


@pytest.fixture(scope="module")
def shared_cache(tmp_path_factory):
    return str(tmp_path_factory.mktemp("hallcanon_cache"))


def _report(num, ok, detail, t0):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status}: {detail} ({time.time() - t0:.1f}s)")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_quantum_serre():
    t0 = time.time()
    ok = True
    for engine, pairs in (
        (HallEngine(cyclic(2)), [(1, 2), (2, 1)]),
        (HallEngine(cyclic(3)), [(i, j) for i in (1, 2, 3) for j in (1, 2, 3) if i != j]),
        (HallEngine(kronecker()), [(0, 1), (1, 0)]),
    ):
        for q in (3, 5):
            for i, j in pairs:
                ok = ok and serre_sum(engine, i, j, q).is_zero_specialized()
    _report(1, ok and time.time() - t0 < 0.3, "quantum Serre relations vanish", t0)


def test_criterion_2_kostka_coefficients():
    t0 = time.time()
    engine = HallEngine(kronecker())
    ok = True
    for q in (5, 7):
        ctx = engine.ctx(q)
        pts = ctx.points(1)
        for m in (1, 2):
            for lam in partitions(m):
                S = engine.realize_S(lam, q)
                for mu in partitions(m):
                    desc = make_cdesc(
                        homog=tuple((pts[i], (mu[i],)) for i in range(len(mu)))
                    )
                    want = V(-2 * m, kostka(lam, mu)) if kostka(lam, mu) else ZERO
                    ok = ok and u_coeff(S, desc) == want
    _report(
        2,
        ok and time.time() - t0 < 0.1,
        "S_lam coefficients on distinct degree-1 points equal v^{-2|lam|} Kostka numbers",
        t0,
    )


def test_criterion_3_character_coefficients():
    t0 = time.time()
    engine = HallEngine(kronecker())
    ok = True
    assert character((2,), (2,)) == 1 and character((1, 1), (2,)) == -1
    for q in (5, 7):
        ctx = engine.ctx(q)
        w = ctx.points(2)[0]
        pts = ctx.points(1)
        for lam in partitions(2):
            S = engine.realize_S(lam, q)
            got2 = u_coeff(S, make_cdesc(homog=((w, (1,)),)))
            ok = ok and got2 == V(-4, character(lam, (2,)))
            got11 = u_coeff(S, make_cdesc(homog=((pts[0], (1,)), (pts[1], (1,)))))
            ok = ok and got11 == V(-4, character(lam, (1, 1)))
    _report(
        3,
        ok and time.time() - t0 < 0.1,
        "degree-pattern coefficients equal v^{-4} character values",
        t0,
    )


def test_criterion_4_homogeneous_generator_identity():
    t0 = time.time()
    engine = HallEngine(kronecker())
    S0 = nindex(make_cdesc(cp=((1, 1),)))
    S1 = nindex(make_cdesc(cm=((0, 1),)))
    out = nmul(engine, S0, S1)
    split = nindex(make_cdesc(cm=((0, 1),), cp=((1, 1),)))
    H1 = nindex(make_cdesc(), (1,))
    ok = out == {H1: ONE, split: V(-2)}
    ok = ok and all(is_integral(c) for c in out.values())
    _report(4, ok and time.time() - t0 < 0.05, "<S_0>*<S_1> = H_1 + v^-2 <S_1+S_0>", t0)


def test_criterion_5_hall_polynomial_validation():
    t0 = time.time()
    rng = random.Random(20240809)
    checked = 0
    engines = {
        1: HallEngine(cyclic(1)),
        2: HallEngine(cyclic(2)),
        3: HallEngine(cyclic(3)),
    }
    while checked < 20:
        n = rng.choice((1, 2, 2, 3))
        engine = engines[n]
        total = rng.randint(2, 4)
        k = rng.randint(1, total - 1)
        nuL = _random_dim(rng, n, total)
        pis = enumerate_msegs(n, nuL)
        L = ("m", rng.choice(pis))
        nuN = _random_subdim(rng, nuL, k)
        nuM = tuple(a - b for a, b in zip(nuL, nuN))
        Ms = enumerate_msegs(n, nuM)
        Ns = enumerate_msegs(n, nuN)
        if not Ms or not Ns:
            continue
        M = ("m", rng.choice(Ms))
        N = ("m", rng.choice(Ns))
        poly = engine.polyeng.hall_polynomial(L, M, N)
        used = {q for q, _ in poly.samples} | {q for q, _ in poly.validations}
        fresh = next(q for q in (13, 11, 9, 8, 7) if q not in used)
        count = engine.polyeng.ctx(fresh).hall(L, M, N)
        assert count == eval_poly(poly.coeffs, fresh), (L, M, N, fresh, poly.text())
        checked += 1
    _report(
        5,
        checked >= 20 and time.time() - t0 < 1.5,
        f"{checked} random Hall polynomials predict held-out fields exactly",
        t0,
    )


def _random_dim(rng, n, total):
    cuts = sorted(rng.randint(0, total) for _ in range(n - 1))
    parts = []
    prev = 0
    for c in list(cuts) + [total]:
        parts.append(c - prev)
        prev = c
    return tuple(parts)


def _random_subdim(rng, nu, k):
    while True:
        sub = tuple(rng.randint(0, x) for x in nu)
        if 0 < sum(sub) < sum(nu):
            return sub


def test_criterion_6_green_compatibility():
    t0 = time.time()
    engine = HallEngine(cyclic(2))
    q = 5
    rng = random.Random(6)
    pool = []
    for nu in [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)]:
        pool.extend(("m", pi) for pi in enumerate_msegs(2, nu))
    count = 0
    trials = 0
    while count < 20:
        trials += 1
        y = field_class(engine, rng.choice(pool), q)
        yp = field_class(engine, rng.choice(pool), q)
        prod = y * yp
        nu = grading(prod)
        if nu is None or any(a > 2 for a in nu):
            continue
        for pi in enumerate_msegs(2, nu):
            x = field_class(engine, ("m", pi), q)
            lhs = green_field(engine, x, prod)
            rhs = tensor_green(engine, coproduct(engine, x), y, yp)
            assert lhs == rhs
            count += 1
            if count >= 20:
                break
    _report(6, count >= 20 and time.time() - t0 < 1.3, f"(x, y*y') = (r(x), y(x)y') on {count} cases", t0)


def _dims_up_to(n, total):
    out = []
    for nu in itertools.product(range(total + 1), repeat=n):
        if 0 < sum(nu) <= total:
            out.append(nu)
    return out


def test_criterion_7_canonical_cyclic():
    t0 = time.time()
    ok = True
    for n in (2, 3):
        solver = CanonicalSolver(IndexSystem(HallEngine(cyclic(n))))
        for nu in _dims_up_to(n, 4):
            report = solver.verify(nu)
            ok = ok and report["ok"]
        if n == 2:
            data = solver.solve((1, 1))
            words = {
                solver.system.word_for_index(a) for a in data.pbw.order
            }
            ok = ok and words == {((1, 1), (2, 1)), ((2, 1), (1, 1))}
            ok = ok and all(
                row == {a: ONE} for a, row in data.C_over_mon.items()
            )
    _report(
        7,
        ok and time.time() - t0 < 0.5,
        "cyclic n=2,3 canonical bases certified for all |nu| <= 4",
        t0,
    )


@pytest.fixture(scope="module")
def kron_solver(shared_cache):
    cfg = JobConfig(cache_dir=shared_cache)
    return CanonicalSolver(IndexSystem(HallEngine(kronecker(), cfg)))


KRON_DIMS = [(1, 1), (2, 1), (1, 2), (2, 2)]


def test_criterion_8_canonical_kronecker(kron_solver):
    t0 = time.time()
    ok = True
    Q = kronecker()
    for nu in KRON_DIMS:
        idxset = kron_solver.system.enumerate_indices(nu)
        ok = ok and len(idxset.aperiodic) == dim_f(Q.arrows, nu)
        report = kron_solver.verify(nu)
        ok = ok and report["ok"]
        ok = ok and report["truncation_agrees"]
    _report(
        8,
        ok and time.time() - t0 < 0.3,
        "Kronecker canonical bases certified; truncation route agrees",
        t0,
    )


def test_criterion_9_finite_type_a2():
    t0 = time.time()
    solver = CanonicalSolver(IndexSystem(HallEngine(linear_an(2))))
    ok = True
    for nu in _dims_up_to(2, 4):
        report = solver.verify(nu)
        ok = ok and report["ok"]
    data = solver.solve((1, 1))
    words = {solver.system.word_for_index(a) for a in data.pbw.order}
    ok = ok and words == {((1, 1), (2, 1)), ((2, 1), (1, 1))}
    ok = ok and all(row == {a: ONE} for a, row in data.C_over_mon.items())
    _report(9, ok and time.time() - t0 < 0.2, "A_2 canonical bases certified, |nu| <= 4", t0)


def test_criterion_10_determinism(shared_cache, tmp_path):
    # Compare two full command-line runs byte for byte.  The store holds no
    # lifted words, so the first run lifts its words in process and stores
    # each certified bundle, and the second is served those records.
    t0 = time.time()

    def run(tag):
        out = []
        for nu in KRON_DIMS:
            path = tmp_path / f"{tag}_{nu[0]}_{nu[1]}.json"
            args = ["canonical", "--quiver", "kronecker", "--dim", f"{nu[0]},{nu[1]}"]
            args += ["--cache-dir", shared_cache, "--out", str(path)]
            assert cli_main(args) == 0
            out.append(path.read_bytes())
        return out

    b1 = run("run1")
    b2 = run("run2")
    _report(
        10,
        b1 == b2 and time.time() - t0 < 0.4,
        "criterion-8 bundles byte-identical across two runs",
        t0,
    )
