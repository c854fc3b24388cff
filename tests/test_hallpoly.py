import json
import random
import shutil
from itertools import product

import pytest

from hallcanon.config import InsufficientPointsError, InterpolationError, JobConfig
from hallcanon import fqrep, hallpoly, store
from hallcanon.canonical import CanonicalSolver
from hallcanon.combinatorics import eval_poly, make_cdesc, mseg_normalize
from hallcanon.hallalg import HallEngine
from hallcanon.hallpoly import (
    HallPolyEngine,
    abstract_triple,
    fit_integer_poly,
    fit_rational_function,
    sample_and_fit,
)
from hallcanon.pbw import IndexSystem
from hallcanon.quiver import cyclic, kronecker, linear_an
from oracles import classes, fit_integer_poly_by_degree, lagrange_fit


def mdesc(*segs):
    return ("m", mseg_normalize(segs))


def test_lagrange_exact():
    pts = [(2, 5), (3, 10), (5, 26)]
    coeffs = lagrange_fit(pts)
    assert coeffs == (1, 0, 1)


def test_fit_integer_poly_validates():
    pairs = [(q, q + 1) for q in (2, 3, 5, 7)]
    coeffs, n_fit = fit_integer_poly(pairs)
    assert coeffs == (1, 1)
    assert n_fit == 2
    with pytest.raises(InterpolationError):
        fit_integer_poly([(2, 1), (3, 2), (5, 100), (7, 200)], cap=1)


def test_fit_degree_monotonicity():
    # A cap at or above the true degree finds the same least-degree fit.
    pairs = [(q, q * q - 1) for q in (2, 3, 5, 7, 11)]
    free, _ = fit_integer_poly(pairs)
    capped, _ = fit_integer_poly(pairs, cap=2)
    assert free == capped == (-1, 0, 1)
    with pytest.raises(InterpolationError):
        fit_integer_poly(pairs, cap=1)


def test_fit_integer_poly_equals_fitting_degree_by_degree():
    # One interpolation on top + 1 pairs against the loop over degrees 0, 1,
    # ...: same coefficients, same samples/validations split, same error.
    rng = random.Random(2024)
    fields = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)
    outcomes = set()
    for _ in range(2000):
        xs = fields[: rng.randint(1, len(fields))]
        coeffs = [rng.randint(-3, 3) for _ in range(rng.randint(0, 5))]
        pairs = [(x, eval_poly(coeffs, x)) for x in xs]
        if rng.random() < 0.2:  # integer values, coefficients in Z/2
            pairs = [(x, y * x * (x - 1) // 2) for x, y in pairs]
        if rng.random() < 0.3:  # one noisy sample
            i = rng.randrange(len(pairs))
            pairs[i] = (pairs[i][0], pairs[i][1] + rng.choice((-1, 1)))
        cap = rng.choice((None, 0, 1, 2, 3))
        try:
            expected = fit_integer_poly_by_degree(pairs, cap)
        except InterpolationError as exc:
            with pytest.raises(InterpolationError) as got:
                fit_integer_poly(pairs, cap)
            assert str(got.value) == str(exc)
            outcomes.add("error")
        else:
            assert fit_integer_poly(pairs, cap) == expected, (pairs, cap)
            outcomes.add(("fit", len(expected[0])))
    assert "error" in outcomes and {("fit", k) for k in range(5)} <= outcomes


def test_newton_fit_equals_the_lagrange_fit():
    # Integer divided differences against the Fraction Lagrange basis, on
    # random integer nodes and values, from integer polynomials or not: the
    # same coefficients when they are integers, None when they are not.
    rng = random.Random(35)
    seen = set()
    for _ in range(2000):
        xs = rng.sample(range(-20, 40), rng.randint(1, 7))
        if rng.random() < 0.5:
            coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(0, 7))]
            pairs = [(x, eval_poly(coeffs, x)) for x in xs]
        else:
            pairs = [(x, rng.randint(-50, 50)) for x in xs]
        expected = lagrange_fit(pairs)
        integral = all(c.denominator == 1 for c in expected)
        got = hallpoly._newton_integer_fit(pairs)
        assert got == (tuple(int(c) for c in expected) if integral else None), pairs
        seen.add(integral)
    assert seen == {True, False}


def test_sample_and_fit_policy():
    # Skip a field whose sampler raises, start from three samples, and take
    # one more field each time any key fails to fit.
    seen = []

    def sample(q):
        seen.append(q)
        if q == 3:
            raise InsufficientPointsError("no room at q = 3")
        return {"lin": q + 1, "sq": q * q}

    fits = sample_and_fit((2, 3, 4, 5, 7, 8, 9), sample)
    assert seen == [2, 3, 4, 5, 7, 8]
    assert fits["lin"].coeffs == (1, 1)
    sq = fits["sq"]
    assert sq.coeffs == (0, 0, 1) and sq.min_q == 2
    assert sq.samples == ((2, 4), (4, 16), (5, 25))
    assert sq.validations == ((7, 49), (8, 64))
    with pytest.raises(InterpolationError):
        sample_and_fit((2, 3, 4), sample)


def test_fit_rational_function():
    pairs = [(q, (q + 1) / (q - 1)) for q in (2, 3, 5, 7, 11)]
    from fractions import Fraction

    pairs = [(q, Fraction(q + 1, q - 1)) for q in (2, 3, 5, 7, 11)]
    num, den = fit_rational_function(pairs)
    assert num == (1, 1)
    assert den == (-1, 1)


def test_jordan_hall_polynomial():
    eng = HallPolyEngine(cyclic(1))
    SS = mdesc(((1, 1), 2))
    S = mdesc(((1, 1), 1))
    poly = eng.hall_polynomial(SS, S, S)
    assert poly.coeffs == (1, 1)  # q + 1
    assert poly.text() == "q + 1"
    assert len(poly.validations) >= 2
    # cached second call returns the identical object
    assert eng.hall_polynomial(SS, S, S) is poly


def test_cyclic_constant_hall_polynomial():
    eng = HallPolyEngine(cyclic(2))
    L = mdesc(((1, 2), 1))
    M = mdesc(((1, 1), 1))
    N = mdesc(((2, 1), 1))
    poly = eng.hall_polynomial(L, M, N)
    assert poly.coeffs == (1,)


def test_impossible_dimensions_zero():
    eng = HallPolyEngine(cyclic(2))
    L = mdesc(((1, 1), 1))
    M = mdesc(((1, 1), 1))
    N = mdesc(((2, 1), 1))
    poly = eng.hall_polynomial(L, M, N)
    assert poly.is_zero()
    assert eval_poly(poly.coeffs, 5) == 0


def test_aut_polynomials():
    eng = HallPolyEngine(cyclic(2))
    S = mdesc(((1, 1), 1))
    assert eng.aut_polynomial(S).coeffs == (-1, 1)  # q - 1
    S12 = mdesc(((1, 2), 1))
    assert eng.aut_polynomial(S12).coeffs == (-1, 1)
    eng1 = HallPolyEngine(cyclic(1))
    SS = mdesc(((1, 1), 2))
    # |GL_2(F_q)| = q^4 - q^3 - q^2 + q
    assert eng1.aut_polynomial(SS).coeffs == (0, 1, -1, -1, 1)


def test_aut_never_enumerates_endomorphisms(monkeypatch):
    # |Aut M| comes from the closed form alone: with the enumeration oracle
    # made to fail, a type A certificate and the |Aut| polynomials still hold.
    def refuse(*args, **kwargs):
        raise AssertionError("aut_order called at run time")

    monkeypatch.setattr(fqrep, "aut_order", refuse)
    monkeypatch.setattr(hallpoly, "aut_order", refuse, raising=False)
    cfg = JobConfig(cache_dir=None)
    solver = CanonicalSolver(IndexSystem(HallEngine(linear_an(3, "><"), cfg)))
    assert solver.verify((2, 2, 1))["ok"]
    eng = HallPolyEngine(cyclic(2), cfg)
    assert eng.aut_polynomial(mdesc(((1, 1), 1))).coeffs == (-1, 1)
    assert eng.aut_polynomial(mdesc(((1, 2), 1))).coeffs == (-1, 1)
    eng1 = HallPolyEngine(cyclic(1), cfg)
    assert eng1.aut_polynomial(mdesc(((1, 1), 2))).coeffs == (0, 1, -1, -1, 1)


def test_kronecker_hall_poly_above_end_dimension():
    # dim End L = 1 but g = q^2: the degree cap is the census degree, 2.
    eng = HallPolyEngine(kronecker())
    L = make_cdesc(cm=((-2, 1),))
    M = make_cdesc(cp=((2, 1),))
    N = make_cdesc(cm=((0, 2),))
    assert eng.hall_polynomial(L, M, N).coeffs == (0, 0, 1)


def test_kronecker_hall_poly_with_points():
    eng = HallPolyEngine(kronecker())
    ctx = eng.ctx(5)
    z = ctx.points(1)[0]
    L = make_cdesc(homog=((z, (1,)),))
    M = make_cdesc(cp=((1, 1),))
    N = make_cdesc(cm=((0, 1),))
    poly = eng.hall_polynomial(L, M, N)
    assert poly.coeffs == (1,)
    # abstract key does not depend on which concrete point was used
    z2 = ctx.points(1)[2]
    L2 = make_cdesc(homog=((z2, (1,)),))
    assert abstract_triple(L, M, N) == abstract_triple(L2, M, N)


def test_hall_poly_validation_against_fresh_prime():
    eng = HallPolyEngine(cyclic(1))
    rng = random.Random(1)
    from hallcanon.partitions import partitions

    for _ in range(8):
        n = rng.randint(2, 4)
        lam = rng.choice(partitions(n))
        k = rng.randint(1, n - 1)
        mu = rng.choice(partitions(k))
        nu = rng.choice(partitions(n - k))
        L = mdesc(*(((1, part), 1) for part in set(lam) for _ in [0]))
        L = ("m", mseg_normalize([((1, p), lam.count(p)) for p in set(lam)]))
        M = ("m", mseg_normalize([((1, p), mu.count(p)) for p in set(mu)]))
        N = ("m", mseg_normalize([((1, p), nu.count(p)) for p in set(nu)]))
        poly = eng.hall_polynomial(L, M, N)
        fresh = 13 if all(q != 13 for q, _ in poly.samples) else 11
        assert eng.ctx(fresh).hall(L, M, N) == eval_poly(poly.coeffs, fresh), (L, M, N)


@pytest.mark.parametrize("n, nu", [(2, (2, 3)), (3, (2, 2, 1))])
def test_orbit_keyed_hall_polynomial_counts_the_triple_as_given(n, nu):
    # Every triple is fitted under its orbit image; the polynomial must still
    # be g^L_{M,N} of the triple asked, zeros included, at each field.
    eng = HallPolyEngine(cyclic(n))
    ctxs = [fqrep.FieldContext(cyclic(n), q) for q in (2, 3, 4, 5)]
    asked = 0
    for L in classes(ctxs[0], nu):
        for nuN in product(*(range(d + 1) for d in nu)):
            nuM = tuple(a - b for a, b in zip(nu, nuN))
            for M, N in product(classes(ctxs[0], nuM), classes(ctxs[0], nuN)):
                poly = eng.hall_polynomial(L, M, N)
                for ctx in ctxs:
                    assert eval_poly(poly.coeffs, ctx.q) == ctx.hall(L, M, N), (L, M, N, ctx.q)
                asked += 1
    # Each fitted polynomial served two triples or more on average.
    assert 2 * len(eng._memo__hall) <= asked


def test_orbit_key_censuses_one_row_per_field(monkeypatch):
    # Every triple of the row (L, dim N = (1,1)) lands on one image row, so
    # L is censused at most once per sampled field.  Keyed by the least
    # image triple instead, this row's triples split over two image rows.
    L = mdesc((1, 1), (1, 2), (2, 1), (2, 2))
    eng = HallPolyEngine(cyclic(2))
    ctx = eng.ctx(2)
    censused = []
    census = fqrep.graded_stable_subspaces

    def recording(M, target, *args, **kwargs):
        censused.append(M.F.q)
        return census(M, target, *args, **kwargs)

    monkeypatch.setattr(fqrep, "graded_stable_subspaces", recording)
    for M, N in product(classes(ctx, (2, 2)), classes(ctx, (1, 1))):
        eng.hall_polynomial(L, M, N)
    assert censused
    assert len(censused) == len(set(censused))


def test_cache_store_roundtrip(tmp_path):
    cfg = JobConfig(cache_dir=str(tmp_path))
    eng = HallPolyEngine(cyclic(1), cfg)
    SS = mdesc(((1, 1), 2))
    S = mdesc(((1, 1), 1))
    poly = eng.hall_polynomial(SS, S, S)
    # A second engine on the same store must read, not recount.
    eng2 = HallPolyEngine(cyclic(1), cfg)
    poly2 = eng2.hall_polynomial(SS, S, S)
    assert poly2.coeffs == poly.coeffs
    assert poly2.samples == poly.samples
    entries = list(eng2.store.entries())
    assert len(entries) == 1
    # cache hit did not touch the record
    rec1 = json.load(open(entries[0]))
    poly3 = eng2.hall_polynomial(SS, S, S)
    assert poly3 is poly2
    rec2 = json.load(open(entries[0]))
    assert rec1 == rec2


def test_cache_store_layout_is_pinned(tmp_path, monkeypatch):
    # Records are content-addressed: the file name is the sha256 of the
    # key's canonical JSON and ``checksum`` that of the record without it.
    # Both digests were taken from a store written before this test, so a
    # change to either breaks every existing store.
    monkeypatch.setattr(store.time, "time", lambda: 1_700_000_000.0)
    eng = HallPolyEngine(cyclic(1), JobConfig(cache_dir=str(tmp_path)))
    eng.hall_polynomial(mdesc(((1, 1), 2)), mdesc(((1, 1), 1)), mdesc(((1, 1), 1)))
    (path,) = eng.store.entries()
    name = "3966e88caa5dc3c6310b7522ce51389b1300de798b23442a3053fbc8f1a37c26.json"
    assert path == str(tmp_path / "cyclic_1" / name)
    record = json.load(open(path))
    assert record["checksum"] == "3fcc1e2642170fcd959d9f3febf732bf611cf99ad5f234890a43a3b309652716"
    assert record["poly"] == [1, 1] and record["created_at"] == 1_700_000_000.0


def test_cache_corruption_detected(tmp_path):
    cfg = JobConfig(cache_dir=str(tmp_path))
    eng = HallPolyEngine(cyclic(1), cfg)
    SS = mdesc(((1, 1), 2))
    S = mdesc(((1, 1), 1))
    eng.hall_polynomial(SS, S, S)
    path = next(iter(eng.store.entries()))
    record = json.load(open(path))
    record["poly"] = [9, 9]
    with open(path, "w") as fh:
        json.dump(record, fh)
    assert eng.store.verify() == [(path, False)]
    # A fresh engine recomputes and overwrites.
    eng2 = HallPolyEngine(cyclic(1), cfg)
    poly = eng2.hall_polynomial(SS, S, S)
    assert poly.coeffs == (1, 1)
    assert eng2.store.verify() == [(path, True)]


def test_store_serves_a_record_only_under_its_own_key(tmp_path):
    # A record copied to another key's file has a valid checksum but is
    # corrupt: ``get`` of that key misses it, ``verify`` reports it and
    # ``gc`` removes it.
    cs = store.CacheStore(str(tmp_path))
    cs.put("q", ("hall", "A"), {"poly": [1, 1]})
    a, b = cs.path_for("q", ("hall", "A")), cs.path_for("q", ("hall", "B"))
    shutil.copy(a, b)
    assert cs.get("q", ("hall", "B")) is None
    assert cs.get("q", ("hall", "A"))["poly"] == [1, 1]
    assert cs.verify() == sorted([(a, True), (b, False)])
    assert cs.gc() == [b]
    assert cs.verify() == [(a, True)]


@pytest.mark.parametrize("text", ["[]", '"record"', "7"])
def test_cache_record_that_is_no_json_object_is_a_miss(tmp_path, text):
    # Valid JSON of the wrong shape is corrupt like any other bad record:
    # verify reports it, and a run recomputes and overwrites it.
    cfg = JobConfig(cache_dir=str(tmp_path))
    SS = mdesc(((1, 1), 2))
    S = mdesc(((1, 1), 1))
    HallPolyEngine(cyclic(1), cfg).hall_polynomial(SS, S, S)
    eng = HallPolyEngine(cyclic(1), cfg)
    path = next(iter(eng.store.entries()))
    with open(path, "w") as fh:
        fh.write(text)
    assert eng.store.verify() == [(path, False)]
    assert eng.hall_polynomial(SS, S, S).coeffs == (1, 1)
    assert eng.store.verify() == [(path, True)]


def test_cache_gc(tmp_path):
    cfg = JobConfig(cache_dir=str(tmp_path))
    eng = HallPolyEngine(cyclic(1), cfg)
    SS = mdesc(((1, 1), 2))
    S = mdesc(((1, 1), 1))
    eng.hall_polynomial(SS, S, S)
    path = next(iter(eng.store.entries()))
    with open(path, "a") as fh:
        fh.write("garbage")
    removed = eng.store.gc()
    assert removed == [path]
    assert list(eng.store.entries()) == []


def test_atomic_writes_leave_no_temp_files(tmp_path):
    cfg = JobConfig(cache_dir=str(tmp_path))
    eng = HallPolyEngine(cyclic(1), cfg)
    eng.hall_polynomial(mdesc(((1, 1), 2)), mdesc(((1, 1), 1)), mdesc(((1, 1), 1)))
    leftovers = [p for p in tmp_path.rglob("*") if p.suffix == ".tmp"]
    assert leftovers == []
