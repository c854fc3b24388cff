"""The interval census against a brute-force product-then-filter oracle."""

import random
from collections import Counter
from itertools import product

import pytest

from hallcanon import fqrep, gf
from hallcanon.config import BudgetExceededError, JobConfig
from hallcanon.fqrep import (
    FieldContext,
    FqModule,
    build_cyclic,
    census_size,
    cyclic_image,
    graded_stable_subspaces,
    make_cdesc,
)
from hallcanon.hallalg import HallEngine
from hallcanon.partitions import partitions
from hallcanon.quiver import cyclic, kronecker, linear_an
from oracles import census_row, quotient_by_subspace, submodule_from_subspace


def oracle_stable_subspaces(M, target):
    """Every product of per-vertex subspaces, kept when each arrow maps into it.

    Subspaces are per-vertex tuples of RREF row tuples.
    """
    F = M.F
    n = len(M.dims)
    if any(target[v] > M.dims[v] for v in range(n)):
        return []
    per_vertex = [list(gf.subspaces(F, M.dims[v], target[v])) for v in range(n)]
    out = []
    for choice in product(*per_vertex):
        ok = True
        for a, (s, t) in enumerate(M.quiver.arrows):
            rows_t = [list(r) for r in choice[t]]
            pivots_t = [row.index(1) for row in rows_t]
            for w in choice[s]:
                img = gf.mat_vec(F, M.mats[a], list(w))
                if any(img) and gf.coords_in_rowspace(F, rows_t, pivots_t, img) is None:
                    ok = False
        if ok:
            out.append(choice)
    return out


def is_rref(rows, pivots):
    if list(pivots) != sorted(set(pivots)) or len(rows) != len(pivots):
        return False
    for r, (row, p) in enumerate(zip(rows, pivots)):
        if any(row[:p]) or row[p] != 1:
            return False
        if any(other[p] for i, other in enumerate(rows) if i != r):
            return False
    return True


def dims_upto(bound):
    return product(*(range(b + 1) for b in bound))


def dims_of_size(n, most):
    return (nu for nu in product(range(most + 1), repeat=n) if 0 < sum(nu) <= most)


def census_multiset(M, target, **kwargs) -> Counter:
    """{subspace as per-vertex RREF row tuples: times listed} of the census,
    every weight 1 (no labels)."""
    got = list(graded_stable_subspaces(M, target, **kwargs))
    for sub, weight in got:
        assert all(is_rref(rows, piv) for rows, piv in sub)
        assert weight == 1
    return Counter(tuple(rows for rows, _ in sub) for sub, _ in got)


def check_against_oracle(quiver, q, nus):
    ctx = FieldContext(quiver, q)
    checked = 0
    for nu in nus:
        for d in ctx.classes(nu):
            L = ctx.build(d)
            for target in dims_upto(nu):
                got = census_multiset(L, target)
                assert got == Counter(oracle_stable_subspaces(L, target)), (d, target)
                checked += got.total()
    return checked


@pytest.mark.parametrize("q", [2, 3])
def test_census_kronecker(q):
    assert check_against_oracle(kronecker(), q, dims_upto((2, 3))) > 0


@pytest.mark.parametrize("q", [2, 3])
def test_census_jordan_loop(q):
    # cyclic:1 is the Jordan quiver: its loop is checked per candidate.
    assert check_against_oracle(cyclic(1), q, [(m,) for m in range(1, 5)]) > 0


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("n", [2, 3])
def test_census_cyclic(n, q):
    assert check_against_oracle(cyclic(n), q, dims_of_size(n, 5)) > 0


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("orientation", ["><", ">>"])
def test_census_type_a(orientation, q):
    assert check_against_oracle(linear_an(3, orientation), q, dims_of_size(3, 5)) > 0


def test_census_extension_field():
    q = 4
    assert check_against_oracle(kronecker(), q, dims_upto((2, 2))) > 0
    assert check_against_oracle(cyclic(1), q, [(3,)]) > 0
    assert check_against_oracle(cyclic(2), q, dims_of_size(2, 4)) > 0
    assert check_against_oracle(linear_an(3, "><"), q, dims_of_size(3, 4)) > 0


def test_census_budget_is_the_full_product():
    # A module whose arrows keep only a few subspaces still counts the whole
    # product against the budget.
    M = build_cyclic([((1, 4), 1)], 3, cyclic(1))
    assert len(list(graded_stable_subspaces(M, (2,)))) == 1
    size = census_size(M, (2,))
    assert size == gf.gaussian_binomial_int(4, 2, 3)
    assert len(list(graded_stable_subspaces(M, (2,), budget=size))) == 1
    with pytest.raises(BudgetExceededError):
        list(graded_stable_subspaces(M, (2,), budget=size - 1))


def test_census_budget_when_the_sink_comes_first(monkeypatch):
    # [2,1]_3 = 4 subspaces at the sink against [3,1]_3 = 13 at the source,
    # so the sink is fixed first and the source's upper bound, a preimage,
    # is solved by gf.nullspace; in index order nothing would call it.  The
    # budget still counts the full product before any bound is solved.
    ctx = FieldContext(kronecker(), 3)
    target = (1, 1)
    solved = []
    nullspace = gf.nullspace

    def counting(F, mat):
        solved.append(len(mat))
        return nullspace(F, mat)

    monkeypatch.setattr(gf, "nullspace", counting)
    for dL in ctx.classes((3, 2)):
        L = ctx.build(dL)
        size = census_size(L, target)
        assert size == 13 * 4
        before = len(solved)
        with pytest.raises(BudgetExceededError):
            list(graded_stable_subspaces(L, target, budget=size - 1))
        assert len(solved) == before
        assert census_multiset(L, target, budget=size) == Counter(
            oracle_stable_subspaces(L, target)
        ), dL
    assert solved


HALL_TABLE_CASES = [
    (cyclic(2), (2, 2)),
    (kronecker(), (2, 2)),
    (kronecker(), (3, 2)),
    (linear_an(3, "><"), (1, 2, 1)),
    (cyclic(1), (3,)),
]


def oracle_submodule(L, sub):
    """(dims, arrow matrices) of the submodule on sub = per-vertex (rows, pivots).

    Column j of an arrow a: s -> t is the coordinate vector of the image of
    the j-th basis row of sub[s] in the basis of sub[t].
    """
    F = L.F
    dims = tuple(len(rows) for rows, _ in sub)
    mats = []
    for a, (s, t) in enumerate(L.quiver.arrows):
        rows_t, piv_t = sub[t]
        cols = [
            gf.coords_in_rowspace(F, rows_t, piv_t, gf.mat_vec(F, L.mats[a], list(w)))
            for w in sub[s][0]
        ]
        assert None not in cols, "sub is not arrow-stable"
        mats.append([[col[i] for col in cols] for i in range(dims[t])])
    return dims, mats


def oracle_quotient(L, sub):
    """(dims, arrow matrices) of L/sub on the non-pivot basis vectors of sub.

    Column c of an arrow a: s -> t is the image of the basis vector e_c,
    reduced modulo sub[t] and read on the non-pivot columns of sub[t].
    """
    F = L.F
    free = [
        [c for c in range(L.dims[v]) if c not in pivots]
        for v, (_, pivots) in enumerate(sub)
    ]
    dims = tuple(len(cols) for cols in free)
    mats = []
    for a, (s, t) in enumerate(L.quiver.arrows):
        rows_t, piv_t = sub[t]
        mat = [[0] * dims[s] for _ in range(dims[t])]
        for j, c in enumerate(free[s]):
            e = [1 if k == c else 0 for k in range(L.dims[s])]
            red = gf.reduce_mod_rowspace(F, rows_t, piv_t, gf.mat_vec(F, L.mats[a], e))
            assert not any(red[p] for p in piv_t)
            for i, x in enumerate(free[t]):
                mat[i][j] = red[x]
        mats.append(mat)
    return dims, mats


def oracle_subs(L, nuN):
    """Every stable subspace of dimension nuN as per-vertex gf.rref output."""
    return [
        tuple(gf.rref(L.F, [list(r) for r in rows]) for rows in choice)
        for choice in oracle_stable_subspaces(L, nuN)
    ]


def oracle_hall_table(quiver, q, nuL, nuN):
    # Its own context: no classify cache is shared with the one under test.
    ctx = FieldContext(quiver, q)
    out = {}
    for dL in ctx.classes(nuL):
        L = ctx.build(dL)
        counts = {}
        for sub in oracle_subs(L, nuN):
            pair = (
                ctx.classify(FqModule(quiver, ctx.F, *oracle_quotient(L, sub))),
                ctx.classify(FqModule(quiver, ctx.F, *oracle_submodule(L, sub))),
            )
            counts[pair] = counts.get(pair, 0) + 1
        out[dL] = counts
    return out


@pytest.mark.parametrize("quiver, nu", HALL_TABLE_CASES)
def test_hall_table_equals_oracle(quiver, nu):
    # Covers nu_N = 0 and nu_N = nu, the identity tables, for each kind of
    # zero class: cyclic, Kronecker, finite type and the Jordan quiver.
    for q in (2, 3):
        ctx = FieldContext(quiver, q)
        for nuN in dims_upto(nu):
            by_L, _ = ctx.hall_table(nu, nuN)
            expected = oracle_hall_table(quiver, q, nu, nuN)
            assert by_L == expected


@pytest.mark.parametrize("quiver, nu", HALL_TABLE_CASES)
def test_census_output_equals_oracle_in_order(quiver, nu):
    # Rows and pivots of every subspace, each listed once with weight 1: the
    # bounds change no subspace.  Sorted, as the census promises no order.
    def plain(sub):
        return tuple((tuple(map(tuple, rows)), tuple(piv)) for rows, piv in sub)

    for q in (2, 3):
        ctx = FieldContext(quiver, q)
        for dL in ctx.classes(nu):
            L = ctx.build(dL)
            for nuN in dims_upto(nu):
                got = [(plain(sub), w) for sub, w in graded_stable_subspaces(L, nuN)]
                expected = [(plain(sub), 1) for sub in oracle_subs(L, nuN)]
                assert sorted(got) == sorted(expected), (dL, nuN)


@pytest.mark.parametrize("quiver, nu", HALL_TABLE_CASES)
def test_hall_row_matches_table(quiver, nu):
    for q in (2, 3):
        ctx = FieldContext(quiver, q)
        for nuN in dims_upto(nu):
            expected = oracle_hall_table(quiver, q, nu, nuN)
            for dL in ctx.classes(nu):
                assert ctx.hall_row(dL, nuN) == expected[dL]
            # The table is made of the row memo's own dicts.
            by_L, _ = ctx.hall_table(nu, nuN)
            assert all(by_L[dL] is ctx.hall_row(dL, nuN) for dL in by_L)


KRONECKER_ROW_DIMS = sorted({nu for b in ((2, 3), (3, 2)) for nu in dims_upto(b) if any(nu)})


@pytest.mark.parametrize("q", [2, 3, 4])
def test_kronecker_rows_equal_a_census_of_each_class(q):
    # Every row, relabelled from a type representative or censused, equals a
    # direct census of its own class, for every dim N other than 0 and dim L.
    ctx, oracle = FieldContext(kronecker(), q), FieldContext(kronecker(), q)
    relabelled = 0
    for nuL in KRONECKER_ROW_DIMS:
        for dL in ctx.classes(nuL):
            relabelled += ctx._point_type(dL) is not None
            L = oracle.build(dL)
            for nuN in dims_upto(nuL):
                if any(nuN) and nuN != nuL:
                    assert ctx.hall_row(dL, nuN) == census_row(oracle, L, nuN), (dL, nuN)
    assert relabelled > 0


def mix_arrows(L, g):
    """The Kronecker module (aA + bB, cA + dB) for L = (A, B) and g = ((a, b), (c, d))."""
    F, (A, B) = L.F, L.mats

    def comb(x, y):
        return [
            [F.add(F.mul(x, s), F.mul(y, t)) for s, t in zip(ra, rb)] for ra, rb in zip(A, B)
        ]

    (a, b), (c, d) = g
    return FqModule(L.quiver, F, L.dims, [comb(a, b), comb(c, d)])


def mobius_point(F, g, pt):
    """The closed point of g . L for the point pt of L.

    B - lambda A is singular at L's point lambda (A singular at infinity), so
    B' - mu A' is singular at mu = (d lambda + c) / (b lambda + a), and the
    minimal polynomial f of lambda goes to the monic multiple of
    h(mu) = sum_i f_i (a mu - c)^i (d - b mu)^(n - i).
    """
    (a, b), (c, d) = g
    if pt == ("i",):
        return pt if b == 0 else ("f", (F.neg(F.mul(d, F.inv(b))),))
    f = list(pt[1]) + [1]
    n = len(f) - 1
    h = []
    for i, fi in enumerate(f):
        term = [fi]
        for _ in range(i):
            term = gf._poly_mul(F, term, [F.neg(c), a])
        for _ in range(n - i):
            term = gf._poly_mul(F, term, [d, F.neg(b)])
        h = gf._poly_add(F, h, term)
    if len(h) <= n:  # the leading coefficient vanished: lambda = -a / b
        return ("i",)
    lead = F.inv(h[-1])
    return ("f", tuple(F.mul(x, lead) for x in h[:-1]))


@pytest.mark.parametrize("q", [3, 4])
def test_arrow_mixing_moves_points_by_mobius(q):
    # GL_2(F_q) mixes the two arrows; this autoequivalence fixes every
    # preprojective and preinjective and moves each homogeneous point by a
    # Moebius map, so a census row of g . L is the image of L's row.
    ctx = FieldContext(kronecker(), q)
    F = ctx.F
    rng = random.Random(q)
    gs = [((0, 1), (1, 0)), ((1, 1), (0, 1)), ((1, 0), (1, 1))]
    while len(gs) < 5:
        g = tuple(tuple(rng.randrange(q) for _ in range(2)) for _ in range(2))
        if F.sub(F.mul(g[0][0], g[1][1]), F.mul(g[0][1], g[1][0])):
            gs.append(g)
    moved_points = 0
    for g in gs:

        def image(desc):
            homog = tuple((mobius_point(F, g, pt), lam) for pt, lam in desc[4])
            return make_cdesc(cm=desc[1], cp=desc[3], homog=homog)

        for nuL in ((1, 1), (2, 2), (2, 3)):
            for dL in ctx.classes(nuL):
                L = ctx.build(dL)
                gL = mix_arrows(L, g)
                assert ctx.classify(gL) == image(dL), (g, dL)
                moved_points += image(dL) != dL
                for nuN in ((1, 1), (0, 1), (1, 2)):
                    if all(x <= y for x, y in zip(nuN, nuL)):
                        moved = {
                            (image(dM), image(dN)): c
                            for (dM, dN), c in census_row(ctx, L, nuN).items()
                        }
                        assert census_row(ctx, gL, nuN) == moved, (g, dL, nuN)
    assert moved_points > 0


@pytest.mark.parametrize("quiver, nu", HALL_TABLE_CASES)
def test_submodule_and_quotient_match_oracle(quiver, nu):
    for q in (2, 3):
        ctx = FieldContext(quiver, q)
        for dL in ctx.classes(nu):
            L = ctx.build(dL)
            for nuN in dims_upto(nu):
                for sub in oracle_subs(L, nuN):
                    for kernel, oracle in (
                        (submodule_from_subspace, oracle_submodule),
                        (quotient_by_subspace, oracle_quotient),
                    ):
                        module = kernel(L, sub)
                        assert (module.dims, module.mats) == oracle(L, sub), (dL, sub)


def test_hall_row_classifies_each_module_once(monkeypatch):
    # Submodules and quotients repeat across a census; each distinct module
    # (FqModule.key()) is classified once, not once per subspace.
    quiver, q, nuN = cyclic(2), 3, (1, 2)
    ctx = FieldContext(quiver, q)
    dL = ("m", (((1, 1), 2), ((1, 2), 1), ((2, 1), 2)))
    assert dL in ctx.classes((3, 3))
    L = ctx.build(dL)
    kept = sum(1 for _ in graded_stable_subspaces(L, nuN))
    # The census by torus orbits lists one subspace per orbit at its first
    # vertex; those are the modules hall_row classifies.
    keys = set()
    listed = weights = 0
    for sub, weight in graded_stable_subspaces(L, nuN, 10**6, ctx.summand_labels(dL)):
        listed += 1
        weights += weight
        for build in (oracle_submodule, oracle_quotient):
            keys.add(FqModule(quiver, ctx.F, *build(L, sub)).key())
    assert weights == kept > listed
    calls = []
    classify = FieldContext.classify

    def counting(self, M):
        calls.append(M.key())
        return classify(self, M)

    monkeypatch.setattr(FieldContext, "classify", counting)
    row = ctx.hall_row(dL, nuN)
    assert sum(row.values()) == kept
    assert sorted(calls) == sorted(keys)
    assert 10 * len(calls) < 2 * listed


def is_semisimple(L) -> bool:
    return not any(any(r) for mat in L.mats for r in mat)


def test_hall_censuses_only_the_asked_L(monkeypatch):
    # The last class with a nonzero arrow: a semisimple L runs no census.
    nuL, nuN = (2, 3), (1, 1)
    table = FieldContext(kronecker(), 3)
    by_L, _ = table.hall_table(nuL, nuN)
    dL = [d for d in by_L if not is_semisimple(table.build(d))][-1]
    (dM, dN), g = max(by_L[dL].items(), key=lambda item: item[1])

    ctx = FieldContext(kronecker(), 3)
    censused = []
    census = fqrep.graded_stable_subspaces

    def recording(M, target, *args, **kwargs):
        censused.append(M)
        return census(M, target, *args, **kwargs)

    monkeypatch.setattr(fqrep, "graded_stable_subspaces", recording)
    assert ctx.hall(dL, dM, dN) == g > 0
    assert censused == [ctx.build(dL)]


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize(
    "quiver, nuL",
    [
        (kronecker(), (2, 3)),
        (cyclic(1), (4,)),
        (cyclic(2), (2, 3)),
        (cyclic(3), (2, 2, 1)),
        (linear_an(3, "><"), (2, 2, 1)),
    ],
)
def test_semisimple_rows_are_closed_form(quiver, nuL, q, monkeypatch):
    # Every graded subspace of a semisimple L is a submodule, so its row is
    # one Gaussian-binomial product, written down without a census.
    oracle = FieldContext(quiver, q)
    (dL,) = [d for d in oracle.classes(nuL) if is_semisimple(oracle.build(d))]
    L = oracle.build(dL)
    targets = [nuN for nuN in dims_upto(nuL) if any(nuN) and nuN != nuL]
    expected = {nuN: census_row(oracle, L, nuN) for nuN in targets}

    censused = []
    monkeypatch.setattr(fqrep, "graded_stable_subspaces", lambda *args: censused.append(args))
    ctx = FieldContext(quiver, q)
    for nuN in targets:
        row = ctx.hall_row(dL, nuN)
        assert row == expected[nuN], nuN
        assert list(row.values()) == [census_size(L, nuN)]
    # nuN not below nuL: no subspace, and no zero entry.
    for v in range(len(nuL)):
        nuN = tuple(nuL[v] + 1 if w == v else 0 for w in range(len(nuL)))
        assert ctx.hall_row(dL, nuN) == {}, nuN
    assert censused == []


@pytest.mark.parametrize(
    "quiver, nu",
    [
        (kronecker(), (2, 2)),
        (cyclic(2), (2, 1)),
        (linear_an(3, "><"), (1, 1, 1)),
        (cyclic(1), (3,)),
    ],
)
def test_identity_hall_tables_run_no_census(quiver, nu, monkeypatch):
    ctx = FieldContext(quiver, 2)
    classes = ctx.classes(nu)

    def refuse(*args, **kwargs):
        raise AssertionError("an identity Hall table ran a census")

    monkeypatch.setattr(fqrep, "graded_stable_subspaces", refuse)
    monkeypatch.setattr(FieldContext, "classify", refuse)
    monkeypatch.setattr(FieldContext, "build", refuse)
    (zero,) = ctx.classes(tuple(0 for _ in nu))
    by_L, by_pair = ctx.hall_table(nu, nu)
    assert by_L == {dL: {(zero, dL): 1} for dL in classes}
    assert by_pair == {(zero, dL): [(dL, 1)] for dL in classes}
    by_L, by_pair = ctx.hall_table(nu, tuple(0 for _ in nu))
    assert by_L == {dL: {(dL, zero): 1} for dL in classes}
    assert by_pair == {(dL, zero): [(dL, 1)] for dL in classes}
    for dL in classes:
        assert ctx.hall(dL, zero, dL) == ctx.hall(dL, dL, zero) == 1
        assert ctx.hall_products(zero, dL) == [(dL, 1)]


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("n, nu", [(1, (4,)), (2, (2, 3)), (2, (3, 3)), (3, (2, 2, 1))])
def test_hall_rows_keep_rotation_and_duality(n, nu, q):
    # g^L_{M,N} = g^{gL}_{gM,gN} for a rotation g, and g^L_{M,N} =
    # g^{gL}_{gN,gM} for g a rotation after the duality: each image row is
    # the transported row, zeros and all.
    ctx = FieldContext(cyclic(n), q)

    def image_dim(dims, r, flip):
        semisimple = ("m", tuple(((v + 1, 1), d) for v, d in enumerate(dims) if d))
        return fqrep.mseg_dim(n, cyclic_image(n, semisimple, r, flip)[1])

    for dL in ctx.classes(nu):
        for nuN in dims_upto(nu):
            nuM = tuple(a - b for a, b in zip(nu, nuN))
            row = ctx.hall_row(dL, nuN)
            for flip in (False, True):
                for r in range(n):
                    def g(d):
                        return cyclic_image(n, d, r, flip)

                    moved = {
                        ((g(dN), g(dM)) if flip else (g(dM), g(dN))): c
                        for (dM, dN), c in row.items()
                    }
                    image_nuN = image_dim(nuM if flip else nuN, r, flip)
                    assert ctx.hall_row(g(dL), image_nuN) == moved, (dL, nuN, r, flip)


def test_realize_S_classifies_no_module_of_dimension_2delta(monkeypatch):
    # S_lambda is realised as products of H_m starting from the unit; the
    # unit factor must not classify every module of dimension 2*delta.
    seen = []
    classify = FieldContext.classify

    def counting(self, M):
        seen.append(M.dims)
        return classify(self, M)

    monkeypatch.setattr(FieldContext, "classify", counting)
    engine = HallEngine(kronecker(), JobConfig(cache_dir=None))
    for q in engine.cfg.primes:
        for lam in partitions(2):
            assert engine.realize_S(lam, q)
    assert seen
    assert (2, 2) not in seen


def torus_orbit(F, rows, labels):
    """Every image of the subspace ``rows`` under all block scalings, RREF."""
    blocks = sorted(set(labels))
    out = set()
    for scales in product(range(1, F.q), repeat=len(blocks)):
        lam = dict(zip(blocks, scales))
        moved = [[F.mul(x, lam[b]) for x, b in zip(row, labels)] for row in rows]
        out.add(tuple(map(tuple, gf.rref(F, moved)[0])))
    return out


TORUS_LABELS = [(0, 0, 0), (0, 1, 1), (1, 0, 1), (0, 1, 2), (0, 0, 1, 2), (2, 0, 1, 0)]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_torus_orbits_partition_the_listing(q):
    # Checked against every element of T = (F_q^*)^blocks, not only the
    # generator scalings the orbits are closed under.
    F = gf.GF(q)
    for labels in TORUS_LABELS:
        d = len(labels)
        if d == 4 and q > 5:
            continue
        for k in range(d + 1):
            listing = fqrep._subspace_listing(F, d, k)
            orbits = fqrep._torus_orbits(F, d, k, labels)
            assert sum(w for _, w in orbits) == gf.gaussian_binomial_int(d, k, q)
            position = {rows: i for i, (rows, _) in enumerate(listing)}
            covered = set()
            last = -1
            for (rows, pivots), weight in orbits:
                assert (rows, pivots) in listing
                orbit = torus_orbit(F, rows, labels)
                assert len(orbit) == weight, (labels, k, rows)
                assert not covered & orbit
                covered |= orbit
                # The representative is its orbit's first subspace, and the
                # representatives come in listing order.
                assert position[rows] == min(position[r] for r in orbit)
                assert position[rows] > last
                last = position[rows]
            assert covered == set(position)
            if q == 2 or len(set(labels)) == 1:
                assert [w for _, w in orbits] == [1] * len(listing)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@pytest.mark.parametrize(
    "quiver, nuL, reduces",
    [
        (kronecker(), (2, 3), True),
        (cyclic(1), (4,), True),
        (cyclic(2), (2, 3), True),
        (cyclic(2), (3, 3), True),
        # Each census here fixes first a vertex with one subspace; its
        # orbits are taken at the next vertex.
        (cyclic(3), (2, 2, 1), True),
        (linear_an(3, "><"), (2, 2, 1), True),
    ],
)
def test_hall_rows_by_torus_orbits_equal_a_full_census(quiver, nuL, reduces, q):
    # Every row, whatever way it is made, equals the brute-force count over
    # all stable subspaces of the class's own module; at q > 2 some census
    # lists fewer subspaces than it counts.
    ctx, oracle = FieldContext(quiver, q), FieldContext(quiver, q)
    listed = counted = 0
    for dL in ctx.classes(nuL):
        L = oracle.build(dL)
        for nuN in dims_upto(nuL):
            if not any(nuN) or nuN == nuL:
                continue
            assert ctx.hall_row(dL, nuN) == census_row(oracle, L, nuN), (dL, nuN)
            if ctx._point_type(dL) is None and not is_semisimple(L):
                for _, weight in graded_stable_subspaces(
                    L, nuN, 10**6, ctx.summand_labels(dL)
                ):
                    listed += 1
                    counted += weight
    assert listed < counted if q > 2 and reduces else listed == counted


@pytest.mark.parametrize("q", [3, 4, 5])
def test_rows_whose_first_vertex_is_forced_reduce_at_the_next(q):
    # On Kronecker (2,3), dim N = (0,a) or (2,a) forces the first vertex of
    # the census to 0 or all of L_v, so its torus orbits are taken at the
    # sink, between the bounds the forced vertex puts on it.
    ctx, oracle = FieldContext(kronecker(), q), FieldContext(kronecker(), q)
    for nuN in [(0, 1), (0, 2), (2, 2)]:
        listed = counted = 0
        for dL in ctx.classes((2, 3)):
            L = oracle.build(dL)
            assert ctx.hall_row(dL, nuN) == census_row(oracle, L, nuN), (dL, nuN)
            if ctx._point_type(dL) is None and not is_semisimple(L):
                for _, weight in graded_stable_subspaces(L, nuN, 10**6, ctx.summand_labels(dL)):
                    listed += 1
                    counted += weight
        assert listed < counted, nuN


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
@pytest.mark.parametrize("n, nuL", [(2, (4, 3)), (3, (2, 2, 2))])
def test_cyclic_one_vertex_rows_equal_a_census(n, nuL, q, monkeypatch):
    # With dim N or dim M at one vertex, N or M is S_i^a and the row is the
    # socle formula read backwards, or its image under the duality: nothing
    # is built, classified or censused, and every row equals a census of the
    # class's own module.
    oracle = FieldContext(cyclic(n), q)
    expected = {}
    for nuN in dims_upto(nuL):
        nuM = tuple(a - b for a, b in zip(nuL, nuN))
        if any(nuN) and any(nuM) and 1 in (sum(map(bool, nuN)), sum(map(bool, nuM))):
            for dL in oracle.classes(nuL):
                expected[dL, nuN] = census_row(oracle, oracle.build(dL), nuN)

    def refuse(*args, **kwargs):
        raise AssertionError("a one-vertex row built, classified or censused a module")

    ctx = FieldContext(cyclic(n), q)
    ctx.classes(nuL)
    monkeypatch.setattr(fqrep, "graded_stable_subspaces", refuse)
    monkeypatch.setattr(FieldContext, "classify", refuse)
    monkeypatch.setattr(FieldContext, "build", refuse)
    for (dL, nuN), row in expected.items():
        assert ctx.hall_row(dL, nuN) == row, (dL, nuN)
