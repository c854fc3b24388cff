"""The interval census against a brute-force product-then-filter oracle."""

import random
from collections import Counter
from itertools import product

import pytest

from hallcanon import fqrep, gf
from hallcanon.canonical import CanonicalSolver
from hallcanon.combinatorics import (
    _gauss_binom_coeffs,
    cyclic_image,
    eval_poly,
    make_cdesc,
    mseg_dim,
    point_type,
)
from hallcanon.config import BudgetExceededError, JobConfig
from hallcanon.fqrep import (
    FieldContext,
    FqModule,
    build_cyclic,
    census_size,
    graded_stable_subspaces,
)
from hallcanon.hallalg import HallEngine
from hallcanon.hallpoly import HallPolyEngine
from hallcanon.partitions import partitions
from hallcanon.pbw import IndexSystem
from hallcanon.quiver import cyclic, kronecker, linear_an
from oracles import census_row, classes, quotient_by_subspace, submodule_from_subspace


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
        for d in classes(ctx, nu):
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
    assert size == eval_poly(_gauss_binom_coeffs(4, 2), 3)
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
    for dL in classes(ctx, (3, 2)):
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
    for dL in classes(ctx, nuL):
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


def summed_by_type(row) -> dict:
    """A class's Hall row with its entries summed by the point types of
    (M, N)."""
    out: dict = {}
    for (dM, dN), g in row.items():
        pair = (point_type(dM), point_type(dN))
        out[pair] = out.get(pair, 0) + g
    return out


def oracle_table_by_type(table) -> dict:
    """An oracle table's rows summed by type and keyed by the point type of
    L: what ``hall_table`` returns.  Every class of a type must give the same
    summed row (Hubery); off the Kronecker quiver it is the table."""
    out: dict = {}
    for dL, row in table.items():
        summed = out.setdefault(point_type(dL), summed_by_type(row))
        assert summed == summed_by_type(row), dL
    return out


@pytest.mark.parametrize("quiver, nu", HALL_TABLE_CASES)
def test_hall_table_equals_oracle(quiver, nu):
    # Covers nu_N = 0 and nu_N = nu, the identity tables, for each kind of
    # zero class: cyclic, Kronecker, finite type and the Jordan quiver.
    # Every class's row is the oracle's; the table is the oracle summed by
    # type, which off the Kronecker quiver is the oracle itself.
    for q in (2, 3):
        ctx = FieldContext(quiver, q)
        for nuN in dims_upto(nu):
            by_L, _ = ctx.hall_table(nu, nuN)
            expected = oracle_hall_table(quiver, q, nu, nuN)
            assert {dL: ctx.hall_row(dL, nuN) for dL in classes(ctx, nu)} == expected
            assert by_L == oracle_table_by_type(expected)
            if quiver != kronecker():
                assert by_L == expected


@pytest.mark.parametrize("quiver, nu", HALL_TABLE_CASES)
def test_census_output_equals_oracle_in_order(quiver, nu):
    # Rows and pivots of every subspace, each listed once with weight 1: the
    # bounds change no subspace.  Sorted, as the census promises no order.
    def plain(sub):
        return tuple((tuple(map(tuple, rows)), tuple(piv)) for rows, piv in sub)

    for q in (2, 3):
        ctx = FieldContext(quiver, q)
        for dL in classes(ctx, nu):
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
            for dL in classes(ctx, nu):
                assert ctx.hall_row(dL, nuN) == expected[dL]
            # The table is made of the row memo's own dicts where every
            # class is its own type, and of their sums by type on Kronecker.
            by_L, _ = ctx.hall_table(nu, nuN)
            types = ctx.type_classes(nu)
            assert list(by_L) == [point_type(dL) for dL in types]
            if quiver == kronecker():
                assert all(
                    by_L[point_type(dL)] == summed_by_type(ctx.hall_row(dL, nuN)) for dL in types
                )
            else:
                assert all(by_L[dL] is ctx.hall_row(dL, nuN) for dL in by_L)


KRONECKER_ROW_DIMS = sorted({nu for b in ((2, 3), (3, 2)) for nu in dims_upto(b) if any(nu)})


@pytest.mark.parametrize("q", [2, 3, 4])
def test_kronecker_rows_equal_a_census_of_each_class(q):
    # Every row, of one of ``type_classes`` or of any other class, equals a
    # direct census of its own class, for every dim N other than 0 and dim L.
    ctx, oracle = FieldContext(kronecker(), q), FieldContext(kronecker(), q)
    for nuL in KRONECKER_ROW_DIMS:
        for dL in classes(ctx, nuL):
            L = oracle.build(dL)
            for nuN in dims_upto(nuL):
                if any(nuN) and nuN != nuL:
                    assert ctx.hall_row(dL, nuN) == census_row(oracle, L, nuN), (dL, nuN)


def test_a_kronecker_solve_censuses_only_type_classes(monkeypatch):
    # The pipeline's Hall tables read one class of each type, so a cold
    # Kronecker (3,3) solve hands ``_census_row`` no other class.
    received = []
    census = FieldContext._census_row

    def recording(self, descL, nuN, nuM):
        received.append((self, descL))
        return census(self, descL, nuN, nuM)

    monkeypatch.setattr(FieldContext, "_census_row", recording)
    engine = HallEngine(kronecker(), JobConfig(cache_dir=None))
    CanonicalSolver(IndexSystem(engine)).solve((3, 3))
    assert received
    assert all(dL in ctx.type_classes(ctx.desc_dim(dL)) for ctx, dL in received)


@pytest.mark.parametrize("q", [2, 3])
def test_hallpoly_censuses_a_class_off_its_types_placement(q):
    # ``hallpoly`` fills a triple's points in slot order, so its L may be a
    # class of its type that ``type_classes`` does not list: partition (2)
    # at the first point and (1) at the second, where the listed class puts
    # (1) first.  That L is censused as it is, and the polynomial is the
    # direct census of L at each field.
    engine = HallPolyEngine(kronecker(), JobConfig(cache_dir=None))
    ctx = engine.ctx(q)
    x0, x1 = ctx.points(1)[:2]
    L = make_cdesc(homog=((x0, (2,)), (x1, (1,))))
    M, N = make_cdesc(cp=((1, 1), (2, 1))), make_cdesc(cm=((0, 2),))
    assert L not in ctx.type_classes((3, 3))
    oracle = FieldContext(kronecker(), q)
    expected = census_row(oracle, oracle.build(L), ctx.desc_dim(N)).get((M, N), 0)
    assert expected > 0
    assert eval_poly(engine.hall_polynomial(L, M, N).coeffs, q) == expected


SPLIT_SIMPLE_CASES = [
    (kronecker(), (3, 3)),
    (linear_an(3, "><"), (2, 2, 2)),
    (linear_an(4), (2, 2, 2, 2)),
]


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("quiver, bound", SPLIT_SIMPLE_CASES)
def test_split_simple_rows_equal_a_census(quiver, bound, q):
    # A row with N = S_i^a at a source i, or M = S_j^a at a sink j, is the
    # closed form [m, a]_q; for every class up to bound it equals a census of
    # the class itself.
    ctx, oracle = FieldContext(quiver, q), FieldContext(quiver, q)
    n, closed = quiver.n, 0
    for nuL in dims_upto(bound):
        for dL in classes(ctx, nuL):
            for v, a in ((v, a) for v in range(n) for a in range(1, nuL[v] + 1)):
                e = tuple(a * (j == v) for j in range(n))
                rest = tuple(x - y for x, y in zip(nuL, e))
                for nuN, at_end in ((e, quiver.is_source), (rest, quiver.is_sink)):
                    if not at_end(v) or not any(rest):
                        continue
                    row = ctx._split_simple_row(dL, nuN, tuple(x - y for x, y in zip(nuL, nuN)))
                    assert row is not None
                    L = oracle.build(dL)
                    assert ctx.hall_row(dL, nuN) == row == census_row(oracle, L, nuN), (dL, nuN)
                    closed += bool(row)
    assert closed > 0


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
            for dL in classes(ctx, nuL):
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
        for dL in classes(ctx, nu):
            L = ctx.build(dL)
            for nuN in dims_upto(nu):
                for sub in oracle_subs(L, nuN):
                    for kernel, oracle in (
                        (submodule_from_subspace, oracle_submodule),
                        (quotient_by_subspace, oracle_quotient),
                    ):
                        module = kernel(L, sub)
                        assert (module.dims, module.mats) == oracle(L, sub), (dL, sub)


def module_key(M):
    """(dims, arrow matrices as nested tuples): equal for equal modules."""
    return M.dims, tuple(tuple(tuple(r) for r in m) for m in M.mats)


def test_hall_row_classifies_each_module_once(monkeypatch):
    # Submodules and quotients repeat across a census; each distinct module
    # (``module_key``) is classified once, not once per subspace.
    quiver, q, nuN = cyclic(2), 3, (1, 2)
    ctx = FieldContext(quiver, q)
    dL = ("m", (((1, 1), 2), ((1, 2), 1), ((2, 1), 2)))
    assert dL in classes(ctx, (3, 3))
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
            keys.add(module_key(FqModule(quiver, ctx.F, *build(L, sub))))
    assert weights == kept > listed
    calls = []
    classify = FieldContext.classify

    def counting(self, M):
        calls.append(module_key(M))
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
    dL = [d for d in table.type_classes(nuL) if not is_semisimple(table.build(d))][-1]
    (dM, dN), g = max(table.hall_row(dL, nuN).items(), key=lambda item: item[1])

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
    (dL,) = [d for d in classes(oracle, nuL) if is_semisimple(oracle.build(d))]
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
    # The tables hold one row per type, keyed by point type (on Kronecker
    # fewer than the classes); every class's own Hall numbers are 1.
    ctx = FieldContext(quiver, 2)
    listed = classes(ctx, nu)
    types = [point_type(dL) for dL in ctx.type_classes(nu)]

    def refuse(*args, **kwargs):
        raise AssertionError("an identity Hall table ran a census")

    monkeypatch.setattr(fqrep, "graded_stable_subspaces", refuse)
    monkeypatch.setattr(FieldContext, "classify", refuse)
    monkeypatch.setattr(FieldContext, "build", refuse)
    (zero,) = classes(ctx, tuple(0 for _ in nu))
    by_L, by_pair = ctx.hall_table(nu, nu)
    assert by_L == {dL: {(zero, dL): 1} for dL in types}
    assert by_pair == {(zero, dL): [(dL, 1)] for dL in types}
    by_L, by_pair = ctx.hall_table(nu, tuple(0 for _ in nu))
    assert by_L == {dL: {(dL, zero): 1} for dL in types}
    assert by_pair == {(dL, zero): [(dL, 1)] for dL in types}
    for dL in listed:
        assert ctx.hall(dL, zero, dL) == ctx.hall(dL, dL, zero) == 1
    for dL in types:
        assert ctx.hall_products(zero, dL) == [(dL, 1)]
    assert (len(types) < len(listed)) == (quiver == kronecker())


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("n, nu", [(1, (4,)), (2, (2, 3)), (2, (3, 3)), (3, (2, 2, 1))])
def test_hall_rows_keep_rotation_and_duality(n, nu, q):
    # g^L_{M,N} = g^{gL}_{gM,gN} for a rotation g, and g^L_{M,N} =
    # g^{gL}_{gN,gM} for g a rotation after the duality: each image row is
    # the transported row, zeros and all.
    ctx = FieldContext(cyclic(n), q)

    def image_dim(dims, r, flip):
        semisimple = ("m", tuple(((v + 1, 1), d) for v, d in enumerate(dims) if d))
        return mseg_dim(n, cyclic_image(n, semisimple, r, flip)[1])

    for dL in classes(ctx, nu):
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
            assert sum(w for _, w in orbits) == eval_poly(_gauss_binom_coeffs(d, k), q)
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
    for dL in classes(ctx, nuL):
        L = oracle.build(dL)
        for nuN in dims_upto(nuL):
            if not any(nuN) or nuN == nuL:
                continue
            assert ctx.hall_row(dL, nuN) == census_row(oracle, L, nuN), (dL, nuN)
            if not is_semisimple(L):
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
        for dL in classes(ctx, (2, 3)):
            L = oracle.build(dL)
            assert ctx.hall_row(dL, nuN) == census_row(oracle, L, nuN), (dL, nuN)
            if not is_semisimple(L):
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
            for dL in classes(oracle, nuL):
                expected[dL, nuN] = census_row(oracle, oracle.build(dL), nuN)

    def refuse(*args, **kwargs):
        raise AssertionError("a one-vertex row built, classified or censused a module")

    ctx = FieldContext(cyclic(n), q)
    ctx.type_classes(nuL)
    monkeypatch.setattr(fqrep, "graded_stable_subspaces", refuse)
    monkeypatch.setattr(FieldContext, "classify", refuse)
    monkeypatch.setattr(FieldContext, "build", refuse)
    for (dL, nuN), row in expected.items():
        assert ctx.hall_row(dL, nuN) == row, (dL, nuN)
