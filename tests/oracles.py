"""Reference implementations that several test modules check the package against.

None of these runs in the pipeline: each is the direct, slow or classical
form of something the package computes another way.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import permutations

from hallcanon.canonical import CanonicalData, lusztig_solve, zeta_matrix
from hallcanon.config import InterpolationError
from hallcanon.fqrep import (
    FqModule,
    _quotient_block,
    _submodule_block,
    eval_poly,
    graded_stable_subspaces,
    hom_dim,
    make_cdesc,
    mseg_dim,
    mseg_hom,
)
from hallcanon.hallpoly import MIN_VALIDATE
from hallcanon.laurent import (
    ONE,
    ZERO,
    LaurentPoly,
    RationalFn,
    add_scaled,
    invert_unitriangular,
    row_times,
)


# -- quantum combinatorics --------------------------------------------


@lru_cache(maxsize=None)
def qint(n: int) -> LaurentPoly:
    """The balanced quantum integer (v^n - v^-n)/(v - v^-1); qint(0) = 0."""
    if n < 0:
        return -qint(-n)
    return LaurentPoly({n - 1 - 2 * k: 1 for k in range(n)})


@lru_cache(maxsize=None)
def qfact(n: int) -> LaurentPoly:
    """Quantum factorial, with qfact(0) = 1."""
    if n < 0:
        raise ValueError("negative quantum factorial")
    out = ONE
    for k in range(1, n + 1):
        out = out * qint(k)
    return out


@lru_cache(maxsize=None)
def qbinom(m: int, n: int) -> LaurentPoly:
    """Gaussian binomial [m choose n]; the division is exact."""
    if n < 0 or m < 0 or n > m:
        raise ValueError(f"qbinom({m},{n}) undefined")
    out = qfact(m).exact_div(qfact(n) * qfact(m - n))
    if not out.is_integral():
        raise ArithmeticError("Gaussian binomial division was not exact")
    return out


# -- series membership ----------------------------------------------------


def expand_at_infinity(f: RationalFn, lowest: int) -> dict:
    """Expand f in powers of v^-1, from its top exponent down to v^lowest.

    Returns the nonzero coefficients as {exponent: Fraction}; f has no term
    above its top exponent deg(num) - deg(den).
    """
    if f.num.is_zero():
        return {}
    num, den = f.num, f.den
    dn, dd = num.degree(), den.degree()
    top = dn - dd
    # In w = v^-1, f = v^top * A(w)/B(w) with B(0) the leading coefficient of
    # den, so the coefficients follow from B(w) * (c_0 + c_1 w + ...) = A(w).
    b0 = Fraction(den.coeff(dd))
    b = [den.coeff(dd - j) for j in range(min(top - lowest, dd - den.valuation()) + 1)]
    c = []
    out = {}
    for k in range(top - lowest + 1):
        s = Fraction(num.coeff(dn - k))
        for j in range(1, min(k, len(b) - 1) + 1):
            s -= b[j] * c[k - j]
        ck = s / b0
        c.append(ck)
        if ck:
            out[top - k] = ck
    return out


def in_delta_plus_tail(f, delta) -> bool:
    """Predicate: value lies in delta + v^-1 Q[[v^-1]] (exact), read off the
    expansion at v = infinity.

    The oracle for the degree test of ``canonical.gram_almost_orthonormal``.
    """
    if isinstance(f, LaurentPoly):
        f = RationalFn(f)
    coeffs = expand_at_infinity(f, 0)
    return coeffs.get(0, 0) == delta and not any(e > 0 for e in coeffs)


def sum_in_delta_plus_tail(terms, delta) -> bool:
    """Predicate: sum c*f over the pairs (LaurentPoly c, RationalFn f) in
    ``terms``, formed as one rational function, lies in delta + v^-1 Q[[v^-1]].

    Numerators over the same denominator are added first, which keeps the
    common denominator small.
    """
    over: dict = {}
    for c, f in terms:
        over[f.den] = over.get(f.den, ZERO) + c * f.num
    total = RationalFn(ZERO)
    for den, num in over.items():
        total = total + RationalFn(num, den)
    return in_delta_plus_tail(total, delta)


def gram_C_almost_orthonormal(g, gram) -> bool:
    """(C_i, C_j) in delta_ij + v^-1 Q[[v^-1]] for all i <= j, with C = g * E.

    ``g`` is a list of {column: coeff} rows and ``gram`` maps (a, b), a <= b,
    to (E_a, E_b); each (C_i, C_j) = sum g_ia g_jb (E_a, E_b) is summed as
    one rational function.  The oracle for ``canonical.gram_almost_orthonormal``,
    which reads ``gram`` alone and agrees with this when g is unitriangular
    with v^-1 Z[v^-1] tails.
    """
    n = len(g)
    return all(
        sum_in_delta_plus_tail(
            [
                (ca * cb, gram[(min(a, b), max(a, b))])
                for a, ca in g[i].items()
                for b, cb in g[j].items()
            ],
            1 if i == j else 0,
        )
        for i in range(n)
        for j in range(i, n)
    )


# -- forged bundles --------------------------------------------------------


def _recomputed_bundle(solver, pbw, mon, eta) -> dict:
    """The matrices of a bundle whose monomial rows over N are ``mon`` and
    whose PBW rows over the monomials are ``eta``, with E, eta^-1, zeta, g
    and every product recomputed from them as the solver would; ``gram_E``
    stays the honest one."""
    order = pbw.order
    mon_over_E = invert_unitriangular(order, eta)
    E = {a: row_times(eta[a], mon) for a in order}
    zeta = zeta_matrix(order, eta, mon_over_E)
    g = lusztig_solve(order, zeta)
    forged = pbw._replace(mon=mon, E=E, eta=eta, mon_over_E=mon_over_E)
    C_over_N = {a: row_times(g[a], E) for a in order}
    C_over_mon = {a: row_times(g[a], eta) for a in order}
    return solver._matrices(CanonicalData(forged, zeta, g, C_over_N, C_over_mon))


def pbw_forgery(solver, nu, i, j, sign) -> dict:
    """One-step forgery of the PBW basis: E_a becomes E_a + sign * E_b for
    a = order[i] and b = order[j], j < i, and the rest is recomputed."""
    pbw = solver.system.pbw_basis(tuple(nu))
    a, b = pbw.order[i], pbw.order[j]
    eta = dict(pbw.eta)
    eta[a] = add_scaled(dict(eta[a]), eta[b], sign)
    return _recomputed_bundle(solver, pbw, pbw.mon, eta)


def monomial_forgery(solver, nu, i, j) -> dict:
    """Forged monomial row: m_a becomes m_a - m_b for a = order[i] and
    b = order[j], j < i, and the rest is recomputed, so E and g do not change."""
    pbw = solver.system.pbw_basis(tuple(nu))
    order = pbw.order
    a, b = order[i], order[j]
    mon = dict(pbw.mon)
    mon[a] = add_scaled(dict(mon[a]), mon[b], -1)
    aper = set(order)
    mon_over_E = {x: {y: c for y, c in mon[x].items() if y in aper} for x in order}
    return _recomputed_bundle(solver, pbw, mon, invert_unitriangular(order, mon_over_E))


# -- symmetric functions --------------------------------------------------


def jacobi_trudi_det(lam) -> tuple:
    """S_lam = det(H_{lam_i - i + j}) expanded over the permutations of
    len(lam): ((partition of the H factors, coeff), ...), sorted.

    The oracle for ``hallalg.jacobi_trudi_h``, which solves against the
    Kostka matrix instead.
    """
    lam = tuple(lam)
    acc: dict = {}
    for perm in permutations(range(len(lam))):
        parts = [lam[k] - k + perm[k] for k in range(len(lam))]
        if min(parts, default=0) < 0:
            continue
        inversions = sum(perm[i] > perm[j] for j in range(len(perm)) for i in range(j))
        key = tuple(sorted((p for p in parts if p), reverse=True))
        acc[key] = acc.get(key, 0) + (-1) ** inversions
    return tuple(sorted((k, c) for k, c in acc.items() if c))


# -- root combinatorics ---------------------------------------------------


def reflect(Q, i: int, nu) -> tuple[int, ...]:
    """Simple reflection s_i(nu) = nu - (nu, e_i) e_i."""
    e = tuple(1 if j == i else 0 for j in range(Q.n))
    c = Q.symmetric_form(nu, e)
    return tuple(nu[j] - c * e[j] for j in range(Q.n))


# -- submodules and quotients as modules ----------------------------------


def submodule_from_subspace(M: FqModule, sub) -> FqModule:
    """The submodule on a stable subspace given as per-vertex (RREF rows, pivots).

    Arrow matrices are ``_submodule_block``s, the blocks that
    ``FieldContext.hall_row`` memoizes; stability is not checked.
    """
    mats = [
        _submodule_block(M.F, M.mats[a], sub[s][0], sub[t][1])
        for a, (s, t) in enumerate(M.quiver.arrows)
    ]
    return FqModule(M.quiver, M.F, tuple(len(rows) for rows, _ in sub), mats)


def quotient_by_subspace(M: FqModule, sub) -> FqModule:
    """The quotient by a stable subspace given as per-vertex (RREF rows, pivots).

    The quotient at v has the basis of the non-pivot columns of sub[v]; arrow
    matrices are ``_quotient_block``s, the blocks that ``FieldContext.hall_row``
    memoizes.
    """
    mats = [
        _quotient_block(M.F, M.mats[a], M.dims[s], sub[s][1], *sub[t])
        for a, (s, t) in enumerate(M.quiver.arrows)
    ]
    dims = tuple(d - len(pivots) for d, (_, pivots) in zip(M.dims, sub))
    return FqModule(M.quiver, M.F, dims, mats)


def census_row(ctx, L: FqModule, nuN) -> dict:
    """{(class of L/U, class of U): count} over the stable subspaces U of the
    explicit module L of dimension nuN: a direct census of L itself, with no
    row borrowed from another class."""
    row: dict = {}
    for sub, weight in graded_stable_subspaces(L, nuN):
        pair = (
            ctx.classify(quotient_by_subspace(L, sub)),
            ctx.classify(submodule_from_subspace(L, sub)),
        )
        row[pair] = row.get(pair, 0) + weight
    return row


def lagrange_fit(points) -> tuple[Fraction, ...]:
    """Exact interpolating polynomial through (x, y) pairs, coeffs ascending."""
    n = len(points)
    coeffs = [Fraction(0)] * n
    for i, (xi, yi) in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            new = [Fraction(0)] * (len(basis) + 1)
            for k, c in enumerate(basis):
                new[k] -= c * xj
                new[k + 1] += c
            basis = new
            denom *= xi - xj
        scale = Fraction(yi) / denom
        for k, c in enumerate(basis):
            coeffs[k] += scale * c
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def fit_integer_poly_by_degree(pairs, cap=None):
    """``hallpoly.fit_integer_poly`` as it was written first: fit degree
    d = 0, 1, ... on the first d + 1 pairs until one has integer
    coefficients and agrees with every remaining pair."""
    pairs = list(pairs)
    top = len(pairs) - 1 - MIN_VALIDATE
    if cap is not None:
        top = min(cap, top)
    for d in range(top + 1):
        coeffs = lagrange_fit(pairs[: d + 1])
        if all(c.denominator == 1 for c in coeffs) and all(
            eval_poly(coeffs, x) == y for x, y in pairs[d + 1 :]
        ):
            return tuple(int(c) for c in coeffs), d + 1
    raise InterpolationError(
        f"no integer polynomial of degree <= {max(top, 0)} fits {len(pairs)} samples"
    )


def homog_configs_by_point(ctx, m: int):
    """``FieldContext.homog_configs`` as it was written first: one level of
    recursion per closed point, each skipped before it is given a partition.
    Its depth is the number of points of degree <= m."""
    from hallcanon.partitions import partitions

    if m < 0:
        return
    pools = [(pt, d) for d in range(1, m + 1) for pt in ctx.points(d)]

    def rec(idx, remaining, chosen):
        if remaining == 0:
            yield tuple(chosen)
            return
        if idx == len(pools):
            return
        pt, d = pools[idx]
        yield from rec(idx + 1, remaining, chosen)
        for size in range(1, remaining // d + 1):
            for lam in partitions(size):
                chosen.append((pt, lam))
                yield from rec(idx + 1, remaining - size * d, chosen)
                chosen.pop()

    yield from rec(0, m, [])


# -- classification by Hom profiles ---------------------------------------


def indecomposable_pool(ctx, total: int) -> list:
    """Every indecomposable of ``ctx`` of total dimension at most ``total``."""
    n = ctx.quiver.n
    if ctx.kind == "cyclic":
        return [("s", i, l) for l in range(1, total + 1) for i in range(1, n + 1)]
    bound = (total,) * n
    pool = [("p", t) for t in ctx.seq.preprojective_range(bound)]
    pool += [("q", t) for t in ctx.seq.preinjective_range(bound)]
    pool = [x for x in pool if sum(ctx.indec_dim(x)) <= total]
    if ctx.kind == "kronecker":
        dsum = sum(ctx.delta)
        for d in range(1, total // dsum + 1):
            for l in range(1, total // (d * dsum) + 1):
                pool.extend(("r", pt, l) for pt in ctx.points(d))
    return pool


def _indec_desc(x) -> tuple:
    if x[0] == "s":
        return ("m", (((x[1], x[2]), 1),))
    if x[0] == "p":
        return make_cdesc(cm=((x[1], 1),))
    if x[0] == "q":
        return make_cdesc(cp=((x[1], 1),))
    return make_cdesc(homog=((x[1], (x[2],)),))


@lru_cache(maxsize=None)
def _hom_pair(ctx, x, d) -> tuple:
    """(dim Hom(X, D), dim Hom(D, X)) for the indecomposable x and class d."""
    xd = _indec_desc(x)
    return ctx.hom_desc(xd, d), ctx.hom_desc(d, xd)


def hom_profile_class(ctx, M):
    """The class of ``classes(M.dims)`` whose Hom dimensions to and from every
    indecomposable X with |X| <= |M| are those of M.

    Each pool member narrows the candidates until one is left.  A module is
    determined by dim Hom(X, M) over all indecomposables X (Auslander), and
    the assertion checks that the pool, read both ways, leaves one class.
    """
    cands = list(ctx.classes(M.dims))
    for x in indecomposable_pool(ctx, sum(M.dims)):
        if len(cands) <= 1:
            break
        X = ctx.build_indec(x)
        seen = (hom_dim(X, M), hom_dim(M, X))
        cands = [d for d in cands if _hom_pair(ctx, x, d) == seen]
    assert len(cands) == 1, (M.dims, cands)
    return cands[0]


# -- multisegments ------------------------------------------------------


def mseg_leq_G_by_hom(n: int, pi, rho) -> bool:
    """pi <=_G rho, one dim Hom(S_i[l], -) comparison at a time.

    The loop ``pbw.mseg_leq_G`` replaced by comparing two cached profiles.
    """
    if pi == rho:
        return True
    if mseg_dim(n, pi) != mseg_dim(n, rho):
        return False
    bound = sum(l * m for (_, l), m in pi) + sum(l * m for (_, l), m in rho)
    for l in range(1, bound + 1):
        for i in range(1, n + 1):
            seg = (((i, l), 1),)
            if mseg_hom(n, seg, pi) < mseg_hom(n, seg, rho):
                return False
    return True
