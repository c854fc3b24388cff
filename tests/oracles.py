"""Reference implementations that several test modules check the package against.

None of these runs in the pipeline: each is the direct, slow or classical
form of something the package computes another way.
"""

from functools import lru_cache
from itertools import permutations

from hallcanon.fqrep import FqModule, _quotient_block, _submodule_block, hom_dim, make_cdesc
from hallcanon.laurent import ONE, LaurentPoly, RationalFn, expand_at_infinity


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


def in_delta_plus_tail(f, delta) -> bool:
    """Predicate: value lies in delta + v^-1 Q[[v^-1]] (exact).

    The oracle for ``laurent.sum_in_delta_plus_tail``, on the summed function.
    """
    if isinstance(f, LaurentPoly):
        f = RationalFn(f)
    coeffs = expand_at_infinity(f, 0)
    return coeffs.get(0, 0) == delta and not any(e > 0 for e in coeffs)


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
