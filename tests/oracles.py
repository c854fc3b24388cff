"""Reference implementations that several test modules check the package against.

None of these runs in the pipeline: each is the direct, slow or classical
form of something the package computes another way.
"""

from functools import lru_cache

from hallcanon.fqrep import FqModule, _quotient_block, _submodule_block
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
