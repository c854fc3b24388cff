"""Reference implementations that several test modules check the package against.

None of these runs in the pipeline: each is the direct, slow or classical
form of something the package computes another way, or a check of the
algebra the pipeline rests on (Green's coproduct and form, quantum Serre
sums, structure constants over the N family).
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from weakref import WeakKeyDictionary

from hallcanon.canonical import CanonicalData, lusztig_solve, zeta_matrix
from hallcanon.combinatorics import eval_poly, make_cdesc, mseg_dim, mseg_hom, point_type
from hallcanon.config import InsufficientPointsError, InterpolationError, _factor_prime_power
from hallcanon.fqrep import (
    FqModule,
    _quotient_block,
    _submodule_block,
    graded_stable_subspaces,
    hom_dim,
)
from hallcanon.gf import GF, _poly_rem, zeros
from hallcanon.hallalg import FieldElement
from hallcanon.hallpoly import MIN_VALIDATE, sample_and_fit
from hallcanon.pbw import _geL
from hallcanon.laurent import (
    ONE,
    ZERO,
    LaurentPoly,
    RationalFn,
    add_scaled,
    invert_unitriangular,
    row_times,
)


# -- integrality and gcds -------------------------------------------------


def is_integral(p: LaurentPoly) -> bool:
    """Every coefficient of p is an int: the package's Laurent polynomials
    lie in Z[v, v^-1], and only oracles that carry 1/|Aut M| make others."""
    return all(type(c) is int for c in p.terms.values())


def poly_gcd_over_Q(a: LaurentPoly, b: LaurentPoly) -> list:
    """A gcd over Q of two polynomials in v, not both zero, by Euclid on
    ``Fraction`` coefficient lists: monic, coefficients lowest degree first.

    The reference for ``hallalg._poly_gcd``, which stays in Z[v].
    """

    def coeffs(p):
        assert not p or p.valuation() >= 0, "not a polynomial"
        return [Fraction(p.coeff(e)) for e in range(p.degree() + 1)] if p else []

    a, b = coeffs(a), coeffs(b)
    while b:
        while len(a) >= len(b):
            c, k = a[-1] / b[-1], len(a) - len(b)
            a = [x - c * b[i - k] if i >= k else x for i, x in enumerate(a)][:-1]
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return [x / a[-1] for x in a]


def eval_sqrt(p: LaurentPoly, q: int) -> tuple[Fraction, Fraction]:
    """p at v = sqrt(q), exactly, as (a, b) with value a + b sqrt(q): the
    even and the odd powers of v apart."""
    a = b = Fraction(0)
    for e, c in p.terms.items():
        if e % 2 == 0:
            a += Fraction(c) * Fraction(q) ** (e // 2)
        else:
            b += Fraction(c) * Fraction(q) ** ((e - 1) // 2)
    return a, b


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
    return qfact(m).exact_div(qfact(n) * qfact(m - n))


# -- field-level elements and the algebra's checks --------------------------
#
# Each counts on the field's own context, engine.polyeng.ctx(q), where every
# Hall row has a census; a cyclic engine's context counts only closed forms.
# A FieldElement's term is a type, keyed by ``point_type``: on the Kronecker
# quiver ``spread`` lists the classes it stands for, and ``u_coeff`` and
# ``green_field`` read through it.  The coproduct and tensor checks run on
# cyclic quivers, where every class is its own type.


def field_class(engine, desc, q: int) -> FieldElement:
    """<M> for the class desc at GF(q), on the field's context."""
    return FieldElement(engine.polyeng.ctx(q), {desc: ONE})


def field_word(engine, word, q: int) -> FieldElement:
    """The monomial u_{i_1}^(a_1) u_{i_2}^(a_2) ... at GF(q), on the field's context."""
    out = field_class(engine, engine.zero_frame(), q)
    for label, a in word:
        out = out * field_class(engine, engine.simple_power_desc(label, a), q)
    return out


def grading(x: FieldElement):
    """The dimension vector of a homogeneous field element, None if it is 0."""
    dims = {x.ctx.desc_dim(d) for d in x.terms}
    if len(dims) > 1:
        raise ValueError("element is not homogeneous")
    return dims.pop() if dims else None


def expanded_at_field(engine, x: FieldElement) -> dict:
    """x over the N family, from its own field.  On the Kronecker quiver a
    field with fewer degree-1 points than x's probes need (m, for dimension
    vector >= m delta) raises InsufficientPointsError, so that sampling
    skips it: a probe type that does not exist there reads as 0."""
    if engine.kind == "kronecker" and x.terms:
        m = min(grading(x))
        if m > len(x.ctx.points(1)):
            raise InsufficientPointsError(f"need {m} degree-1 points at q={x.ctx.q}")
    return engine.express_in_N(x.terms)


def lift_sampled(engine, builder) -> dict:
    """Lift builder(q) -> {key: LaurentPoly} by sampling it at the pool's
    fields: each (key, v-exponent) coefficient is fitted as an integer
    polynomial in q (``hallpoly.sample_and_fit``) and folded back by q = v^2.
    """

    def sample(q):
        return {(key, e): c for key, lp in builder(q).items() for e, c in lp.terms.items()}

    out: dict = {}
    for (key, e), poly in sample_and_fit(engine.cfg.primes, sample).items():
        add_scaled(out, {key: LaurentPoly.from_q_poly(poly.coeffs, e)}, ONE)
    return out


def word_degree_bound(word) -> int:
    """D(word) = sum over vertices v of sum_{j<k} a_j a_k, over the letters
    (v, a_j) at v: a bound on the q-degree of every coefficient of the
    monomial.  Such a coefficient counts flags of L whose subquotients are
    the letters' semisimples, and at each vertex v these are flags of
    subspaces with steps a_j, of q-degree at most that sum."""
    before: dict = {}
    out = 0
    for label, a in word:
        out += a * before.get(label, 0)
        before[label] = before.get(label, 0) + a
    return out


def sampled_word(engine, word) -> dict:
    """The monomial over the N family the way it was lifted before one-vertex
    tables: the whole word at each sample field (``HallEngine.word_element``),
    expanded over N there and interpolated, D(word) + 3 fields at most.
    """
    return lift_sampled(engine, lambda q: expanded_at_field(engine, engine.word_element(word, q)))


def spread(x: FieldElement) -> dict:
    """{class: coefficient}: each term of x on every class of its type."""
    ctx, out = x.ctx, {}
    for nu in {ctx.desc_dim(d) for d in x.terms}:
        for d in classes(ctx, nu):
            if c := x.terms.get(point_type(d)):
                out[d] = c
    return out


def class_product(ctx, x: dict, y: dict) -> dict:
    """The product of two class-keyed elements {class: coefficient} at
    ctx's field, read class by class off ``hall_row``: the product that
    ``FieldElement`` computed on the Kronecker quiver before its terms were
    types."""
    euler = ctx.quiver.euler_form
    out: dict = {}
    for dA, cA in x.items():
        for dB, cB in y.items():
            nuA, nuB = ctx.desc_dim(dA), ctx.desc_dim(dB)
            base = euler(nuA, nuB) + ctx.end(dA) + ctx.end(dB)
            row = {}
            for dL in classes(ctx, tuple(a + b for a, b in zip(nuA, nuB))):
                if g := ctx.hall_row(dL, nuB).get((dA, dB)):
                    row[dL] = LaurentPoly.v_power(base - ctx.end(dL), g)
            add_scaled(out, row, cA * cB)
    return {d: c for d, c in out.items() if c}


def class_word(engine, word, q: int) -> dict:
    """The monomial along ``word`` at GF(q) as a class-keyed element,
    multiplied by ``class_product``."""
    ctx = engine.polyeng.ctx(q)
    out = {engine.zero_frame(): ONE}
    for label, a in word:
        out = class_product(ctx, out, {engine.simple_power_desc(label, a): ONE})
    return out


def u_coeff(x: FieldElement, desc) -> LaurentPoly:
    """x's coefficient on the raw class symbol u_[M]: <M> = v^(dim End M - dim M) u_[M]."""
    ctx = x.ctx
    c = x.terms.get(point_type(desc), ZERO)
    return c * LaurentPoly.v_power(ctx.end(desc) - sum(ctx.desc_dim(desc)))


def serre_sum(engine, i, j, q: int) -> FieldElement:
    """sum_{s+r=1-(i,j)} (-1)^s u_i^(s) u_j u_i^(r) at GF(q); it vanishes at
    v = sqrt(q) (the quantum Serre relation)."""
    Q = engine.quiver
    e_i, e_j = (tuple(int(k == Q.index[x]) for k in range(Q.n)) for x in (i, j))
    nrel = 1 - Q.symmetric_form(e_i, e_j)
    out: dict = {}
    for s in range(nrel + 1):
        add_scaled(out, engine.word_element(((i, s), (j, 1), (i, nrel - s)), q).terms, (-1) ** s)
    return FieldElement(engine.ctx(q), out)


@lru_cache(maxsize=None)
def nmul(engine, i1, i2) -> dict:
    """N_{i1} * N_{i2} over the N family, lifted from the field products.

    Its support is asserted: on an acyclic quiver every frame has c_- >=_L
    the first factor's and c_+ >=_L the second's.
    """
    out = lift_sampled(
        engine, lambda q: expanded_at_field(engine, engine.n_field(i1, q) * engine.n_field(i2, q))
    )
    (f1, _), (f2, _) = i1, i2
    for frame, _ in out if f1[0] == "c" else ():
        assert _geL(frame[1], f1[1]) and _geL(frame[3], f2[3], positive=True), (i1, i2, frame)
    return out


def green_field(engine, x: FieldElement, y: FieldElement) -> LaurentPoly:
    """Green's form (x, y) = sum_M x_M y_M v^(2 dim End M) / |Aut M| at x's
    field, over the classes M (``spread``)."""
    ctx = engine.polyeng.ctx(x.ctx.q)
    xs, ys = spread(x), spread(y)
    out = ZERO
    for d in set(xs) & set(ys):
        val = LaurentPoly.v_power(2 * ctx.end(d), Fraction(1, ctx.aut(d)))
        out = out + xs[d] * ys[d] * val
    return out


def green_nn_by_parts(engine, i1, i2) -> RationalFn:
    """(N(c,t_lam), N(c',t_mu)) with the frame's weight taken part by part:
    v^(2 dim End) / |Aut| of the preprojective part and of the preinjective
    part, each alone, multiplied into (S_lam, S_mu) in turn.  The Hom from
    the first part to the second adds the same power of q to End and to
    |Aut| of the whole frame, so ``HallEngine.green_nn``, which reads the
    whole frame, gives the same normalized quotient."""
    (f1, lam), (f2, mu) = i1, i2
    if f1 != f2:
        return RationalFn(ZERO)
    out = engine.s_gram(lam, mu) if (lam or mu) else RationalFn(ONE)
    if f1[0] == "m":
        parts = [f1]
    else:
        _, cm, _, cp, _ = f1
        parts = ([make_cdesc(cm=cm)] if cm else []) + ([make_cdesc(cp=cp)] if cp else [])
    ctx0 = engine.ctx(engine.cfg.primes[0])
    for part in parts:
        aut = LaurentPoly.from_q_poly(ctx0.aut_coeffs(part))
        out = out * RationalFn(LaurentPoly.v_power(2 * ctx0.end(part)), aut)
    return out


def green_generic_all_pairs(engine, a: dict, b: dict) -> RationalFn:
    """(a, b) over the N family by every pair of an index of a and one of b,
    in a's and then b's order (``green_nn_by_parts``), cross-frame pairs
    included as zeros that add nothing."""
    out = RationalFn(ZERO)
    for i1, c1 in a.items():
        for i2, c2 in b.items():
            g = green_nn_by_parts(engine, i1, i2)
            if g:
                out = out + RationalFn(c1 * c2) * g
    return out


class TensorElement:
    """Element of H* (x) H* with the twisted multiplication."""

    def __init__(self, ctx, terms):
        self.ctx = ctx
        self.terms = {k: v for k, v in terms.items() if v}

    def __mul__(self, other: "TensorElement") -> "TensorElement":
        ctx = self.ctx
        out: dict = {}
        for (a1, a2), c in self.terms.items():
            for (b1, b2), d in other.terms.items():
                twist = ctx.quiver.symmetric_form(ctx.desc_dim(a2), ctx.desc_dim(b1))
                left = FieldElement(ctx, {a1: ONE}) * FieldElement(ctx, {b1: ONE})
                right = FieldElement(ctx, {a2: ONE}) * FieldElement(ctx, {b2: ONE})
                row = {
                    (dL, dR): cL * cR
                    for dL, cL in left.terms.items()
                    for dR, cR in right.terms.items()
                }
                add_scaled(out, row, c * d * LaurentPoly.v_power(twist))
        return TensorElement(ctx, out)

    def eval_eq(self, other: "TensorElement") -> bool:
        """Equality after specializing v to sqrt(q); exact."""
        diff = add_scaled(dict(self.terms), other.terms, -1)
        return all(eval_sqrt(c, self.ctx.q) == (0, 0) for c in diff.values())


def coproduct(engine, x: FieldElement) -> TensorElement:
    """Green's coproduct r(x) at x's field."""
    ctx = engine.polyeng.ctx(x.ctx.q)
    euler = ctx.quiver.euler_form
    out: dict = {}
    for dL, cL in x.terms.items():
        aL, endL = ctx.aut(dL), ctx.end(dL)
        row = {
            (dM, dN): LaurentPoly.v_power(
                euler(ctx.desc_dim(dM), ctx.desc_dim(dN)) + endL - ctx.end(dM) - ctx.end(dN),
                Fraction(g * ctx.aut(dM) * ctx.aut(dN), aL),
            )
            for nuN in product(*(range(v + 1) for v in ctx.desc_dim(dL)))
            for (dM, dN), g in ctx.hall_row(dL, nuN).items()
        }
        add_scaled(out, row, cL)
    return TensorElement(ctx, out)


def tensor_green(engine, t: TensorElement, y: FieldElement, z: FieldElement) -> LaurentPoly:
    """(t, y (x) z) with the product form on tensors."""
    out = ZERO
    for (d1, d2), c in t.terms.items():
        g1 = green_field(engine, FieldElement(t.ctx, {d1: ONE}), y)
        if g1:
            g2 = green_field(engine, FieldElement(t.ctx, {d2: ONE}), z)
            out = out + c * g1 * g2
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


# -- the canonical basis ----------------------------------------------------


def bar_squares_to_one(order, zeta) -> bool:
    """bar(zeta) * zeta = 1: the bar involution, in the coordinates of the
    PBW basis, is an involution."""
    return all(
        row_times({b: c.bar() for b, c in zeta[a].items()}, zeta) == {a: ONE} for a in order
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


def positive_roots_below(Q, bound):
    """The positive roots of a finite or affine quiver componentwise <= bound,
    split (real, imaginary) by the symmetric form: (x, x) = 2 or 0."""
    box = [x for x in product(*(range(k + 1) for k in bound)) if any(x)]
    real = [x for x in box if Q.symmetric_form(x, x) == 2]
    return real, [x for x in box if Q.symmetric_form(x, x) == 0]


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


# -- finite fields and closed points ---------------------------------------


def subspaces(F: GF, d: int, k: int):
    """All k-dimensional subspaces of F_q^d as RREF row tuples."""
    if k == 0:
        yield ()
        return
    for pivots in combinations(range(d), k):
        free_positions = [
            (r, c)
            for r in range(k)
            for c in range(pivots[r] + 1, d)
            if c not in pivots
        ]
        for values in product(F.elements(), repeat=len(free_positions)):
            rows = zeros(k, d)
            for r, pc in enumerate(pivots):
                rows[r][pc] = 1
            for (r, c), val in zip(free_positions, values):
                rows[r][c] = val
            yield tuple(tuple(r) for r in rows)


def irreducibles_by_trial_division(q: int, d: int) -> tuple:
    """``gf.irreducibles`` by testing every monic of degree d in turn: it is
    irreducible when no monic of degree 1..d/2 divides it."""
    F = GF(q)
    return tuple(
        tail
        for tail in product(F.elements(), repeat=d)
        if all(
            _poly_rem(F, list(tail) + [1], list(div) + [1])
            for e in range(1, d // 2 + 1)
            for div in product(F.elements(), repeat=e)
        )
    )


def field_tables_by_int_product(q: int) -> tuple:
    """GF(q)'s (_add, _mul, _neg, _inv) as first built: for q = p^e the
    modulus is the first monic irreducible of degree e over F_p found by
    trial division, and each product of base-p digit vectors is reduced by
    it in raw int arithmetic mod p."""
    p, e = _factor_prime_power(q)
    modulus = list(irreducibles_by_trial_division(p, e)[0]) + [1]

    def digits(a):
        return [a // p**i % p for i in range(e)]

    def undigits(ds):
        return sum(d * p**i for i, d in enumerate(ds))

    def mul_mod(a, b):
        out = [0] * (2 * e - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
        for i in range(len(out) - 1, e - 1, -1):
            c = out[i]
            for j in range(e + 1):
                out[i - e + j] = (out[i - e + j] - c * modulus[j]) % p
        return out[:e]

    ds = [digits(a) for a in range(q)]
    add = [[undigits([(x + y) % p for x, y in zip(a, b)]) for b in ds] for a in ds]
    mul = [[undigits(mul_mod(a, b)) for b in ds] for a in ds]
    neg = [row.index(0) for row in add]
    inv = [0] + [mul[a].index(1) for a in range(1, q)]
    return add, mul, neg, inv


def closed_points_by_trial_division(q: int, degree: int) -> tuple:
    """``fqrep.closed_points`` as it was written first: every monic
    polynomial tested for irreducibility by trial division."""
    pts = [("f", tail) for tail in irreducibles_by_trial_division(q, degree)]
    return tuple(sorted(pts)) + ((("i",),) if degree == 1 else ())


# -- the class listing ----------------------------------------------------


_CLASSES: WeakKeyDictionary = WeakKeyDictionary()


def classes(ctx, nu) -> tuple:
    """Every class of dimension vector nu at ctx's field, sorted: the listing
    that the package's types (``type_classes``) stand for.

    A cyclic quiver's classes are its types, the multisegments.  On an
    acyclic quiver each frame (``FieldContext.frames``) takes every
    homogeneous part that fills it (``homog_configs``), one per choice of
    partitions at distinct closed points; finite type has only the empty
    one.  Memoized per context, which it does not keep alive.
    """
    memo = _CLASSES.setdefault(ctx, {})
    nu = tuple(nu)
    if nu not in memo:
        if ctx.kind == "cyclic":
            memo[nu] = ctx.type_classes(nu)
        else:
            memo[nu] = tuple(
                sorted(
                    {
                        make_cdesc(cm=cm, cp=cp, homog=homog)
                        for cm, cp, m in ctx.frames(nu)
                        for homog in homog_configs(ctx, m)
                    }
                )
            )
    return memo[nu]


def homog_configs(ctx, m: int):
    """All homogeneous parts of total delta-multiple m, canonical tuples.

    In the order of a walk that skips each closed point before it gives
    it each partition that fits; unrolled, each level picks its next
    point from the last that fits back to the first not yet passed.  So
    the depth is at most m, not the number of points.
    """
    from hallcanon.partitions import partitions

    if m < 0:
        return
    pools = []
    for d in range(1, m + 1):
        pools.extend((pt, d) for pt in ctx.points(d))
    # fits[r]: the points of degree <= r, a prefix of ``pools``.
    fits = [sum(1 for _, d in pools if d <= r) for r in range(m + 1)]

    def rec(start, remaining, chosen):
        if remaining == 0:
            yield tuple(chosen)
            return
        for j in range(fits[remaining] - 1, start - 1, -1):
            pt, d = pools[j]
            for size in range(1, remaining // d + 1):
                for lam in partitions(size):
                    chosen.append((pt, lam))
                    yield from rec(j + 1, remaining - size * d, chosen)
                    chosen.pop()

    yield from rec(0, m, [])


def homog_configs_by_point(ctx, m: int):
    """``homog_configs`` as it was written first: one level of
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
    """The class of ``classes(ctx, M.dims)`` whose Hom dimensions to and from every
    indecomposable X with |X| <= |M| are those of M.

    Each pool member narrows the candidates until one is left.  A module is
    determined by dim Hom(X, M) over all indecomposables X (Auslander), and
    the assertion checks that the pool, read both ways, leaves one class.
    """
    cands = list(classes(ctx, M.dims))
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
