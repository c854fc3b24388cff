"""The extended composition algebra: field realizations and the generic lift.

Field-level elements live in one Hall algebra H*(F_q Q) and are stored in
the normalized class basis <M> with Laurent coefficients, one term per type
of class, keyed by its point type (``combinatorics.point_type``: on the
Kronecker quiver, a class up to its closed points); the quantum parameter v
stays symbolic and only Hall counts depend on q.  Generic elements are
indexed by the spanning family

    N(c, t_lam) = <M(c_-)> * S_lam * <M(c_+)>

written as pairs (frame, lam) where frame is a homogeneous-free class
descriptor.  Ext^1 vanishes from each factor to the ones on its right and
Hom from the right factors to the left ones, so both products are direct
sums with Hall number 1 and v-twist 0: N is S_lam with M(c_-) and M(c_+)
added to each class.

A monomial is an exact product over Z[v, v^-1], built letter by letter on
the right by <S_i^(a)> (Ringel, Invent. Math. 101 (1990)) and keyed by
point type (``combinatorics.point_type``), since Hall numbers are constant
on types (Hubery, Represent. Theory 14 (2010)); it is then expanded over
the N family by a solve against the Kostka matrix at probe types.  A
product by <S_i^(a)> reads its Hall numbers in closed form on a cyclic
quiver (``combinatorics.mseg_socle_extensions``) and at a source, where
S_i splits off; any other one reads a one-vertex Hall table, summed by
type, of degree at most k = a(l_i - a) in q = v^2.  It is sampled at
exactly the first k + 1 + MIN_VALIDATE pool fields at which its types
exist (``HallEngine._table_fields``), the list the pool check reads too,
and lifted by exact interpolation, validated on the held-out ones.  The
field path is a check at the smallest sample field.
On a cyclic quiver that check runs on the combinatorial context
(``HallEngine.ctx``), whose Hall rows by <S_i^(a)> are the socle formula
read backwards (``combinatorics.mseg_socle_quotients``).  That context
builds no field and refuses a row that needs a census, so a cyclic engine
never loads ``gf``, ``fqrep`` or ``hallpoly``: those, and ``partitions``,
are imported on the field path only.  On the Jordan quiver the check
itself needs a census, so ``generic_word`` refuses there.

The Green form needs no field: (S_lam, S_mu) is a closed form over the
character table of S_m (``HallEngine.s_gram``), summed, reduced and
normalized in Z[v].  Distinct frames are orthogonal, so a pair of generic
elements pairs indices only within a frame, and each frame gives one weight
v^(2 dim End) / |Aut| of the whole frame (``end``, ``aut_coeffs``).  No
coefficient here leaves Z.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import factorial, gcd

from .combinatorics import (
    CombinatorialContext,
    desc_frame,
    desc_homog,
    make_cdesc,
    mseg_normalize,
    mseg_socle_extensions,
    point_type,
    quiver_kind,
    shift_simple,
)
from .config import (
    InsufficientPointsError,
    InterpolationError,
    JobConfig,
    UnsupportedQuiverError,
    memoized,
)
from .laurent import ONE, ZERO, LaurentPoly, RationalFn, add_scaled
from .quiver import Quiver
from .store import _jsonable


# ---------------------------------------------------------------------------
# N indices
# ---------------------------------------------------------------------------


def nindex(frame, lam=()) -> tuple:
    """An N-family index: (homogeneous-free frame descriptor, partition)."""
    return (frame, tuple(lam))


def nindex_json(idx):
    return _jsonable(idx)


# ---------------------------------------------------------------------------
# field-level elements
# ---------------------------------------------------------------------------


class FieldElement:
    """Sparse sum of normalized classes <M> with LaurentPoly coefficients.

    Every element the pipeline builds is constant on the classes of one
    type: words, H_m and the N family are, since Hall numbers are
    (Hubery).  So a term is one type: its key is the type's ``point_type``
    and its coefficient is that of every class of the type.  On the
    Kronecker quiver a type is a class up to its closed points, and a
    product reads ``hall_products``, whose columns are point types; on
    other quivers every class is its own type and a term is one class.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: CombinatorialContext, terms=None):
        self.ctx = ctx
        self.terms = {d: c for d, c in (terms or {}).items() if c}

    def __add__(self, other):
        return FieldElement(self.ctx, add_scaled(dict(self.terms), other.terms, ONE))

    def __sub__(self, other):
        return FieldElement(self.ctx, add_scaled(dict(self.terms), other.terms, -1))

    def __eq__(self, other):
        return isinstance(other, FieldElement) and self.terms == other.terms

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        ctx = self.ctx
        euler = ctx.quiver.euler_form
        out: dict = {}
        for dA, cA in self.terms.items():
            dimA, endA = ctx.desc_dim(dA), ctx.end(dA)
            for dB, cB in other.terms.items():
                base = euler(dimA, ctx.desc_dim(dB)) + endA + ctx.end(dB)
                row = {
                    dL: LaurentPoly.v_power(base - ctx.end(dL), g)
                    for dL, g in ctx.hall_products(dA, dB)
                }
                add_scaled(out, row, cA * cB)
        return FieldElement(ctx, out)

    def eval_eq(self, other: "FieldElement") -> bool:
        """Equality after specializing v to sqrt(q); exact."""
        return (self - other).is_zero_specialized()

    def is_zero_specialized(self) -> bool:
        """Does every coefficient vanish at v = sqrt(q), its even and its odd
        powers of v apart?  Each part, times a power of q, is an integer."""
        q = self.ctx.q
        for c in self.terms.values():
            low = min(e // 2 for e in c.terms)
            parts = [0, 0]
            for e, x in c.terms.items():
                parts[e % 2] += x * q ** (e // 2 - low)
            if any(parts):
                return False
        return True

    def __repr__(self):
        inner = ", ".join(f"{d}: {c.text()}" for d, c in sorted(self.terms.items()))
        return f"FieldElement(q={self.ctx.q}, {{{inner}}})"


# ---------------------------------------------------------------------------
# symmetric-function bookkeeping (Jacobi-Trudi in the H generators)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def jacobi_trudi_h(lam) -> tuple:
    """S_lam as a Z-combination of H-monomials: ((partition mu, coeff), ...).

    h_mu = sum_lam K_{lam mu} s_lam, so the coefficient of h_mu in s_lam is
    psi_lam of the Kostka solve against the indicator of mu.
    """
    from .partitions import kostka_solve, partitions

    lam = tuple(lam)
    m = sum(lam)
    coeffs = ((mu, kostka_solve(m, lambda nu: int(nu == mu))[lam]) for mu in partitions(m))
    return tuple(sorted((mu, c) for mu, c in coeffs if c))


def _primitive(p: LaurentPoly) -> LaurentPoly:
    """p != 0 divided by the gcd of its coefficients."""
    g = gcd(*p.terms.values())
    return LaurentPoly({e: c // g for e, c in p.terms.items()})


def _poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """The primitive gcd over Z of two polynomials in v, not both zero, by
    primitive pseudo-remainders (Collins): each remainder is scaled to stay
    in Z[v], then divided by its content.  By Gauss's lemma it divides both
    in Z[v]."""
    while b:
        b = _primitive(b)
        db, lb = b.degree(), b.coeff(b.degree())
        while a and a.degree() >= db:
            la = a.coeff(a.degree())
            g = gcd(la, lb)
            a = a * (lb // g) - b * LaurentPoly.v_power(a.degree() - db, la // g)
        a, b = b, a
    return _primitive(a)


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------


class HallEngine:
    """Generic computations for one quiver, backed by per-field contexts."""

    def __init__(self, quiver: Quiver, cfg: JobConfig | None = None):
        self.quiver = quiver
        self.cfg = cfg or JobConfig.default()
        self.kind, self.delta, self.seq = quiver_kind(quiver)

    @cached_property
    def polyeng(self):
        """The Hall polynomial engine, and with it the field layer, on first use."""
        from .hallpoly import HallPolyEngine

        return HallPolyEngine(self.quiver, self.cfg)

    @memoized
    def ctx(self, q: int) -> CombinatorialContext:
        """The context at GF(q).  A cyclic quiver gets the combinatorial one,
        which builds no field and refuses a Hall row that needs a census;
        other kinds get the field's FieldContext (``polyeng.ctx``)."""
        if self.kind == "cyclic":
            return CombinatorialContext(self.quiver, q, self.cfg)
        return self.polyeng.ctx(q)

    # -- field-level constructions ----------------------------------------

    def zero_frame(self):
        return ("m", ()) if self.kind == "cyclic" else make_cdesc()

    def unit(self, q: int) -> FieldElement:
        return FieldElement(self.ctx(q), {self.zero_frame(): ONE})

    def cls_elt(self, desc, q: int) -> FieldElement:
        return FieldElement(self.ctx(q), {desc: ONE})

    def simple_power_desc(self, label, m: int):
        """Descriptor of <S_label^{+m}>."""
        if m == 0:
            return self.zero_frame()
        if self.kind == "cyclic":
            return ("m", mseg_normalize([((label, 1), m)]))
        side, t = self.seq.simple_indec(self.quiver.index[label])
        return make_cdesc(cm=((t, m),)) if side == "p" else make_cdesc(cp=((t, m),))

    def word_element(self, word, q: int) -> FieldElement:
        """Product of divided simple powers u_{i}^{(a)} along the word."""
        out = self.unit(q)
        for label, m in word:
            out = out * self.cls_elt(self.simple_power_desc(label, m), q)
        return out

    def realize_H(self, m: int, q: int) -> FieldElement:
        """Field-level H_m: the sum of the homogeneous classes M of dim m*delta,
        each weighted v^-dim End M, one term per point type of the types
        that exist at q (``homog_types``)."""
        if self.kind != "kronecker":
            raise UnsupportedQuiverError("H_m lives in the affine homogeneous part")
        ctx = self.ctx(q)
        if m == 0:
            return self.unit(q)
        terms = {}
        for homog in ctx.homog_types(m):
            desc = point_type(make_cdesc(homog=homog))
            terms[desc] = LaurentPoly.v_power(-ctx.end(desc))
        return FieldElement(ctx, terms)

    def realize_S(self, lam, q: int) -> FieldElement:
        out: dict = {}
        for mono, c in jacobi_trudi_h(tuple(lam)):
            term = self.unit(q)
            for m in mono:
                term = term * self.realize_H(m, q)
            add_scaled(out, term.terms, c)
        return FieldElement(self.ctx(q), out)

    @memoized
    def n_field(self, idx, q: int) -> FieldElement:
        """Field realization of N(frame, t_lam) = <M(c_-)> * S_lam * <M(c_+)>.

        Ext^1 vanishes from left to right factors and Hom from right to left,
        so each product is a direct sum with Hall number 1 and v-twist 0:
        N is S_lam with M(c_-) and M(c_+) added to each class.
        """
        frame, lam = idx
        if self.kind == "cyclic":
            if lam:
                raise UnsupportedQuiverError("cyclic quivers carry no homogeneous part")
            return self.cls_elt(frame, q)
        _, cm, _, cp, homog = frame
        assert not homog, "frames carry no homogeneous part"
        s = self.realize_S(lam, q)
        return FieldElement(
            s.ctx,
            {make_cdesc(cm=cm, cp=cp, homog=desc_homog(R)): c for R, c in s.terms.items()},
        )

    # -- expansion over the N family ----------------------------------------

    def express_in_N(self, x: dict) -> dict:
        """Coefficients over the N family of x = {point type: coefficient}.

        x is keyed by ``point_type``, so it is the same at every field: a
        generic element, or a field element's terms.  At the probe with part
        mu_i at the i-th degree-1 point, N(frame, t_lam) has coefficient
        v^-m K_{lam mu} (``n_field``), and K is unitriangular in descending
        lex order: the coefficients psi solve
        v^m x_mu = sum_lam K_{lam mu} psi_lam (``partitions.kostka_solve``).
        """
        if self.kind == "cyclic":
            return {nindex(d): c for d, c in x.items()}
        from .partitions import kostka_solve

        ctx = self.ctx(self.cfg.primes[0])  # dimensions only, the same at every field
        nus = {ctx.desc_dim(d) for d in x}
        if len(nus) > 1:
            raise ValueError("element is not homogeneous")
        nu = nus.pop() if nus else None
        groups: dict = {}
        for d, c in x.items():
            groups.setdefault(desc_frame(d), {})[desc_homog(d)] = c
        out: dict = {}
        for frame in sorted(groups):
            rest = groups[frame]
            diff = tuple(a - b for a, b in zip(nu, ctx.desc_dim(frame)))
            if self.delta is None:
                if any(diff):
                    raise ValueError("finite-type class with leftover dimension")
                m = 0
            else:
                if any(v < 0 for v in diff) or diff[0] * self.delta[1] != diff[1] * self.delta[0]:
                    raise ValueError("support outside the N family")
                m = diff[0] // self.delta[0]
            if m == 0:
                coeff = rest.get((), ZERO)
                if coeff:
                    out[nindex(frame)] = coeff
                continue

            def probed(mu):
                probe = make_cdesc(homog=((("t", 1, i), (p,)) for i, p in enumerate(mu)))
                return LaurentPoly.v_power(m) * rest.get(desc_homog(point_type(probe)), ZERO)

            for lam, c in kostka_solve(m, probed).items():
                if c:
                    out[nindex(frame, lam)] = c
        return out

    def rebuild_from_N(self, coeffs: dict, q: int) -> FieldElement:
        out: dict = {}
        for idx in sorted(coeffs):
            add_scaled(out, self.n_field(idx, q).terms, coeffs[idx])
        return FieldElement(self.ctx(q), out)

    # -- generic words ----------------------------------------------------------

    def lift_family(self, builder):
        """Lift builder(q) -> {key: int} to {key: LaurentPoly}: each count an
        integer polynomial in q (``hallpoly.sample_and_fit``), folded back
        via q = v^2; the builder refuses, with InsufficientPointsError, each
        pool field it does not sample."""
        from .hallpoly import sample_and_fit

        fitted = sample_and_fit(self.cfg.primes, builder)
        return {key: LaurentPoly.from_q_poly(p.coeffs) for key, p in fitted.items()}

    def _table(self, nuL, label, a):
        """The table (nuL, i, a) that a product by <S_label^(a)> into dim L =
        nuL reads (``_lifted_table``), or None for a closed form: every
        letter of a cyclic quiver, and a letter at a source (``_column``)."""
        i = self.quiver.index[label]
        closed = self.kind == "cyclic" or self.quiver.is_source(i)
        return None if closed else (nuL, i, a)

    def _letters(self, word):
        """(label, a, table) for each letter of the word after the first, with
        the table its product reads (``_table``); the first letter times the
        unit is <S_i^(a)> itself."""
        nu = [0] * self.quiver.n
        for step, (label, a) in enumerate(word):
            nu[self.quiver.index[label]] += a
            if step:
                yield label, a, self._table(tuple(nu), label, a)

    @memoized
    def _table_fields(self, nuL, i: int, a: int) -> tuple:
        """The fields at which the table (nuL, i, a) is sampled: the first
        k + 1 + MIN_VALIDATE of the pool at which every type of dim L exists
        (and so every type of dim L - a e_i), k = a(l_i - a) its degree
        bound; InterpolationError if the pool has fewer.  That holds at q
        when each pattern of point degrees of the largest m with m delta <=
        nuL does (``points_suffice``), a partition of m: any other type's
        pattern, a smaller m's too, lies within one of those.
        """
        from .hallpoly import MIN_VALIDATE

        k = a * (nuL[i] - a)
        need = k + 1 + MIN_VALIDATE
        usable = list(self.cfg.primes)
        if self.delta is not None:
            from .fqrep import points_suffice
            from .partitions import partitions

            m = min(x // d for x, d in zip(nuL, self.delta))
            usable = [q for q in usable if all(points_suffice(q, p) for p in partitions(m))]
        if len(usable) < need:
            raise InterpolationError(
                f"the Hall table of dim L = {nuL} by S_{self.quiver.vertices[i]}^{a} "
                f"has q-degree up to {k} and needs {need} sample fields at which its "
                f"types exist; of primes {list(self.cfg.primes)} they exist at "
                f"{usable}, {need - len(usable)} too few"
            )
        return tuple(usable[:need])

    @memoized
    def _lifted_table(self, nuL, i: int, a: int) -> tuple:
        """(table, k!) for the products by <S_i^(a)> into dim L = nuL, vertex
        i no source: table[X] lists (L, k! G^L_X) over point types, with G^L_X
        the Hall number g^L_{M, S_i^a} summed over the classes M of type X
        (``hall_table``), a polynomial in q = v^2 on the fields where L's and
        X's types exist.

        G counts submodules S_i^a of L, at most the a-subspaces of L_i, so
        its degree is at most k = a(l_i - a).  It is integer-valued but need
        not be integral (q(q + 1)/2 counts pairs of points); k! G is, so that
        is what ``lift_family`` fits, at the fields of ``_table_fields`` only,
        so an entry above degree k fails.  One lift per table, never stored.
        """
        fields = self._table_fields(nuL, i, a)
        scale = factorial(a * (nuL[i] - a))
        nuN = tuple(a if w == i else 0 for w in range(len(nuL)))

        def builder(q):
            if q not in fields:
                raise InsufficientPointsError(f"the table does not sample q={q}")
            by_L, _ = self.ctx(q).hall_table(nuL, nuN)
            return {(L, M): scale * g for L, row in by_L.items() for (M, _), g in row.items()}

        table: dict = {}
        for (L, X), g in self.lift_family(builder).items():
            table.setdefault(X, []).append((L, g))
        return table, scale

    def _column(self, label, a, table) -> tuple:
        """(column, scale) for the products by <S_label^(a)> that read table
        (``_table``): column(X) lists (L, scale * G^L_X) over point types,
        with G^L_X as in ``_lifted_table``, a polynomial in q = v^2.

        On a cyclic quiver G is the socle formula
        (``mseg_socle_extensions``).  At a source S_i is injective, so it
        splits off L: L = X + S_i^a with G = [m, a]_q, m the multiplicity of
        S_i in L (``combinatorics.shift_simple``).  Any other column is a
        lifted one-vertex table.
        """
        if self.kind == "cyclic":
            n = self.quiver.n
            return (
                lambda X: [
                    (("m", L), LaurentPoly.from_q_poly(g))
                    for L, g in mseg_socle_extensions(n, X[1], label, a)
                ]
            ), 1
        if table is not None:
            lifted, scale = self._lifted_table(*table)
            return (lambda X: lifted.get(X, ())), scale
        side, t = self.seq.simple_indec(self.quiver.index[label])

        def split(X):
            L, g = shift_simple(X, side, t, a)
            return [(L, LaurentPoly.from_q_poly(g))]

        return split, 1

    def _word(self, word) -> dict:
        """The monomial u_{i_1}^{(a_1)} ... over Z[v, v^-1], keyed by point type.

        The first letter times the unit is <S_i^(a)> itself.  Each later
        letter multiplies on the right by <S_i^(a)>, one column per term
        (``_column``), with the v-exponent of ``FieldElement.__mul__``:
        Euler form and End of the factors, less End L.  A lifted column is
        scaled by k!, so each product is divided by it, exactly.
        """
        ctx = self.ctx(self.cfg.primes[0])  # dimensions and End only, as for every field
        euler = self.quiver.euler_form
        terms = {self.simple_power_desc(*word[0]) if word else self.zero_frame(): ONE}
        for label, a, table in self._letters(word):
            S = self.simple_power_desc(label, a)
            dimS, endS = ctx.desc_dim(S), ctx.end(S)
            column, scale = self._column(label, a, table)
            out: dict = {}
            for X, c in terms.items():
                base = euler(ctx.desc_dim(X), dimS) + ctx.end(X) + endS
                row = {}
                for L, g in column(X):
                    shift = base - ctx.end(L)
                    row[L] = LaurentPoly({e + shift: x for e, x in g.terms.items()})
                add_scaled(out, row, c)
            if scale > 1:
                if any(x % scale for p in out.values() for x in p.terms.values()):
                    raise ArithmeticError(f"word {word}: a product is not integral at {label}")
                out = {
                    L: LaurentPoly({e: x // scale for e, x in p.terms.items()})
                    for L, p in out.items()
                }
            terms = out
        return terms

    def check_pool(self, word):
        """Raise InterpolationError unless the pool holds the fields of every
        table the word reads (``_table_fields``); nothing is sampled."""
        for table in [table for *_, table in self._letters(word) if table]:
            try:
                self._table_fields(*table)
            except InterpolationError as exc:
                raise InterpolationError(f"word {word}: {exc}") from None

    @memoized
    def generic_word(self, word) -> dict:
        """Expansion of the monomial u_{i_1}^{(a_1)} ... over the N family.

        A fresh expansion is re-derived directly at the smallest sample field.
        """
        word = tuple((label, int(m)) for label, m in word if m)
        self.check_pool(word)
        out = dict(sorted(self.express_in_N(self._word(word)).items()))
        q = self.cfg.primes[0]
        if not self.word_element(word, q).eval_eq(self.rebuild_from_N(out, q)):
            raise ArithmeticError(f"generic expansion of word {word} fails at q={q}")
        return out

    # -- Green form ------------------------------------------------------------

    @memoized
    def s_gram(self, lam, mu) -> RationalFn:
        """(S_lam, S_mu) in closed form, in lowest terms (q = v^2):

            sum_{rho |- m} chi^lam(rho) chi^mu(rho) / z_rho
                * prod_i (q^{rho_i} + 1) / (q^{rho_i} - 1).

        The sum runs over Z with weights m!/z_rho, the size of the class of
        rho, and m! joins the denominator; the quotient is then reduced by
        the primitive gcd, divided by the content of numerator and
        denominator together and signed so that the denominator's leading
        coefficient is positive.

        In the tube at x, H_m maps to h_m with Q = q^{deg x} (Macdonald, ch.
        III), and the homogeneous tubes are indexed by P^1 (Lin-Xiao-Zhang),
        so (p_n, p_n) = n |P^1(F_{q^n})| / (q^n - 1).
        """
        if sum(lam) != sum(mu):
            return RationalFn(ZERO)
        if not lam:
            return RationalFn(ONE)
        if self.kind != "kronecker":
            raise UnsupportedQuiverError("S_lam lives in the affine homogeneous part")
        from .partitions import centralizer_order, character, partitions

        m = sum(lam)
        total = RationalFn(ZERO)
        for rho in partitions(m):
            c = character(lam, rho) * character(mu, rho)
            if not c:
                continue
            term = RationalFn(c * (factorial(m) // centralizer_order(rho)))
            for r in rho:
                qr = LaurentPoly.v_power(2 * r)
                term = term * RationalFn(qr + ONE, qr - ONE)
            total = total + term
        g = _poly_gcd(total.num, total.den)
        num, den = total.num.exact_div(g), total.den.exact_div(g) * factorial(m)
        unit = gcd(*num.terms.values(), *den.terms.values())
        if den.coeff(den.degree()) < 0:
            unit = -unit
        return RationalFn(num.exact_div(unit), den.exact_div(unit))

    @memoized
    def green_nn(self, i1, i2) -> RationalFn:
        """(N(c,t_lam), N(c',t_mu)): zero for distinct frames, else
        (S_lam, S_mu) times the frame's weight v^(2 dim End M(c)) /
        |Aut M(c)|, read off the whole frame (``end``, ``aut_coeffs``); the
        empty frame's weight is 1."""
        f1, lam = i1
        f2, mu = i2
        if f1 != f2:
            return RationalFn(ZERO)
        out = self.s_gram(lam, mu) if (lam or mu) else RationalFn(ONE)
        ctx0 = self.ctx(self.cfg.primes[0])
        aut = LaurentPoly.from_q_poly(ctx0.aut_coeffs(f1))
        return out * RationalFn(LaurentPoly.v_power(2 * ctx0.end(f1)), aut)

    def green_generic(self, a: dict, b: dict) -> RationalFn:
        """(a, b) for generic elements over the N family.  N indices of
        distinct frames are orthogonal, so each index of a meets only b's
        indices of its own frame, in b's order."""
        by_frame: dict = {}
        for i2, c2 in b.items():
            by_frame.setdefault(i2[0], []).append((i2, c2))
        out = RationalFn(ZERO)
        for i1, c1 in a.items():
            for i2, c2 in by_frame.get(i1[0], ()):
                g = self.green_nn(i1, i2)
                if g:
                    out = out + RationalFn(c1 * c2) * g
        return out
