"""The extended composition algebra: field realizations and the generic lift.

Field-level elements live in one Hall algebra H*(F_q Q) and are stored in
the normalized class basis <M> with Laurent coefficients, one term per type
of class (on the Kronecker quiver, a class up to its closed points); the
quantum parameter v stays symbolic and only Hall counts depend on q.  Generic
elements are indexed by the spanning family

    N(c, t_lam) = <M(c_-)> * S_lam * <M(c_+)>

written as pairs (frame, lam) where frame is a homogeneous-free class
descriptor.  Ext^1 vanishes from each factor to the ones on its right and
Hom from the right factors to the left ones, so both products are direct
sums with Hall number 1 and v-twist 0: N is S_lam with M(c_-) and M(c_+)
added to each class.  Monomials are computed at several sample fields,
expanded over the N family by a solve against the Kostka matrix at probe
classes, and lifted to Z[v, v^-1] by exact interpolation of each
coefficient as a polynomial in q = v^2, validated on held-out fields.  On a
cyclic quiver a monomial needs no field: a product by <S_i^(a)> has closed
Hall numbers (``combinatorics.mseg_socle_extensions``), and the field path
is a check at the smallest sample field.  That check runs on the
combinatorial context (``HallEngine.ctx``), whose Hall rows by <S_i^(a)> are
the socle formula read backwards (``combinatorics.mseg_socle_quotients``).
That context builds no field and refuses a row that needs a census, so a
cyclic engine never loads ``gf``, ``fqrep`` or ``hallpoly``: those, and
``partitions``, are imported on the field path only.  On the Jordan quiver
the check itself needs a census, so ``generic_word`` refuses there.

The Green form needs no field: (S_lam, S_mu) is a closed form over the
character table of S_m (``HallEngine.s_gram``), summed and reduced in Z[v];
frames give |Aut| factors (``aut_coeffs``).  No coefficient here leaves Z.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import factorial, gcd

from .combinatorics import (
    CombinatorialContext,
    desc_frame,
    desc_homog,
    make_cdesc,
    mseg_dim,
    mseg_end,
    mseg_normalize,
    mseg_socle_extensions,
    quiver_kind,
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
    type (``CombinatorialContext.type_rep``): words, H_m and the N family
    are, since Hall numbers are (Hubery).  So a term is one type: its key
    is the type representative and its coefficient is that of every class
    of the type.  On the Kronecker quiver a type is a class up to its closed
    points, and a product reads ``hall_table``'s rows summed by type; on
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

    def grading(self):
        dims = {self.ctx.desc_dim(d) for d in self.terms}
        if len(dims) > 1:
            raise ValueError("element is not homogeneous")
        return dims.pop() if dims else None

    def eval_eq(self, other: "FieldElement") -> bool:
        """Equality after specializing v to sqrt(q); exact."""
        return (self - other).is_zero_specialized()

    def is_zero_specialized(self) -> bool:
        """Does the element vanish at v = sqrt(q)?  Exact rational test."""
        q = self.ctx.q
        return all(c.eval_sqrt(q) == (0, 0) for c in self.terms.values())

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


def _q_coeffs(p: LaurentPoly) -> list:
    """p, a polynomial in q = v^2, as its q-coefficients, lowest first."""
    return [p.coeff(e) for e in range(0, p.degree() + 1, 2)] if p else []


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
        each weighted v^-dim End M, one term per type (``homog_types``)."""
        if self.kind != "kronecker":
            raise UnsupportedQuiverError("H_m lives in the affine homogeneous part")
        ctx = self.ctx(q)
        if m == 0:
            return self.unit(q)
        terms = {}
        for homog in ctx.homog_types(m):
            desc = make_cdesc(homog=homog)
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

    def express_in_N(self, x: FieldElement) -> dict:
        """Coefficients of x over the N family at x's own field.

        At the probe with part mu_i at the i-th degree-1 point, N(frame,
        t_lam) has coefficient v^-m K_{lam mu} (``n_field``); on the Kronecker
        quiver x holds that coefficient at the probe's type (``type_rep``,
        ``FieldElement``).  K is
        unitriangular in descending lex order: the coefficients psi solve
        v^m x_mu = sum_lam K_{lam mu} psi_lam (``partitions.kostka_solve``).
        """
        ctx = x.ctx
        if self.kind == "cyclic":
            return {nindex(d): c for d, c in x.terms.items()}
        from .partitions import kostka_solve

        groups: dict = {}
        for d, c in x.terms.items():
            groups.setdefault(desc_frame(d), {})[desc_homog(d)] = c
        out: dict = {}
        nu = x.grading()
        for frame in sorted(groups):
            rest = groups[frame]
            dim_frame = ctx.desc_dim(frame)
            diff = tuple(a - b for a, b in zip(nu, dim_frame))
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
            pts = ctx.points(1)[:m]
            if len(pts) < m:
                raise InsufficientPointsError(
                    f"need {m} degree-1 points, q={ctx.q} has {len(ctx.points(1))}"
                )

            def probed(mu):
                probe = ctx.type_rep(make_cdesc(homog=zip(pts, ((p,) for p in mu))))
                return LaurentPoly.v_power(m) * rest.get(desc_homog(probe), ZERO)
            for lam, c in kostka_solve(m, probed).items():
                if c:
                    out[nindex(frame, lam)] = c
        return out

    def rebuild_from_N(self, coeffs: dict, q: int) -> FieldElement:
        out: dict = {}
        for idx in sorted(coeffs):
            add_scaled(out, self.n_field(idx, q).terms, coeffs[idx])
        return FieldElement(self.ctx(q), out)

    # -- generic lifting ------------------------------------------------------

    def lift_family(self, builder):
        """Lift builder(q) -> {key: LaurentPoly} to generic Laurent data.

        Each (key, v-exponent) coefficient is one key of
        ``hallpoly.sample_and_fit``: an integer polynomial in q, folded back
        via q = v^2.
        """
        from .hallpoly import sample_and_fit

        def sample(q):
            return {
                (key, e): c for key, lp in builder(q).items() for e, c in lp.terms.items()
            }

        out: dict = {}
        for (key, e), poly in sample_and_fit(self.cfg.primes, sample).items():
            add_scaled(out, {key: LaurentPoly.from_q_poly(poly.coeffs, e)}, ONE)
        return out

    def check_pool(self, word):
        """Raise InterpolationError unless the sample pool can lift the word.

        A fit of degree D(word) needs D + 1 samples and the held-out ones;
        a cyclic word is a closed form and needs no pool.
        """
        if self.kind == "cyclic":
            return
        from .hallpoly import MIN_VALIDATE

        D = word_degree_bound(word)
        if D + 1 + MIN_VALIDATE > len(self.cfg.primes):
            raise InterpolationError(
                f"word {word} has q-degree up to D = {D} and needs "
                f"{D + 1 + MIN_VALIDATE} sample fields; primes "
                f"{list(self.cfg.primes)} give {len(self.cfg.primes)}"
            )

    @memoized
    def generic_word(self, word) -> dict:
        """Expansion of the monomial u_{i_1}^{(a_1)} ... over the N family.

        A fresh expansion is re-derived directly at the smallest sample field.
        """
        word = tuple((label, int(m)) for label, m in word if m)
        self.check_pool(word)
        if self.kind == "cyclic":
            out = self._cyclic_word(word)
        else:
            out = self.lift_family(lambda q: self.express_in_N(self.word_element(word, q)))
        q = self.cfg.primes[0]
        if not self.word_element(word, q).eval_eq(self.rebuild_from_N(out, q)):
            raise ArithmeticError(f"generic expansion of word {word} fails at q={q}")
        return out

    def _cyclic_word(self, word) -> dict:
        """The monomial over the N family in closed form (cyclic quivers).

        Each letter multiplies on the right by <S_i^(a)>: the Hall numbers
        are ``mseg_socle_extensions`` (polynomials in q = v^2) and the
        v-exponent is the one in ``FieldElement.__mul__``.
        """
        n, euler = self.quiver.n, self.quiver.euler_form
        terms = {(): ONE}
        for i, a in word:
            dimS = mseg_dim(n, (((i, 1), a),))
            out: dict = {}
            for pi, c in terms.items():
                base = euler(mseg_dim(n, pi), dimS) + mseg_end(n, pi) + a * a
                row = {
                    L: LaurentPoly.from_q_poly(g, base - mseg_end(n, L))
                    for L, g in mseg_socle_extensions(n, pi, i, a)
                }
                add_scaled(out, row, c)
            terms = out
        return {nindex(("m", pi)): c for pi, c in sorted(terms.items())}

    # -- Green form ------------------------------------------------------------

    @memoized
    def s_gram(self, lam, mu) -> RationalFn:
        """(S_lam, S_mu) in closed form, in lowest terms (q = v^2):

            sum_{rho |- m} chi^lam(rho) chi^mu(rho) / z_rho
                * prod_i (q^{rho_i} + 1) / (q^{rho_i} - 1).

        The sum runs over Z with weights m!/z_rho, the size of the class of
        rho, and m! joins the denominator; the quotient is then reduced by
        the primitive gcd and normalized (``hallpoly._normalize_rational``).

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
        from .hallpoly import _normalize_rational
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
        return RationalFn.from_q_fractions(*_normalize_rational(_q_coeffs(num), _q_coeffs(den)))

    def _frame_parts(self, frame):
        if frame[0] == "m":
            return [frame]
        _, cm, _, cp, _ = frame
        parts = []
        if cm:
            parts.append(make_cdesc(cm=cm))
        if cp:
            parts.append(make_cdesc(cp=cp))
        return parts

    def green_nn(self, i1, i2) -> RationalFn:
        """(N(c,t_lam), N(c',t_mu)) via the product formula."""
        f1, lam = i1
        f2, mu = i2
        if f1 != f2:
            return RationalFn(ZERO)
        out = self.s_gram(lam, mu) if (lam or mu) else RationalFn(ONE)
        ctx0 = self.ctx(self.cfg.primes[0])
        for part in self._frame_parts(f1):
            e = ctx0.end(part)
            a = LaurentPoly.from_q_poly(ctx0.aut_coeffs(part))
            out = out * RationalFn(LaurentPoly.v_power(2 * e), a)
        return out

    def green_generic(self, a: dict, b: dict) -> RationalFn:
        """(a, b) for generic elements over the N family."""
        out = RationalFn(ZERO)
        for i1, c1 in a.items():
            for i2, c2 in b.items():
                g = self.green_nn(i1, i2)
                if g:
                    out = out + RationalFn(c1 * c2) * g
        return out
