"""Index combinatorics, monomial builders and the inductive PBW basis.

Indices of the spanning family are pairs (frame, partition); the aperiodic
ones index the monomial, PBW and canonical bases.  The partial order
follows the lexicographic/defect/degeneration clauses; monomials are words
in divided simple powers whose expansions over the N family are computed
generically and checked for unitriangularity on the fly.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .canonical import dim_f
from .config import UnsupportedQuiverError, memoized
from .combinatorics import (
    enumerate_msegs,
    make_cdesc,
    mseg_aperiodic,
    mseg_dim,
    mseg_end,
    mseg_extend_top,
    mseg_hom,
    mseg_normalize,
    mseg_peel_top,
)
from .hallalg import HallEngine, nindex
from .laurent import ONE, ZERO, invert_unitriangular, row_times


@lru_cache(maxsize=None)
def _hom_profile(n: int, pi) -> tuple:
    """dim Hom(S_i[l], M(pi)) for i = 1..n and l below the longest segment
    of pi, l major.

    dim Hom(S_i[l], S_j[m]) depends on l only through min(l, m), and for
    l >= m it is the number of boxes of S_j[m] at vertex i.  So from the
    longest segment of pi on, the profile repeats dim M(pi) and is not
    stored.
    """
    longest = max((l for (_, l), _ in pi), default=1)
    return tuple(
        mseg_hom(n, (((i, l), 1),), pi) for l in range(1, longest) for i in range(1, n + 1)
    )


def mseg_leq_G(n: int, pi, rho) -> bool:
    """Degeneration order pi <=_G rho via Hom-dimension comparison.

    Hom dimensions from all segment modules decide the order at a fixed
    dimension vector; each side's dimensions are one cached profile, the
    shorter one padded with the dimension vector it repeats.
    """
    if pi == rho:
        return True
    dims = mseg_dim(n, pi)
    if dims != mseg_dim(n, rho):
        return False
    a, b = _hom_profile(n, pi), _hom_profile(n, rho)
    width = max(len(a), len(b))
    a += dims * ((width - len(a)) // n)
    b += dims * ((width - len(b)) // n)
    return all(x >= y for x, y in zip(a, b))


class OrderedIndexSet(NamedTuple):
    """All indices of one dimension vector with the order data."""

    nu: tuple
    all_indices: list
    aperiodic: list


class IndexSystem:
    """Index enumeration, order, monomials and the PBW basis for one quiver."""

    def __init__(self, engine: HallEngine):
        self.engine = engine
        self.quiver = engine.quiver
        self.kind = engine.kind

    # -- enumeration -------------------------------------------------------

    def enumerate_indices(self, nu) -> OrderedIndexSet:
        nu = tuple(nu)
        if self.kind == "cyclic":
            n = self.quiver.n
            allidx = [nindex(("m", pi)) for pi in enumerate_msegs(n, nu)]
            aper = [i for i in allidx if mseg_aperiodic(n, i[0][1])]
        else:
            from .partitions import partitions

            ctx = self.engine.ctx(self.engine.cfg.primes[0])
            allidx = [
                nindex(make_cdesc(cm=cm, cp=cp), lam)
                for cm, cp, m in ctx.frames(nu)
                for lam in partitions(m)
            ]
            aper = list(allidx)
        allidx = sorted(set(allidx), key=self.sort_key)
        aper = sorted(set(aper), key=self.sort_key)
        expected = dim_f(self.quiver.arrows, nu)  # None on the Jordan quiver
        if expected is not None and len(aper) != expected:
            raise ArithmeticError(f"index count {len(aper)} != dim f_nu {expected} at {nu}")
        return OrderedIndexSet(nu, allidx, aper)

    # -- the partial order ---------------------------------------------------

    def strictly_less(self, a, b) -> bool:
        """(c', t_lam') < (c, t_lam) in the index order; a is the primed one.

        Multisegments compare by degeneration (``mseg_leq_G``).  Acyclic
        indices compare by their (c_-, c_+) data in >=_L on both sides, then,
        for equal data, by |lam|, and a larger lam in lex order is smaller.
        """
        (fa, la), (fb, lb) = a, b
        if a == b:
            return False
        if self.kind == "cyclic":
            return mseg_leq_G(self.quiver.n, fa[1], fb[1])
        _, cma, _, cpa, _ = fa
        _, cmb, _, cpb, _ = fb
        if (cma, cpa) != (cmb, cpb):
            return _geL(cma, cmb) and _geL(cpa, cpb, positive=True)
        if sum(la) != sum(lb):
            return sum(la) < sum(lb)
        return la > lb

    def sort_key(self, idx):
        """A linear extension of ``strictly_less``: a multisegment pi by
        (-dim End M(pi), pi); an acyclic index by its negated (c_-, c_+)
        multiplicities, then |lam|, then lam negated."""
        frame, lam = idx
        if self.kind == "cyclic":
            return (-mseg_end(self.quiver.n, frame[1]), frame[1])
        _, cm, _, cp, _ = frame
        # The window is the beta ranges of the index's own dimension vector
        # nu: a t outside them has multiplicity 0 in every index of
        # dimension nu, and keys within one nu are comparable tuples.
        nu = self.engine.ctx(self.engine.cfg.primes[0]).desc_dim(frame)
        if lam:
            nu = tuple(a + sum(lam) * d for a, d in zip(nu, self.engine.delta))
        seq, cm, cp = self.engine.seq, dict(cm), dict(cp)
        kc = tuple(-cm.get(t, 0) for t in seq.preprojective_range(nu))
        kc += tuple(-cp.get(t, 0) for t in seq.preinjective_range(nu))
        return (kc, sum(lam), tuple(-x for x in lam))

    # -- distinguished words (cyclic engine) ----------------------------------

    def ddx_word(self, pi):
        """Distinguished word for an aperiodic multisegment by top peeling.

        Each step peels the tops at one vertex i of the segments of length
        at least l, and is kept only if the generic extension of S_i^a on
        top of the rest (``mseg_extend_top``) glues back.  Full peels
        (l = the shortest length present) come before partial ones, and
        backtracking explores all peels.  Existence is guaranteed for
        aperiodic input; no Hall polynomial is computed.
        """
        n = self.quiver.n
        pi = mseg_normalize(pi)
        if not mseg_aperiodic(n, pi):
            raise ValueError("distinguished words exist only for aperiodic multisegments")
        word = self._ddx_word(pi)
        if word is None:
            raise ArithmeticError(f"no distinguished word found for {pi}")
        return word

    @memoized
    def _ddx_word(self, pi):
        """The first distinguished word of pi in peel order, or None."""
        if not pi:
            return ()
        for i, a, peeled in _glued_peels(self.quiver.n, pi):
            rest = self._ddx_word(peeled)
            if rest is not None:
                return ((i, a),) + rest
        return None

    # -- monomial builders -------------------------------------------------

    def dimvec_word(self, nu):
        """The word of the dimension-vector monomial u_1^(nu_1) ... u_n^(nu_n)."""
        topo = self.quiver.topological_order()
        return tuple(
            (self.quiver.vertices[i], nu[i]) for i in topo if nu[i]
        )

    def word_for_index(self, idx):
        """The defining word of the monomial attached to an index."""
        frame, lam = idx
        if self.kind == "cyclic":
            if lam:
                raise UnsupportedQuiverError("cyclic indices carry no partition")
            return tuple(self.ddx_word(frame[1]))
        seq = self.engine.seq
        _, cm, _, cp, _ = frame
        word = []
        for t, m in cm:  # stored with t descending from 0
            beta = seq.beta(t)
            word.extend(self.dimvec_word(tuple(m * x for x in beta)))
        for part in lam:
            word.extend(self.dimvec_word(tuple(part * x for x in self.engine.delta)))
        for t, m in reversed(cp):  # largest t leftmost
            beta = seq.beta(t)
            word.extend(self.dimvec_word(tuple(m * x for x in beta)))
        return tuple(word)

    def monomial_over_N(self, idx) -> dict:
        """Expansion of the monomial over the N family, with triangularity checks."""
        out = self.engine.generic_word(self.word_for_index(idx))
        lead = out.get(idx, ZERO)
        if lead != ONE:
            raise ArithmeticError(
                f"monomial of {idx} has leading coefficient {lead.text()}"
            )
        for b in out:
            if b != idx and not self.strictly_less(b, idx):
                raise ArithmeticError(
                    f"monomial support {b} is not below the leading index {idx}"
                )
        return out

    # -- PBW basis ----------------------------------------------------------

    @memoized
    def pbw_basis(self, nu) -> "PBWData":
        nu = self.quiver.check_dim(nu)
        idxset = self.enumerate_indices(nu)
        order = idxset.aperiodic
        # Every word's degree bound is checked before the first is lifted.
        for a in order:
            self.engine.check_pool(self.word_for_index(a))
        mon = {a: self.monomial_over_N(a) for a in order}
        aper = set(order)
        # E_a = m_a - sum_{b < a} mon[a][b] E_b over aperiodic b, so the
        # monomials over E are the aperiodic part of the monomial rows.
        mon_over_E = {a: {b: c for b, c in mon[a].items() if b in aper} for a in order}
        eta = invert_unitriangular(order, mon_over_E)
        # eta is E over the monomials, so E over N is eta times the rows.
        E = {a: row_times(eta[a], mon) for a in order}
        for a in order:
            if E[a].get(a, ZERO) != ONE:
                raise ArithmeticError(f"PBW leading term corrupted at {a}")
            for b in E[a]:
                if b == a:
                    continue
                if b in aper:
                    raise ArithmeticError(
                        f"PBW tail of {a} touches the aperiodic index {b}"
                    )
                if not self.strictly_less(b, a):
                    raise ArithmeticError(f"PBW tail of {a} is not below it")
        return PBWData(nu, idxset, order, mon, E, eta, mon_over_E)


class PBWData(NamedTuple):
    """Transition data at one dimension vector.

    ``mon``: monomial expansions over the N family; ``E``: PBW elements
    over N; ``eta``: PBW elements over monomials and ``mon_over_E`` its
    inverse (both unitriangular).
    """

    nu: tuple
    idxset: OrderedIndexSet
    order: list
    mon: dict
    E: dict
    eta: dict
    mon_over_E: dict


def _glued_peels(n: int, pi):
    """The peels (i, a, peeled) of pi that glue back: full peels first, then
    partial ones by increasing minimum length, each (i, a) once."""
    tried = set()
    for ell in sorted({l for (_, l), _ in pi}):
        for i in range(1, n + 1):
            a, peeled = mseg_peel_top(n, pi, i, ell)
            if a and (i, a) not in tried:
                tried.add((i, a))
                if mseg_extend_top(n, peeled, i, a) == pi:
                    yield i, a, peeled


def _geL(cfun, dfun, positive=False) -> bool:
    """Lexicographic >=_L on multiplicity functions: t ascending if
    ``positive``, else t descending from 0."""
    cd, dd = dict(cfun), dict(dfun)
    diffs = (cd.get(t, 0) - dd.get(t, 0) for t in sorted({*cd, *dd}, reverse=not positive))
    return next((d > 0 for d in diffs if d), True)
