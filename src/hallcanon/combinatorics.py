"""The integer layer of iso classes: multisegments, descriptors, quiver
kinds and the combinatorial context.

Nothing here builds a module or touches a finite field, so a cyclic
engine loads no ``gf``, ``fqrep`` or ``hallpoly``: every Hall number a
cyclic ``canonical`` needs is a closed form in the multisegments (Deng, Du
and Xiao's generic extensions; Ringel's socle formula), and
``CombinatorialContext`` serves them; it refuses a row that needs a census.
``fqrep.FieldContext`` extends that context with GF(q), closed points,
building, classification and the submodule census.

Iso classes are referred to by hashable descriptors:

* cyclic quiver:  ``('m', pi)`` with ``pi`` a multisegment,
* acyclic quiver: ``('c', cm, (), cp, homog)`` with ``cm``/``cp`` the
  preprojective/preinjective multiplicity functions and ``homog`` a tuple
  of (closed point, partition) pairs; slot 2 is empty, since the supported
  quivers have no non-homogeneous tubes.

Closed points are ``('f', coeffs)`` for the monic irreducible with the
given ascending non-leading coefficients, or ``('i',)`` for infinity.  A
point type (``point_type``) names its points ``('t', degree, k)`` instead,
so it is the same descriptor at every field.
"""

from __future__ import annotations

from functools import lru_cache

from .config import JobConfig, UnsupportedQuiverError, memoized
from .quiver import AdmissibleSequence, Quiver


# ---------------------------------------------------------------------------
# multisegments
# ---------------------------------------------------------------------------


def mseg_normalize(segs) -> tuple:
    """Canonical multisegment: sorted tuple of ((vertex, length), multiplicity)."""
    acc: dict = {}
    for item in segs:
        if len(item) == 2 and isinstance(item[0], tuple):
            (i, l), m = item
        else:
            i, l = item
            m = 1
        if m:
            acc[(i, l)] = acc.get((i, l), 0) + m
    return tuple(sorted((k, m) for k, m in acc.items() if m))


def mseg_dim(n: int, pi) -> tuple[int, ...]:
    dims = [0] * n
    for (i, l), m in pi:
        for k in range(l):
            dims[(i - 1 + k) % n] += m
    return tuple(dims)


def mseg_aperiodic(n: int, pi) -> bool:
    lengths = {l for (_, l), _ in pi}
    for l in lengths:
        present = {i for (i, ll), _ in pi if ll == l}
        if len(present) == n:
            return False
    return True


def bounded_multisets(items, dim, bound, exact: bool):
    """Multiplicity functions ((item, m), ...), every m > 0, with sum m * dim(item)
    <= bound (= bound if ``exact``), in descending lex order of the
    multiplicity vectors over ``items``."""
    dims = [dim(x) for x in items]

    def rec(idx, remaining, chosen):
        if idx == len(items):
            if not exact or not any(remaining):
                yield tuple(chosen)
            return
        d = dims[idx]
        max_m = min(remaining[k] // d[k] for k in range(len(d)) if d[k])
        for m in range(max_m, -1, -1):
            rem = tuple(remaining[k] - m * d[k] for k in range(len(d)))
            if m:
                chosen.append((items[idx], m))
            yield from rec(idx + 1, rem, chosen)
            if m:
                chosen.pop()

    yield from rec(0, tuple(bound), [])


@lru_cache(maxsize=None)
def enumerate_msegs(n: int, nu) -> tuple:
    """All multisegments with dimension vector nu, sorted."""
    nu = tuple(nu)
    segs = [(i, l) for i in range(1, n + 1) for l in range(1, sum(nu) + 1)]
    segs = [s for s in segs if all(a <= b for a, b in zip(mseg_dim(n, ((s, 1),)), nu))]
    out = bounded_multisets(segs, lambda s: mseg_dim(n, ((s, 1),)), nu, exact=True)
    return tuple(sorted({mseg_normalize(pi) for pi in out}))


def hom_seg(n: int, a, b) -> int:
    """dim Hom(S_i[l], S_j[m]) for the cyclic quiver on n vertices."""
    (i, l), (j, m) = a, b
    return sum(
        1
        for s in range(max(0, m - l), m)
        if (j + s - i) % n == 0
    )


def mseg_hom(n: int, pi, rho) -> int:
    """dim Hom(M(pi), M(rho)), additive over segments."""
    out = 0
    for sa, ma in pi:
        for sb, mb in rho:
            out += ma * mb * hom_seg(n, sa, sb)
    return out


def mseg_end(n: int, pi) -> int:
    return mseg_hom(n, pi, pi)


def mseg_peel_top(n: int, pi, i: int, min_length: int = 1):
    """Remove the top box of every segment at vertex i of length >= min_length.

    Returns (count, peeled multisegment); count is the multiplicity of the
    tops removed, the full multiplicity of tops at i when min_length = 1.
    """
    count = 0
    rest = []
    for (j, l), m in pi:
        if j == i and l >= min_length:
            count += m
            if l > 1:
                rest.append((((j % n) + 1, l - 1), m))
        else:
            rest.append(((j, l), m))
    return count, mseg_normalize(rest)


def mseg_extend_top(n: int, pi, i: int, a: int) -> tuple:
    """The generic extension of S_i^a on top of M(pi); inverts ``mseg_peel_top``.

    The a longest segments starting at vertex i+1 grow by one box to start
    at i; any boxes left over become new segments [i;1].
    """
    nxt, out = i % n + 1, []
    for (j, l), m in sorted(pi, key=lambda s: (s[0][0] != nxt, -s[0][1])):
        grown = min(a, m) if j == nxt else 0
        a -= grown
        out += [((i, l + 1), grown), ((j, l), m - grown)]
    return mseg_normalize(out + [((i, 1), a)])


@lru_cache(maxsize=None)
def _gauss_binom_coeffs(m: int, r: int) -> tuple:
    """[m choose r]_q as integer coefficients in q, ascending."""
    if r == 0 or r == m:
        return (1,)
    # [m choose r] = [m-1 choose r-1] + q^r [m-1 choose r]
    out = [0] * (r * (m - r) + 1)
    for k, c in enumerate(_gauss_binom_coeffs(m - 1, r - 1)):
        out[k] += c
    for k, c in enumerate(_gauss_binom_coeffs(m - 1, r)):
        out[k + r] += c
    return tuple(out)


def _bounded_compositions(caps, a):
    """Every (r_1, ..., r_k) with sum a and 0 <= r_j <= caps[j], in lex order."""
    if not caps:
        if a == 0:
            yield ()
        return
    for r in range(min(a, caps[0]) + 1):
        for rest in _bounded_compositions(caps[1:], a - r):
            yield (r, *rest)


def _socle_moves(n: int, pi, i: int, a: int, sign: int) -> list:
    """(X, g) for each way to lengthen (sign 1) or shorten (sign -1) a
    segments of M(pi) by a socle box at i: r_l of them become, or were, a
    segment [s;l] ending at i, sum r_l = a.  g is the socle formula of
    ``mseg_socle_extensions`` in the r_l and the m_l of the longer module,
    as integer coefficients in q, ascending."""
    mult = dict(pi)
    slots = [((i - l) % n + 1, l) for l in range(1, max((l for (_, l), _ in pi), default=0) + 2)]
    if sign > 0:
        caps = [mult.get((s, l - 1), 0) if l > 1 else a for s, l in slots]
    else:
        caps = [mult.get(slot, 0) for slot in slots]
    out = []
    for rs in _bounded_compositions(caps, a):
        segs = list(pi)
        for (s, l), r in zip(slots, rs):
            segs.append(((s, l), sign * r))
            if l > 1:
                segs.append(((s, l - 1), -sign * r))
        X = mseg_normalize(segs)
        longer = dict(X) if sign > 0 else mult
        coeffs, later = [1], 0
        for slot, r in reversed(list(zip(slots, rs))):
            m = longer.get(slot, 0)
            coeffs = [0] * (r * later) + _int_poly_mul(coeffs, _gauss_binom_coeffs(m, r))
            later += m - r
        out.append((X, tuple(coeffs)))
    return out


def mseg_socle_extensions(n: int, pi, i: int, a: int) -> list:
    """All (L, g) with g = g^L_{M(pi), S_i^a} nonzero, without a census.

    A submodule U of L isomorphic to S_i^a lies in the socle at i, so L is
    M(pi) with r_l of its segments of length l - 1 and socle at i - 1
    lengthened by a socle box at i, sum r_l = a; the r_1 segments of length
    0 are new segments [i;1].  With m_l the number of segments of L of
    length l and socle at i, the Aut(L)-orbit of U is fixed by the r_l, and

        g = prod_l [m_l choose r_l]_q * q^(sum_{l < l'} r_l (m_l' - r_l')).

    For n = 1 this is Macdonald's G^lam_{mu (1^a)} (Symmetric Functions and
    Hall Polynomials, II (4.6)); see Ringel, Proc. LMS 66 (1993), for cyclic
    quivers.  g is given as integer coefficients in q, ascending.
    """
    return _socle_moves(n, pi, i, a, 1)


def mseg_socle_quotients(n: int, pi, i: int, a: int) -> list:
    """All (M, g) with g = g^{M(pi)}_{M, S_i^a} nonzero: the socle formula of
    ``mseg_socle_extensions`` read backwards, without a census.

    M is M(pi) with r_l of its m_l segments of length l and socle at i
    shortened by their socle box, sum r_l = a, and g is the same product in
    the m_l and r_l.  Distinct (r_l) give distinct M, since M keeps
    m_l - r_l segments of length l with socle at i.
    """
    return _socle_moves(n, pi, i, a, -1)


def cyclic_image(n: int, desc, r: int, flip: bool):
    """rho_r of a cyclic descriptor, or rho_r of its dual delta if flip.

    On the cyclic quiver with arrows i -> i+1, rho_r rotates a segment,
    (i, l) -> ((i - 1 + r) mod n + 1, l), and delta sends it to
    ((-(i + l - 2)) mod n + 1, l): the dual over Q^op, read on Q by
    j -> -j, has its top at the reflected socle i + l - 1.
    """
    segs = []
    for (i, l), m in desc[1]:
        top = -(i + l - 2) if flip else i - 1
        segs.append((((top + r) % n + 1, l), m))
    return ("m", mseg_normalize(segs))


# ---------------------------------------------------------------------------
# integer polynomials in q
# ---------------------------------------------------------------------------


def eval_poly(coeffs, x):
    """The polynomial with ascending coefficients ``coeffs`` at x (Horner)."""
    out = 0
    for c in reversed(coeffs):
        out = out * x + c
    return out


def _int_poly_mul(a, b):
    """Product of integer polynomials, coefficients ascending."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


# ---------------------------------------------------------------------------
# iso-class descriptors
# ---------------------------------------------------------------------------


def make_cdesc(cm=(), cp=(), homog=()) -> tuple:
    """Canonical acyclic-quiver descriptor ('c', cm, (), cp, homog)."""
    cm = tuple(sorted(((t, m) for t, m in cm if m), key=lambda p: -p[0]))
    cp = tuple(sorted((t, m) for t, m in cp if m))
    homog = tuple(sorted((pt, tuple(lam)) for pt, lam in homog if lam))
    return ("c", cm, (), cp, homog)


def shift_simple(desc, side, t, d: int):
    """(desc', [m, |d|]_q in q, ascending): desc with d copies of a simple's
    indecomposable (side, t) added, or -d taken away, m its multiplicity in
    the larger of the two; None if desc has fewer than -d."""
    cm, cp = dict(desc[1]), dict(desc[3])
    mult = cm if side == "p" else cp
    m = mult.get(t, 0)
    if m + d < 0:
        return None
    mult[t] = m + d
    shifted = make_cdesc(cm=cm.items(), cp=cp.items(), homog=desc[4])
    return shifted, _gauss_binom_coeffs(max(m, m + d), abs(d))


def desc_frame(desc) -> tuple:
    """The descriptor with its homogeneous part removed."""
    if desc[0] == "m":
        return desc
    _, cm, c0, cp, _ = desc
    return ("c", cm, c0, cp, ())


def desc_homog(desc) -> tuple:
    return () if desc[0] == "m" else desc[4]


def desc_indecs(desc):
    """Decompose a descriptor into (indec, multiplicity) pairs.

    Indecomposables: ('p', t) preprojective, ('q', t) preinjective,
    ('r', point, layer) regular, ('s', i, l) cyclic segment.
    """
    if desc[0] == "m":
        return [(("s", i, l), m) for (i, l), m in desc[1]]
    _, cm, _, cp, homog = desc
    out = [(("p", t), m) for t, m in cm]
    for pt, lam in homog:
        layers: dict = {}
        for part in lam:
            layers[part] = layers.get(part, 0) + 1
        out.extend((("r", pt, l), m) for l, m in sorted(layers.items()))
    out.extend((("q", t), m) for t, m in cp)
    return out


def point_degree(point) -> int:
    """The degree of a closed point, or of a type's point ('t', d, k)."""
    if point[0] == "t":
        return point[1]
    return 1 if point[0] == "i" else len(point[1])


def point_type(desc) -> tuple:
    """The type of a class, independent of q: desc with its k-th closed
    point of degree d, in (degree, partition) order, written ('t', d, k).

    It is the only name of a type above the census: Hall numbers depend
    only on the degree and partition at each point (Hubery, Represent.
    Theory 14 (2010)), so ``hall_table`` keys its rows by point type and
    fixes no concrete class of a type.  A class without points is its own
    type.
    """
    if not desc_homog(desc):
        return desc
    placed, used = [], {}
    for d, lam in sorted((point_degree(pt), lam) for pt, lam in desc[4]):
        used[d] = k = used.get(d, -1) + 1
        placed.append((("t", d, k), lam))
    return make_cdesc(cm=desc[1], cp=desc[3], homog=placed)


# ---------------------------------------------------------------------------
# quiver kinds and the combinatorial context
# ---------------------------------------------------------------------------


def quiver_kind(quiver: Quiver) -> tuple:
    """(kind, delta, admissible sequence) of a supported quiver, once per quiver.

    ``kind`` is 'cyclic', 'kronecker' or 'finite'; other affine quivers
    would need non-homogeneous tube bookkeeping and are rejected, as are
    wild quivers and cyclic ones not oriented i -> i+1.  Quivers compare
    equal up to arrow order, and the sequence builds modules in its own
    quiver's arrow order, so the arrows as listed are part of the key.
    """
    return _quiver_kind(quiver, quiver.arrows)


@lru_cache(maxsize=None)
def _quiver_kind(quiver: Quiver, _arrows) -> tuple:
    if not quiver.is_acyclic():
        # Must be the cyclic orientation: exactly the arrows i -> i+1 (mod n).
        n = quiver.n
        if sorted(quiver.arrows) != sorted((i, (i + 1) % n) for i in range(n)):
            raise UnsupportedQuiverError(
                "only the cyclic orientation i -> i+1 in vertex order is supported"
            )
        return "cyclic", tuple([1] * n), None
    seq = AdmissibleSequence(quiver)
    if seq.finite:
        return "finite", None, seq
    if not quiver.is_affine():
        raise UnsupportedQuiverError("wild quivers are not supported")
    if quiver.n == 2 and len(quiver.arrows) == 2 and len(set(quiver.arrows)) == 1:
        return "kronecker", quiver.delta(), seq
    raise UnsupportedQuiverError("affine quivers with non-homogeneous tubes are not supported")


class CombinatorialContext:
    """The per-(quiver, q) computations that need no field, memoized.

    Dimensions, Homs, End and |Aut| of classes are read off their
    descriptors.  On a cyclic quiver so are its classes, the multisegments
    (``type_classes``), and the Hall rows that ``hall_row`` gives in closed
    form.  A row that needs a census raises ``UnsupportedQuiverError``: this
    class builds no field.  ``FieldContext`` extends it with GF(q), closed
    points, building, classification and the census, which serves those rows.

    ``kind``, ``delta`` and ``seq`` are the quiver's (``quiver_kind``),
    shared by the contexts of every field.
    """

    def __init__(self, quiver: Quiver, q: int, cfg: JobConfig | None = None):
        self.quiver = quiver
        self.q = q
        self.cfg = cfg or JobConfig.default()
        self.kind, self.delta, self.seq = quiver_kind(quiver)

    # -- dimensions and homs -------------------------------------------

    def indec_dim(self, ind) -> tuple:
        if ind[0] == "s":
            return mseg_dim(self.quiver.n, (((ind[1], ind[2]), 1),))
        if ind[0] in "pq":
            return self.seq.beta(ind[1])
        if ind[0] == "r":
            d = point_degree(ind[1]) * ind[2]
            return tuple(d * x for x in self.delta)
        raise ValueError(f"unknown indecomposable {ind}")

    @memoized
    def desc_dim(self, desc) -> tuple:
        n = self.quiver.n
        out = [0] * n
        for ind, m in desc_indecs(desc):
            d = self.indec_dim(ind)
            for k in range(n):
                out[k] += m * d[k]
        return tuple(out)

    def hom_indec(self, a, b) -> int:
        """dim Hom between indecomposables, from AR-theory shape constraints."""
        if a[0] == "s" or b[0] == "s":
            return hom_seg(self.quiver.n, (a[1], a[2]), (b[1], b[2]))
        euler = self.quiver.euler_form
        da, db = self.indec_dim(a), self.indec_dim(b)
        ka, kb = a[0], b[0]
        if ka == "p":
            # Ext(P, X) vanishes; between preprojectives Hom and Ext never
            # both survive, so the Euler form decides.
            return max(0, euler(da, db)) if kb == "p" else euler(da, db)
        if ka == "r":
            if kb == "p":
                return 0
            if kb == "r":
                if a[1] != b[1]:
                    return 0
                return point_degree(a[1]) * min(a[2], b[2])
            return euler(da, db)
        if ka == "q":
            return max(0, euler(da, db)) if kb == "q" else 0
        raise ValueError(f"unknown indecomposable {a}")

    def hom_desc(self, descA, descB) -> int:
        out = 0
        for ia, ma in desc_indecs(descA):
            for ib, mb in desc_indecs(descB):
                out += ma * mb * self.hom_indec(ia, ib)
        return out

    @memoized
    def end(self, desc) -> int:
        return self.hom_desc(desc, desc)

    @memoized
    def aut_coeffs(self, desc) -> tuple:
        """|Aut M| as integer coefficients in q, ascending, by radical lifting.

        For M = (+) M_i^{n_i} with the M_i pairwise non-isomorphic
        indecomposables, the cross-Hom blocks lie in the radical of End M,
        so |Aut M| = q^(sum of cross Hom dims) * prod |GL_{n_i}(End M_i)|
        with End M_i local of residue degree d_i and radical dimension
        e_i - d_i.  Only Hom dimensions are used; nothing is built.
        """
        comps = desc_indecs(desc)
        cross = 0
        for i, (ia, na) in enumerate(comps):
            for j, (ib, nb) in enumerate(comps):
                if i != j:
                    cross += na * nb * self.hom_indec(ia, ib)
        coeffs = [0] * cross + [1]  # q^cross
        for ind, n in comps:
            e = self.hom_indec(ind, ind)
            d = point_degree(ind[1]) if ind[0] == "r" else 1
            assert e >= d
            coeffs = [0] * (n * n * (e - d)) + coeffs
            for k in range(n):
                # factor q^(d n) - q^(d k)
                factor = [0] * (d * n + 1)
                factor[d * n] = 1
                factor[d * k] -= 1
                coeffs = _int_poly_mul(coeffs, factor)
        return tuple(coeffs)

    def aut(self, desc) -> int:
        return eval_poly(self.aut_coeffs(desc), self.q)

    # -- types -------------------------------------------------------------

    @memoized
    def type_classes(self, nu) -> tuple:
        """One class of each type of dimension vector nu, in a fixed order.

        A type is a class up to the closed points it sits at.  Only Kronecker
        classes have points, and ``FieldContext`` lists the types of the
        acyclic kinds; here, on a cyclic quiver, every class is its own type:
        the multisegments of dimension vector nu.
        """
        return tuple(("m", pi) for pi in enumerate_msegs(self.quiver.n, nu))

    # -- Hall numbers -------------------------------------------------------

    @memoized
    def hall_row(self, descL, nuN) -> dict:
        """{(descM, descN): g^L_{M,N}} for one class L: in closed form where
        one is known, else from a census (``_census_row``).

        Memoized per (descL, nuN).  With nuN = 0 or dim L, L has one such
        subspace, so the row g^L_{L,0} = 1 or g^L_{0,L} = 1 needs no census.
        On a cyclic quiver with n >= 2, a row with dim N or dim M = a e_i is
        closed-form too, and builds nothing: that module is S_i^a, and the
        row is the socle formula read backwards (``_one_vertex_row``).  The
        Jordan quiver keeps its census, since there a module at its one
        vertex need not be semisimple.  On an acyclic quiver, a row with
        dim N = a e_i at a source i, or dim M = a e_j at a sink j, splits
        off a simple power and is closed-form too (``_split_simple_row``).
        No closed form enumerates a subspace, so none is bounded by
        ``budget_subspaces``.  No order of the row's keys is promised.

        The row is one class's, also on the Kronecker quiver: each entry is
        the Hall number of the classes M and N themselves, not of their
        types (``hall_table`` sums it by type).
        """
        nuL = self.desc_dim(descL)
        nuM = tuple(l - k for l, k in zip(nuL, nuN))
        if nuN == nuL or not any(nuN):
            (zero,) = self.type_classes(tuple(0 for _ in nuL))
            return {(zero, descL) if nuN == nuL else (descL, zero): 1}
        if self.kind == "cyclic":
            if len(nuL) > 1 and 1 in (sum(map(bool, nuN)), sum(map(bool, nuM))):
                return self._one_vertex_row(descL, nuN, nuM)
        elif (row := self._split_simple_row(descL, nuN, nuM)) is not None:
            return row
        return self._census_row(descL, nuN, nuM)

    def _split_simple_row(self, descL, nuN, nuM):
        """``hall_row`` of an acyclic L when N = S_i^a with i a source, or
        M = S_j^a with j a sink; None for any other row.

        At a source S_i is injective, so a submodule U isomorphic to S_i^a
        splits off L.  Write L = L' + S_i^m with no S_i summand in L': a
        vector of L'_i killed by every arrow would span a summand S_i of L'.
        So U is an a-dimensional subspace of the m-dimensional S_i^m, with
        L/U = L' + S_i^(m-a): the row is (L - S_i^a, S_i^a) -> [m, a]_q, and
        empty when m < a.  At a sink S_j is projective and the dual argument
        gives (S_j^a, L - S_j^a) -> [m, a]_q.  m is the multiplicity of the
        simple's indecomposable in L's descriptor (``shift_simple``).
        """
        for nu, at_end, on_right in (
            (nuN, self.quiver.is_source, True),
            (nuM, self.quiver.is_sink, False),
        ):
            support = [v for v, x in enumerate(nu) if x]
            if len(support) != 1 or not at_end(support[0]):
                continue
            a = nu[support[0]]
            side, t = self.seq.simple_indec(support[0])
            if (split := shift_simple(descL, side, t, -a)) is None:
                return {}
            rest, g = split
            S = make_cdesc(cm=((t, a),)) if side == "p" else make_cdesc(cp=((t, a),))
            return {(rest, S) if on_right else (S, rest): eval_poly(g, self.q)}
        return None

    def _census_row(self, descL, nuN, nuM) -> dict:
        """A row with no closed form: only ``FieldContext`` runs a census."""
        raise UnsupportedQuiverError(
            f"the Hall row of {descL} at dim N = {nuN}, dim M = {nuM} needs "
            f"a census over GF({self.q})"
        )

    def _one_vertex_row(self, descL, nuN, nuM) -> dict:
        """``hall_row`` of a cyclic L (n >= 2) when dim N or dim M is a e_i.

        Such a module is S_i^a, since no arrow joins i to itself.  With
        dim N = a e_i the row is ``mseg_socle_quotients``; with dim M = a e_i
        it is the duality delta's image of that row for delta(L), by
        g^L_{M,N} = g^{delta L}_{delta N, delta M}.
        """
        n = self.quiver.n
        flip = sum(map(bool, nuN)) != 1
        ((v, a),) = [(v, x) for v, x in enumerate(nuM if flip else nuN) if x]
        S = ("m", (((v + 1, 1), a),))
        pi, i = descL[1], v + 1
        if flip:
            pi, i = cyclic_image(n, descL, 0, True)[1], -v % n + 1
        row = {}
        for X, coeffs in mseg_socle_quotients(n, pi, i, a):
            X = cyclic_image(n, ("m", X), 0, True) if flip else ("m", X)
            row[(S, X) if flip else (X, S)] = eval_poly(coeffs, self.q)
        return row

    @memoized
    def hall_table(self, nuL, nuN):
        """The Hall numbers with dim L = nuL and dim N = nuN, one row per type,
        keyed by ``point_type``.

        Returns (by_L, by_pair).  For each class of ``type_classes(nuL)``,
        in their order, by_L[point_type(L)] is L's row (``hall_row``) with
        its entries summed by type: the entry at (M, N), two point types, is
        the sum of g^L_{M', N'} over the classes M' of type M and N' of type
        N.  That sum is the same for every class of L's type (Hubery,
        Represent. Theory 14 (2010)), so it is the coefficient that a
        product of type elements (``hallalg.FieldElement``) needs.  Where
        every class is its own type, as off the Kronecker quiver, the row is
        ``hall_row(L, nuN)`` itself.  by_pair[(M, N)] = list of (L, count).
        """
        by_L, by_pair = {}, {}
        if all(x >= y for x, y in zip(nuL, nuN)):
            for dL in self.type_classes(nuL):
                row = self.hall_row(dL, nuN)
                if self.kind == "kronecker":
                    summed: dict = {}
                    for (dM, dN), g in row.items():
                        pair = (point_type(dM), point_type(dN))
                        summed[pair] = summed.get(pair, 0) + g
                    row, dL = summed, point_type(dL)
                by_L[dL] = row
                for pair, g in row.items():
                    by_pair.setdefault(pair, []).append((dL, g))
        return by_L, by_pair

    def hall(self, descL, descM, descN) -> int:
        """g^L_{M,N} at this field, from L's row alone (``hall_row``)."""
        nuL = self.desc_dim(descL)
        nuN = self.desc_dim(descN)
        nuM = self.desc_dim(descM)
        if tuple(a + b for a, b in zip(nuM, nuN)) != nuL:
            return 0
        return self.hall_row(descL, nuN).get((descM, descN), 0)

    def hall_products(self, descM, descN):
        """All (L, count) with count nonzero in ``hall_table``'s column of
        (M, N), two point types: count is g^L_{M,N} summed over the classes
        of types M and N, one point type L per type.

        A class whose points are closed points of the field is not a point
        type and has no column: it raises ValueError rather than read as a
        zero product.
        """
        nuM = self.desc_dim(descM)
        nuN = self.desc_dim(descN)
        nuL = tuple(a + b for a, b in zip(nuM, nuN))
        _, by_pair = self.hall_table(nuL, nuN)
        column = by_pair.get((descM, descN))
        if column is None:
            if stray := [d for d in (descM, descN) if point_type(d) != d]:
                raise ValueError(f"{stray} not a point type (point_type)")
            return []
        return column
