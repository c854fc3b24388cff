"""Explicit quiver representations over small finite fields.

Provides the named modules (cyclic-quiver multisegments, Kronecker
preprojectives / preinjectives / regulars, finite-type root modules),
Hom/End/Aut computation, arrow-stable subspace censuses, Hall numbers,
BGP reflection functors and isomorphism classification.  Descriptors,
multisegments and everything read off them without a field live in
``combinatorics``; ``FieldContext`` extends its ``CombinatorialContext``.

Classification computes a descriptor in closed form: a Kronecker module
through the Kronecker canonical form of its pencil (``classify_pencil``), a
nilpotent cyclic one through the ranks of its paths
(``classify_nilpotent_cyclic``), a finite-type one by a triangular solve on
dim Hom(beta_t, M) over the preprojectives (``FieldContext.classify``).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product

from . import gf
from .combinatorics import (
    CombinatorialContext,
    _gauss_binom_coeffs,
    bounded_multisets,
    desc_indecs,
    eval_poly,
    make_cdesc,
    mseg_dim,
    mseg_normalize,
    point_degree,
)
from .config import (
    BudgetExceededError,
    ClassificationError,
    InsufficientPointsError,
    JobConfig,
    UnsupportedQuiverError,
    memoized,
)
from .gf import (
    GF,
    _poly_add,
    _poly_divmod,
    _poly_gcd,
    _poly_mul,
    _poly_trim,
)
from .quiver import Quiver


# ---------------------------------------------------------------------------
# closed points of P^1
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def closed_points(q: int, degree: int) -> tuple:
    """Closed points of P^1(F_q) of the given degree, in canonical order.

    Degree-1 points are the monic linear polynomials plus infinity; higher
    degrees are the monic irreducibles of that degree (``gf.irreducibles``),
    in ascending order of their non-leading coefficients, and there are none
    of degree 0.
    """
    if degree < 1:
        return ()
    pts = tuple(("f", tail) for tail in gf.irreducibles(q, degree))
    return pts + (("i",),) if degree == 1 else pts


def point_count(q: int, degree: int) -> int:
    """len(closed_points(q, degree)), in closed form.

    Each monic polynomial of degree d factors uniquely into monic
    irreducibles, so q^d = sum_{e | d} e N_e with N_e the number of degree e;
    degree 1 adds infinity.
    """
    n = [0] * (degree + 1)
    for d in range(1, degree + 1):
        n[d] = (q**d - sum(e * n[e] for e in range(1, d) if d % e == 0)) // d
    return n[degree] + (degree == 1)


def points_suffice(q: int, degrees) -> bool:
    """Has P^1(F_q) as many closed points of each degree d as ``degrees``
    names d?  Counted by ``point_count``, nothing listed."""
    return all(degrees.count(d) <= point_count(q, d) for d in set(degrees))


def assign_points(q: int, degrees) -> list:
    """Distinct closed points of the given degrees, in their order: the k-th
    of degree d is ``closed_points(q, d)[k]``.  This is where a Hall key's
    slots and the classes of ``FieldContext.type_classes`` sit."""
    out, used = [], {}
    for d in degrees:
        used[d] = k = used.get(d, -1) + 1
        if k >= (n := point_count(q, d)):
            raise InsufficientPointsError(f"q={q} has only {n} points of degree {d}")
        out.append(closed_points(q, d)[k])
    return out


def _companion(F: GF, poly):
    """Companion matrix of a monic polynomial (coeffs ascending, leading 1)."""
    d = len(poly) - 1
    mat = gf.zeros(d, d)
    for r in range(1, d):
        mat[r][r - 1] = 1
    for r in range(d):
        mat[r][d - 1] = F.neg(poly[r])
    return mat


def _nilpotent_jordan(d: int):
    mat = gf.zeros(d, d)
    for r in range(1, d):
        mat[r][r - 1] = 1
    return mat


# ---------------------------------------------------------------------------
# explicit modules
# ---------------------------------------------------------------------------


class FqModule:
    """Representation of a quiver over GF(q): graded dimensions + arrow matrices.

    Arrow matrices map column vectors, shape (dim target) x (dim source).
    """

    __slots__ = ("quiver", "F", "dims", "mats")

    def __init__(self, quiver: Quiver, F: GF, dims, mats):
        self.quiver = quiver
        self.F = F
        self.dims = tuple(dims)
        self.mats = [
            [list(row) for row in m] for m in mats
        ]
        for a, (s, t) in enumerate(quiver.arrows):
            m = self.mats[a]
            if len(m) != self.dims[t] or any(len(r) != self.dims[s] for r in m):
                raise ValueError(f"arrow {a}: matrix shape mismatch")

    def direct_sum(self, other: "FqModule") -> "FqModule":
        assert self.quiver == other.quiver and self.F is other.F
        dims = tuple(a + b for a, b in zip(self.dims, other.dims))
        mats = []
        for a, (s, t) in enumerate(self.quiver.arrows):
            m = gf.zeros(dims[t], dims[s])
            for r in range(self.dims[t]):
                for c in range(self.dims[s]):
                    m[r][c] = self.mats[a][r][c]
            for r in range(other.dims[t]):
                for c in range(other.dims[s]):
                    m[self.dims[t] + r][self.dims[s] + c] = other.mats[a][r][c]
            mats.append(m)
        return FqModule(self.quiver, self.F, dims, mats)

    def __repr__(self):
        return f"FqModule(q={self.F.q}, dims={self.dims})"


def simple_module(quiver: Quiver, F: GF, vertex_index: int) -> FqModule:
    dims = tuple(1 if j == vertex_index else 0 for j in range(quiver.n))
    mats = [gf.zeros(dims[t], dims[s]) for s, t in quiver.arrows]
    return FqModule(quiver, F, dims, mats)


def build_cyclic(pi, q: int, quiver: Quiver) -> FqModule:
    """The nilpotent cyclic-quiver module with multisegment pi."""
    pi = mseg_normalize(pi)
    n = quiver.n
    F = GF(q)
    dims = mseg_dim(n, pi)
    # Lay out basis vectors: list of (vertex, local index) per segment box.
    offsets = [0] * n
    mats = [gf.zeros(dims[t], dims[s]) for s, t in quiver.arrows]
    arrow_of = {}
    for a, (s, t) in enumerate(quiver.arrows):
        arrow_of[s] = (a, t)
    for (i, l), mult in pi:
        for _ in range(mult):
            positions = []
            for k in range(l):
                v = (i - 1 + k) % n
                positions.append((v, offsets[v]))
                offsets[v] += 1
            for k in range(l - 1):
                v, idx = positions[k]
                a, t = arrow_of[v]
                v2, idx2 = positions[k + 1]
                assert v2 == t
                mats[a][idx2][idx] = 1
    return FqModule(quiver, F, dims, mats)


# ---------------------------------------------------------------------------
# Hom, End, Aut
# ---------------------------------------------------------------------------


def hom_dim(M: FqModule, N: FqModule) -> int:
    if M.quiver != N.quiver or M.F is not N.F:
        raise ValueError("hom_dim: modules over different quivers or fields")
    return len(_hom_basis_rows(M, N))


def _hom_basis_rows(M: FqModule, N: FqModule):
    """Basis of intertwiners as flat vectors over the per-vertex blocks."""
    F = M.F
    nvars = sum(N.dims[v] * M.dims[v] for v in range(len(M.dims)))
    if nvars == 0:
        return []
    offs = []
    off = 0
    for v in range(len(M.dims)):
        offs.append(off)
        off += N.dims[v] * M.dims[v]

    def var(v, a, b):
        return offs[v] + a * M.dims[v] + b

    rows = []
    for arr, (s, t) in enumerate(M.quiver.arrows):
        Mh = M.mats[arr]
        Nh = N.mats[arr]
        for a in range(N.dims[t]):
            for c in range(M.dims[s]):
                row = [0] * nvars
                # (f_t M_h)[a][c] - (N_h f_s)[a][c] = 0
                for b in range(M.dims[t]):
                    if Mh[b][c]:
                        row[var(t, a, b)] = F.add(row[var(t, a, b)], Mh[b][c])
                for b in range(N.dims[s]):
                    if Nh[a][b]:
                        row[var(s, b, c)] = F.sub(row[var(s, b, c)], Nh[a][b])
                if any(row):
                    rows.append(row)
    return gf.nullspace(F, rows) if rows else [
        [1 if j == i else 0 for j in range(nvars)] for i in range(nvars)
    ]


def aut_order(M: FqModule, budget: int = 2_000_000) -> int:
    """|Aut M| by enumerating the endomorphism algebra; budget-guarded.

    The test oracle for ``FieldContext.aut_coeffs``, the closed form that
    every run uses; nothing in the package calls it.
    """
    F = M.F
    basis = _hom_basis_rows(M, M)
    e = len(basis)
    if F.q**e > budget:
        raise BudgetExceededError(f"aut_order: {F.q}^{e} endomorphisms exceed budget")
    n = len(M.dims)
    offs = []
    off = 0
    for v in range(n):
        offs.append(off)
        off += M.dims[v] * M.dims[v]
    count = 0
    for coeffs in product(F.elements(), repeat=e):
        vec = [0] * off
        for c, b in zip(coeffs, basis):
            if c:
                for j, x in enumerate(b):
                    if x:
                        vec[j] = F.add(vec[j], F.mul(c, x))
        ok = True
        for v in range(n):
            d = M.dims[v]
            if d == 0:
                continue
            block = [vec[offs[v] + a * d : offs[v] + (a + 1) * d] for a in range(d)]
            if not gf.is_invertible(F, block):
                ok = False
                break
        if ok:
            count += 1
    return count



# ---------------------------------------------------------------------------
# submodule census
# ---------------------------------------------------------------------------


def _subspace_count(d: int, k: int, q: int) -> int:
    """[d, k]_q, the number of k-subspaces of F_q^d: 0 when k is outside 0..d."""
    return eval_poly(_gauss_binom_coeffs(d, k), q) if 0 <= k <= d else 0


def census_size(M: FqModule, target) -> int:
    """The number of graded subspaces of M of dimension vector target,
    prod_v [d_v, k_v]_q (``_subspace_count``).  For a semisimple M each
    of them is a submodule, so this is also M's Hall number
    g^M_{S,S'} with S, S' the semisimples of dimension dim M - target and
    target."""
    out = 1
    for d, k in zip(M.dims, target):
        out *= _subspace_count(d, k, M.F.q)
    return out


@lru_cache(maxsize=None)
def _subspace_listing(F: GF, d: int, k: int) -> tuple:
    """gf.subspaces(F, d, k) as (rows, pivots), already RREF; shared by censuses."""
    return tuple((rows, tuple(row.index(1) for row in rows)) for rows in gf.subspaces(F, d, k))


@lru_cache(maxsize=None)
def _torus_orbits(F: GF, d: int, k: int, labels) -> tuple:
    """(first subspace, size) of each orbit of the k-subspaces of F^d, in
    ``_subspace_listing`` order, under T, which scales the coordinates of
    each block (``labels[c]``: the block of c) by its own element of F_q^*.

    T keeps the pivots and the nonzero entries, and multiplies entry (r, c)
    by lambda_b(c) / lambda_b(p_r), p_r the pivot of row r.  Take the entries
    joining two blocks in row-major order, and keep each that joins two
    blocks not yet connected by those kept: a spanning forest.  T moves the
    forest's entries independently and fixes the others once those are
    fixed, so an orbit has (q - 1)^(forest size) subspaces, and its first in
    the listing, where 1 is the least nonzero entry, is the one whose
    forest entries are all 1.  With q = 2, or one block, each orbit is a
    point.
    """
    listing = _subspace_listing(F, d, k)
    blocks = sorted(set(labels))
    if F.q == 2 or len(blocks) < 2:
        return tuple((sub, 1) for sub in listing)
    labels = [blocks.index(b) for b in labels]

    def forest_size(rows, pivots):
        """The forest's size, or None when an entry of it is not 1."""
        component, size = list(range(len(blocks))), 0
        for row, p in zip(rows, pivots):
            for c in range(p + 1, d):
                x = row[c]
                if x:
                    a, b = component[labels[c]], component[labels[p]]
                    if a != b:
                        if x != 1:
                            return None
                        component = [b if y == a else y for y in component]
                        size += 1
        return size

    out = []
    for sub in listing:
        size = forest_size(*sub)
        if size is not None:
            out.append((sub, (F.q - 1) ** size))
    return tuple(out)


def graded_stable_subspaces(M: FqModule, target, budget: int = 2_000_000, labels=None):
    """Yield (subspace, weight) for the arrow-stable graded subspaces of M
    of dimension vector target.

    Interval census: the vertices are fixed one at a time, in increasing
    order of their number of target-dimensional subspaces [d_v, k_v]_q, ties
    by index.  When vertex v is reached, V_v must contain the lower bound,
    the sum of M_a(V_s) over arrows a: s -> v with s already fixed, and lie
    in the upper bound, the intersection of M_a^-1(V_t) over arrows
    a: v -> t with t already fixed.  Only subspaces between the two bounds
    are listed (as subspaces of upper/lower lifted back to F^{d_v}), so every
    arrow between two distinct vertices holds by construction; a loop at v
    is the one arrow checked per candidate.  A vertex whose lower bound
    already exceeds k_v ends its branch before the upper bound is solved.
    Fixing the vertex with the fewest choices first keeps the branches that
    die at a later vertex few: on the Kronecker quiver with the sink first,
    the source's bound is a preimage, which almost every choice meets.

    Each subspace is a tuple over vertices of (RREF rows, pivot columns); no
    order is promised.  ``budget`` bounds ``census_size``, the number of
    graded subspaces of that dimension vector, not the number kept, and is
    checked before anything is listed.

    ``labels`` (``FieldContext.summand_labels``) names, per vertex, the
    direct summand of M of each coordinate.  Scaling each summand by its own
    scalar is an automorphism of M, so this torus T permutes the stable
    subspaces and keeps the classes of U and M/U; it carries those over
    V_v0 one-to-one onto those over t V_v0.  With labels, v0 is the first
    free vertex in the order, the first with 0 < k_v < d_v: every vertex
    before it is forced to 0 or M_v, which T keeps, so the bounds they put
    on V_v0 are T-stable.  The census lists the T-orbit representatives at
    v0 that lie between those bounds, the later vertices in full, and weighs
    each by the size of its orbit at v0; the weighted sum of any T-invariant
    function is its sum over all subspaces.  Without labels every stable
    subspace is yielded with weight 1.
    """
    n = len(M.dims)
    if any(target[v] > M.dims[v] for v in range(n)):
        return
    size = census_size(M, target)
    if size > budget:
        raise BudgetExceededError(f"census of {size} subspaces exceeds budget {budget}")
    F = M.F
    order = sorted(range(n), key=lambda v: (_subspace_count(M.dims[v], target[v], F.q), v))
    position = {v: i for i, v in enumerate(order)}
    incoming = [[] for _ in range(n)]  # (matrix, source) for sources fixed earlier
    outgoing = [[] for _ in range(n)]  # (matrix, target) for targets fixed earlier
    loops = [[] for _ in range(n)]
    for a, (s, t) in enumerate(M.quiver.arrows):
        if s == t:
            loops[s].append(M.mats[a])
        elif position[s] < position[t]:
            incoming[t].append((M.mats[a], s))
        else:
            outgoing[s].append((M.mats[a], t))

    def loop_stable(v, rows, pivots):
        for mat in loops[v]:
            for w in rows:
                img = gf.mat_vec(F, mat, w)
                if any(img) and gf.coords_in_rowspace(F, rows, pivots, img) is None:
                    return False
        return True

    def between_bounds(v, chosen):
        d, k = M.dims[v], target[v]
        images = [
            img
            for mat, s in incoming[v]
            for w in chosen[s][0]
            if any(img := gf.mat_vec(F, mat, w))
        ]
        low_rows, low_piv = gf.rref(F, images) if images else ([], [])
        if len(low_rows) > k:
            return []
        # x lies in M_a^-1(V_t) iff M_a x vanishes modulo V_t: the rows are
        # those of M_a on M/V with no column restriction (``_quotient_block``).
        constraints = [
            row
            for mat, t in outgoing[v]
            for row in _quotient_block(F, mat, d, (), *chosen[t])
            if any(row)
        ]
        if not low_rows and not constraints:
            return _subspace_listing(F, d, k)
        upper = gf.nullspace(F, constraints) if constraints else gf.identity(d)
        # Complement of the lower bound inside the upper one, reduced modulo
        # the lower bound; it spans upper/lower exactly when lower <= upper.
        reduced = [gf.reduce_mod_rowspace(F, low_rows, low_piv, u) for u in upper]
        comp_rows, comp_piv = gf.rref(F, reduced) if reduced else ([], [])
        if len(comp_rows) != len(upper) - len(low_rows):
            return []
        out = []
        for coeffs, sel in _subspace_listing(F, len(comp_rows), k - len(low_rows)):
            lifted = gf.combine_rows(F, coeffs, comp_rows)
            out.append(
                gf.rref_join(F, low_rows, low_piv, lifted, [comp_piv[j] for j in sel])
            )
        return out

    chosen = [None] * n
    # The torus acts at v0, given by its position ``free`` in the order, when
    # it has two blocks there and q > 2; otherwise every orbit is a point.
    # Blocks renumbered by first appearance share ``_torus_orbits`` entries.
    free, blocks = None, ()
    for i, v in enumerate(order):
        if 0 < target[v] < M.dims[v]:
            if labels is not None and F.q > 2:
                number: dict = {}
                blocks = tuple(number.setdefault(b, len(number)) for b in labels[v])
                free = i if len(number) > 1 else None
            break

    def rec(i, weight):
        if i == n:
            yield tuple(chosen), weight
            return
        v = order[i]
        kept = between_bounds(v, chosen)
        listed = ((sub, weight) for sub in kept)
        if i == free:
            # An orbit lies between v0's T-stable bounds whole or not at all;
            # with no bounds, ``between_bounds`` is the full listing.
            listed = _torus_orbits(F, M.dims[v], target[v], blocks)
            if kept is not _subspace_listing(F, M.dims[v], target[v]):
                kept = set(kept)
                listed = [(sub, w) for sub, w in listed if sub in kept]
        for (rows, pivots), w in listed:
            if loops[v] and not loop_stable(v, rows, pivots):
                continue
            chosen[v] = (rows, pivots)
            yield from rec(i + 1, w)

    yield from rec(0, 1)


def _submodule_block(F: GF, mat, rows_s, piv_t) -> tuple:
    """Matrix of an arrow a: s -> t on U, for U stable with U_s = rows_s.

    Column j is the image M_a rows_s[j] in the basis of U_t, read off its
    entries at the pivots of U_t; stability is not checked.
    """
    add, mul = F._add, F._mul
    out = []
    for pc in piv_t:
        mrow = mat[pc]
        entries = []
        for w in rows_s:
            acc = 0
            for x, y in zip(mrow, w):
                if x and y:
                    acc = add[acc][mul[x][y]]
            entries.append(acc)
        out.append(tuple(entries))
    return tuple(out)


def _quotient_block(F: GF, mat, dim_s, piv_s, rows_t, piv_t) -> tuple:
    """Matrix of an arrow a: s -> t on M/U, for U stable given in RREF.

    M/U at v has the basis of the non-pivot columns of U_v.  Entry (x, c)
    is M_a[x][c] - sum_i M_a[pc_i][c] rows_t[i][x]: reducing column c of M_a
    modulo U_t subtracts its own pivot entries times the rows of U_t.
    """
    add, mul, neg = F._add, F._mul, F._neg
    cols = [c for c in range(dim_s) if c not in piv_s]
    out = []
    for x, mrow in enumerate(mat):
        if x in piv_t:
            continue
        acc = [mrow[c] for c in cols]
        for row, pc in zip(rows_t, piv_t):
            f = row[x]
            if f:
                mf, prow = mul[neg[f]], mat[pc]
                acc = [add[e][mf[prow[c]]] for e, c in zip(acc, cols)]
        out.append(tuple(acc))
    return tuple(out)


# ---------------------------------------------------------------------------
# BGP reflection functors
# ---------------------------------------------------------------------------


def reflect_module(M: FqModule, i: int, direction: str) -> FqModule:
    """BGP reflection at vertex i; '+' needs a sink, '-' a source.

    The result lives over the quiver with arrows at i reversed.  Raises if
    M has a simple direct summand at i.  sigma^-_i is D sigma^+_i D, with D
    the vector-space dual, a module over the opposite quiver (Bernstein,
    Gelfand and Ponomarev, Russian Math. Surveys 28 (1973)).
    """
    Q = M.quiver
    if direction == "+":
        if not Q.is_sink(i):
            raise ValueError("reflect '+' requires a sink")
        return _reflect_at_sink(M, i, "sink")
    if direction == "-":
        if not Q.is_source(i):
            raise ValueError("reflect '-' requires a source")
        R = _reflect_at_sink(_dual(M, Q.opposite()), i, "source")
        return _dual(R, Q.reversed_at(i))
    raise ValueError("direction must be '+' or '-'")


def _dual(M: FqModule, quiver: Quiver) -> FqModule:
    """The dual of M over ``quiver``, the quiver of M with every arrow reversed."""
    mats = [_transpose(m, M.dims[s]) for m, (s, _) in zip(M.mats, M.quiver.arrows)]
    return FqModule(quiver, M.F, M.dims, mats)


def _reflect_at_sink(M: FqModule, i: int, end: str) -> FqModule:
    """sigma^+_i at a sink i; ``end`` names the vertex in the simple-summand error."""
    Q = M.quiver
    F = M.F
    incoming = [(a, s) for a, (s, t) in enumerate(Q.arrows) if t == i]
    widths = [M.dims[s] for _, s in incoming]
    total = sum(widths)
    stacked = gf.zeros(M.dims[i], max(total, 0)) if M.dims[i] else []
    off = 0
    for (a, s), w in zip(incoming, widths):
        for r in range(M.dims[i]):
            for c in range(w):
                stacked[r][off + c] = M.mats[a][r][c]
        off += w
    if M.dims[i] and gf.rank(F, stacked) < M.dims[i]:
        raise ValueError(f"module has a simple summand at the {end}")
    kernel = gf.nullspace(F, stacked) if stacked else (
        [[1 if j == k else 0 for j in range(total)] for k in range(total)]
    )
    newdim = len(kernel)
    dims = list(M.dims)
    dims[i] = newdim
    mats = []
    arrow_offsets = {}
    off = 0
    for (a, s), w in zip(incoming, widths):
        arrow_offsets[a] = (off, w)
        off += w
    for a, (s, t) in enumerate(Q.arrows):
        if t == i:
            offa, w = arrow_offsets[a]
            mat = gf.zeros(w, newdim)
            for k, vec in enumerate(kernel):
                for r in range(w):
                    mat[r][k] = vec[offa + r]
            mats.append(mat)
        else:
            mats.append([list(r) for r in M.mats[a]])
    return FqModule(Q.reversed_at(i), F, dims, mats)


# ---------------------------------------------------------------------------
# classification from ranks: Kronecker pencils and cyclic paths
# ---------------------------------------------------------------------------


def _transpose(mat, cols: int):
    return [[row[c] for row in mat] for c in range(cols)]


def _bidiagonal_sweep(F: GF, D, O, n: int):
    """Yield (rank S_j, r_j), j = 0, 1, ..., for the block lower-bidiagonal
    matrix with D on the diagonal and O below it, blocks n columns wide.

    Column block j meets only block rows j and j + 1, so elimination runs one
    column block at a time.  S_j, what is left of block row j once column
    block j - 1 is eliminated, lies in column block j (S_0 = D).  Reducing
    S_j and block row j + 1 = [O | D] gives r_j pivots in column block j;
    the rows pivoting in column block j + 1 are S_(j+1).  With k column
    blocks, the matrix with block rows 0 .. k has rank r_0 + ... + r_(k-1),
    and the square one with block rows 0 .. k - 1 has rank
    r_0 + ... + r_(k-2) + rank S_(k-1).
    """
    zero = [0] * n
    S = gf.rref(F, D)[0]
    while True:
        below = [list(o) + list(d) for o, d in zip(O, D)]
        rows, pivots = gf.rref(F, [r + zero for r in S] + below)
        r = sum(1 for p in pivots if p < n)
        yield len(S), r
        S = [row[n:] for row in rows[r:]]


def _minimal_indices(F: GF, A, B, n: int) -> dict:
    """Column minimal indices {eps: count} of the pencil A + xB with n columns.

    K_k, the kernel dimension of the block matrix with k + 1 column blocks,
    A on the diagonal and B on the subdiagonal, counts the polynomial kernel
    vectors of degree <= k: k - eps + 1 from each block L_eps with eps <= k,
    none from the other blocks.  So K_k - K_(k-1) counts the indices <= k.
    A block L_eps takes eps + 1 columns, so the search stops once no further
    block fits; it stops before the sweep reduces a block it would not read.
    """
    out, used, rank, prev_K, prev_count = {}, 0, 0, 0, 0
    sweep = _bidiagonal_sweep(F, A, B, n)
    for k in range(n):
        if used + k + 1 > n:
            break
        _, r = next(sweep)
        rank += r
        K = (k + 1) * n - rank
        count = K - prev_K
        if count > prev_count:
            out[k] = count - prev_count
            used += out[k] * (k + 1)
        prev_K, prev_count = K, count
    return out


def _jordan_type(F: GF, A, B, point, n_col: int, bound: int) -> tuple:
    """Partition lam of the regular part of the pencil (A, B) at a closed point.

    With C the companion matrix of the point's polynomial p of degree d (for
    infinity: A and B swapped, p = x), the k-block Toeplitz matrix with
    X = B (x) I_d - A (x) C^T on the diagonal and Y = A (x) I_d beside it has
    kernel Hom(R_p[k], M), of dimension d (sum_i min(lam_i, k) + k n_col);
    its differences over k count the parts of lam that are >= k.  |lam| is
    at most ``bound``.  In reversed block order Y lies below the diagonal.
    """
    if point[0] == "i":
        A, B, C = B, A, [[0]]
    else:
        C = _companion(F, list(point[1]) + [1])
    d, m, n = len(C), len(A), len(A[0]) if A else 0
    X, Y = [], []
    for a in range(m):
        for c in range(d):
            X.append([
                F.sub(B[a][b] if c == e else 0, F.mul(A[a][b], C[e][c]))
                for b in range(n)
                for e in range(d)
            ])
            Y.append([A[a][b] if c == e else 0 for b in range(n) for e in range(d)])
    conj, prev, rank = [], 0, 0
    for k, (rank_S, r) in enumerate(_bidiagonal_sweep(F, X, Y, n * d), start=1):
        s = (k * n * d - rank - rank_S) // d - k * n_col
        if s == prev:
            break
        conj.append(s - prev)
        prev, rank = s, rank + r
        if prev >= bound:
            break
    return tuple(sum(1 for c in conj if c > i) for i in range(conj[0])) if conj else ()


def _pencil_det_gcd(F: GF, A, B, r: int, m: int, n: int):
    """Monic gcd of the r x r minors of xA - B, with r its normal rank.

    This is the product of the finite elementary divisors (Gantmacher, ch.
    XII): the determinant of the regular part, its point at infinity removed.
    The minors on each set of r rows come from one Laplace expansion over
    growing column sets.
    """
    entry = [[_poly_trim([F.neg(B[i][j]), A[i][j]]) for j in range(n)] for i in range(m)]
    g = []
    for rows in combinations(range(m), r):
        dets = {(): [1]}
        for k, i in enumerate(rows):
            nxt = {}
            for cols in combinations(range(n), k + 1):
                acc = []
                for pos, j in enumerate(cols):
                    term = _poly_mul(F, entry[i][j], dets[cols[:pos] + cols[pos + 1 :]])
                    if (k + pos) % 2:
                        term = [F.neg(x) for x in term]
                    acc = _poly_add(F, acc, term)
                nxt[cols] = acc
            dets = nxt
        for det in dets.values():
            g = _poly_gcd(F, g, det)
    return g


def _point_factors(F: GF, g) -> dict:
    """{closed point: multiplicity} of a monic polynomial, by trial division.

    Once every factor of degree < d is divided out, a remainder of degree
    < 2d is irreducible.
    """
    out, d = {}, 1
    while len(g) > 1:
        if len(g) - 1 < 2 * d:
            pt = ("f", tuple(g[:-1]))
            out[pt] = out.get(pt, 0) + 1
            break
        for pt in closed_points(F.q, d):
            if pt[0] == "i":
                continue
            quot, rem = _poly_divmod(F, g, list(pt[1]) + [1])
            while not rem:
                out[pt] = out.get(pt, 0) + 1
                g = quot
                quot, rem = _poly_divmod(F, g, list(pt[1]) + [1])
        d += 1
    return out


def classify_pencil(F: GF, A, B, m: int, n: int) -> tuple:
    """The descriptor of the Kronecker module (A, B): F^n -> F^m, from ranks.

    By the Kronecker canonical form (Gantmacher, The Theory of Matrices II,
    ch. XII) the pencil is a sum of column blocks L_eps, the preinjectives
    beta_t = (t, t - 1) with t = eps + 1; row blocks L_eta^T, the
    preprojectives with t = -eta; and a regular part.  Since n - m is the
    number of column blocks less the number of row blocks, the row indices
    are searched only when there are row blocks.  The regular part's points
    are the irreducible factors of its determinant (``_pencil_det_gcd``, at
    the normal rank n - #column blocks), infinity taking the degree it
    lacks; rank tests (``_jordan_type``) run only at a repeated factor.
    """
    cols = _minimal_indices(F, A, B, n)
    n_col = sum(cols.values())
    rows = {}
    if n_col + m - n:
        rows = _minimal_indices(F, _transpose(A, n), _transpose(B, n), m)
    left = n - sum((e + 1) * c for e, c in cols.items()) - sum(e * c for e, c in rows.items())
    homog = []
    if left:
        g = _pencil_det_gcd(F, A, B, n - n_col, m, n)
        points = _point_factors(F, g)
        if len(g) - 1 < left:
            points[("i",)] = left - (len(g) - 1)
        for pt, e in points.items():
            homog.append((pt, (1,) if e == 1 else _jordan_type(F, A, B, pt, n_col, e)))
    return make_cdesc(
        cm=[(-e, c) for e, c in rows.items()],
        cp=[(e + 1, c) for e, c in cols.items()],
        homog=homog,
    )


def classify_nilpotent_cyclic(M: FqModule) -> tuple:
    """The multisegment descriptor of a nilpotent cyclic-quiver module.

    With r(j, k) the rank of the length-k path out of vertex j, and
    r(j, 0) = dim M_j, the segment (i, l) occurs
    r(i, l-1) - r(i, l) - r(i-1, l) + r(i-1, l+1) times (vertices mod n):
    boxes at i with exactly l - 1 boxes below, less those that continue a
    box at i - 1.
    """
    n, F = len(M.dims), M.F
    out_arrow = {s: (a, t) for a, (s, t) in enumerate(M.quiver.arrows)}
    total = sum(M.dims)
    ranks = []
    for j in range(n):
        row, path, v = [M.dims[j]], None, j
        while row[-1] and len(row) <= total:
            a, v = out_arrow[v]
            path = M.mats[a] if path is None else gf.mat_mul(F, M.mats[a], path)
            row.append(gf.rank(F, path))
        ranks.append(row)

    def r(j, k):
        row = ranks[j % n]
        return row[k] if k < len(row) else 0

    segs = []
    for i in range(n):
        for l in range(1, len(ranks[i])):
            mult = r(i, l - 1) - r(i, l) - r(i - 1, l) + r(i - 1, l + 1)
            if mult < 0:
                raise ClassificationError("path ranks of a non-nilpotent module")
            segs.append(((i + 1, l), mult))
    return ("m", mseg_normalize(segs))


# ---------------------------------------------------------------------------
# field context: classes, building, classification, Hall censuses
# ---------------------------------------------------------------------------


class FieldContext(CombinatorialContext):
    """All per-(quiver, q) computations, memoized: the combinatorial
    context with GF(q), closed points, building, classification and the
    submodule census, for every supported kind."""

    def __init__(self, quiver: Quiver, q: int, cfg: JobConfig | None = None):
        super().__init__(quiver, q, cfg)
        self.F = GF(q)
        # Module key (dims, blocks) -> descriptor, written and read by
        # ``_census_row`` only; not ``memoized``, because its census loop
        # reads it inline, ~10^5 times a census, and calls cost.
        self._classify_cache: dict = {}

    def points(self, degree: int):
        if self.kind != "kronecker":
            raise UnsupportedQuiverError("closed points only exist for the Kronecker quiver")
        return closed_points(self.q, degree)

    # -- construction ----------------------------------------------------

    @memoized
    def build_indec(self, ind) -> FqModule:
        F = self.F
        Q = self.quiver
        if ind[0] == "s":
            M = build_cyclic((((ind[1], ind[2]), 1),), self.q, Q)
        elif ind[0] == "p":
            s = -ind[1]
            chain = self.seq.reflected_quiver_chain(s, "-")
            M = simple_module(chain[s], F, self.seq.vertex(ind[1]))
            for k in range(s, 0, -1):
                M = reflect_module(M, self.seq.vertex(-(k - 1)), "-")
            M = FqModule(Q, F, M.dims, M.mats)
        elif ind[0] == "q":
            t = ind[1]
            chain = self.seq.reflected_quiver_chain(t - 1, "+")
            M = simple_module(chain[t - 1], F, self.seq.vertex(t))
            for k in range(t - 1, 0, -1):
                M = reflect_module(M, self.seq.vertex(k), "+")
            M = FqModule(Q, F, M.dims, M.mats)
        elif ind[0] == "r":
            pt, l = ind[1], ind[2]
            if pt[0] == "f":
                poly = list(pt[1]) + [1]
                A = gf.identity(len(pt[1]) * l)
                B = _companion(F, _poly_pow_monic(F, poly, l))
            else:
                A = _nilpotent_jordan(l)
                B = gf.identity(l)
            M = FqModule(Q, F, (len(A), len(A)), [A, B])
        else:
            raise ValueError(f"unknown indecomposable {ind}")
        assert M.dims == self.indec_dim(ind), (ind, M.dims)
        return M

    @memoized
    def build(self, desc) -> FqModule:
        parts = desc_indecs(desc)
        M = None
        for ind, mult in parts:
            block = self.build_indec(ind)
            for _ in range(mult):
                M = block if M is None else M.direct_sum(block)
        if M is None:
            M = FqModule(
                self.quiver,
                self.F,
                tuple([0] * self.quiver.n),
                [gf.zeros(0, 0) for _ in self.quiver.arrows],
            )
        return M

    @memoized
    def summand_labels(self, desc) -> tuple:
        """Per vertex v, the summand of ``build(desc)`` of each coordinate of M_v.

        ``build`` sums one copy of each indecomposable of ``desc_indecs`` per
        multiplicity, in that order, so copy j holds the next
        ``indec_dim(ind)[v]`` coordinates at every vertex v.
        """
        labels = [[] for _ in range(self.quiver.n)]
        copies = [ind for ind, m in desc_indecs(desc) for _ in range(m)]
        for j, ind in enumerate(copies):
            for v, d in enumerate(self.indec_dim(ind)):
                labels[v] += [j] * d
        return tuple(map(tuple, labels))

    # -- frames ------------------------------------------------------------

    def frames(self, nu):
        """(cm, cp, m) for each frame of dimension nu - m * delta (acyclic).

        cm and cp are the preprojective and preinjective multiplicity
        functions, and m * delta is the dimension left to the homogeneous
        tubes.  In finite type every module is preprojective: cp = () and
        m = 0.
        """
        nu = tuple(nu)
        finite = self.kind == "finite"
        beta = self.seq.beta
        for cm in bounded_multisets(self.seq.preprojective_range(nu), beta, nu, exact=finite):
            if finite:
                yield cm, (), 0
                continue
            used = self.desc_dim(make_cdesc(cm=cm))
            rem1 = tuple(a - b for a, b in zip(nu, used))
            iroots = self.seq.preinjective_range(rem1)
            for cp in bounded_multisets(iroots, beta, rem1, exact=False):
                used2 = self.desc_dim(make_cdesc(cp=cp))
                rem = tuple(a - b for a, b in zip(rem1, used2))
                d = self.delta
                if rem[0] * d[1] != rem[1] * d[0] or rem[0] < 0:
                    continue
                yield cm, cp, rem[0] // d[0]

    # -- classification ----------------------------------------------------

    def classify(self, M: FqModule):
        """Match an explicit module to its iso-class descriptor.

        Kronecker modules are read from ranks of their pencil
        (``classify_pencil``), cyclic ones from path ranks
        (``classify_nilpotent_cyclic``) and finite-type ones from
        dim Hom(beta_t, M) by a triangular solve.  It keeps nothing:
        ``_census_row`` caches what it returns.  No classes are listed: a
        descriptor that is no class of dimension M.dims (``_listed``) raises
        ``ClassificationError``.

        In finite type every indecomposable is a preprojective beta_t, and
        Hom(beta_s, beta_t) = 0 for s < t while End beta_t is the field, so
        dim Hom(beta_t, M) = m_t + sum_{s<t} m_s dim Hom(beta_t, beta_s).
        Walking t up from the most negative index gives each m_t in turn.
        """
        if self.kind == "finite":
            cm = []
            for t in reversed(self.seq.preprojective_range(M.dims)):
                ind = ("p", t)
                m = hom_dim(self.build_indec(ind), M) - sum(
                    ms * self.hom_indec(ind, ("p", s)) for s, ms in cm
                )
                if m < 0:
                    raise ClassificationError(
                        f"module of dimension {M.dims} has multiplicity {m} at beta_{t}"
                    )
                if m:
                    cm.append((t, m))
            desc = make_cdesc(cm=cm)
        elif self.kind == "kronecker":
            s, t = self.quiver.arrows[0]
            desc = classify_pencil(self.F, *M.mats, M.dims[t], M.dims[s])
        else:
            desc = classify_nilpotent_cyclic(M)
        if not self._listed(desc, M.dims):
            raise ClassificationError(f"module of dimension {M.dims} matches no descriptor")
        return desc

    # -- Hall numbers -------------------------------------------------------

    @memoized
    def _listed(self, desc, nu) -> bool:
        """Is desc a class of dimension vector nu?  Read off desc, with no
        listing: its dimension is nu; each index of its frame lies in the
        beta range below nu of its side, with a positive multiplicity; and
        its homogeneous part puts a partition at each of distinct closed
        points.  Given the dimension, these rules make a class descriptor.
        """
        if self.desc_dim(desc) != nu:
            return False
        if desc[0] == "m":
            return True
        _, cm, _, cp, homog = desc
        sides = ((cm, self.seq.preprojective_range(nu)), (cp, self.seq.preinjective_range(nu)))
        if not all(t in walk and m > 0 for part, walk in sides for t, m in part):
            return False
        pts = [pt for pt, _ in homog]
        return len(set(pts)) == len(pts) and all(
            pt in self.points(point_degree(pt))
            and lam
            and lam[-1] > 0
            and all(a >= b for a, b in zip(lam, lam[1:]))
            for pt, lam in homog
        )

    # -- types ------------------------------------------------------------

    @memoized
    def type_classes(self, nu) -> tuple:
        """One class of each type of dimension vector nu, sorted.

        A Kronecker type is a frame and the (degree, partition) at each of
        its points; its class here places those entries, sorted, at points
        by ``assign_points`` (``homog_types``).  Which class stands for a
        type matters to no caller: ``hall_table`` names it by
        ``point_type``.

        On an acyclic quiver they are listed directly: each frame
        (``frames``) with each homogeneous type that fits at q
        (``homog_types``); in finite type that is the one empty type.  A
        cyclic quiver lists its multisegments as ``CombinatorialContext``
        does, since ``hallpoly`` builds a ``FieldContext`` there too.
        """
        if self.kind == "cyclic":
            return super().type_classes(nu)
        return tuple(
            sorted(
                make_cdesc(cm=cm, cp=cp, homog=homog)
                for cm, cp, m in self.frames(nu)
                for homog in self.homog_types(m)
            )
        )

    def homog_types(self, m: int):
        """The homogeneous parts of total delta-multiple m of
        ``type_classes``, as (point, partition) lists.

        A type is a multiset of (degree d, partition lam) with
        sum d |lam| = m.  It fits at q when it has at most
        ``point_count(q, d)`` entries of each degree d (``points_suffice``),
        and its sorted entries are then placed by ``assign_points``.
        """
        from .partitions import partitions

        items = [
            (d, lam) for d in range(1, m + 1) for k in range(1, m // d + 1) for lam in partitions(k)
        ]
        for chosen in bounded_multisets(items, lambda e: (e[0] * sum(e[1]),), (m,), exact=True):
            entries = sorted(e for e, mult in chosen for _ in range(mult))
            degrees = [d for d, _ in entries]
            if points_suffice(self.q, degrees):
                yield [(pt, lam) for pt, (_, lam) in zip(assign_points(self.q, degrees), entries)]

    def _census_row(self, descL, nuN, nuM) -> dict:
        """``hall_row`` of L where it has no closed form: from one census of
        L by torus orbits, whether or not L is one of ``type_classes``.

        A semisimple L (every arrow of ``build(descL)`` zero) needs no census:
        every graded subspace is a submodule, so the row is g^L_{S,S'} =
        prod_v [l_v, n_v]_q (``census_size``) for the semisimples S, S' of
        dimension dim L - nuN and nuN (Ringel, Invent. Math. 101 (1990)), or
        empty when some n_v > l_v.

        A census goes by the orbits of L's summand scalings, automorphisms
        of L that keep the classes of U and L/U, at the first free vertex of
        ``graded_stable_subspaces``: it adds the weight of each (subspace,
        weight) that the census yields, an orbit's size.

        An arrow a: s -> t's matrix on U depends only on (rows of U_s,
        pivots of U_t), and on L/U only on (pivots of U_s, rows of U_t), so
        across the census the same blocks recur.  They are memoized for this
        one census under those keys, and the module key (dims, blocks) of U
        and of L/U is formed from them; a module is built and classified only
        for a key the classify cache does not hold yet, and its descriptor is
        stored there under that key.
        """
        nuL = self.desc_dim(descL)
        L, row = self.build(descL), {}
        Q, F, cache = self.quiver, self.F, self._classify_cache
        arrows = list(enumerate(Q.arrows))
        sub_blocks: dict = {}
        quot_blocks: dict = {}

        def desc_of(dims, blocks):
            key = (dims, blocks)
            out = cache.get(key)
            if out is None:
                out = cache[key] = self.classify(FqModule(Q, F, dims, blocks))
            return out

        if not any(any(r) for mat in L.mats for r in mat):
            # Semisimple L: every graded subspace is a submodule U, and U
            # and L/U are the semisimples of their dimension vectors.
            if size := census_size(L, nuN):

                def zero(dims):
                    return tuple(((0,) * dims[s],) * dims[t] for s, t in Q.arrows)

                row[(desc_of(nuM, zero(nuM)), desc_of(nuN, zero(nuN)))] = size
            return row
        for sub, weight in graded_stable_subspaces(
            L, nuN, self.cfg.budget_subspaces, self.summand_labels(descL)
        ):
            blocksN, blocksM = [], []
            for a, (s, t) in arrows:
                (rows_s, piv_s), (rows_t, piv_t) = sub[s], sub[t]
                bkey = (a, rows_s, piv_t)
                block = sub_blocks.get(bkey)
                if block is None:
                    block = sub_blocks[bkey] = _submodule_block(F, L.mats[a], rows_s, piv_t)
                blocksN.append(block)
                bkey = (a, piv_s, rows_t)
                block = quot_blocks.get(bkey)
                if block is None:
                    block = quot_blocks[bkey] = _quotient_block(
                        F, L.mats[a], nuL[s], piv_s, rows_t, piv_t
                    )
                blocksM.append(block)
            dN = desc_of(nuN, tuple(blocksN))
            pair = (desc_of(nuM, tuple(blocksM)), dN)
            row[pair] = row.get(pair, 0) + weight
        return row


def _poly_pow_monic(F: GF, poly, n: int):
    out = [1]
    for _ in range(n):
        out = _poly_mul(F, out, poly)
    return out
