"""The bar-invariant canonical basis and its certificates.

The bar involution is computed through monomial coordinates (monomials are
bar-fixed).  The canonical basis is built once, by the truncation algorithm
on the monomial expansions: each monomial is folded with lower ones until
its tail over the aperiodic indices lies in v^-1 Z[v^-1], and g (C over E)
is that element over the monomials times eta^-1.  The basis is unique
(Lusztig, *Introduction to Quantum Groups*, chapter 14), so ``lusztig_solve``,
the unitriangular system g = g-bar * zeta, is its reference form; no run
calls it.

There is one certificate checker, ``verify_bundle``, which reads a bundle's
matrices alone.  ``CanonicalSolver.verify`` and the ``certificates`` block of
``CanonicalSolver.bundle`` are its report on the matrices the bundle writes,
plus ``truncation_agrees``.  Almost orthogonality is one degree test per
Gram entry of the PBW basis.  Sparse rows are combined with
``laurent.add_scaled`` and ``laurent.row_times``.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, NamedTuple

from .config import BarSolveError, BundleFormatError, memoized
from .laurent import (
    ONE,
    ZERO,
    LaurentPoly,
    RationalFn,
    add_scaled,
    invert_unitriangular,
    row_times,
)

if TYPE_CHECKING:  # the solver's types; ``verify_bundle`` needs neither
    from .pbw import IndexSystem, PBWData

# The ``schema`` field of every bundle; it also keys bundles in the store.
BUNDLE_SCHEMA = 1


def _bar_row(row) -> dict:
    """The bar involution applied to each entry of a sparse row."""
    return {k: c.bar() for k, c in row.items()}


def zeta_matrix(order, eta, eta_inv) -> dict:
    """bar(E_a) = sum_b zeta[a][b] E_b, unitriangular with diagonal one.

    ``eta`` gives the PBW elements over the monomials, which are bar-invariant,
    and ``eta_inv`` is its inverse (``invert_unitriangular``), so zeta =
    bar(eta) * eta^-1.  Only the diagonal is checked: bar(zeta) * zeta = 1
    follows from eta^-1 being the inverse of eta, which ``verify_bundle``
    checks as ``products_agree["monomial_over_E"]``.
    """
    Z = {a: row_times(_bar_row(eta[a]), eta_inv) for a in order}
    for a in order:
        if Z[a].get(a) != ONE:
            raise BarSolveError(f"bar matrix diagonal is not 1 at {a}")
    return Z


def lusztig_solve(order, Z) -> dict:
    """Solve g = gbar * Z with unit diagonal and g off-diagonal in v^-1 Z[v^-1].

    The reference form of the basis that ``CanonicalSolver.truncation``
    builds; the tests compare the two, and ``perfbench/tracing.py`` patches
    this name.
    """
    G: dict = {}
    for ia, a in enumerate(order):
        row = {a: ONE}
        for ib in range(ia - 1, -1, -1):
            b = order[ib]
            r = ZERO
            for ic in range(ib + 1, ia + 1):
                c = order[ic]
                gc = row.get(c)
                zc = Z[c].get(b)
                if gc and zc:
                    r = r + gc.bar() * zc
            if r.is_zero():
                continue
            if r.coeff(0) != 0 or r.bar() != -r:
                raise BarSolveError(
                    f"no admissible solution at ({a}, {b}): residue {r.text()}"
                )
            g = r.negative_part()
            if g:
                row[b] = g
        G[a] = row
    return G


class CanonicalData(NamedTuple):
    """Canonical basis data at one dimension vector."""

    pbw: PBWData
    zeta: dict
    g: dict  # C over E, unitriangular
    C_over_N: dict
    C_over_mon: dict


class CanonicalSolver:
    """Computes and verifies the canonical basis for one quiver."""

    def __init__(self, system: IndexSystem):
        self.system = system
        self.engine = system.engine

    def solve(self, nu) -> CanonicalData:
        nu = tuple(nu)
        data = self.system.pbw_basis(nu)
        C_over_mon = self.truncation(nu)
        G = {a: row_times(C_over_mon[a], data.mon_over_E) for a in data.order}
        C_over_N = {a: row_times(G[a], data.E) for a in data.order}
        Z = zeta_matrix(data.order, data.eta, data.mon_over_E)
        return CanonicalData(data, Z, G, C_over_N, C_over_mon)

    # -- the truncation algorithm ------------------------------------------

    @memoized
    def truncation(self, nu):
        """Bar-invariant elements by folding monomial coefficients.

        Returns G_over_mon, each element over the monomials: the canonical
        basis, which ``solve`` reads.
        """
        data = self.system.pbw_basis(nu)
        order = data.order
        aper = set(order)
        G_over_mon: dict = {}
        for pos, a in enumerate(order):
            cur = dict(data.mon[a])
            used = {a: ONE}
            for b in reversed(order[:pos]):
                phi = cur.get(b, ZERO)
                if phi.in_vinv_Z():
                    continue
                fold = phi.bar_fold()
                add_scaled(cur, data.mon[b], -fold)
                used[b] = -fold  # each b is folded at most once
            if cur.get(a) != ONE:
                raise BarSolveError("truncation lost its leading term")
            for b, c in cur.items():
                if b != a and b in aper and not c.in_vinv_Z():
                    raise BarSolveError("truncation left a bad aperiodic tail")
            G_over_mon[a] = used
        return G_over_mon

    # -- certificates -----------------------------------------------------------

    def gram_E(self, nu) -> dict:
        """Green-form Gram data (E_a, E_b), a <= b, as rational functions."""
        pbw = self.system.pbw_basis(tuple(nu))
        out = {}
        for i, a in enumerate(pbw.order):
            for b in pbw.order[i:]:
                out[(a, b)] = self.engine.green_generic(pbw.E[a], pbw.E[b])
        return out

    def verify(self, nu, cdata: CanonicalData | None = None, matrices=None) -> dict:
        """``verify_bundle``'s report on the matrices that ``bundle`` writes
        from ``cdata`` (default: the solve at nu), plus ``truncation_agrees``:
        whether cdata's C over the monomials is the truncation's.  ``solve``
        takes that C from the memoized ``truncation`` itself, so the key is
        true on every bundle; it reads false only for a cdata whose C over
        the monomials was replaced.

        ``bundle`` passes the ``matrices`` it has already built from cdata.
        """
        nu = tuple(nu)
        if cdata is None:
            cdata = self.solve(nu)
        report = verify_bundle(self._matrices(cdata) if matrices is None else matrices)
        report["truncation_agrees"] = self.truncation(nu) == cdata.C_over_mon
        report["ok"] = report["ok"] and report["truncation_agrees"]
        return report

    # -- serialization ------------------------------------------------------------

    def _matrices(self, cdata: CanonicalData) -> dict:
        """The quiver, dimension vector, indices, words and matrices of a
        bundle, in JSON form."""
        from .hallalg import nindex_json

        pbw = cdata.pbw
        order = pbw.order
        pos = {a: i for i, a in enumerate(order)}
        all_idx = pbw.idxset.all_indices
        npos = {a: i for i, a in enumerate(all_idx)}

        def mat(rows, col_space):
            return [
                [
                    [col_space[b], c.to_json()]
                    for b, c in sorted(rows[a].items(), key=lambda kv: col_space[kv[0]])
                ]
                for a in order
            ]

        gram = self.gram_E(pbw.nu)
        return {
            "quiver": self.engine.quiver.to_json(),
            "dim": list(pbw.nu),
            "indices": [nindex_json(a) for a in order],
            "n_indices": [nindex_json(a) for a in all_idx],
            "monomial_words": [
                list(map(list, self.system.word_for_index(a))) for a in order
            ],
            "monomial_over_N": mat(pbw.mon, npos),
            "E_over_N": mat(pbw.E, npos),
            "E_over_monomial": mat(pbw.eta, pos),
            "monomial_over_E": mat(pbw.mon_over_E, pos),
            "zeta": mat(cdata.zeta, pos),
            "g": mat(cdata.g, pos),
            "C_over_E": mat(cdata.g, pos),
            "C_over_monomial": mat(cdata.C_over_mon, pos),
            "C_over_N": mat(cdata.C_over_N, npos),
            "gram_E": [
                [pos[a], pos[b], val.to_json()] for (a, b), val in sorted(
                    gram.items(), key=lambda kv: (pos[kv[0][0]], pos[kv[0][1]])
                )
            ],
        }

    def bundle(self, nu) -> dict:
        """Deterministic JSON certificate bundle for one dimension vector."""
        nu = tuple(nu)
        cdata = self.solve(nu)
        matrices = self._matrices(cdata)
        report = self.verify(nu, cdata, matrices)
        return {
            "schema": BUNDLE_SCHEMA,
            "quiver_name": self.engine.quiver.name,
            **matrices,
            "certificates": {
                key: report[key]
                for key in (
                    "unitriangular",
                    "bar_invariant",
                    "almost_orthogonal",
                    "truncation_agrees",
                    "ok",
                )
            },
            "meta": {
                # Inert constants that no certificate reads; kept so that
                # schema-1 bundles stay byte-identical.
                "series_order": 10,
                "primes": list(self.engine.cfg.primes),
                "seed": 0,
                "linear_extension": "lex-negated preprojective/preinjective data, "
                "then partition size, then tube degeneration keys, then partition lex",
            },
        }


_VERIFIED_KEYS = (
    "quiver",
    "dim",
    "monomial_words",
    "indices",
    "n_indices",
    "g",
    "zeta",
    "E_over_monomial",
    "monomial_over_E",
    "monomial_over_N",
    "E_over_N",
    "C_over_monomial",
    "C_over_N",
    "gram_E",
)


def _bundle_laurent(data, where) -> LaurentPoly:
    """Decode a stored [[exponent, "coefficient"], ...] polynomial."""
    try:
        return LaurentPoly.from_json(data)
    except ValueError as exc:
        raise BundleFormatError(f"{where}: {exc}") from None


def _bundle_rows(bundle, key, n, width=None) -> list:
    """Decode a stored sparse matrix with n rows, ``width`` (default n)
    columns and no zero entries."""
    width = n if width is None else width
    mat = bundle[key]
    if not isinstance(mat, list) or len(mat) != n:
        raise BundleFormatError(f"{key}: expected {n} rows")
    rows = []
    for i, ent in enumerate(mat):
        if not isinstance(ent, list):
            raise BundleFormatError(f"{key}[{i}]: row is not a list")
        row = {}
        for item in ent:
            if not (isinstance(item, list) and len(item) == 2 and type(item[0]) is int):
                raise BundleFormatError(f"{key}[{i}]: entry is not [column, coefficient]")
            j = item[0]
            if not 0 <= j < width:
                raise BundleFormatError(f"{key}[{i}]: column {j} out of range")
            if j in row:
                raise BundleFormatError(f"{key}[{i}]: column {j} repeated")
            c = _bundle_laurent(item[1], f"{key}[{i}][{j}]")
            if not c:
                raise BundleFormatError(f"{key}[{i}][{j}]: zero entry")
            row[j] = c
        rows.append(row)
    return rows


def _bundle_gram(bundle, n) -> dict:
    """Decode gram_E: one [i, j, rational function] entry for each i <= j."""
    if not isinstance(bundle["gram_E"], list):
        raise BundleFormatError("gram_E: not a list")
    gram = {}
    for item in bundle["gram_E"]:
        if not (
            isinstance(item, list)
            and len(item) == 3
            and type(item[0]) is int
            and type(item[1]) is int
            and isinstance(item[2], dict)
            and set(item[2]) == {"num", "den"}
        ):
            raise BundleFormatError("gram_E: entry is not [i, j, {num, den}]")
        i, j, val = item
        if not 0 <= i <= j < n or (i, j) in gram:
            raise BundleFormatError(f"gram_E: pair ({i}, {j}) out of range or repeated")
        den = _bundle_laurent(val["den"], f"gram_E[{i}][{j}].den")
        if not den:
            raise BundleFormatError(f"gram_E[{i}][{j}]: zero denominator")
        gram[(i, j)] = RationalFn(_bundle_laurent(val["num"], f"gram_E[{i}][{j}].num"), den)
    if len(gram) != n * (n + 1) // 2:
        raise BundleFormatError("gram_E: some pair i <= j is missing")
    return gram


def _label(x) -> bool:
    return isinstance(x, (int, str)) and not isinstance(x, bool)


def _bundle_weight(bundle) -> tuple:
    """The vertex labels of a bundle's ``quiver``, its arrows as vertex index
    pairs, and its ``dim``.  A malformed quiver or dim raises
    ``BundleFormatError``."""
    quiver, dim = bundle["quiver"], bundle["dim"]
    vertices = quiver.get("vertices") if isinstance(quiver, dict) else None
    if not (isinstance(vertices, list) and vertices and all(map(_label, vertices))):
        raise BundleFormatError("quiver: vertices are not a list of integer or string labels")
    if len(set(vertices)) != len(vertices):
        raise BundleFormatError("quiver: a vertex label repeats")
    arrows = quiver.get("arrows")
    if not isinstance(arrows, list) or not all(
        isinstance(a, list) and len(a) == 2 and all(_label(x) and x in vertices for x in a)
        for a in arrows
    ):
        raise BundleFormatError("quiver: arrows are not a list of [source, target] vertices")
    if not (isinstance(dim, list) and len(dim) == len(vertices)) or not all(
        type(x) is int and x >= 0 for x in dim
    ):
        raise BundleFormatError(f"dim: not {len(vertices)} integers >= 0")
    return vertices, [tuple(map(vertices.index, a)) for a in arrows], dim


def _distinct_words_of_weight(words, vertices, dim, n) -> bool:
    """Whether the n ``monomial_words`` are pairwise distinct and each has
    weight ``dim``: its letters' multiplicities, summed per vertex, are
    ``dim``.  A malformed word raises ``BundleFormatError``."""
    if not (isinstance(words, list) and len(words) == n) or not all(
        isinstance(w, list) and all(
            isinstance(x, list) and len(x) == 2 and _label(x[0]) and x[0] in vertices
            and type(x[1]) is int and x[1] > 0
            for x in w
        )
        for w in words
    ):
        raise BundleFormatError(f"monomial_words: not {n} lists of [vertex, multiplicity >= 1]")
    distinct = len({tuple(map(tuple, w)) for w in words}) == n
    return distinct and all([sum(a for v, a in w if v == u) for u in vertices] == dim for w in words)


def dim_f(arrows, nu) -> int | None:
    """dim f_nu, the size of the canonical basis of weight nu, for a quiver
    of finite or affine type with vertices 0 .. len(nu) - 1 and ``arrows``
    as (source, target) index pairs; None if an arrow is a loop.

    It is Kostant's partition function: the coefficient of e^nu in the
    product, over the positive roots x <= nu, of (1 - e^x)^-mult(x).  The
    real roots are the x with (x, x) = 2, of multiplicity 1; the imaginary
    ones are the x with (x, x) = 0, of multiplicity len(nu) - 1 (Kac).
    """
    if any(s == t for s, t in arrows):
        return None
    box = list(itertools.product(*(range(k + 1) for k in nu)))  # lexicographic
    count = dict.fromkeys(box, 0)
    count[box[0]] = 1
    for x in box[1:]:
        half_form = sum(k * k for k in x) - sum(x[s] * x[t] for s, t in arrows)
        mult = {1: 1, 0: len(nu) - 1}.get(half_form, 0)
        for _ in range(mult):
            # rest comes before rest + x, so count[rest] already has this factor.
            for rest in box:
                y = tuple(a + b for a, b in zip(rest, x))
                if y in count:
                    count[y] += count[rest]
    return count[tuple(nu)]


def gram_almost_orthonormal(gram) -> bool:
    """(E_a, E_b) in delta_ab + v^-1 Q[[v^-1]] for every stored pair a <= b.

    ``gram`` maps (a, b) to P/Q, which lies there exactly when
    deg(P - delta_ab Q) < deg(Q) or P = delta_ab Q.  For C = g * E with g
    unitriangular with v^-1 Z[v^-1] tails, this is the verdict on the (C_i, C_j):
    each Gram matrix is the other one multiplied on both sides by a
    unitriangular matrix with v^-1 Z[v^-1] tails (g or its inverse).
    """
    for (a, b), f in gram.items():
        rest = f.num - f.den if a == b else f.num
        if rest and rest.degree() >= f.den.degree():
            return False
    return True


def verify_bundle(bundle: dict) -> dict:
    """Re-check a bundle's certificates from its stored matrices alone.

    The bar involution is recomputed from ``E_over_monomial`` (eta); row i is
    bar-invariant when ``g`` row i is fixed by it and the stored ``zeta`` row
    i agrees with it.  The stored products must follow from eta, ``g`` and
    ``monomial_over_N``: ``E_over_N`` = eta * ``monomial_over_N``,
    ``C_over_monomial`` = g * eta, ``C_over_N`` = g * ``E_over_N`` and
    ``monomial_over_E`` = eta^-1.  ``pbw_shape``: row i of ``E_over_N`` has 1
    at the column of ``indices[i]`` and no other aperiodic column, as
    ``pbw_basis`` builds it.  Almost orthogonality of the C is decided on
    the stored ``gram_E`` alone (``gram_almost_orthonormal``), and
    ``positive`` asks that the monomials over the C, ``monomial_over_E`` *
    g^-1, have coefficients in N[v, v^-1] (Lusztig, *Introduction to Quantum
    Groups*, 14.4.13).  Both need ``g`` unitriangular with v^-1 Z[v^-1]
    tails and are None otherwise.  ``distinct_words_of_weight``: the
    ``monomial_words`` are pairwise distinct and each has weight ``dim``.
    ``distinct_indices_dim_f``: the ``indices`` are pairwise distinct and
    there are dim f_nu of them (``dim_f`` of the bundle's ``quiver`` and
    ``dim``); None on a quiver with a loop.  A malformed bundle raises
    ``BundleFormatError``.
    """
    if not isinstance(bundle, dict):
        raise BundleFormatError("bundle is not a JSON object")
    missing = [k for k in _VERIFIED_KEYS if k not in bundle]
    if missing:
        raise BundleFormatError(f"bundle lacks {', '.join(missing)}")
    for key in ("indices", "n_indices"):
        if not isinstance(bundle[key], list):
            raise BundleFormatError(f"{key}: not a list")
    n = len(bundle["indices"])
    n_all = len(bundle["n_indices"])
    g = _bundle_rows(bundle, "g", n)
    stored_zeta = _bundle_rows(bundle, "zeta", n)
    eta = _bundle_rows(bundle, "E_over_monomial", n)
    stored = {
        "monomial_over_E": _bundle_rows(bundle, "monomial_over_E", n),
        "E_over_N": _bundle_rows(bundle, "E_over_N", n, n_all),
        "C_over_monomial": _bundle_rows(bundle, "C_over_monomial", n),
        "C_over_N": _bundle_rows(bundle, "C_over_N", n, n_all),
    }
    mon_over_N = _bundle_rows(bundle, "monomial_over_N", n, n_all)
    gram = _bundle_gram(bundle, n)
    eta_inv = invert_unitriangular(range(n), eta)
    zeta = zeta_matrix(range(n), eta, eta_inv)
    report: dict = {}
    unitri = all(
        row.get(i) == ONE and all(j < i and c.in_vinv_Z() for j, c in row.items() if j != i)
        for i, row in enumerate(g)
    )
    report["unitriangular"] = unitri
    bar_ok = [
        row_times(_bar_row(g[i]), zeta) == g[i] and stored_zeta[i] == zeta[i]
        for i in range(n)
    ]
    report["bar_invariant"] = bar_ok
    expected = {
        "monomial_over_E": [eta_inv[i] for i in range(n)],
        "E_over_N": [row_times(row, mon_over_N) for row in eta],
        "C_over_monomial": [row_times(row, eta) for row in g],
        "C_over_N": [row_times(row, stored["E_over_N"]) for row in g],
    }
    products = {key: stored[key] == expected[key] for key in stored}
    report["products_agree"] = products
    # E_a has 1 at a's own N column and no other aperiodic column.
    col = {repr(x): k for k, x in enumerate(bundle["n_indices"])}
    if any(repr(x) not in col for x in bundle["indices"]):
        raise BundleFormatError("indices: an entry is not in n_indices")
    own = [col[repr(x)] for x in bundle["indices"]]
    aper = set(own)
    shape = all(
        {k: c for k, c in row.items() if k in aper} == {a: ONE}
        for a, row in zip(own, stored["E_over_N"])
    )
    report["pbw_shape"] = shape
    orth = gram_almost_orthonormal(gram) if unitri else None
    report["almost_orthogonal"] = orth
    positive = None
    if unitri:
        g_inv = invert_unitriangular(range(n), g)
        positive = all(
            type(c) is int and c > 0
            for row in stored["monomial_over_E"]
            for x in row_times(row, g_inv).values()
            for c in x.terms.values()
        )
    report["positive"] = positive
    vertices, arrows, dim = _bundle_weight(bundle)
    words = _distinct_words_of_weight(bundle["monomial_words"], vertices, dim, n)
    report["distinct_words_of_weight"] = words
    size = dim_f(arrows, dim)
    counted = None if size is None else n == size and len(set(map(repr, bundle["indices"]))) == n
    report["distinct_indices_dim_f"] = counted
    report["ok"] = (
        unitri and all(bar_ok) and all(products.values()) and shape and orth and positive
        and words and counted is not False
    )
    return report


def latex_table(bundle: dict) -> str:
    """A small LaTeX table of the canonical basis over the monomials."""
    lines = [
        r"\begin{tabular}{ll}",
        r"\hline",
        r"index & canonical element over monomials \\",
        r"\hline",
    ]
    for idx_json, row in zip(bundle["indices"], bundle["C_over_monomial"]):
        terms = []
        for j, cj in row:
            c = LaurentPoly.from_json(cj)
            terms.append(f"({c.text()})\\,\\mathfrak{{m}}_{{{j}}}")
        lines.append(f"${idx_json}$ & ${' + '.join(terms)}$ \\\\")
    lines += [r"\hline", r"\end{tabular}"]
    return "\n".join(lines)
