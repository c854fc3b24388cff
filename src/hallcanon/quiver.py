"""Quiver combinatorics: Euler forms, affine roots, reflections, admissible sequences.

Dimension vectors are plain int tuples indexed like ``Quiver.vertices``.
Supported constructors cover the cyclic quiver (including the one-loop
Jordan case), the Kronecker quiver and linearly ordered type A quivers
with arbitrary orientation; arbitrary quivers can be loaded from JSON.
"""

from __future__ import annotations

import itertools
from math import gcd, lcm

from .config import UnsupportedQuiverError, memoized


class Quiver:
    """Finite quiver with labelled vertices and arrows stored by index."""

    def __init__(self, vertices, arrows, name=None):
        self.vertices = tuple(vertices)
        if not self.vertices:
            raise ValueError("a quiver needs at least one vertex")
        self.index = {v: i for i, v in enumerate(self.vertices)}
        if len(self.index) != len(self.vertices):
            raise ValueError("duplicate vertex labels")
        self.arrows = tuple((self.index[s], self.index[t]) for s, t in arrows)
        self.name = name or f"quiver:{self.vertices}:{self.arrows}"

    @property
    def n(self) -> int:
        return len(self.vertices)

    def __eq__(self, other):
        return (
            isinstance(other, Quiver)
            and self.vertices == other.vertices
            and sorted(self.arrows) == sorted(other.arrows)
        )

    def __hash__(self):
        return hash((self.vertices, tuple(sorted(self.arrows))))

    def __repr__(self):
        return f"Quiver({self.name})"

    # -- structure ------------------------------------------------------

    def is_acyclic(self) -> bool:
        try:
            self.topological_order()
            return True
        except UnsupportedQuiverError:
            return False

    def topological_order(self) -> tuple[int, ...]:
        """Vertex indices ordered so every arrow goes forward; stable by label."""
        indeg = [0] * self.n
        for _, t in self.arrows:
            indeg[t] += 1
        ready = sorted(
            (i for i in range(self.n) if indeg[i] == 0), key=lambda i: self.vertices[i]
        )
        out = []
        indeg = list(indeg)
        while ready:
            i = ready.pop(0)
            out.append(i)
            touched = False
            for s, t in self.arrows:
                if s == i:
                    indeg[t] -= 1
                    if indeg[t] == 0:
                        ready.append(t)
                        touched = True
            if touched:
                ready.sort(key=lambda j: self.vertices[j])
        if len(out) != self.n:
            raise UnsupportedQuiverError("quiver has an oriented cycle")
        return tuple(out)

    def is_sink(self, i: int) -> bool:
        return all(s != i for s, _ in self.arrows)

    def is_source(self, i: int) -> bool:
        return all(t != i for _, t in self.arrows)

    def reversed_at(self, i: int) -> "Quiver":
        """Reverse every arrow incident to vertex i (BGP reflection of the quiver)."""
        arrows = []
        for s, t in self.arrows:
            if s == i or t == i:
                arrows.append((self.vertices[t], self.vertices[s]))
            else:
                arrows.append((self.vertices[s], self.vertices[t]))
        return Quiver(self.vertices, arrows, name=f"{self.name}|r{self.vertices[i]}")

    def opposite(self) -> "Quiver":
        return Quiver(self.vertices, [(self.vertices[t], self.vertices[s]) for s, t in self.arrows])

    def check_dim(self, nu) -> tuple[int, ...]:
        """nu as a tuple; ValueError unless it has one entry >= 0 per vertex."""
        nu = tuple(nu)
        if len(nu) != self.n or any(x < 0 for x in nu):
            raise ValueError(
                f"dimension vector {list(nu)} must have {self.n} entries, each >= 0"
            )
        return nu

    # -- forms ------------------------------------------------------------

    def euler_form(self, nu, nu2) -> int:
        if len(nu) != self.n or len(nu2) != self.n:
            raise ValueError("dimension vector length mismatch")
        out = sum(a * b for a, b in zip(nu, nu2))
        for s, t in self.arrows:
            out -= nu[s] * nu2[t]
        return out

    def symmetric_form(self, nu, nu2) -> int:
        return self.euler_form(nu, nu2) + self.euler_form(nu2, nu)

    def cartan_matrix(self) -> list[list[int]]:
        eye = [[1 if i == j else 0 for j in range(self.n)] for i in range(self.n)]
        return [[self.symmetric_form(eye[i], eye[j]) for j in range(self.n)] for i in range(self.n)]

    # -- roots -------------------------------------------------------------

    def delta(self) -> tuple[int, ...]:
        """Minimal imaginary positive root of an affine quiver."""
        ker = _integer_kernel(self.cartan_matrix())
        if len(ker) != 1:
            raise UnsupportedQuiverError("quiver is not affine (Cartan corank != 1)")
        d = ker[0]
        if all(x <= 0 for x in d):
            d = tuple(-x for x in d)
        if not all(x > 0 for x in d):
            raise UnsupportedQuiverError("radical generator is not positive")
        return d

    def is_affine(self) -> bool:
        try:
            self.delta()
            return True
        except UnsupportedQuiverError:
            return False

    def is_finite_type(self) -> bool:
        """Is the symmetric Cartan matrix positive definite?  Such a matrix
        has a trivial kernel, so no kernel is solved."""
        return _positive_definite(self.cartan_matrix())

    def to_json(self):
        return {
            "vertices": list(self.vertices),
            "arrows": [[self.vertices[s], self.vertices[t]] for s, t in self.arrows],
        }

    @staticmethod
    def from_json(data) -> "Quiver":
        """The quiver of {"vertices": [label, ...], "arrows": [[s, t], ...]};
        labels are integers or strings.  A malformed spec raises ValueError."""
        if not isinstance(data, dict):
            raise ValueError("a JSON quiver spec is an object")
        vertices, arrows = data.get("vertices"), data.get("arrows")
        if not isinstance(vertices, list) or not all(
            isinstance(v, (int, str)) and not isinstance(v, bool) for v in vertices
        ):
            raise ValueError('"vertices" is not a list of integer or string labels')
        if not isinstance(arrows, list):
            raise ValueError('"arrows" is not a list of [source, target] pairs')
        for a in arrows:
            if not (isinstance(a, list) and len(a) == 2 and all(x in vertices for x in a)):
                raise ValueError(f"arrow {a!r} is not a [source, target] pair of vertices")
        return Quiver(vertices, [tuple(a) for a in arrows])


def _integer_rows(mat) -> list[list[int]]:
    """Each row of a rational matrix times the lcm of its denominators
    (ints and Fractions alike have ``.denominator``): the same row space,
    and every leading principal minor times a positive integer."""
    out = []
    for row in mat:
        den = lcm(*(x.denominator for x in row))
        out.append([int(x * den) for x in row])
    return out


def _primitive_row(row) -> list[int]:
    """row divided by the gcd of its entries, a positive integer (the zero
    row stays): the same row space, and the same sign of every minor."""
    g = gcd(*row)
    return [a // g for a in row] if g > 1 else row


def _integer_kernel(mat) -> list[tuple[int, ...]]:
    """Primitive integer basis of the kernel of a rational m x n matrix,
    one vector per free column with a positive entry there.

    Fraction-free Gauss-Jordan elimination over Z: each row operation
    scales a row by the pivot, then makes it primitive, so every pivot row
    holds its pivot p and zeros in the other pivot columns.  The
    kernel vector of a free column f is then x_f = 1 and x_c = -r_f / p at
    each pivot column c of a row r, scaled to primitive integers.
    """
    n = len(mat[0])
    rows = _integer_rows(mat)
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        p = rows[r][c]
        for i in range(len(rows)):
            if i != r and (f := rows[i][c]):
                rows[i] = _primitive_row([p * a - f * b for a, b in zip(rows[i], rows[r])])
        pivots.append(c)
        r += 1
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        scale = lcm(*(abs(rows[i][pc]) for i, pc in enumerate(pivots)))
        vec = [0] * n
        vec[fc] = scale
        for i, pc in enumerate(pivots):
            vec[pc] = -rows[i][fc] * scale // rows[i][pc]
        g = gcd(*vec)
        basis.append(tuple(x // g for x in vec))
    return basis


def _positive_definite(mat) -> bool:
    """Are all leading principal minors positive?  Fraction-free
    elimination: row i goes to p * row i - f * row k with p > 0 the k-th
    pivot, made primitive; both keep the sign of every leading minor, so
    each pivot has the sign of its minor."""
    n = len(mat)
    rows = _integer_rows(mat)
    for k in range(n):
        p = rows[k][k]
        if p <= 0:
            return False
        for i in range(k + 1, n):
            if f := rows[i][k]:
                rows[i] = _primitive_row([p * a - f * b for a, b in zip(rows[i], rows[k])])
    return True


# -- named constructors -------------------------------------------------


def kronecker() -> Quiver:
    """Two vertices 0 -> 1 with a double arrow; vertex 1 is the sink."""
    return Quiver((0, 1), [(0, 1), (0, 1)], name="kronecker")


def cyclic(n: int) -> Quiver:
    """Cyclic quiver on vertices 1..n with arrows i -> i+1 (mod n)."""
    vs = tuple(range(1, n + 1))
    arrows = [(i, (i % n) + 1) for i in vs]
    return Quiver(vs, arrows, name=f"cyclic:{n}")


def linear_an(n: int, orientation: str | None = None) -> Quiver:
    """Type A_n on vertices 1..n; orientation[i] is '>' for i -> i+1."""
    if n < 1:
        raise ValueError("A_n needs at least one vertex")
    orientation = orientation or ">" * (n - 1)
    if len(orientation) != n - 1 or any(c not in "<>" for c in orientation):
        raise ValueError("orientation must be a string of '<'/'>' of length n-1")
    arrows = []
    for i, c in enumerate(orientation, start=1):
        arrows.append((i, i + 1) if c == ">" else ((i + 1), i))
    return Quiver(tuple(range(1, n + 1)), arrows, name=f"an:{n}:{orientation}")


def from_spec(spec: str) -> Quiver:
    """Parse a quiver spec: a named constructor, inline JSON, or @file.json.

    Named forms: kronecker | jordan | cyclic:N | an:N[:orientation].
    JSON form: {"vertices": [...], "arrows": [[s, t], ...]}.
    """
    if spec == "kronecker":
        return kronecker()
    if spec == "jordan":
        return cyclic(1)
    if spec.startswith("cyclic:"):
        return cyclic(int(spec.split(":")[1]))
    if spec.startswith("an:"):
        parts = spec.split(":")
        return linear_an(int(parts[1]), parts[2] if len(parts) > 2 else None)
    if spec.lstrip().startswith("{") or spec.startswith("@"):
        import json

        if spec.startswith("@"):
            with open(spec[1:]) as fh:
                data = json.load(fh)
        else:
            data = json.loads(spec)
        return Quiver.from_json(data)
    raise UnsupportedQuiverError(f"unknown quiver spec {spec!r}")


# -- admissible sequences ------------------------------------------------


class AdmissibleSequence:
    """Doubly infinite vertex sequence adapted to an acyclic quiver.

    With vertices listed topologically (arrows only forward), the periodic
    rule i_t = topo[(t-1) mod n] makes i_0 the last vertex (a sink) and
    i_1 the first (a source).  In affine type this rule is admissible as
    it stands; in finite type the word eventually stops being reduced, so
    each step instead picks the first sink (resp. source) of the current
    reflected quiver that keeps the word reduced, preferring the periodic
    choice, until the finitely many positive roots are exhausted.  That
    sequence is not periodic and can put a small root last (the simple
    injectives), so the beta ranges walk it to its end.
    """

    def __init__(self, quiver: Quiver):
        if not quiver.is_acyclic():
            raise UnsupportedQuiverError("admissible sequences need an acyclic quiver")
        self.quiver = quiver
        self.topo = quiver.topological_order()
        self.finite = quiver.is_finite_type()
        # Per side: chosen vertices, beta roots, reflected quivers, and the
        # columns of the accumulated Weyl group element.
        self._neg = {"verts": [], "betas": [], "quivers": [quiver], "w": _id_cols(quiver.n)}
        self._pos = {"verts": [], "betas": [], "quivers": [quiver], "w": _id_cols(quiver.n)}

    def _periodic(self, t: int) -> int:
        return self.topo[(t - 1) % self.quiver.n]

    def _extend(self, side: str) -> bool:
        """Grow one step; returns False when finite type is exhausted."""
        Q = self.quiver
        st = self._neg if side == "-" else self._pos
        cur = st["quivers"][-1]
        t = -len(st["verts"]) if side == "-" else len(st["verts"]) + 1
        ends = [i for i in range(Q.n) if (cur.is_sink(i) if side == "-" else cur.is_source(i))]
        pref = self._periodic(t)
        ends.sort(key=lambda i: (i != pref, Q.vertices[i]))
        for i in ends:
            beta = st["w"][i]  # w e_i
            if all(x >= 0 for x in beta):
                st["verts"].append(i)
                st["betas"].append(beta)
                st["quivers"].append(cur.reversed_at(i))
                st["w"] = _mul_cols(Q, st["w"], i)
                return True
        return False

    def vertex(self, t: int) -> int:
        """Vertex index i_t."""
        st, k = (self._neg, -t) if t <= 0 else (self._pos, t - 1)
        while len(st["verts"]) <= k:
            if not self._extend("-" if t <= 0 else "+"):
                raise IndexError(f"sequence exhausted before i_{t} (finite type)")
        return st["verts"][k]

    def beta(self, t: int) -> tuple[int, ...]:
        """Positive real root beta_t; raises for out-of-range t in finite type."""
        st, k = (self._neg, -t) if t <= 0 else (self._pos, t - 1)
        while len(st["betas"]) <= k:
            if not self._extend("-" if t <= 0 else "+"):
                raise IndexError(f"beta_{t} out of range (finite type exhausted)")
        return st["betas"][k]

    def _steps(self, bound):
        """0, 1, 2, ...: to the end of a finite-type sequence, else a horizon.

        In affine type the height grows by at least one per period along
        each tau-orbit, so n(|bound| + 2) + 2 steps exhaust the roots below
        the bound.
        """
        if self.finite:
            return itertools.count()
        return range(self.quiver.n * (sum(bound) + 2) + 2)

    @memoized
    def _range(self, bound, side: str) -> tuple[int, ...]:
        """The t of one side (``preprojective_range``, ``preinjective_range``)
        with beta_t componentwise <= bound, walked once per bound."""
        steps = self._steps(bound)
        ts = (-s for s in steps) if side == "-" else itertools.islice(steps, 1, None)
        out = []
        for t in ts:
            try:
                b = self.beta(t)
            except IndexError:
                break
            if all(x <= y for x, y in zip(b, bound)):
                out.append(t)
        return tuple(out)

    def preprojective_range(self, bound) -> tuple[int, ...]:
        """All t <= 0 with beta_t componentwise <= bound, from t = 0 down."""
        return self._range(tuple(bound), "-")

    def preinjective_range(self, bound) -> tuple[int, ...]:
        """All t > 0 with beta_t componentwise <= bound, from t = 1 up."""
        return self._range(tuple(bound), "+")

    @memoized
    def simple_indec(self, v) -> tuple:
        """('p', t) or ('q', t): the indecomposable that is the simple at
        vertex index v, found on the beta chain."""
        unit = _unit(self.quiver.n, v)
        for side, walk in (("p", self.preprojective_range), ("q", self.preinjective_range)):
            for t in walk(unit):
                if self.beta(t) == unit:
                    return side, t
        label = self.quiver.vertices[v]
        raise UnsupportedQuiverError(f"simple at {label} not located in the beta chain")

    def reflected_quiver_chain(self, count: int, side: str) -> list[Quiver]:
        """Quivers sigma_{i_t}...Q along the sink (side='-') or source (side='+') walk."""
        st = self._neg if side == "-" else self._pos
        while len(st["verts"]) < count:
            if not self._extend(side):
                break
        return list(st["quivers"][: len(st["verts"]) + 1])[: count + 1]


def _unit(n, i):
    return tuple(1 if j == i else 0 for j in range(n))


def _id_cols(n):
    return [_unit(n, j) for j in range(n)]


def _mul_cols(Q: Quiver, cols, i):
    """Columns of w*s_i given the columns of w.

    Only column i of the Cartan matrix is read: (e_j, e_i) is 2 at j = i
    less the arrows between j and i, either way (a loop twice).
    """
    n = Q.n
    cartan_i = [2 if j == i else 0 for j in range(n)]
    for s, t in Q.arrows:
        if t == i:
            cartan_i[s] -= 1
        if s == i:
            cartan_i[t] -= 1
    ci = cols[i]
    return [
        tuple(cols[j][m] - cartan_i[j] * ci[m] for m in range(n)) for j in range(n)
    ]
