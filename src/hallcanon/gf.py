"""Small finite fields GF(p^e) with table arithmetic, the monic irreducibles
over them, and exact linear algebra.

Field elements are encoded as ints in range(q); for extensions the int is
the base-p digit string of the polynomial representative.  Everything here
is exact; matrices are lists of int lists.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product

from .config import _MAX_TABLE_Q, _factor_prime_power


# ---------------------------------------------------------------------------
# polynomial helpers over GF(q), coefficients ascending
# ---------------------------------------------------------------------------


def _poly_mul(F: GF, a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = F.add(out[i + j], F.mul(x, y))
    return out


def _poly_trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_add(F: GF, a, b):
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] = x
    for i, y in enumerate(b):
        out[i] = F.add(out[i], y)
    return _poly_trim(out)


def _poly_divmod(F: GF, a, b):
    """(quotient, remainder) of a by b != 0, both trimmed ([] is zero)."""
    a, b = _poly_trim(a), _poly_trim(b)
    inv = F.inv(b[-1])
    quot = [0] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        c = F.mul(a[-1], inv)
        shift = len(a) - len(b)
        quot[shift] = c
        for j in range(len(b)):
            a[shift + j] = F.sub(a[shift + j], F.mul(c, b[j]))
        a = _poly_trim(a)
    return quot, a


def _poly_rem(F: GF, a, b):
    """Remainder of a modulo b (leading coefficient invertible)."""
    return _poly_divmod(F, a, b)[1]


def _poly_gcd(F: GF, a, b):
    """Monic gcd; [] when both vanish."""
    a, b = _poly_trim(a), _poly_trim(b)
    while b:
        a, b = b, _poly_rem(F, a, b)
    if not a:
        return a
    inv = F.inv(a[-1])
    return [F.mul(x, inv) for x in a]


@lru_cache(maxsize=None)
def irreducibles(q: int, d: int) -> tuple:
    """The monic irreducibles of degree d >= 1 over F_q, each as the tuple of
    its non-leading coefficients (ascending), in ``product`` order.

    They are sieved, not tested one by one: a monic of degree d is reducible
    exactly when it is an irreducible of some degree e <= d/2 times a monic
    of degree d - e.
    """
    F = GF(q)
    tails = product(F.elements(), repeat=d)
    if d == 1:
        return tuple(tails)
    reducible = {
        tuple(_poly_mul(F, list(f) + [1], list(co) + [1])[:-1])
        for e in range(1, d // 2 + 1)
        for f in irreducibles(q, e)
        for co in product(F.elements(), repeat=d - e)
    }
    return tuple(tail for tail in tails if tail not in reducible)


class GF:
    """The finite field with q elements; elements are ints 0..q-1."""

    _instances: dict[int, "GF"] = {}

    def __new__(cls, q: int):
        if q in cls._instances:
            return cls._instances[q]
        self = super().__new__(cls)
        cls._instances[q] = self
        return self

    def __init__(self, q: int):
        if hasattr(self, "q"):
            return
        if q > _MAX_TABLE_Q:
            raise ValueError(f"field size {q} above the table limit {_MAX_TABLE_Q}")
        p, e = _factor_prime_power(q)
        self.q = q
        self.p = p
        self.e = e
        if e == 1:
            self.modulus = None
            add = [[(a + b) % p for b in range(q)] for a in range(q)]
            mul = [[(a * b) % p for b in range(q)] for a in range(q)]
        else:
            self.modulus = list(irreducibles(p, e)[0]) + [1]
            Fp = GF(p)
            digits = [self._digits(a) for a in range(q)]
            add = [
                [self._undigits([(x + y) % p for x, y in zip(digits[a], digits[b])]) for b in range(q)]
                for a in range(q)
            ]
            mul = [
                [self._undigits(_poly_rem(Fp, _poly_mul(Fp, x, y), self.modulus)) for y in digits]
                for x in digits
            ]
        self._add = add
        self._mul = mul
        self._neg = [add[a].index(0) for a in range(q)]
        self._inv = [0] * q
        for a in range(1, q):
            self._inv[a] = mul[a].index(1)

    def _digits(self, a):
        out = []
        for _ in range(self.e):
            out.append(a % self.p)
            a //= self.p
        return out

    def _undigits(self, ds):
        out = 0
        for d in reversed(ds):
            out = out * self.p + d
        return out

    def add(self, a, b):
        return self._add[a][b]

    def sub(self, a, b):
        return self._add[a][self._neg[b]]

    def mul(self, a, b):
        return self._mul[a][b]

    def neg(self, a):
        return self._neg[a]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self._inv[a]

    def elements(self):
        return range(self.q)

    def __repr__(self):
        return f"GF({self.q})"

    def __reduce__(self):
        return (GF, (self.q,))


# -- matrices ------------------------------------------------------------


def zeros(rows: int, cols: int):
    return [[0] * cols for _ in range(rows)]


def identity(n: int):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(F: GF, A, B):
    rows, inner, cols = len(A), len(B), len(B[0]) if B else 0
    out = zeros(rows, cols)
    for i in range(rows):
        Ai = A[i]
        for k in range(inner):
            a = Ai[k]
            if a:
                Bk = B[k]
                Oi = out[i]
                for j in range(cols):
                    if Bk[j]:
                        Oi[j] = F.add(Oi[j], F.mul(a, Bk[j]))
    return out


def mat_vec(F: GF, A, v):
    add, mul = F._add, F._mul
    out = []
    for row in A:
        s = 0
        for a, b in zip(row, v):
            if a and b:
                s = add[s][mul[a][b]]
        out.append(s)
    return out


def rref(F: GF, mat):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    add, mul, neg, inv = F._add, F._mul, F._neg, F._inv
    rows = [list(r) for r in mat]
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        for piv in range(r, m):
            if rows[piv][c]:
                break
        else:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        lead = rows[r][c]
        if lead != 1:
            scale = mul[inv[lead]]
            rows[r] = [scale[x] for x in rows[r]]
        prow = rows[r]
        for i in range(m):
            f = rows[i][c]
            if f and i != r:
                # row_i - f * prow, as row_i + (-f) * prow
                mf = mul[neg[f]]
                rows[i] = [add[x][mf[y]] for x, y in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def rank(F: GF, mat) -> int:
    return len(rref(F, mat)[0])


def nullspace(F: GF, mat):
    """Basis (list of vectors) of the right kernel of mat."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    if m == 0:
        return [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    rows, pivots = rref(F, mat)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * n
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = F.neg(rows[i][fc])
        basis.append(v)
    return basis


def is_invertible(F: GF, mat) -> bool:
    return len(mat) == len(mat[0]) and rank(F, mat) == len(mat)


def _subtract_rows(F: GF, v, rref_rows, pivots):
    """v minus v[pc] * row for each RREF row, pivot pc; v's pivot entries vanish."""
    add, mul, neg = F._add, F._mul, F._neg
    for row, pc in zip(rref_rows, pivots):
        c = v[pc]
        if c:
            mc = mul[neg[c]]
            v = [add[x][mc[y]] for x, y in zip(v, row)]
    return v


def coords_in_rowspace(F: GF, rref_rows, pivots, v):
    """Coordinates of v in the row space, or None if v is outside it."""
    # In RREF, the coordinate on row i is v's entry at pivot i.
    coords = [v[pc] for pc in pivots]
    if any(_subtract_rows(F, v, rref_rows, pivots)):
        return None
    return coords


def reduce_mod_rowspace(F: GF, rref_rows, pivots, v):
    """Canonical representative of v modulo the row space (pivot coords zeroed)."""
    return _subtract_rows(F, list(v), rref_rows, pivots)


def combine_rows(F: GF, coeffs, basis):
    """The rows coeffs * basis, as tuples.

    When basis and coeffs are both in RREF, so is the product: its pivots
    are the basis pivots that coeffs selects.
    """
    add, mul = F._add, F._mul
    width = len(basis[0]) if basis else 0
    out = []
    for crow in coeffs:
        acc = [0] * width
        for c, brow in zip(crow, basis):
            if c:
                mc = mul[c]
                acc = [add[x][mc[y]] for x, y in zip(acc, brow)]
        out.append(tuple(acc))
    return out


def rref_join(F: GF, low_rows, low_pivots, rows, pivots):
    """RREF (rows, pivots) of the sum of two RREF row spaces.

    ``rows`` must vanish on ``low_pivots``; then clearing the columns
    ``pivots`` from ``low_rows`` and sorting by pivot gives the RREF.
    """
    merged = list(zip(pivots, rows))
    for lp, lrow in zip(low_pivots, low_rows):
        merged.append((lp, tuple(_subtract_rows(F, lrow, rows, pivots))))
    merged.sort()
    return tuple(r for _, r in merged), tuple(p for p, _ in merged)


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
