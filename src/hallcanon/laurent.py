"""Exact arithmetic in Z[v, v^-1] and its fraction field.

Coefficients are arbitrary-precision integers, and ``exact_div`` divides over
Z.  The quantum parameter satisfies q = v^2 under every specialization, and
the bar involution sends v to v^-1.  Rational functions are never expanded as
series: where a check needs their expansion at v = infinity, it reads the
degrees of numerator and denominator.
"""

from __future__ import annotations

import re

from .config import BarSolveError

_CANONICAL_INT = re.compile(r"-?[1-9][0-9]*")


class LaurentPoly:
    """Sparse Laurent polynomial sum_e c_e v^e.

    Invariants: no zero coefficient is stored and exponents are ints, so
    equality and hashing are structural.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        """From a dict {exponent: coefficient}; zero coefficients are dropped."""
        self.terms = {int(e): c for e, c in (terms or {}).items() if c}

    # -- constructors -------------------------------------------------

    @staticmethod
    def const(c) -> "LaurentPoly":
        return LaurentPoly({0: c})

    @staticmethod
    def v_power(e: int, c=1) -> "LaurentPoly":
        return LaurentPoly({e: c})

    @staticmethod
    def from_q_poly(coeffs, shift: int = 0) -> "LaurentPoly":
        """Substitute q = v^2 into sum_k coeffs[k] q^k, then multiply by v^shift."""
        return LaurentPoly({2 * k + shift: c for k, c in enumerate(coeffs)})

    # -- ring structure -----------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        d = dict(self.terms)
        for e, c in other.terms.items():
            s = d.get(e, 0) + c
            if s:
                d[e] = s
            else:
                d.pop(e, None)
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = d
        return out

    __radd__ = __add__

    def __neg__(self):
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __mul__(self, other):
        other = _coerce(other)
        d = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                s = d.get(e, 0) + c1 * c2
                if s:
                    d[e] = s
                else:
                    d.pop(e, None)
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = d
        return out

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, e: int):
        return self.terms.get(e, 0)

    def degree(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no degree")
        return max(self.terms)

    def valuation(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no valuation")
        return min(self.terms)

    def in_vinv_Z(self) -> bool:
        """Membership in v^-1 Z[v^-1], decided exactly."""
        return all(e < 0 for e in self.terms)

    # -- involutions and folds ----------------------------------------

    def bar(self) -> "LaurentPoly":
        """The involution v -> v^-1."""
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = {-e: c for e, c in self.terms.items()}
        return out

    def bar_fold(self) -> "LaurentPoly":
        """The bar-invariant fold phi_0 + sum_{e>0} phi_e (v^e + v^-e)."""
        d = {}
        for e, c in self.terms.items():
            if e >= 0:
                d[e] = d[-e] = c
        return LaurentPoly(d)

    def negative_part(self) -> "LaurentPoly":
        return LaurentPoly({e: c for e, c in self.terms.items() if e < 0})

    # -- exact division ------------------------------------------------

    def exact_div(self, other: "LaurentPoly") -> "LaurentPoly":
        """Divide exactly over Z; raises ArithmeticError if the quotient is not
        in Z[v, v^-1]."""
        other = _coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return ZERO
        num = dict(self.terms)
        dlead = other.degree()
        dc = other.terms[dlead]
        # An exact Laurent quotient cannot reach below this valuation.
        val_bound = self.valuation() - other.valuation()
        quot = {}
        while num:
            e = max(num)
            q, r = divmod(num[e], dc)
            qe = e - dlead
            if r or qe < val_bound:
                raise ArithmeticError("inexact Laurent division")
            quot[qe] = q
            for e2, c2 in other.terms.items():
                ne = qe + e2
                s = num.get(ne, 0) - q * c2
                if s:
                    num[ne] = s
                else:
                    num.pop(ne, None)
        return LaurentPoly(quot)

    # -- presentation ---------------------------------------------------

    def text(self) -> str:
        """Canonical text form, ascending exponents: ``3*v^-2 + 1 + v^5``."""
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            if e == 0:
                parts.append(str(c))
                continue
            ve = "v" if e == 1 else f"v^{e}"
            if c == 1:
                parts.append(ve)
            elif c == -1:
                parts.append(f"-{ve}")
            else:
                parts.append(f"{c}*{ve}")
        return " + ".join(parts).replace("+ -", "- ")

    def to_json(self):
        """JSON form: list of [exponent, coefficient-as-decimal-string]."""
        return [[e, str(self.terms[e])] for e in sorted(self.terms)]

    @staticmethod
    def from_json(data) -> "LaurentPoly":
        """Read ``to_json``'s form back; raises ValueError on any other: a
        list of two-item lists whose exponents are ints (not bools) in
        strictly ascending order and whose coefficients are nonzero integers
        as canonical decimal strings (``str(int(c)) == c``)."""
        if not isinstance(data, list):
            raise ValueError(f"not a list of [exponent, coefficient] terms: {data!r}")
        terms: dict = {}
        for t in data:
            if not (
                isinstance(t, list)
                and len(t) == 2
                and type(t[0]) is int
                and isinstance(t[1], str)
                and _CANONICAL_INT.fullmatch(t[1])
                and (not terms or t[0] > prev)
            ):
                raise ValueError(f"not a canonical [exponent, coefficient] term: {t!r}")
            prev = t[0]
            terms[prev] = int(t[1])
        return LaurentPoly(terms)

    def __repr__(self):
        return f"LaurentPoly({self.text()})"


def _coerce(x) -> LaurentPoly:
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, int):
        return LaurentPoly.const(x)
    raise TypeError(f"cannot coerce {type(x)} to LaurentPoly")


ZERO = LaurentPoly()
ONE = LaurentPoly({0: 1})


# -- sparse rows ---------------------------------------------------------
#
# A sparse row is a dict {key: LaurentPoly} without zero entries; a sparse
# matrix maps a row key to its row.


def add_scaled(acc: dict, row: dict, c) -> dict:
    """acc += c * row, in place, dropping entries that cancel; returns acc.

    Each c * row[k] is summed straight into a copy of acc[k]'s terms, so no
    intermediate product or sum is built.
    """
    cterms = _coerce(c).terms.items()
    for k, x in row.items():
        old = acc.get(k)
        d = dict(old.terms) if old is not None else {}
        for e1, c1 in cterms:
            for e2, c2 in x.terms.items():
                e = e1 + e2
                s = d.get(e, 0) + c1 * c2
                if s:
                    d[e] = s
                else:
                    d.pop(e, None)
        if d:
            out = LaurentPoly.__new__(LaurentPoly)
            out.terms = d
            acc[k] = out
        else:
            acc.pop(k, None)
    return acc


def row_times(row: dict, M) -> dict:
    """The row vector times a sparse matrix: sum over k of row[k] * M[k]."""
    acc: dict = {}
    for k, c in row.items():
        add_scaled(acc, M[k], c)
    return acc


def invert_unitriangular(order, rows) -> dict:
    """Invert a unitriangular matrix given as {a: {b: coeff}} over the order."""
    pos = {a: i for i, a in enumerate(order)}
    for i, a in enumerate(order):
        if rows[a].get(a) != ONE or any(pos[d] > i for d in rows[a]):
            raise BarSolveError(f"matrix is not lower unitriangular at {a}")
    inv = {}
    for a in order:
        # inv[a][c] = -sum_{c <= d < a} rows[a][d] * inv[d][c]
        tail = row_times({d: x for d, x in rows[a].items() if d != a}, inv)
        inv[a] = {a: ONE, **{c: -x for c, x in tail.items()}}
    return inv


# -- rational functions ------------------------------------------------


class RationalFn:
    """Quotient of Laurent polynomials; equality by cross-multiplication."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=ONE):
        num = _coerce(num)
        den = _coerce(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        # Cheap canonicalization: clear v-powers so both parts sit in Z[v].
        if not num.is_zero():
            shift = min(num.valuation(), den.valuation())
            if shift:
                num = LaurentPoly({e - shift: c for e, c in num.terms.items()})
                den = LaurentPoly({e - shift: c for e, c in den.terms.items()})
        self.num = num
        self.den = den

    def __add__(self, other):
        other = _coerce_rf(other)
        return RationalFn(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __mul__(self, other):
        other = _coerce_rf(other)
        return RationalFn(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            other = RationalFn(_coerce(other))
        if not isinstance(other, RationalFn):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        raise TypeError("RationalFn is unhashable; compare explicitly")

    def __bool__(self):
        return not self.num.is_zero()

    def to_json(self):
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    def __repr__(self):
        return f"RationalFn(({self.num.text()}) / ({self.den.text()}))"


def _coerce_rf(x) -> RationalFn:
    if isinstance(x, RationalFn):
        return x
    return RationalFn(_coerce(x))

