import random

import pytest

from hallcanon.combinatorics import _gauss_binom_coeffs, eval_poly
from hallcanon.gf import (
    GF,
    combine_rows,
    coords_in_rowspace,
    identity,
    irreducibles,
    is_invertible,
    mat_vec,
    nullspace,
    rank,
    reduce_mod_rowspace,
    rref,
    rref_join,
    subspaces,
)
from oracles import field_tables_by_int_product, irreducibles_by_trial_division


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13])
def test_field_axioms(q):
    F = GF(q)
    els = list(F.elements())
    assert len(els) == q
    for a in els:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
    # Associativity and distributivity on a spread of triples.
    sample = els if q <= 5 else els[::2]
    for a in sample:
        for b in sample:
            for c in sample:
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
                assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))


def test_extension_field_frobenius():
    F = GF(9)
    # x -> x^3 must be an automorphism fixing exactly the prime field.
    fixed = [a for a in F.elements() if pow_elt(F, a, 3) == a]
    assert sorted(fixed) == [F.add(0, 0), 1, F.add(1, 1)] or len(fixed) == 3


def pow_elt(F, a, n):
    out = 1
    for _ in range(n):
        out = F.mul(out, a)
    return out


def test_extension_moduli_are_pinned():
    # The modulus fixes every field table, so element encodings and every
    # count keyed by them; it must not move.
    moduli = {
        4: [1, 1, 1],
        8: [1, 0, 1, 1],
        9: [1, 0, 1],
        16: [1, 0, 0, 1, 1],
        25: [1, 1, 1],
        27: [1, 0, 2, 1],
        32: [1, 0, 0, 1, 0, 1],
        49: [1, 0, 1],
        64: [1, 0, 0, 0, 0, 1, 1],
    }
    assert {q: GF(q).modulus for q in moduli} == moduli


PRIME_POWERS_TO_64 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32]
PRIME_POWERS_TO_64 += [37, 41, 43, 47, 49, 53, 59, 61, 64]


@pytest.mark.parametrize("q", PRIME_POWERS_TO_64)
def test_sieve_and_field_tables_match_trial_division(q):
    # The sieve's first irreducible is the modulus that trial division finds
    # first, so the tables built on it are the raw-int reference's.
    F = GF(q)
    assert (F._add, F._mul, F._neg, F._inv) == field_tables_by_int_product(q)
    if q <= 9:
        for d in (1, 2, 3):
            assert irreducibles(q, d) == irreducibles_by_trial_division(q, d), d


def test_not_prime_power():
    with pytest.raises(ValueError):
        GF(6)


def test_rref_and_rank():
    F = GF(5)
    A = [[1, 2, 3], [2, 4, 2], [0, 0, 0]]
    rows, pivots = rref(F, A)
    assert rank(F, A) == 2
    assert pivots == [0, 2]
    for v in ([1, 2, 3], [2, 4, 2]):
        assert coords_in_rowspace(F, rows, pivots, v) is not None
    assert coords_in_rowspace(F, rows, pivots, [0, 1, 0]) is None


def test_nullspace():
    F = GF(7)
    A = [[1, 2, 3], [2, 4, 6]]
    ns = nullspace(F, A)
    assert len(ns) == 2
    from hallcanon.gf import mat_vec

    for v in ns:
        assert all(x == 0 for x in mat_vec(F, A, v))


def test_reduce_mod_rowspace():
    F = GF(3)
    rows, pivots = rref(F, [[1, 1, 0]])
    r = reduce_mod_rowspace(F, rows, pivots, [1, 0, 1])
    assert r[0] == 0
    assert reduce_mod_rowspace(F, rows, pivots, [2, 2, 0]) == [0, 0, 0]


def test_invertibility():
    F = GF(4)
    assert is_invertible(F, identity(3))
    assert not is_invertible(F, [[1, 1], [1, 1]])


@pytest.mark.parametrize("q", [2, 3, 5])
def test_subspace_enumeration_counts(q):
    F = GF(q)
    for d in range(0, 4):
        for k in range(0, d + 1):
            subs = list(subspaces(F, d, k))
            assert len(subs) == eval_poly(_gauss_binom_coeffs(d, k), q)
            assert len(set(subs)) == len(subs)
            for rows in subs:
                if k:
                    assert rank(F, [list(r) for r in rows]) == k


def test_gaussian_binomial_values():
    assert eval_poly(_gauss_binom_coeffs(2, 1), 3) == 4
    assert eval_poly(_gauss_binom_coeffs(4, 2), 2) == 35


# -- the kernels against per-entry versions ----------------------------------
#
# The gf kernels combine whole rows through the field's tables.  These are
# the same algorithms written one entry at a time with F.add / F.sub / F.mul,
# the reference the table versions must reproduce exactly.


def entrywise_mat_vec(F, A, v):
    out = []
    for row in A:
        s = 0
        for a, b in zip(row, v):
            if a and b:
                s = F.add(s, F.mul(a, b))
        out.append(s)
    return out


def entrywise_rref(F, mat):
    rows = [list(r) for r in mat]
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = F.inv(rows[r][c])
        rows[r] = [F.mul(inv, x) for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [F.sub(rows[i][j], F.mul(f, rows[r][j])) for j in range(n)]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def entrywise_nullspace(F, mat):
    n = len(mat[0])
    rows, pivots = entrywise_rref(F, mat)
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [0] * n
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = F.neg(rows[i][fc])
        basis.append(v)
    return basis


def entrywise_coords(F, rref_rows, pivots, v):
    v = list(v)
    coords = []
    for i, pc in enumerate(pivots):
        c = v[pc]
        coords.append(c)
        if c:
            v = [F.sub(v[j], F.mul(c, rref_rows[i][j])) for j in range(len(v))]
    return None if any(v) else coords


def entrywise_reduce(F, rref_rows, pivots, v):
    v = list(v)
    for i, pc in enumerate(pivots):
        c = v[pc]
        if c:
            v = [F.sub(v[j], F.mul(c, rref_rows[i][j])) for j in range(len(v))]
    return v


def entrywise_combine(F, coeffs, basis):
    width = len(basis[0]) if basis else 0
    out = []
    for crow in coeffs:
        acc = [0] * width
        for c, brow in zip(crow, basis):
            if c:
                acc = [F.add(x, F.mul(c, y)) for x, y in zip(acc, brow)]
        out.append(tuple(acc))
    return out


def entrywise_join(F, low_rows, low_pivots, rows, pivots):
    merged = list(zip(pivots, rows))
    for lp, lrow in zip(low_pivots, low_rows):
        for p, row in zip(pivots, rows):
            c = lrow[p]
            if c:
                lrow = [F.sub(x, F.mul(c, y)) for x, y in zip(lrow, row)]
        merged.append((lp, tuple(lrow)))
    merged.sort()
    return tuple(r for _, r in merged), tuple(p for p, _ in merged)


def random_matrix(rng, q, m, n, density):
    return [
        [rng.randrange(1, q) if rng.random() < density else 0 for _ in range(n)]
        for _ in range(m)
    ]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_kernels_match_entrywise_versions(q):
    F = GF(q)
    rng = random.Random(1000 + q)
    for _ in range(60):
        m, n = rng.randint(1, 5), rng.randint(1, 6)
        density = rng.choice([0.3, 0.6, 1.0])
        A = random_matrix(rng, q, m, n, density)
        v = random_matrix(rng, q, 1, n, density)[0]
        assert mat_vec(F, A, v) == entrywise_mat_vec(F, A, v)
        rows, pivots = rref(F, A)
        assert (rows, pivots) == entrywise_rref(F, A)
        assert rank(F, A) == len(entrywise_rref(F, A)[0])
        assert nullspace(F, A) == entrywise_nullspace(F, A)
        # A vector inside the row space and one (almost surely) outside it.
        inside = entrywise_combine(F, random_matrix(rng, q, 1, len(rows), 1.0), rows)
        for w in [v, list(inside[0]) if rows else v]:
            assert coords_in_rowspace(F, rows, pivots, w) == entrywise_coords(
                F, rows, pivots, w
            )
            assert reduce_mod_rowspace(F, rows, pivots, w) == entrywise_reduce(
                F, rows, pivots, w
            )
        coeffs = random_matrix(rng, q, rng.randint(0, 3), m, density)
        assert combine_rows(F, coeffs, A) == entrywise_combine(F, coeffs, A)
        # rref_join needs an upper space that vanishes on the lower pivots:
        # the RREF of vectors reduced modulo the lower space.
        B = random_matrix(rng, q, rng.randint(1, 3), n, density)
        reduced = [entrywise_reduce(F, rows, pivots, b) for b in B]
        up_rows, up_pivots = entrywise_rref(F, reduced)
        up_rows = [tuple(r) for r in up_rows]
        assert rref_join(F, rows, pivots, up_rows, up_pivots) == entrywise_join(
            F, rows, pivots, up_rows, up_pivots
        )
