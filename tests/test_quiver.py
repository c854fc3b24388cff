import random
from fractions import Fraction
from math import gcd

import pytest

from hallcanon.canonical import dim_f
from hallcanon.config import UnsupportedQuiverError
from hallcanon.quiver import (
    AdmissibleSequence,
    Quiver,
    cyclic,
    from_spec,
    kronecker,
    linear_an,
    _id_cols,
    _integer_kernel,
    _mul_cols,
)
from oracles import positive_roots_below, reflect


def defect(Q, nu) -> int:
    """Euler pairing <delta, nu>; the sign classifies AR components."""
    return Q.euler_form(Q.delta(), nu)


def _word_is_reduced(Q: Quiver, word) -> bool:
    """Check that s_{word[0]} ... s_{word[-1]} is reduced in the Weyl group.

    Build u from the right; prepending s_i raises the length exactly when
    u^-1(alpha_i) is a positive root.
    """
    cols = _id_cols(Q.n)  # columns of u^-1
    for i in reversed(word):
        if any(x < 0 for x in cols[i]):
            return False
        cols = _mul_cols(Q, cols, i)  # u <- s_i u, hence u^-1 <- u^-1 s_i
    return True


def is_reduced_window(seq, r: int, t: int) -> bool:
    """Is s_{i_r} s_{i_{r+1}} ... s_{i_t} reduced (r <= t)?"""
    word = [seq.vertex(u) for u in range(r, t + 1)]
    return _word_is_reduced(seq.quiver, word)


def is_adapted_window(seq, depth: int) -> bool:
    """Sink/source admissibility for |t| <= depth (holds by construction)."""
    for side in "-+":
        chain = seq.reflected_quiver_chain(depth, side)
        st = seq._neg if side == "-" else seq._pos
        for k, i in enumerate(st["verts"][:depth]):
            q = chain[k]
            if side == "-" and not q.is_sink(i):
                return False
            if side == "+" and not q.is_source(i):
                return False
    return True


def test_euler_form_examples():
    K = kronecker()
    assert K.euler_form((1, 0), (0, 1)) == -2
    assert K.euler_form((1, 1), (0, 0)) == 0
    C2 = cyclic(2)
    assert C2.euler_form((1, 0), (0, 1)) == -1


def test_symmetric_form_orientation_independent():
    rng = random.Random(7)
    for Q in (kronecker(), cyclic(3), linear_an(3, ">><"[0:2])):
        R = Q.opposite()
        for _ in range(50):
            nu = tuple(rng.randrange(0, 5) for _ in range(Q.n))
            nu2 = tuple(rng.randrange(0, 5) for _ in range(Q.n))
            assert Q.symmetric_form(nu, nu2) == R.symmetric_form(nu, nu2)


def test_delta_and_defect():
    K = kronecker()
    assert K.delta() == (1, 1)
    assert defect(K, (0, 1)) == -1
    assert defect(K, (1, 0)) == 1
    assert defect(K, K.delta()) == 0
    for n in (2, 3, 4):
        assert cyclic(n).delta() == tuple([1] * n)
    with pytest.raises(UnsupportedQuiverError):
        linear_an(2).delta()


def test_reflect():
    K = kronecker()
    assert reflect(K, 1, (1, 0)) == (1, 2)
    for i in range(2):
        e = tuple(1 if j == i else 0 for j in range(2))
        assert reflect(K, i, e) == tuple(-x for x in e)
    rng = random.Random(3)
    for _ in range(100):
        nu = tuple(rng.randrange(-4, 5) for _ in range(2))
        i = rng.randrange(2)
        assert reflect(K, i, reflect(K, i, nu)) == nu
        nu2 = tuple(rng.randrange(-4, 5) for _ in range(2))
        assert K.symmetric_form(reflect(K, i, nu), reflect(K, i, nu2)) == K.symmetric_form(nu, nu2)


def test_delta_orthogonality():
    for Q in (kronecker(), cyclic(2), cyclic(3)):
        d = Q.delta()
        for i in range(Q.n):
            e = tuple(1 if j == i else 0 for j in range(Q.n))
            assert Q.symmetric_form(d, e) == 0


def test_admissible_sequence_kronecker():
    K = kronecker()
    seq = AdmissibleSequence(K)
    # Vertex 1 is the sink, so i_0 = index of the sink.
    assert K.vertices[seq.vertex(0)] == 1
    assert K.vertices[seq.vertex(1)] == 0
    assert seq.beta(0) == (0, 1)
    assert seq.beta(-1) == (1, 2)
    assert seq.beta(1) == (1, 0)
    assert seq.beta(2) == (2, 1)


def test_beta_distinct_and_defects():
    seq = AdmissibleSequence(kronecker())
    K = kronecker()
    seen = set()
    for t in range(-20, 21):
        b = seq.beta(t)
        assert b not in seen
        seen.add(b)
        if t <= 0:
            assert defect(K, b) == -1
        else:
            assert defect(K, b) == 1


@pytest.mark.parametrize("Q", [kronecker(), linear_an(4)], ids=["kronecker", "an4"])
def test_beta_ranges_are_walked_once_per_bound(Q):
    # A range is an immutable tuple, memoized per bound, so a caller cannot
    # change what the next caller reads.
    seq = AdmissibleSequence(Q)
    for walk in (seq.preprojective_range, seq.preinjective_range):
        first = walk((2,) * Q.n)
        assert isinstance(first, tuple)
        assert walk([2] * Q.n) is first


def test_beta_matches_root_enumeration():
    # beta enumerates positive real roots without repetition within a box.
    K = kronecker()
    seq = AdmissibleSequence(K)
    bound = (6, 6)
    real, imag = positive_roots_below(K, bound)
    betas = {seq.beta(t) for t in seq.preprojective_range(bound)}
    betas |= {seq.beta(t) for t in seq.preinjective_range(bound)}
    assert betas == set(real)
    assert set(imag) == {(m, m) for m in range(1, 7)}


def test_admissible_windows_affine():
    K = kronecker()
    seq = AdmissibleSequence(K)
    assert is_adapted_window(seq, 3 * K.n)
    assert is_reduced_window(seq, -2 * K.n + 1, 0)
    assert is_reduced_window(seq, 1, 2 * K.n)


def test_admissible_windows_finite():
    for Q, nroots in ((linear_an(2), 3), (linear_an(3), 6), (linear_an(3, "<>"), 6)):
        seq = AdmissibleSequence(Q)
        # The negative side enumerates every positive root exactly once.
        betas = [seq.beta(-s) for s in range(nroots)]
        assert len(set(betas)) == nroots
        real, imag = positive_roots_below(Q, tuple([1] * Q.n) if Q.n == 2 else (1, 1, 1))
        assert set(betas) == set(real)
        assert not imag
        assert is_reduced_window(seq, -nroots + 1, 0)
        with pytest.raises(IndexError):
            seq.beta(-nroots)


def test_nonreduced_word_detected():
    A2 = linear_an(2)
    # s_1 s_2 s_1 s_2 has length 2 in the A_2 Weyl group.
    assert _word_is_reduced(A2, [0, 1, 0])
    assert not _word_is_reduced(A2, [0, 1, 0, 1])


def test_finite_type_beta_exhausts():
    A2 = linear_an(2)
    seq = AdmissibleSequence(A2)
    roots = [seq.beta(t) for t in (0, -1, -2)]
    assert sorted(roots) == [(0, 1), (1, 0), (1, 1)]
    with pytest.raises(IndexError):
        seq.beta(-3)


def test_cyclic_has_no_admissible_sequence():
    with pytest.raises(UnsupportedQuiverError):
        AdmissibleSequence(cyclic(2))


def test_dim_f_values():
    K = kronecker()
    assert dim_f(K.arrows, (1, 1)) == 2
    assert dim_f(K.arrows, (2, 1)) == 3
    assert dim_f(K.arrows, (2, 2)) == 6
    C2 = cyclic(2)
    assert dim_f(C2.arrows, (1, 1)) == 2
    A2 = linear_an(2)
    assert dim_f(A2.arrows, (1, 1)) == 2
    assert dim_f(A2.arrows, (2, 1)) == 2


def _rank(mat) -> int:
    rows = [[Fraction(x) for x in row] for row in mat]
    rank = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("shape", [(2, 4), (3, 5)])
def test_integer_kernel_of_rectangular_rational_matrices(shape):
    # Besides square integer Cartan matrices, the kernel serves the wide
    # rational systems of hallpoly.fit_rational_function.
    m, n = shape
    rng = random.Random(m * n)
    for trial in range(20):
        mat = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)] for _ in range(m)]
        if trial % 4 == 0:
            mat[-1] = [2 * x for x in mat[0]]  # rank below m
        ker = _integer_kernel(mat)
        assert len(ker) == n - _rank(mat)
        for vec in ker:
            assert all(type(x) is int for x in vec)
            assert gcd(*vec) == 1
            assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in mat)


def test_from_spec_and_json_roundtrip():
    for spec in ("kronecker", "jordan", "cyclic:3", "an:2", "an:3:<>"):
        Q = from_spec(spec)
        R = Quiver.from_json(Q.to_json())
        assert R == Q
    with pytest.raises(UnsupportedQuiverError):
        from_spec("nope")


def test_finite_type_recognition():
    assert linear_an(2).is_finite_type()
    assert not kronecker().is_finite_type()
    assert not cyclic(2).is_finite_type()
    assert kronecker().is_affine()
    assert cyclic(3).is_affine()
    assert not linear_an(3).is_affine()


def test_beta_enumeration_affine_a2_acyclic():
    # Acyclic orientation of the affine A_2 triangle: the beta chain
    # enumerates exactly the positive real roots of nonzero defect (the
    # defect-zero real roots live in non-homogeneous tubes).
    Q = Quiver((1, 2, 3), [(1, 2), (2, 3), (1, 3)])
    assert Q.is_affine()
    assert Q.delta() == (1, 1, 1)
    seq = AdmissibleSequence(Q)
    bound = (4, 4, 4)
    real, imag = positive_roots_below(Q, bound)
    betas = {seq.beta(t) for t in seq.preprojective_range(bound)}
    betas |= {seq.beta(t) for t in seq.preinjective_range(bound)}
    assert betas == {r for r in real if defect(Q, r) != 0}
    assert all(defect(Q, r) == 0 for r in set(real) - betas)
    assert set(imag) == {(m, m, m) for m in range(1, 5)}
    # no repetitions across a window
    collected = [seq.beta(t) for t in range(-30, 0)] + [
        seq.beta(t) for t in range(1, 31)
    ]
    assert len(collected) == len(set(collected))


# In finite type the adapted sequence is not periodic and the simple
# injectives come last: on A6 the simple e_1 is beta_-20, and on this D5 it is
# beta_-18.  Any horizon guessed from |nu| misses such roots.
DYNKIN_ORIENTATIONS = [
    linear_an(6),
    linear_an(6, "<><><"),
    Quiver((1, 2, 3, 4, 5), [(1, 2), (2, 3), (3, 4), (5, 3)]),
    Quiver((1, 2, 3, 4, 5, 6), [(1, 2), (2, 3), (3, 4), (4, 5), (4, 6)]),
    Quiver((1, 2, 3, 4, 5, 6), [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6)]),
    Quiver((1, 2, 3, 4, 5, 6), [(2, 1), (3, 2), (3, 4), (5, 4), (3, 6)]),
]


@pytest.mark.parametrize("Q", DYNKIN_ORIENTATIONS, ids=["A6", "A6alt", "D5", "D6", "E6", "E6alt"])
def test_finite_beta_ranges_reach_every_root(Q):
    seq = AdmissibleSequence(Q)
    for walk in (seq.preprojective_range, seq.preinjective_range):
        ts = walk((9,) * Q.n)
        betas = [seq.beta(t) for t in ts]
        real, _ = positive_roots_below(Q, tuple(map(max, zip(*betas))))
        assert sorted(betas) == sorted(real)
        for t in ts:
            assert t in walk(seq.beta(t))


def test_from_spec_json_inline_and_file(tmp_path):
    import json

    Q = from_spec('{"vertices": [0, 1], "arrows": [[0, 1], [0, 1]]}')
    assert Q == kronecker()
    path = tmp_path / "q.json"
    path.write_text(json.dumps(cyclic(3).to_json()))
    assert from_spec(f"@{path}") == cyclic(3)
