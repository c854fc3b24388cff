import itertools

import pytest

import hallcanon.pbw as pbw
from hallcanon.combinatorics import (
    enumerate_msegs,
    make_cdesc,
    mseg_aperiodic,
    mseg_dim,
    mseg_end,
    mseg_extend_top,
    mseg_normalize,
)
from hallcanon.canonical import dim_f
from hallcanon.config import UnsupportedQuiverError
from hallcanon.fqrep import FieldContext
from hallcanon.hallalg import HallEngine, nindex
from hallcanon.hallpoly import HallPolyEngine
from hallcanon.laurent import ONE, LaurentPoly
from hallcanon.pbw import IndexSystem, _glued_peels, mseg_leq_G
from hallcanon.quiver import cyclic, kronecker, linear_an
from oracles import is_integral, mseg_leq_G_by_hom

V = LaurentPoly.v_power


@pytest.fixture(scope="module")
def kron_sys():
    return IndexSystem(HallEngine(kronecker()))


@pytest.fixture(scope="module")
def cyc2_sys():
    return IndexSystem(HallEngine(cyclic(2)))


def mseg(*segs):
    return mseg_normalize(segs)


def mdesc(*segs):
    return ("m", mseg_normalize(segs))


def test_leq_G_examples():
    split = mseg(((1, 1), 1), ((2, 1), 1))
    s12 = mseg(((1, 2), 1))
    s22 = mseg(((2, 2), 1))
    assert mseg_leq_G(2, split, s12)
    assert not mseg_leq_G(2, s12, split)
    assert not mseg_leq_G(2, s12, s22) and not mseg_leq_G(2, s22, s12)
    assert mseg_leq_G(2, s12, s12)


@pytest.mark.parametrize(
    "n, nu", [(1, (4,)), (2, (2, 2)), (2, (3, 2)), (3, (2, 2, 1)), (3, (1, 2, 2))]
)
def test_leq_G_matches_hom_loop(n, nu):
    # Profiles are compared on every ordered pair, and across dimension
    # vectors, where the order is never met.  A profile that stops one
    # length earlier fails every case: (3,1) and (2,2) at n = 1, for one,
    # differ only at l = 2, just below the longest segment.
    msegs = sorted({*enumerate_msegs(n, nu), *enumerate_msegs(n, nu[::-1])})
    for pi, rho in itertools.product(msegs, repeat=2):
        assert mseg_leq_G(n, pi, rho) == mseg_leq_G_by_hom(n, pi, rho), (pi, rho)


def test_enumerate_indices_kronecker(kron_sys):
    out = kron_sys.enumerate_indices((1, 1))
    split = nindex(make_cdesc(cm=((0, 1),), cp=((1, 1),)))
    reg = nindex(make_cdesc(), (1,))
    assert set(out.aperiodic) == {split, reg}
    # split is strictly smaller by the lexicographic clause
    assert kron_sys.strictly_less(split, reg)
    assert not kron_sys.strictly_less(reg, split)
    assert out.aperiodic == [split, reg]


def test_enumerate_counts_match_dim_f(kron_sys, cyc2_sys):
    for nu in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        out = kron_sys.enumerate_indices(nu)
        assert len(out.aperiodic) == dim_f(kronecker().arrows, nu)
    for nu in [(1, 1), (2, 1), (2, 2), (3, 1)]:
        out = cyc2_sys.enumerate_indices(nu)
        assert len(out.aperiodic) == dim_f(cyclic(2).arrows, nu)


def test_enumerate_indices_cyclic(cyc2_sys):
    out = cyc2_sys.enumerate_indices((1, 1))
    assert [i[0][1] for i in out.aperiodic] == [
        mseg(((1, 2), 1)),
        mseg(((2, 2), 1)),
    ] or len(out.aperiodic) == 2
    assert len(out.all_indices) == 3


def test_enumerate_zero(kron_sys):
    out = kron_sys.enumerate_indices((0, 0))
    assert out.aperiodic == [nindex(make_cdesc())]


def test_order_axioms(kron_sys):
    for nu in [(1, 1), (2, 2)]:
        idxs = kron_sys.enumerate_indices(nu).aperiodic
        for a in idxs:
            assert not kron_sys.strictly_less(a, a)
            for b in idxs:
                ab = kron_sys.strictly_less(a, b)
                ba = kron_sys.strictly_less(b, a)
                assert not (ab and ba)
                # transitivity spot check
                for c in idxs:
                    if ab and kron_sys.strictly_less(b, c):
                        assert kron_sys.strictly_less(a, c)


def test_partition_tiebreak(kron_sys):
    a = nindex(make_cdesc(), (2,))
    b = nindex(make_cdesc(), (1, 1))
    # (1,1) >lex-smaller ... larger lexicographic partition is the smaller index
    assert kron_sys.strictly_less(a, b)
    assert not kron_sys.strictly_less(b, a)


def test_ddx_words_cyclic(cyc2_sys):
    w = cyc2_sys.ddx_word(mseg(((1, 2), 1)))
    assert w == ((1, 1), (2, 1))
    w2 = cyc2_sys.ddx_word(mseg(((1, 1), 3)))
    assert w2 == ((1, 3),)
    with pytest.raises(ValueError):
        cyc2_sys.ddx_word(mseg(((1, 1), 1), ((2, 1), 1)))
    # a three-step peel
    w3 = cyc2_sys.ddx_word(mseg(((1, 3), 1)))
    assert w3 == ((1, 1), (2, 1), (1, 1))


def generic_extension(system, descM, descN):
    """The extension of M by N with minimal End, from Hall polynomials.

    A test oracle for ``mseg_extend_top``; the word search never calls it.
    """
    if descM[0] != "m" or descN[0] != "m":
        raise UnsupportedQuiverError("generic extensions implemented for cyclic quivers")
    n = system.quiver.n
    if not descN[1]:
        return descM
    if not descM[1]:
        return descN
    nu = tuple(
        a + b for a, b in zip(mseg_dim(n, descM[1]), mseg_dim(n, descN[1]))
    )
    support = []
    for pi in enumerate_msegs(n, nu):
        poly = system.engine.polyeng.hall_polynomial(("m", pi), descM, descN)
        if not poly.is_zero():
            support.append(pi)
    ends = sorted((mseg_end(n, pi), pi) for pi in support)
    assert ends, "empty extension support"
    assert len(ends) == 1 or ends[0][0] < ends[1][0], "generic extension not unique"
    return ("m", ends[0][1])


def distinguished_words(n, pi):
    """Every distinguished word of pi: each glued peel, then every word of the rest."""
    if not pi:
        return [()]
    return [
        ((i, a),) + rest
        for i, a, peeled in _glued_peels(n, pi)
        for rest in distinguished_words(n, peeled)
    ]


def test_generic_extensions(cyc2_sys):
    S1 = mdesc(((1, 1), 1))
    S2 = mdesc(((2, 1), 1))
    assert generic_extension(cyc2_sys, S1, S2) == mdesc(((1, 2), 1))
    assert generic_extension(cyc2_sys, S1, ("m", ())) == S1
    assert generic_extension(cyc2_sys, S1, S1) == mdesc(((1, 1), 2))
    split_plus = generic_extension(cyc2_sys, mdesc(((1, 1), 1), ((2, 1), 1)), S1)
    assert split_plus == mdesc(((2, 2), 1), ((1, 1), 1))


def _aperiodic_msegs(n, total):
    for nu in itertools.product(range(total + 1), repeat=n):
        if 0 < sum(nu) <= total:
            yield from (pi for pi in enumerate_msegs(n, nu) if mseg_aperiodic(n, pi))


def test_extend_top_matches_generic_extension(monkeypatch):
    # Every glue check of the word search for cyclic:2 and cyclic:3 with
    # |nu| <= 5, against the generic extension read off Hall polynomials.
    checks = set()

    def recorded(n, pi, i, a):
        checks.add((n, pi, i, a))
        return mseg_extend_top(n, pi, i, a)

    monkeypatch.setattr(pbw, "mseg_extend_top", recorded)
    systems = {n: IndexSystem(HallEngine(cyclic(n))) for n in (2, 3)}
    for n in systems:
        for pi in _aperiodic_msegs(n, 5):
            distinguished_words(n, pi)
    assert len(checks) > 300
    for n, pi, i, a in sorted(checks):
        top = ("m", mseg_normalize([((i, 1), a)]))
        expected = generic_extension(systems[n], top, ("m", pi))
        assert expected == ("m", mseg_extend_top(n, pi, i, a)), (n, pi, i, a)


def test_word_search_interpolates_nothing(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the word search reached a Hall polynomial or a field")

    systems = {n: IndexSystem(HallEngine(cyclic(n))) for n in (2, 3)}
    monkeypatch.setattr(HallPolyEngine, "hall_polynomial", forbidden)
    monkeypatch.setattr(FieldContext, "__init__", forbidden)
    for n, sys in systems.items():
        for pi in _aperiodic_msegs(n, 7):
            rebuilt = ()
            for i, a in reversed(sys.ddx_word(pi)):
                rebuilt = mseg_extend_top(n, rebuilt, i, a)
            assert rebuilt == pi


def test_monomial_expansion_cyclic(cyc2_sys):
    idx = nindex(mdesc(((1, 2), 1)))
    out = cyc2_sys.monomial_over_N(idx)
    assert out == {
        idx: ONE,
        nindex(mdesc(((1, 1), 1), ((2, 1), 1))): V(-1),
    }


def test_monomial_words_kronecker(kron_sys):
    split = nindex(make_cdesc(cm=((0, 1),), cp=((1, 1),)))
    assert kron_sys.word_for_index(split) == ((1, 1), (0, 1))
    reg = nindex(make_cdesc(), (1,))
    assert kron_sys.word_for_index(reg) == ((0, 1), (1, 1))
    # preinjective factors come largest-first
    two = nindex(make_cdesc(cp=((1, 1), (2, 1))))
    assert kron_sys.word_for_index(two) == ((0, 2), (1, 1), (0, 1))


def test_pbw_kronecker_11(kron_sys):
    data = kron_sys.pbw_basis((1, 1))
    split = nindex(make_cdesc(cm=((0, 1),), cp=((1, 1),)))
    reg = nindex(make_cdesc(), (1,))
    assert data.E[split] == {split: ONE}
    assert data.E[reg] == {reg: ONE}
    assert data.eta[reg] == {reg: ONE, split: V(-2, -1)}
    assert data.mon_over_E[reg] == {reg: ONE, split: V(-2)}


def test_pbw_cyclic_11(cyc2_sys):
    data = cyc2_sys.pbw_basis((1, 1))
    a = nindex(mdesc(((1, 2), 1)))
    b = nindex(mdesc(((2, 2), 1)))
    per = nindex(mdesc(((1, 1), 1), ((2, 1), 1)))
    assert data.E[a] == {a: ONE, per: V(-1)}
    assert data.E[b] == {b: ONE, per: V(-1)}
    assert data.eta[a] == {a: ONE}


def test_pbw_tails_are_periodic_only(cyc2_sys):
    for nu in [(2, 1), (2, 2)]:
        data = cyc2_sys.pbw_basis(nu)
        aper = set(data.order)
        for a, row in data.E.items():
            for b in row:
                if b != a:
                    assert b not in aper


def test_pbw_finite_type():
    sys = IndexSystem(HallEngine(linear_an(2)))
    data = sys.pbw_basis((1, 1))
    # In finite type every index is aperiodic, so E = N on the nose.
    for a, row in data.E.items():
        assert row == {a: ONE}


def test_ddx_word_independence():
    # Where several distinguished words exist, the PBW elements agree.
    # Non-adjacent simple tops (cyclic 4) admit both peeling orders.
    sys4 = IndexSystem(HallEngine(cyclic(4)))
    nu = (1, 0, 1, 0)
    idxset = sys4.enumerate_indices(nu)
    assert len(idxset.aperiodic) == 1
    idx = idxset.aperiodic[0]
    words = distinguished_words(4, idx[0][1])
    assert len(words) >= 2
    base = sys4.pbw_basis(nu)
    alt = _pbw_with_word(sys4, nu, idx, words[1])
    assert alt == base.E


def test_ddx_word_unique_when_tops_interact(cyc2_sys):
    for nu in [(2, 1), (2, 2)]:
        for idx in cyc2_sys.enumerate_indices(nu).aperiodic:
            words = distinguished_words(2, idx[0][1])
            assert len(words) >= 1
            # every valid word produces a valid unitriangular expansion
            for w in words:
                assert_unitriangular(cyc2_sys, idx, cyc2_sys.engine.generic_word(w))


def assert_unitriangular(sys, idx, out):
    """The checks ``monomial_over_N`` makes on the expansion of idx's word."""
    assert out.get(idx) == ONE
    for b, coeff in out.items():
        if b != idx:
            assert is_integral(coeff)
            assert sys.strictly_less(b, idx)


def _pbw_with_word(sys, nu, special_idx, word):
    order = sys.enumerate_indices(nu).aperiodic
    mon = {a: sys.monomial_over_N(a) for a in order}
    mon[special_idx] = sys.engine.generic_word(word)
    assert_unitriangular(sys, special_idx, mon[special_idx])
    E = {}
    for pos, a in enumerate(order):
        cur = dict(mon[a])
        for b in order[:pos]:
            phi = mon[a].get(b)
            if not phi:
                continue
            for idx2, c in E[b].items():
                s = cur.get(idx2, ZERO_) - phi * c
                if s:
                    cur[idx2] = s
                else:
                    cur.pop(idx2, None)
        E[a] = cur
    return E


from hallcanon.laurent import ZERO as ZERO_  # noqa: E402


def test_pbw_kronecker_22_runs(kron_sys):
    data = kron_sys.pbw_basis((2, 2))
    assert len(data.order) == 6
    for a in data.order:
        assert data.E[a].get(a) == ONE


def test_dimvec_word_single_vertex(kron_sys):
    assert kron_sys.dimvec_word((3, 0)) == ((0, 3),)
    assert kron_sys.dimvec_word((0, 2)) == ((1, 2),)
    split = nindex(make_cdesc(cm=((0, 1),), cp=((1, 1),)))
    assert kron_sys.word_for_index(split) == ((1, 1), (0, 1))
    # the homogeneous pieces come largest part first
    reg = nindex(make_cdesc(), (2, 1))
    assert kron_sys.word_for_index(reg) == ((0, 2), (1, 2), (0, 1), (1, 1))


def test_pbw_basis_refuses_a_negative_entry_on_every_call(kron_sys):
    # A call that raises leaves nothing in the memo.
    for _ in range(2):
        with pytest.raises(ValueError):
            kron_sys.pbw_basis((1, -1))
    assert kron_sys.pbw_basis((1, 1)) is kron_sys.pbw_basis((1, 1))
