from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallcanon.laurent import ONE, ZERO, LaurentPoly, RationalFn, add_scaled
from oracles import (
    eval_sqrt,
    expand_at_infinity,
    in_delta_plus_tail,
    qbinom,
    qfact,
    qint,
    sum_in_delta_plus_tail,
)

V = LaurentPoly.v_power

laurents = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-9, max_value=9),
    max_size=5,
).map(LaurentPoly)


def test_qint_small():
    assert qint(0) == ZERO
    assert qint(1) == ONE
    assert qint(2) == LaurentPoly({1: 1, -1: 1})
    assert qint(3) == LaurentPoly({2: 1, 0: 1, -2: 1})
    assert qint(-3) == -qint(3)


def test_qfact_zero_is_one():
    assert qfact(0) == ONE
    assert qfact(3) == qint(1) * qint(2) * qint(3)


def test_qbinom_examples():
    assert qbinom(5, 0) == ONE
    assert qbinom(4, 2) == LaurentPoly({4: 1, 2: 1, 0: 2, -2: 1, -4: 1})
    with pytest.raises(ValueError):
        qbinom(2, 3)
    with pytest.raises(ValueError):
        qbinom(-1, 0)


def test_pascal_identity_up_to_8():
    for m in range(8):
        for n in range(1, m + 1):
            lhs = qbinom(m + 1, n)
            rhs = V(n) * qbinom(m, n) + LaurentPoly.v_power(-m + n - 1) * qbinom(m, n - 1)
            assert lhs == rhs


def test_qbinom_nonnegative_and_symmetric():
    for m in range(11):
        for n in range(m + 1):
            p = qbinom(m, n)
            assert all(isinstance(c, int) and c > 0 for c in p.terms.values())
            assert p.bar() == p


def test_bar_examples():
    assert LaurentPoly({2: 1, 0: 3}).bar() == LaurentPoly({-2: 1, 0: 3})
    assert qbinom(4, 2).bar() == qbinom(4, 2)


@given(laurents, laurents)
def test_bar_is_ring_involution(p, r):
    assert p.bar().bar() == p
    assert (p * r).bar() == p.bar() * r.bar()
    assert (p + r).bar() == p.bar() + r.bar()


@given(laurents, laurents, laurents)
@settings(max_examples=200)
def test_ring_axioms(p, r, s):
    assert (p + r) + s == p + (r + s)
    assert (p * r) * s == p * (r * s)
    assert p * (r + s) == p * r + p * s
    assert p * r == r * p


@given(laurents)
def test_field_zero_test_is_the_exact_value_at_sqrt_q(p):
    # FieldElement.is_zero_specialized scales by a power of q and tests
    # integers; the oracle evaluates with Fractions.  They agree on p, and
    # both find p (v^2 - q) zero, at square and non-square q.
    from hallcanon.combinatorics import CombinatorialContext
    from hallcanon.hallalg import FieldElement
    from hallcanon.quiver import cyclic

    for q in (2, 3, 4, 9):
        ctx = CombinatorialContext(cyclic(2), q)
        assert FieldElement(ctx, {("m", ()): p}).is_zero_specialized() == (
            eval_sqrt(p, q) == (0, 0)
        )
        assert FieldElement(ctx, {("m", ()): p * (V(2) - q)}).is_zero_specialized()


def _sqrt_mul(x, y, q):
    return (x[0] * y[0] + x[1] * y[1] * q, x[0] * y[1] + x[1] * y[0])


@given(laurents, laurents)
def test_evaluation_homomorphism(p, r):
    for q in (4, 9, 25):
        lhs = eval_sqrt(p * r, q)
        rhs = _sqrt_mul(eval_sqrt(p, q), eval_sqrt(r, q), q)
        assert lhs == tuple(rhs)


def test_exact_div_and_guard():
    p = qfact(4)
    d = qfact(2) * qfact(2)
    assert p.exact_div(d) == qbinom(4, 2)
    with pytest.raises(ArithmeticError):
        (V(1) + ONE).exact_div(V(1) - ONE)


def test_bar_fold():
    p = LaurentPoly({3: 2, 0: 5, -1: 7})
    f = p.bar_fold()
    assert f == LaurentPoly({3: 2, -3: 2, 0: 5})
    assert (p - f).in_vinv_Z()


def test_text_and_json_roundtrip():
    p = LaurentPoly({-2: 3, 0: 1, 5: 1})
    assert p.text() == "3*v^-2 + 1 + v^5"
    assert LaurentPoly.from_json(p.to_json()) == p
    assert ZERO.text() == "0"


@pytest.mark.parametrize(
    "data",
    [
        # not a list
        None,
        5,
        "1",
        {"0": "1"},
        ((0, "1"),),
        # a term that is not a two-item list
        [5],
        [None],
        [[0]],
        [[0, "1", 2]],
        [(0, "1")],
        # a bool or non-int exponent
        [[True, "1"]],
        [[1.0, "1"]],
        [["0", "1"]],
        # a coefficient that is not a canonical nonzero decimal string
        [[0, None]],
        [[0, 1]],
        [[0, ["1"]]],
        [[0, "0"]],
        [[0, "-0"]],
        [[0, "01"]],
        [[0, "+1"]],
        [[0, " 1"]],
        [[0, "1\n"]],
        [[0, "1.0"]],
        [[0, "\u0661"]],
        # exponents not strictly ascending
        [[1, "1"], [0, "1"]],
        [[0, "1"], [0, "2"]],
    ],
)
def test_from_json_rejects_malformed_data(data):
    with pytest.raises(ValueError):
        LaurentPoly.from_json(data)


def test_series_geometric():
    f = RationalFn(ONE, ONE - LaurentPoly.v_power(-2))
    assert expand_at_infinity(f, -4) == {0: 1, -2: 1, -4: 1}
    assert in_delta_plus_tail(f, 1)


def test_series_rewritten_geometric():
    f = RationalFn(V(2), V(2) - ONE)
    assert expand_at_infinity(f, -4) == {0: 1, -2: 1, -4: 1}
    assert in_delta_plus_tail(f, 1)


def test_series_long_division_example():
    f = RationalFn(V(1), V(1) - ONE)
    assert expand_at_infinity(f, -5) == {-k: 1 for k in range(6)}
    assert in_delta_plus_tail(f, 1)


def test_series_positive_part_detected():
    f = RationalFn(V(3), V(1) - ONE)
    assert max(expand_at_infinity(f, 0)) == 2
    assert not in_delta_plus_tail(f, 1)


def test_expand_at_infinity_from_top_exponent():
    f = RationalFn(V(3), V(1) - ONE)  # v^2 + v + 1 + v^-1 + ...
    assert expand_at_infinity(f, -2) == {2: 1, 1: 1, 0: 1, -1: 1, -2: 1}
    assert expand_at_infinity(f, 1) == {2: 1, 1: 1}
    assert expand_at_infinity(f, 3) == {}
    g = RationalFn(ONE, V(2, 2) - 2 * ONE)  # (v^-2 + v^-4 + ...) / 2
    assert expand_at_infinity(g, -5) == {-2: Fraction(1, 2), -4: Fraction(1, 2)}
    assert expand_at_infinity(RationalFn(ZERO), -5) == {}


@settings(max_examples=60, deadline=None)
@given(laurents, laurents.filter(bool), st.integers(-8, 8))
def test_expand_at_infinity_multiplies_back(num, den, lowest):
    # f - E = O(v^(lowest-1)), so num - den*E has no term at v^(lowest + deg den) or above.
    f = RationalFn(num, den)
    rest = f.num - f.den * LaurentPoly(expand_at_infinity(f, lowest))
    assert all(e < lowest + f.den.degree() for e in rest.terms)


def _summed(terms):
    # Term by term; the oracle adds numerators over equal denominators first.
    out = RationalFn(ZERO)
    for c, f in terms:
        out = out + RationalFn(c) * f
    return out


POS = RationalFn(V(2), V(1) - ONE)  # v + 1 + v^-1 + ...
TAIL = RationalFn(ONE, V(2) - ONE)  # v^-2 + v^-4 + ...


@pytest.mark.parametrize(
    "terms, delta, expected",
    [
        # positive parts cancel between terms
        ([(ONE, POS), (-ONE, RationalFn(V(1)))], 1, True),
        ([(V(3), TAIL), (-ONE, RationalFn(V(1))), (LaurentPoly.v_power(-1), POS)], 1, True),
        # a positive part is left over
        ([(ONE, POS)], 1, False),
        ([(ONE, POS), (-ONE, RationalFn(V(1))), (V(3), TAIL)], 1, False),
        # the v^0 coefficient is not delta
        ([(2 * ONE, RationalFn(V(1), V(1) - ONE))], 1, False),
        ([(2 * ONE, RationalFn(V(1), V(1) - ONE))], 0, False),
        ([(2 * ONE, RationalFn(V(1), V(1) - ONE))], 2, True),
        ([(V(1), TAIL)], 0, True),
        # the empty combination is 0
        ([], 0, True),
        ([], 1, False),
        # top exponents cancel, then what is left decides
        ([(V(3), RationalFn(V(50))), (-ONE, RationalFn(V(53), ONE))], 0, True),
        ([(V(3), RationalFn(V(50))), (-ONE, RationalFn(V(53) + V(1), ONE))], 0, False),
        ([(V(3), RationalFn(V(50))), (-ONE, RationalFn(V(53) - ONE, ONE))], 1, True),
    ],
)
def test_sum_in_delta_plus_tail_matches_summed_function(terms, delta, expected):
    assert sum_in_delta_plus_tail(terms, delta) is expected
    assert in_delta_plus_tail(_summed(terms), delta) is expected


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(laurents, laurents, laurents.filter(bool)), max_size=4),
    st.sampled_from([0, 1]),
)
def test_sum_in_delta_plus_tail_property(raw, delta):
    terms = [(c, RationalFn(num, den)) for c, num, den in raw]
    assert sum_in_delta_plus_tail(terms, delta) == in_delta_plus_tail(_summed(terms), delta)
    # Cancel the sum's part at v^0 and above, so that it lands in delta + tail.
    head = LaurentPoly(expand_at_infinity(_summed(terms), 0))
    fixed = terms + [(ONE, RationalFn(LaurentPoly.const(delta) - head))]
    assert sum_in_delta_plus_tail(fixed, delta)
    assert in_delta_plus_tail(_summed(fixed), delta)


def test_in_vinv_Z():
    assert LaurentPoly({-1: 2, -3: -5}).in_vinv_Z()
    assert not LaurentPoly({0: 1, -1: 2}).in_vinv_Z()


def test_rationalfn_equality_cross_mul():
    a = RationalFn(V(2) - ONE, V(1) - ONE)
    b = RationalFn(V(1) + ONE)
    assert a == b
    assert a + b == 2 * b
    c = RationalFn(V(1) - ONE, V(1) + ONE)
    assert a * c == RationalFn(V(1) - ONE) * RationalFn(V(1) + ONE) * RationalFn(ONE, V(1) + ONE)


def test_rationalfn_bar():
    # The bar image of v^2 / (v^2 - 1), built from its barred parts.
    g = RationalFn(V(2).bar(), (V(2) - ONE).bar())
    assert g == RationalFn(LaurentPoly.v_power(-2), LaurentPoly.v_power(-2) - ONE)
    assert g == RationalFn(ONE, ONE - V(2))


def test_from_q_poly():
    p = LaurentPoly.from_q_poly([1, 1])  # 1 + q
    assert p == ONE + V(2)
    assert LaurentPoly.from_q_poly([0, 1], shift=-1) == V(1)


def test_exact_div_is_over_Z():
    # (v + 1) / (2v + 2) is 1/2 over Q, which is not in Z[v, v^-1].
    p = V(1) + ONE
    with pytest.raises(ArithmeticError):
        p.exact_div(2 * p)
    assert (2 * p).exact_div(p) == LaurentPoly.const(2)


rows = st.dictionaries(st.sampled_from("abcd"), laurents, max_size=4)


@given(rows, rows, laurents)
@settings(max_examples=200, deadline=None)
def test_add_scaled_matches_sum_of_products(acc, row, c):
    # add_scaled sums into copies in place; the reference builds c * x and
    # acc[k] + c * x as polynomials, and neither input row changes.
    acc = {k: x for k, x in acc.items() if x}
    row = {k: x for k, x in row.items() if x}
    before = {k: dict(x.terms) for k, x in acc.items()}
    expected = dict(acc)
    for k, x in row.items():
        s = expected.get(k, ZERO) + c * x
        if s:
            expected[k] = s
        else:
            expected.pop(k, None)
    out = add_scaled(dict(acc), row, c)
    assert out == expected
    assert all(x for x in out.values())
    assert {k: x.terms for k, x in acc.items()} == before
