import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallcanon.cli import main as cli_main
from hallcanon.combinatorics import make_cdesc, mseg_end, mseg_normalize
from hallcanon.config import BarSolveError, BundleFormatError, memoized
from hallcanon.hallalg import HallEngine, nindex
from hallcanon.laurent import (
    ONE,
    ZERO,
    LaurentPoly,
    RationalFn,
    invert_unitriangular,
    row_times,
)
from hallcanon.canonical import (
    CanonicalSolver,
    _bundle_gram,
    _bundle_rows,
    dim_f,
    gram_almost_orthonormal,
    latex_table,
    lusztig_solve,
    verify_bundle,
    zeta_matrix,
)
from hallcanon.pbw import IndexSystem
from hallcanon.quiver import cyclic, from_spec, kronecker, linear_an
from oracles import (
    bar_squares_to_one,
    gram_C_almost_orthonormal,
    is_integral,
    monomial_forgery,
    pbw_forgery,
)
from test_bundle_digests import DIGESTS

V = LaurentPoly.v_power


@pytest.fixture(scope="module")
def kron():
    return CanonicalSolver(IndexSystem(HallEngine(kronecker())))


@pytest.fixture(scope="module")
def cyc2():
    return CanonicalSolver(IndexSystem(HallEngine(cyclic(2))))


@pytest.fixture(scope="module")
def cyc2_bundle(cyc2):
    return json.dumps(cyc2.bundle((2, 2)))


def mdesc(*segs):
    return ("m", mseg_normalize(segs))


def test_kronecker_tables_script_runs():
    script = Path(__file__).resolve().parents[1] / "scripts" / "kronecker_tables.py"
    env = {k: v for k, v in os.environ.items() if k != "HALLCANON_CACHE"}
    run = subprocess.run(
        [sys.executable, str(script), "--max", "1"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    heads = [line for line in run.stdout.splitlines() if line.startswith("== nu")]
    assert len(heads) == 3
    assert all(line.endswith("ok=True)") for line in heads)


def test_invert_unitriangular():
    order = ["a", "b"]
    rows = {"a": {"a": ONE}, "b": {"b": ONE, "a": V(2)}}
    inv = invert_unitriangular(order, rows)
    assert inv["b"] == {"b": ONE, "a": V(2, -1)}


def test_lusztig_solve_2x2_example():
    order = ["a", "b"]
    zeta = {"a": {"a": ONE}, "b": {"b": ONE, "a": V(1) - V(-1)}}
    g = lusztig_solve(order, zeta)
    assert g["b"] == {"b": ONE, "a": V(-1, -1)}
    # zeta = 0 gives C = E
    g0 = lusztig_solve(order, {"a": {"a": ONE}, "b": {"b": ONE}})
    assert g0["b"] == {"b": ONE}


def test_lusztig_solve_rejects_bad_system():
    order = ["a", "b"]
    zeta = {"a": {"a": ONE}, "b": {"b": ONE, "a": V(1)}}  # not anti-self-dual
    with pytest.raises(BarSolveError):
        lusztig_solve(order, zeta)


def test_canonical_cyclic2_11(cyc2):
    data = cyc2.solve((1, 1))
    a = nindex(mdesc(((1, 2), 1)))
    b = nindex(mdesc(((2, 2), 1)))
    # Both monomials are bar invariant: C equals the monomial u_1 u_2 / u_2 u_1.
    assert data.C_over_mon[a] == {a: ONE}
    assert data.C_over_mon[b] == {b: ONE}
    report = cyc2.verify((1, 1), data)
    assert report["ok"]


def test_canonical_kronecker_11(kron):
    data = kron.solve((1, 1))
    split = nindex(make_cdesc(cm=((0, 1),), cp=((1, 1),)))
    reg = nindex(make_cdesc(), (1,))
    # C(split) = <S_1>*<S_0>, C(reg) = u_0 u_1, both single monomials.
    assert data.C_over_mon[split] == {split: ONE}
    assert data.C_over_mon[reg] == {reg: ONE}
    assert data.g[reg] == {reg: ONE, split: V(-2)}
    report = kron.verify((1, 1), data)
    assert report["ok"]


def test_canonical_a2(kron):
    solver = CanonicalSolver(IndexSystem(HallEngine(linear_an(2))))
    data = solver.solve((1, 1))
    assert all(row == {a: ONE} for a, row in data.C_over_mon.items())
    report = solver.verify((1, 1), data)
    assert report["ok"]
    # |G^a| <= 4 dimensions
    for nu in [(1, 0), (2, 1), (2, 2)]:
        assert solver.verify(nu)["ok"]


def test_truncation_matches_lusztig(cyc2, kron):
    # The reference solve of g = g-bar * zeta, carried to the monomials, is
    # the truncation.
    for solver, dims in ((cyc2, [(1, 1), (2, 1)]), (kron, [(1, 1), (2, 1)])):
        for nu in dims:
            pbw = solver.system.pbw_basis(nu)
            g = lusztig_solve(pbw.order, zeta_matrix(pbw.order, pbw.eta, pbw.mon_over_E))
            assert solver.truncation(nu) == {a: row_times(g[a], pbw.eta) for a in pbw.order}


@pytest.mark.parametrize(
    "spec, dim",
    [(q, d) for q, d, _ in DIGESTS] + [("cyclic:2", "4,3")],
    ids=[f"{q} {d}" for q, d, _ in DIGESTS] + ["cyclic:2 4,3"],
)
def test_reference_solve_and_basis_count_on_digest_bundles(spec, dim):
    # The bar involution squares to 1 in PBW coordinates, Lusztig's
    # unitriangular solve gives the g that the truncation built, and the
    # bundle's indices are dim f_nu distinct ones (no count on the Jordan
    # quiver, which has a loop and empty bundles).
    nu = tuple(map(int, dim.split(",")))
    solver = CanonicalSolver(IndexSystem(HallEngine(from_spec(spec))))
    report = verify_bundle(json.loads(json.dumps(solver.bundle(nu))))
    assert report["ok"]
    assert report["distinct_indices_dim_f"] is (None if spec == "jordan" else True)
    data = solver.solve(nu)
    assert bar_squares_to_one(data.pbw.order, data.zeta)
    assert lusztig_solve(data.pbw.order, data.zeta) == data.g


@pytest.mark.parametrize("spec, nu", [("kronecker", (2, 1)), ("cyclic:2", (2, 2))])
def test_bundle_runs_the_truncation_once_and_no_reference_solve(monkeypatch, spec, nu):
    import hallcanon.canonical

    def refuse(*args):
        raise AssertionError("lusztig_solve ran")

    runs = []
    truncation = CanonicalSolver.truncation.__wrapped__

    def counted(self, nu):
        runs.append(nu)
        return truncation(self, nu)

    monkeypatch.setattr(hallcanon.canonical, "lusztig_solve", refuse)
    monkeypatch.setattr(CanonicalSolver, "truncation", memoized(counted))
    bundle = CanonicalSolver(IndexSystem(HallEngine(from_spec(spec)))).bundle(nu)
    assert bundle["certificates"]["ok"] and bundle["certificates"]["truncation_agrees"]
    assert runs == [nu]


def test_canonical_cyclic3_111():
    solver = CanonicalSolver(IndexSystem(HallEngine(cyclic(3))))
    report = solver.verify((1, 1, 1))
    assert report["ok"]


@pytest.mark.parametrize(
    "labels, nu", [((0, 1), (2, 2)), (("a", "b"), (2, 2)), ((0, 1, 2), (2, 2, 1))]
)
def test_relabelled_cyclic_quiver_gives_the_cyclic_bundle(labels, nu):
    # A cyclic quiver's labels name its vertices; the multisegments count
    # positions 1..n.  Only the quiver and the words' letters may differ.
    n = len(labels)
    arrows = [[labels[i], labels[(i + 1) % n]] for i in range(n)]
    spec = {"vertices": list(labels), "arrows": arrows}
    got = CanonicalSolver(IndexSystem(HallEngine(from_spec(json.dumps(spec))))).bundle(nu)
    ref = CanonicalSolver(IndexSystem(HallEngine(cyclic(n)))).bundle(nu)
    assert got["certificates"]["ok"] and verify_bundle(json.loads(json.dumps(got)))["ok"]
    rename = dict(zip(range(1, n + 1), labels))
    assert got["monomial_words"] == [
        [[rename[i], a] for i, a in word] for word in ref["monomial_words"]
    ]
    assert got["quiver"] == spec
    ignored = {"quiver", "quiver_name", "monomial_words"}
    assert {k: v for k, v in got.items() if k not in ignored} == {
        k: v for k, v in ref.items() if k not in ignored
    }


@pytest.mark.parametrize(
    "n, nu", [(3, (1, 3, 2)), (3, (2, 1, 3)), (3, (3, 2, 1)), (2, (2, 4))]
)
def test_canonical_certified_where_words_need_partial_peels(n, nu):
    # Each of these dimension vectors has an aperiodic multisegment (such as
    # [1;2]+[2;1]+[2;3] at cyclic:2 (2,4)) whose distinguished word peels
    # only the longer segments at some vertex.
    solver = CanonicalSolver(IndexSystem(HallEngine(cyclic(n))))
    assert solver.verify(nu)["ok"]


# D4 with its centre a sink, given as a JSON spec.  Its preprojectives are
# the only ones not thin: building the (1,2,1,1) one takes '-' reflections
# at the centre into dimension 2.
D4_SPEC = '{"vertices":[1,2,3,4],"arrows":[[1,2],[3,2],[4,2]]}'


@pytest.mark.parametrize("dim", ["1,1,1,1", "1,2,1,1"])
def test_canonical_d4_from_json_spec(tmp_path, dim):
    out = tmp_path / "bundle.json"
    args = ["canonical", "--quiver", D4_SPEC, "--dim", dim, "--out", str(out)]
    assert cli_main(args) == 0
    bundle = json.loads(out.read_text())
    assert bundle["certificates"]["ok"]
    nu = tuple(map(int, dim.split(",")))
    assert len(bundle["indices"]) == dim_f(from_spec(D4_SPEC).arrows, nu)


# Dynkin cases whose indices use roots late in the finite sequence: the
# simple e_1 of A6 is beta_-20, and the E6 indices at (0,1,1,1,0,0) reach
# t = -33.
@pytest.mark.parametrize(
    "spec,dim",
    [
        ("an:6", "1,0,0,0,0,0"),
        ('{"vertices":[1,2,3,4,5],"arrows":[[1,2],[2,3],[3,4],[5,3]]}', "1,1,1,1,1"),
        ('{"vertices":[1,2,3,4,5,6],"arrows":[[1,2],[2,3],[3,4],[4,5],[4,6]]}', "0,1,1,1,1,0"),
        ('{"vertices":[1,2,3,4,5,6],"arrows":[[1,2],[2,3],[3,4],[4,5],[3,6]]}', "0,1,1,1,0,0"),
    ],
)
def test_canonical_dynkin_late_roots(tmp_path, spec, dim):
    out = tmp_path / "bundle.json"
    assert cli_main(["canonical", "--quiver", spec, "--dim", dim, "--out", str(out)]) == 0
    bundle = json.loads(out.read_text())
    assert bundle["certificates"]["ok"]
    nu = tuple(map(int, dim.split(",")))
    assert len(bundle["indices"]) == dim_f(from_spec(spec).arrows, nu)


@pytest.mark.parametrize("nu", [(k, 7 - k) for k in range(8)])
def test_cyclic2_certifies_at_size_seven(nu):
    # (4,3) and (3,4) have monomial coefficients of degree 9 in q, beyond an
    # interpolation on the default sample fields; the closed form needs none.
    solver = CanonicalSolver(IndexSystem(HallEngine(cyclic(2))))
    assert solver.verify(nu)["ok"]


def bar_over_E(solver, nu, coeffs_over_E) -> dict:
    """bar of sum c_a E_a, expressed over E again through the solve's zeta."""
    bar_row = {a: c.bar() for a, c in coeffs_over_E.items()}
    return row_times(bar_row, solver.solve(nu).zeta)


def test_bar_element_involution(cyc2):
    import random

    rng = random.Random(7)
    nu = (2, 1)
    data = cyc2.solve(nu)
    order = data.pbw.order
    for _ in range(10):
        x = {
            a: LaurentPoly({rng.randrange(-3, 4): rng.randrange(-5, 6)})
            for a in rng.sample(order, min(2, len(order)))
        }
        x = {a: c for a, c in x.items() if c}
        bb = bar_over_E(cyc2, nu, bar_over_E(cyc2, nu, x))
        assert bb == x


def test_bar_of_monomial_is_fixed(cyc2):
    # Monomial rows of eta are bar-fixed as elements: bar(m) = m.
    nu = (1, 1)
    data = cyc2.solve(nu)
    eta_inv = invert_unitriangular(data.pbw.order, data.pbw.eta)
    assert eta_inv == data.pbw.mon_over_E
    for a in data.pbw.order:
        bar_m = bar_over_E(cyc2, nu, {b: c.bar() for b, c in eta_inv[a].items()})
        assert bar_m == eta_inv[a]


def alt_sort_key(system, order):
    """A second linear extension of the order, for independence checks: the
    preinjective multiplicities lead the preprojective ones, and
    multisegments with equal End dimension compare in reverse."""
    if system.kind == "cyclic":
        n = system.quiver.n
        return lambda idx: (-mseg_end(n, idx[0][1]), tuple(reversed(idx[0][1])))
    tm = sorted({t for (_, cm, _, _, _), _ in order for t, _ in cm}, reverse=True)
    tp = sorted({t for (_, _, _, cp, _), _ in order for t, _ in cp})

    def key(idx):
        (_, cm, _, cp, _), lam = idx
        cm, cp = dict(cm), dict(cp)
        kc = tuple(-cp.get(t, 0) for t in tp) + tuple(-cm.get(t, 0) for t in tm)
        return (kc, sum(lam), tuple(-x for x in lam))

    return key


def test_second_linear_extension_agrees(kron, cyc2):
    # Each order has an incomparable pair, which the two extensions place
    # differently; Kronecker (2, 1) has none.
    for solver, nu in ((kron, (2, 2)), (cyc2, (2, 2))):
        data = solver.solve(nu)
        alt_order = sorted(data.pbw.order, key=alt_sort_key(solver.system, data.pbw.order))
        assert alt_order != data.pbw.order
        g2 = lusztig_solve(alt_order, data.zeta)
        assert {a: dict(r) for a, r in g2.items()} == {
            a: dict(r) for a, r in data.g.items()
        }


def test_uniqueness_perturbation(cyc2):
    # Adding a bar-invariant-breaking tail to C destroys bar invariance.
    nu = (1, 1)
    data = cyc2.solve(nu)
    order = data.pbw.order
    a = order[-1]
    b = order[0]
    perturbed = dict(data.g[a])
    perturbed[b] = perturbed.get(b, ZERO) + V(-1) + V(-3)
    assert bar_over_E(cyc2, nu, perturbed) != perturbed


def test_verify_negative_control(kron):
    nu = (1, 1)
    cdata = kron.solve(nu)
    import copy

    # A non-bar-invariant corruption breaks the bar certificate.
    bad = copy.deepcopy(cdata)
    a = bad.pbw.order[-1]
    b = bad.pbw.order[0]
    bad.g[a][b] = bad.g[a].get(b, ZERO) + V(-1) + V(-3)
    report = kron.verify(nu, bad)
    assert not all(report["bar_invariant"])
    assert not report["ok"]
    # A bar-invariant corruption evades the bar check but breaks
    # unitriangularity (uniqueness lives there).
    bad2 = copy.deepcopy(cdata)
    bad2.g[a][b] = bad2.g[a].get(b, ZERO) + ONE
    report2 = kron.verify(nu, bad2)
    assert all(report2["bar_invariant"])
    assert not report2["unitriangular"]
    assert not report2["ok"]


@pytest.mark.parametrize("key", ["C_over_N", "E_over_N"])
def test_verify_rejects_corrupted_transition_data(kron, key):
    # One v^-7 added to one entry of C over N, or of the PBW rows E over N,
    # leaves the canonical rows g intact; the products that the bundle
    # stores no longer follow from them.
    import copy

    nu = (2, 1)
    assert kron.verify(nu)["ok"]
    bad = copy.deepcopy(kron.solve(nu))
    rows = bad.C_over_N if key == "C_over_N" else bad.pbw.E
    a = bad.pbw.order[-1]
    k = next(iter(rows[a]))
    rows[a][k] = rows[a][k] + V(-7)
    report = kron.verify(nu, bad)
    assert not report["ok"]
    assert report["products_agree"][key] is False
    assert report["unitriangular"] and all(report["bar_invariant"])


def test_truncation_agrees_reads_false_only_on_a_replaced_C_over_mon(kron):
    # solve takes C over the monomials from the memoized truncation that
    # verify compares it with, so the key holds on every solve; it can only
    # catch a cdata whose C over the monomials was replaced.
    nu = (2, 1)
    cdata = kron.solve(nu)
    assert kron.verify(nu, cdata)["truncation_agrees"] is True
    a = cdata.pbw.order[-1]
    k = next(iter(cdata.C_over_mon[a]))
    changed = {**cdata.C_over_mon, a: {**cdata.C_over_mon[a], k: cdata.C_over_mon[a][k] + V(-1)}}
    report = kron.verify(nu, cdata._replace(C_over_mon=changed))
    assert report["truncation_agrees"] is False
    assert report["ok"] is False
    assert kron.verify(nu)["ok"]


def test_bundle_and_verify_roundtrip(kron):
    bundle = kron.bundle((1, 1))
    blob = json.dumps(bundle, sort_keys=True)
    report = verify_bundle(json.loads(blob))
    assert report["ok"]
    # corrupting one coefficient flips the certificate
    bad = json.loads(blob)
    bad["g"][1][0][1] = [[0, "7"]]
    assert not verify_bundle(bad)["ok"]
    text = latex_table(bundle)
    assert "tabular" in text


def test_verify_bundle_rejects_forged_identity(kron):
    # Identity g, zeta and C_over_E claim that the PBW basis is canonical;
    # the bar involution recomputed from E_over_monomial refutes it.
    bundle = json.loads(json.dumps(kron.bundle((2, 2))))
    assert verify_bundle(bundle)["ok"]
    n = len(bundle["indices"])
    identity = [[[i, [[0, "1"]]]] for i in range(n)]
    forged = dict(bundle, g=identity, zeta=identity, C_over_E=identity)
    report = verify_bundle(forged)
    assert not report["ok"]
    assert not all(report["bar_invariant"])


def test_verify_bundle_checks_stored_zeta(kron):
    bundle = json.loads(json.dumps(kron.bundle((2, 2))))
    i = next(i for i, row in enumerate(bundle["zeta"]) if len(row) > 1)
    bundle["zeta"][i][0][1] = [[0, "5"]]
    report = verify_bundle(bundle)
    assert not report["ok"]
    assert report["bar_invariant"][i] is False


def test_verify_bundle_rejects_one_changed_gram_entry(cyc2):
    bundle = json.loads(json.dumps(cyc2.bundle((2, 2))))
    assert verify_bundle(bundle)["ok"]
    for entry in bundle["gram_E"]:
        i, j, val = entry
        if i == j == len(bundle["indices"]) - 1:
            val["num"] = [[e, str(2 * int(c))] for e, c in val["num"]]
    report = verify_bundle(bundle)
    assert report["almost_orthogonal"] is False
    assert report["unitriangular"] and all(report["bar_invariant"])


def test_verify_bundle_orthogonality_cancels_between_terms():
    # C_1 = E_1 + v E_0 with (E_0,E_0) = 1, (E_0,E_1) = -v, (E_1,E_1) = 1 + v^2:
    # (C_1,C_1) = 1 + v^2 - 2v^2 + v^2 = 1 and (C_0,C_1) = -v + v = 0, so the
    # positive parts cancel only when both cross terms (E_0,E_1), (E_1,E_0) count.
    # The Gram matrix of E is not almost orthonormal: g has a v tail, so the
    # verdicts over C and over E differ, and verify_bundle decides neither.
    one = [[0, "1"]]
    identity = [[[0, one]], [[1, one]]]
    g = [[[0, one]], [[0, [[1, "1"]]], [1, one]]]

    def gram(f11):
        return [
            [0, 0, {"num": one, "den": one}],
            [0, 1, {"num": [[1, "-1"]], "den": one}],
            [1, 1, {"num": f11, "den": one}],
        ]

    bundle = {
        "quiver": {"vertices": [1, 2], "arrows": [[1, 2]]},
        "dim": [1, 1],
        "monomial_words": [[[1, 1], [2, 1]], [[2, 1], [1, 1]]],
        "indices": [0, 1],
        "n_indices": [0, 1],
        "g": g,
        "zeta": identity,
        "E_over_monomial": identity,
        "monomial_over_E": identity,
        "monomial_over_N": identity,
        "E_over_N": identity,
        "C_over_monomial": g,
        "C_over_N": g,
        "gram_E": gram([[0, "1"], [2, "1"]]),
    }

    def over_C(bundle):
        return gram_C_almost_orthonormal(
            _bundle_rows(bundle, "g", 2), _bundle_gram(bundle, 2)
        )

    assert over_C(bundle) is True
    assert gram_almost_orthonormal(_bundle_gram(bundle, 2)) is False
    report = verify_bundle(bundle)
    assert report["unitriangular"] is False and not report["ok"]
    assert report["almost_orthogonal"] is None and report["positive"] is None
    assert all(report["products_agree"].values()) and report["pbw_shape"]
    bundle["gram_E"] = gram([[0, "1"], [2, "2"]])
    assert over_C(bundle) is False


laurents = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-9, max_value=9),
    max_size=4,
).map(LaurentPoly)
tails = st.dictionaries(
    st.integers(min_value=-4, max_value=-1),
    st.integers(min_value=-3, max_value=3),
    max_size=2,
).map(LaurentPoly)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_gram_verdict_on_E_equals_oracle_on_C(data):
    # For g unitriangular with v^-1 Z[v^-1] tails, the degree test on (E_a, E_b)
    # gives the verdict of summing each (C_i, C_j) as one rational function.
    n = data.draw(st.integers(1, 3), label="n")
    g = [{j: data.draw(tails) for j in range(i)} for i in range(n)]
    g = [{**{j: c for j, c in row.items() if c}, i: ONE} for i, row in enumerate(g)]
    gram = {}
    for a in range(n):
        for b in range(a, n):
            den = data.draw(laurents.filter(bool))
            rest = data.draw(laurents)
            if rest and data.draw(st.integers(0, 5)):
                # Mostly put the rest strictly below deg den: delta + tail.
                rest = rest * V(den.degree() - 1 - rest.degree())
            gram[(a, b)] = RationalFn((den if a == b else ZERO) + rest, den)
    assert gram_almost_orthonormal(gram) == gram_C_almost_orthonormal(g, gram)


def test_verify_bundle_rejects_huge_exponent_fast(cyc2_bundle):
    # A g entry of v^(10^9) fails unitriangularity; almost orthogonality is
    # then not decided, so no expansion down to v^-(10^9) is attempted.
    bundle = json.loads(cyc2_bundle)
    i = next(i for i, row in enumerate(bundle["g"]) if len(row) > 1)
    bundle["g"][i][0][1] = [[10**9, "1"]]
    t0 = time.perf_counter()
    report = verify_bundle(bundle)
    assert time.perf_counter() - t0 < 1
    assert report["unitriangular"] is False
    assert report["almost_orthogonal"] is None
    assert report["ok"] is False


def test_verify_bundle_rejects_huge_gram_exponent_fast(cyc2_bundle):
    # With g intact, a gram_E numerator of v^200000 gives a positive top
    # exponent that nothing cancels; it is rejected without an expansion
    # down from v^200000.
    bundle = json.loads(cyc2_bundle)
    last = len(bundle["indices"]) - 1
    entry = next(e for e in bundle["gram_E"] if e[0] == e[1] == last)
    entry[2]["num"] = [[200000, "1"]]
    t0 = time.perf_counter()
    report = verify_bundle(bundle)
    assert time.perf_counter() - t0 < 1
    assert report["unitriangular"] and all(report["bar_invariant"])
    assert report["almost_orthogonal"] is False
    assert report["ok"] is False


@pytest.mark.parametrize(
    "key", ["E_over_N", "C_over_monomial", "C_over_N", "monomial_over_E"]
)
def test_verify_bundle_cross_checks_stored_products(cyc2_bundle, key):
    bundle = json.loads(cyc2_bundle)
    report = verify_bundle(bundle)
    assert report["ok"] and all(report["products_agree"].values())
    i = max(range(len(bundle[key])), key=lambda i: len(bundle[key][i]))
    entry = bundle[key][i][-1]
    entry[1] = [[e, str(2 * Fraction(c))] for e, c in entry[1]]
    report = verify_bundle(bundle)
    assert report["products_agree"][key] is False
    assert not report["ok"]
    # The certificates that do not read this matrix still hold.
    assert report["unitriangular"] and all(report["bar_invariant"])


def test_verify_bundle_rejects_malformed_product(cyc2_bundle):
    bundle = json.loads(cyc2_bundle)
    bundle["C_over_N"][0].append([len(bundle["n_indices"]), [[0, "1"]]])
    with pytest.raises(BundleFormatError):
        verify_bundle(bundle)
    bundle = json.loads(cyc2_bundle)
    del bundle["monomial_over_N"]
    with pytest.raises(BundleFormatError):
        verify_bundle(bundle)


@pytest.mark.parametrize(
    "key, terms",
    [
        ("g", [[-2, "7"], [-2, "1"]]),  # a repeated exponent
        ("E_over_monomial", [[-2, "7"], [-2, "-1"], [0, "-1"]]),
        ("E_over_monomial", [[0, "-1"], [-2, "-1"]]),  # descending exponents
        ("g", [[-2, "1"], [999, "0"]]),  # a zero term
        ("g", [[-2, " +1"]]),  # a coefficient that is not canonical decimal
    ],
)
def test_verify_bundle_rejects_non_canonical_laurent_terms(cyc2_bundle, key, terms):
    # A lenient reader decodes each of these to the stored value itself, so
    # verify passed the bundle.
    bundle = json.loads(cyc2_bundle)
    assert bundle[key][4][0][0] == 0
    bundle[key][4][0][1] = terms
    with pytest.raises(BundleFormatError):
        verify_bundle(bundle)


@pytest.mark.parametrize("written", ["{c}/1", "1/2"])
def test_verify_bundle_rejects_fractional_gram_numerators(cyc2_bundle, written):
    bundle = json.loads(cyc2_bundle)
    for entry in bundle["gram_E"]:
        entry[2]["num"] = [[e, written.format(c=c)] for e, c in entry[2]["num"]]
    with pytest.raises(BundleFormatError):
        verify_bundle(bundle)


def test_verify_bundle_rejects_non_unitriangular_eta(kron):
    bundle = json.loads(json.dumps(kron.bundle((1, 1))))
    bundle["E_over_monomial"][0].append([1, [[0, "1"]]])
    with pytest.raises(BarSolveError):
        verify_bundle(bundle)


def test_verify_bundle_needs_the_diagonal_of_g(kron):
    # A g row without its diagonal entry is not unitriangular, however its
    # other entries look; almost orthogonality and positivity are then undecided.
    bundle = json.loads(json.dumps(kron.bundle((2, 2))))
    last = len(bundle["g"]) - 1
    bundle["g"][last] = [e for e in bundle["g"][last] if e[0] != last]
    report = verify_bundle(bundle)
    assert report["unitriangular"] is False and report["ok"] is False
    assert report["almost_orthogonal"] is None and report["positive"] is None


FORGED = [("kronecker", (2, 2), 13), ("cyclic:2", (2, 2), 13), ("an:3:><", (1, 2, 1), 8)]


def _forged_reports(spec, nu, forge, *args):
    """verify_bundle's report on forge(solver, nu, i, j, *args) for every j < i."""
    solver = CanonicalSolver(IndexSystem(HallEngine(from_spec(spec))))
    n = len(solver.system.pbw_basis(nu).order)
    return [
        verify_bundle(json.loads(json.dumps(forge(solver, nu, i, j, *args))))
        for i in range(n)
        for j in range(i)
    ]


def _passes_older_checks(report) -> bool:
    return bool(
        report["unitriangular"]
        and all(report["bar_invariant"])
        and all(report["products_agree"].values())
        and report["almost_orthogonal"]
    )


@pytest.mark.parametrize("spec, nu", [case[:2] for case in FORGED])
def test_pbw_forgery_fails_pbw_shape(spec, nu):
    # E_a -> E_a +- E_b keeps every other check satisfied, since eta^-1, zeta,
    # g and the products are recomputed and gram_E is the honest one.
    reports = _forged_reports(spec, nu, pbw_forgery, 1)
    reports += _forged_reports(spec, nu, pbw_forgery, -1)
    assert reports and all(_passes_older_checks(r) for r in reports)
    assert not any(r["pbw_shape"] or r["ok"] for r in reports)


@pytest.mark.parametrize("spec, nu, rejected", FORGED)
def test_monomial_forgery_passes_pbw_shape_and_fails_positive(spec, nu, rejected):
    # m_a -> m_a - m_b leaves E and g as they were; of verify's checks, only
    # positivity of the monomials over C can see it.
    reports = _forged_reports(spec, nu, monomial_forgery)
    assert all(_passes_older_checks(r) and r["pbw_shape"] for r in reports)
    assert sum(r["positive"] is False for r in reports) == rejected
    assert all(r["ok"] == r["positive"] for r in reports)


@pytest.mark.parametrize(
    "spec, nu", [("kronecker", (2, 2)), ("cyclic:2", (2, 2)), ("cyclic:3", (2, 2, 1))]
)
def test_verify_bundle_rejects_repeated_and_off_weight_words(spec, nu):
    # A repeated monomial word and a dim relabelled by one leave every
    # matrix as it was: only the words' check sees them.
    solver = CanonicalSolver(IndexSystem(HallEngine(from_spec(spec))))
    bundle = solver.bundle(nu)
    assert verify_bundle(json.loads(json.dumps(bundle)))["distinct_words_of_weight"] is True
    repeated, relabelled = (json.loads(json.dumps(bundle)) for _ in range(2))
    repeated["monomial_words"][1] = repeated["monomial_words"][0]
    relabelled["dim"][0] -= 1
    for forged in (repeated, relabelled):
        report = verify_bundle(forged)
        assert _passes_older_checks(report) and report["pbw_shape"] and report["positive"]
        assert report["distinct_words_of_weight"] is False and report["ok"] is False


def _without_last_index(bundle) -> dict:
    """The bundle with its last index dropped, along with that index's row
    and column, its monomial word and its gram_E entries."""
    n = len(bundle["indices"]) - 1
    out = dict(bundle)
    for key in ("indices", "monomial_words", "monomial_over_N", "E_over_N", "C_over_N"):
        out[key] = bundle[key][:n]
    for key in ("g", "zeta", "E_over_monomial", "monomial_over_E", "C_over_monomial"):
        out[key] = [[e for e in row if e[0] < n] for row in bundle[key][:n]]
    out["gram_E"] = [e for e in bundle["gram_E"] if e[1] < n]
    return out


@pytest.mark.parametrize(
    "spec, nu", [("kronecker", (2, 2)), ("cyclic:2", (2, 2)), ("cyclic:3", (2, 2, 1))]
)
def test_verify_bundle_counts_distinct_indices(spec, nu):
    # Dropping the last index leaves a bundle whose matrices and words are
    # consistent; only the count against dim f_nu sees it.  A repeated index
    # fails the count too.
    solver = CanonicalSolver(IndexSystem(HallEngine(from_spec(spec))))
    bundle = json.loads(json.dumps(solver.bundle(nu)))
    assert verify_bundle(bundle)["distinct_indices_dim_f"] is True
    report = verify_bundle(_without_last_index(bundle))
    assert _passes_older_checks(report) and report["pbw_shape"] and report["positive"]
    assert report["distinct_words_of_weight"] is True
    assert report["distinct_indices_dim_f"] is False and report["ok"] is False
    bundle["indices"][1] = bundle["indices"][0]
    report = verify_bundle(bundle)
    assert report["distinct_indices_dim_f"] is False and report["ok"] is False


def test_canonical_integrality_over_monomials(cyc2):
    for nu in [(1, 1), (2, 1)]:
        data = cyc2.solve(nu)
        for a, row in data.C_over_mon.items():
            for c in row.values():
                assert is_integral(c)


def test_E_almost_orthogonality(kron, cyc2):
    from oracles import in_delta_plus_tail

    for solver, nu in ((kron, (2, 1)), (cyc2, (2, 2))):
        gram = solver.gram_E(nu)
        for (a, b), val in gram.items():
            assert in_delta_plus_tail(val, 1 if a == b else 0), (a, b)
        assert gram_almost_orthonormal(gram)


def test_a2_matches_classical_canonical_basis():
    # Lusztig's A_2 canonical basis: x1^(a) x2^(b) x1^(c) with b >= a+c and
    # its mirror, overlapping at the extremes.  In monomial words:
    #   (2,1): { u2 u1^(2),  u1u2u1 - u2u1^(2) }        (= x1^(2)x2 family)
    #   (2,2): { u1^(2)u2^(2), u2^(2)u1^(2),
    #            u2u1u2u1 - [2] u2^(2)u1^(2) }          (= x2 x1^(2) x2)
    from oracles import qint

    solver = CanonicalSolver(IndexSystem(HallEngine(linear_an(2))))

    def cmon(nu):
        data = solver.solve(nu)
        out = {}
        for idx in data.pbw.order:
            row = {
                solver.system.word_for_index(b): c
                for b, c in data.C_over_mon[idx].items()
            }
            out[solver.system.word_for_index(idx)] = row
        return out

    got = cmon((2, 1))
    assert got[((2, 1), (1, 2))] == {((2, 1), (1, 2)): ONE}
    assert got[((1, 1), (2, 1), (1, 1))] == {
        ((1, 1), (2, 1), (1, 1)): ONE,
        ((2, 1), (1, 2)): -ONE,
    }
    got = cmon((2, 2))
    assert got[((2, 2), (1, 2))] == {((2, 2), (1, 2)): ONE}
    assert got[((1, 2), (2, 2))] == {((1, 2), (2, 2)): ONE}
    assert got[((2, 1), (1, 1), (2, 1), (1, 1))] == {
        ((2, 1), (1, 1), (2, 1), (1, 1)): ONE,
        ((2, 2), (1, 2)): -qint(2),
    }


def test_a3_canonical_small():
    Q = linear_an(3)
    solver = CanonicalSolver(IndexSystem(HallEngine(Q)))
    assert dim_f(Q.arrows, (1, 1, 1)) == 4
    report = solver.verify((1, 1, 1))
    assert report["ok"]
    assert len(solver.solve((1, 1, 1)).pbw.order) == 4


def test_kronecker_22_regression_snapshot(kron):
    # Frozen values computed by both canonical-basis algorithms in agreement
    # and certified bar-invariant, unitriangular and almost orthogonal.
    data = kron.solve((2, 2))
    split2 = nindex(make_cdesc(cm=((0, 2),), cp=((1, 2),)))
    s1split = nindex(make_cdesc(cm=((0, 1),), cp=((1, 1),)), (1,))
    i2row = nindex(make_cdesc(cm=((0, 1),), cp=((2, 1),)))
    p2row = nindex(make_cdesc(cm=((-1, 1),), cp=((1, 1),)))
    s2 = nindex(make_cdesc(), (2,))
    s11 = nindex(make_cdesc(), (1, 1))
    assert data.g[split2] == {split2: ONE}
    assert data.g[s1split] == {s1split: ONE, split2: LaurentPoly({-4: 1, -2: 2})}
    assert data.g[i2row][s1split] == V(-1)
    assert data.g[p2row][s1split] == V(-1)
    assert data.g[s2] == {
        s2: ONE,
        p2row: V(-3),
        i2row: V(-3),
        s1split: V(-4),
        split2: V(-8),
    }
    assert data.g[s11] == {
        s11: ONE,
        p2row: V(-1),
        i2row: V(-1),
        s1split: LaurentPoly({-2: 2}),
        split2: LaurentPoly({-6: 2, -4: 1}),
    }
    # PBW elements coincide with the N family on the nose for this quiver.
    for a, row in data.pbw.E.items():
        assert row == {a: ONE}
