import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hallcanon import store as store_mod
from hallcanon.cli import main
from hallcanon.hallpoly import HallPolyEngine
from hallcanon.store import CacheStore


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_canonical_kronecker_11(tmp_path, capsys):
    out_file = tmp_path / "bundle.json"
    code = main(
        [
            "canonical",
            "--quiver",
            "kronecker",
            "--dim",
            "1,1",
            "--out",
            str(out_file),
        ]
    )
    assert code == 0
    bundle = json.loads(out_file.read_text())
    assert bundle["certificates"]["ok"]
    assert len(bundle["indices"]) == 2


def test_canonical_cyclic_11(capsys):
    code, out = run_cli(capsys, "canonical", "--quiver", "cyclic:2", "--dim", "1,1")
    assert code == 0
    bundle = json.loads(out)
    assert len(bundle["indices"]) == 2
    # both canonical elements are single monomials: u1u2 and u2u1
    for row in bundle["C_over_monomial"]:
        assert len(row) == 1 and row[0][1] == [[0, "1"]]


def test_canonical_zero_dim(capsys):
    code, out = run_cli(capsys, "canonical", "--quiver", "kronecker", "--dim", "0,0")
    assert code == 0
    bundle = json.loads(out)
    assert len(bundle["indices"]) == 1


@pytest.mark.parametrize(
    "quiver, dim",
    [
        ("kronecker", "2"),
        ("cyclic:3", "1,1"),
        ("kronecker", "-1,2"),
        ("cyclic:2", "2,-1"),
        ("an:3:><", "1,-1,1"),
    ],
)
def test_canonical_rejects_bad_dim(capsys, quiver, dim):
    # A wrong length or a negative entry is a JSON error, not a traceback
    # or an empty bundle.
    code, out = run_cli(capsys, "canonical", "--quiver", quiver, f"--dim={dim}")
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "ValueError"
    assert "dimension vector" in error["message"]


def test_canonical_latex(capsys):
    code, out = run_cli(
        capsys, "canonical", "--quiver", "an:2", "--dim", "1,1", "--format", "latex"
    )
    assert code == 0
    assert "tabular" in out


def test_dump_transition(capsys):
    code, out = run_cli(
        capsys,
        "canonical",
        "--quiver",
        "cyclic:2",
        "--dim",
        "1,1",
        "--dump-transition",
    )
    assert code == 0
    data = json.loads(out)
    assert set(data) == {
        "indices",
        "monomial_over_N",
        "E_over_monomial",
        "monomial_over_E",
    }
    code, out = run_cli(
        capsys,
        "canonical",
        "--quiver",
        "cyclic:2",
        "--dim",
        "1,1",
        "--dump-transition",
        "--format",
        "latex",
    )
    assert code == 0 and "tabular" in out


def test_hallpoly_jordan(capsys):
    code, out = run_cli(
        capsys,
        "hallpoly",
        "--quiver",
        "jordan",
        "--L",
        "[[1,1,2]]",
        "--M",
        "[[1,1,1]]",
        "--N",
        "[[1,1,1]]",
    )
    assert code == 0
    data = json.loads(out)
    assert data["polynomial"] == "q + 1"


def test_hallpoly_kronecker(capsys):
    code, out = run_cli(
        capsys,
        "hallpoly",
        "--quiver",
        "kronecker",
        "--L",
        '{"homog": [[[0], [1]]]}',
        "--M",
        '{"cp": [[1, 1]]}',
        "--N",
        '{"cm": [[0, 1]]}',
    )
    assert code == 0
    assert json.loads(out)["polynomial"] == "1"


def test_hallpoly_kronecker_above_end_dimension(capsys):
    code, out = run_cli(
        capsys,
        "hallpoly",
        "--quiver",
        "kronecker",
        "--L",
        '{"cm": [[-2, 1]]}',
        "--M",
        '{"cp": [[2, 1]]}',
        "--N",
        '{"cm": [[0, 2]]}',
    )
    assert code == 0
    assert json.loads(out)["polynomial"] == "q^2"


def test_hallpoly_counts_points_without_listing_them(capsys):
    # L has a point of degree 6; zero by dimension.  Listing every closed
    # point of degree 6 at the larger --primes fields took minutes.
    code, out = run_cli(
        capsys,
        "hallpoly",
        "--quiver",
        "kronecker",
        "--L",
        '{"homog": [[[0, 0, 0, 0, 0, 0], [1]]]}',
        "--M",
        "{}",
        "--N",
        "{}",
    )
    assert code == 0
    assert json.loads(out)["polynomial"] == "0"


def test_hallpoly_point_coefficients_are_labels(capsys):
    # Only a point's degree (its list's length) and identity are read: x^2,
    # which is not irreducible, answers as the degree-2 point x^2 + x + 1.
    outs = []
    for point in ("[0, 0]", "[1, 1]"):
        desc = '{"homog": [[%s, [1]]]}' % point
        code, out = run_cli(
            capsys, "hallpoly", "--quiver", "kronecker", "--L", desc, "--M", desc, "--N", "{}"
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["polynomial"] == "1"


def test_hallpoly_dual_triple_is_one_store_record(tmp_path, capsys, monkeypatch):
    # g^L_{M,N} = g^{dL}_{dN,dM} on cyclic:2, with d the duality: both
    # triples print the same JSON, from one record under the orbit key.
    triple = ["--L", "[[1,1,1],[1,2,1],[2,3,1]]", "--M", "[[1,1,1],[2,2,1]]", "--N", "[[1,2,1],[2,1,1]]"]
    dual = ["--L", "[[1,1,1],[2,2,1],[2,3,1]]", "--M", "[[2,1,1],[2,2,1]]", "--N", "[[1,1,1],[1,2,1]]"]
    args = ["hallpoly", "--quiver", "cyclic:2"]
    code, out = run_cli(capsys, *args, *triple)
    assert code == 0 and json.loads(out)["polynomial"] == "q^2 + q - 1"
    code, out_dual = run_cli(capsys, *args, *dual)
    assert code == 0 and out_dual == out

    cache = tmp_path / "store"
    code, cold = run_cli(capsys, *args, "--cache-dir", str(cache), *triple)
    assert code == 0 and cold == out

    def refuse(self, key):
        raise AssertionError("the dual triple missed the store")

    monkeypatch.setattr(HallPolyEngine, "_compute_hall", refuse)
    code, warm = run_cli(capsys, *args, "--cache-dir", str(cache), *dual)
    assert code == 0 and warm == out
    assert len(list(cache.rglob("*.json"))) == 1


@pytest.mark.parametrize(
    "quiver, L, M, N, printed",
    [
        # dim N at one vertex: N = S_1 in the socle of L
        (
            "cyclic:2",
            "[[1,1,1],[1,3,1]]",
            "[[1,3,1]]",
            "[[1,1,1]]",
            '{"coeffs":[0,1],"min_q":2,"polynomial":"q",'
            '"samples":[[2,2],[3,3]],"validations":[[4,4],[5,5]]}',
        ),
        # dim M at one vertex: M = S_1 a top of L
        (
            "cyclic:3",
            "[[1,2,2],[3,1,1]]",
            "[[1,1,1]]",
            "[[1,2,1],[2,1,1],[3,1,1]]",
            '{"coeffs":[1,1],"min_q":2,"polynomial":"q + 1",'
            '"samples":[[2,3],[3,4]],"validations":[[4,5],[5,6]]}',
        ),
    ],
)
def test_hallpoly_one_vertex_triples_are_pinned(capsys, quiver, L, M, N, printed):
    code, out = run_cli(capsys, "hallpoly", "--quiver", quiver, "--L", L, "--M", M, "--N", N)
    assert code == 0 and out == printed + "\n"


@pytest.mark.parametrize(
    "quiver, L, M, N",
    [
        # vertex 3 on a quiver with vertices 1..2 (silently "0" before)
        ("cyclic:2", "[[1,2,1]]", "[[3,1,1]]", "[[2,1,1]]"),
        # a negative multiplicity
        ("cyclic:2", "[[1,2,1]]", "[[1,1,-1]]", "[[2,1,1]]"),
        # a segment of length 0, and one that is not a triple
        ("cyclic:2", "[[1,2,1]]", "[[1,1,1]]", "[[2,0,1]]"),
        ("cyclic:2", "[5]", "[[1,1,1]]", "[[2,1,1]]"),
        # segment entries that are not integers (read as [[1,2,1]] before)
        ("cyclic:2", "[[1.7,2,1]]", "[[1,1,1]]", "[[2,1,1]]"),
        ("cyclic:2", "[[true,2,1]]", "[[1,1,1]]", "[[2,1,1]]"),
        ("cyclic:2", '[["1",2,1]]', "[[1,1,1]]", "[[2,1,1]]"),
        # a cyclic descriptor on the Kronecker quiver, and the converse
        ("kronecker", "[[1,2,1]]", "[[1,1,1]]", "[[2,1,1]]"),
        ("cyclic:2", '{"cm": [[0, 1]]}', "[[1,1,1]]", "[[2,1,1]]"),
        # Kronecker: t = 5 is not preprojective, a negative multiplicity, a
        # cm that is not a list, a preinjective t <= 0, a repeated t, an
        # empty point, a zero part and an unknown key (the first two
        # silently printed "0" before, the third was a traceback)
        ("kronecker", '{"cm": [[5, 1]]}', "{}", "{}"),
        ("kronecker", '{"cm": [[0, -1]]}', "{}", "{}"),
        ("kronecker", '{"cm": 5}', "{}", "{}"),
        ("kronecker", '{"cp": [[0, 1]]}', "{}", "{}"),
        ("kronecker", '{"cm": [[0, 1], [0, 1]]}', "{}", "{}"),
        ("kronecker", '{"homog": [[[], [1]]]}', "{}", "{}"),
        ("kronecker", '{"homog": [["inf", [1, 0]]]}', "{}", "{}"),
        ("kronecker", '{"cq": [[1, 1]]}', "{}", "{}"),
        # type A: beta_-9 does not exist on A_2, and cp and homog are
        # Kronecker only (an IndexError, a TypeError and "0" before)
        ("an:2", '{"cm": [[-9, 1]]}', "{}", "{}"),
        ("an:2", '{"homog": [["inf", [1]]]}', "{}", "{}"),
        ("an:2", '{"cp": [[1, 1]]}', "{}", "{}"),
    ],
)
def test_hallpoly_rejects_bad_descriptor(capsys, quiver, L, M, N):
    code, out = run_cli(
        capsys, "hallpoly", "--quiver", quiver, "--L", L, "--M", M, "--N", N
    )
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ValueError"


@pytest.mark.parametrize(
    "options, error",
    [
        # a repeated field would validate against itself
        (["--primes", "2,2,2,2,2"], "ValueError"),
        (["--primes", "2,3,4,3"], "ValueError"),
        (["--budget-subspaces=-5"], "ValueError"),
        # 0 is a budget, not "use the default"
        (["--budget-subspaces", "0"], "BudgetExceededError"),
        # an empty pool is no pool, not "use the default"
        (["--primes", ""], "ValueError"),
        # GF(q) needs a prime power q <= 64, even where the fit stops short of it
        (["--primes", "2,3,4,6,100"], "ValueError"),
        (["--primes", "2,3,5,67"], "ValueError"),
    ],
)
def test_hallpoly_rejects_weakened_checks(capsys, options, error):
    # J_2 has one submodule S with quotient S; its census has q + 1 lines.
    args = ["--L", "[[1,2,1]]", "--M", "[[1,1,1]]", "--N", "[[1,1,1]]"]
    code, out = run_cli(capsys, "hallpoly", "--quiver", "jordan", *args)
    assert code == 0 and json.loads(out)["polynomial"] == "1"
    code, out = run_cli(capsys, "hallpoly", "--quiver", "jordan", *options, *args)
    assert code == 2
    assert json.loads(out)["error"]["type"] == error


def test_hallpoly_semisimple_row_ignores_enumeration_budget(capsys):
    # S^3 is semisimple: its row is [3, 2]_q in closed form, which enumerates
    # nothing, so a budget of one subspace does not stop it.
    args = ["--L", "[[1,1,3]]", "--M", "[[1,1,1]]", "--N", "[[1,1,2]]"]
    code, out = run_cli(capsys, "hallpoly", "--quiver", "jordan", "--budget-subspaces", "1", *args)
    assert code == 0
    assert json.loads(out)["polynomial"] == "q^2 + q + 1"


def test_canonical_rejects_invalid_sample_fields(capsys):
    argv = ["canonical", "--quiver", "kronecker", "--dim", "1,1", "--primes", "2,3,4,6,100"]
    code, out = run_cli(capsys, *argv)
    assert code == 2
    assert json.loads(out)["error"] == {"type": "ValueError", "message": "6 is not a prime power"}


def test_verify_roundtrip(tmp_path, capsys):
    bundle_path = tmp_path / "b.json"
    assert (
        main(
            [
                "canonical",
                "--quiver",
                "an:2",
                "--dim",
                "1,1",
                "--out",
                str(bundle_path),
            ]
        )
        == 0
    )
    code, out = run_cli(capsys, "verify", "--bundle", str(bundle_path))
    assert code == 0
    assert json.loads(out)["ok"]
    # corrupt and observe failure
    bundle = json.loads(bundle_path.read_text())
    bundle["g"][1][0][1] = [[0, "3"]]
    bundle_path.write_text(json.dumps(bundle))
    code, out = run_cli(capsys, "verify", "--bundle", str(bundle_path))
    assert code == 1


@pytest.fixture(scope="module")
def an2_bundle(tmp_path_factory):
    path = tmp_path_factory.mktemp("an2") / "b.json"
    assert main(["canonical", "--quiver", "an:2", "--dim", "2,1", "--out", str(path)]) == 0
    return json.loads(path.read_text())


def _drop_gram(bundle):
    del bundle["gram_E"]


def _column_out_of_range(bundle):
    bundle["g"][1].append([99, [[0, "1"]]])


def _ragged_entry(bundle):
    bundle["g"][1].append([0])


def _ragged_matrix(bundle):
    bundle["zeta"].pop()


def _zero_entry(bundle):
    bundle["g"][1][0][1] = [[0, "0"]]


def _eta_not_unitriangular(bundle):
    bundle["E_over_monomial"][0].append([1, [[0, "1"]]])


def _index_not_in_n_indices(bundle):
    bundle["indices"][0] = ["not an index", []]


@pytest.mark.parametrize(
    "corrupt, error",
    [
        (_drop_gram, "BundleFormatError"),
        (_column_out_of_range, "BundleFormatError"),
        (_ragged_entry, "BundleFormatError"),
        (_ragged_matrix, "BundleFormatError"),
        (_zero_entry, "BundleFormatError"),
        (_eta_not_unitriangular, "BarSolveError"),
        (_index_not_in_n_indices, "BundleFormatError"),
    ],
)
def test_verify_rejects_malformed_bundle(an2_bundle, tmp_path, capsys, corrupt, error):
    bundle = json.loads(json.dumps(an2_bundle))
    assert len(bundle["g"][1]) == 2
    corrupt(bundle)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bundle))
    code, out = run_cli(capsys, "verify", "--bundle", str(path))
    assert code == 2
    assert json.loads(out)["error"]["type"] == error


def test_cache_commands(tmp_path, capsys):
    cache = tmp_path / "store"
    code, _ = run_cli(
        capsys,
        "hallpoly",
        "--quiver",
        "jordan",
        "--cache-dir",
        str(cache),
        "--L",
        "[[1,1,2]]",
        "--M",
        "[[1,1,1]]",
        "--N",
        "[[1,1,1]]",
    )
    assert code == 0
    code, out = run_cli(capsys, "cache", "list", "--cache-dir", str(cache))
    assert code == 0
    entries = json.loads(out)["entries"]
    assert len(entries) == 1
    code, out = run_cli(capsys, "cache", "verify", "--cache-dir", str(cache))
    assert code == 0
    # corrupt the record and let verify/gc find it
    path = entries[0]
    with open(path, "a") as fh:
        fh.write("junk")
    code, out = run_cli(capsys, "cache", "verify", "--cache-dir", str(cache))
    assert code == 1
    code, out = run_cli(capsys, "cache", "gc", "--cache-dir", str(cache))
    assert code == 0
    assert json.loads(out)["removed"] == [path]


def test_store_holds_only_the_bundle(tmp_path, capsys, monkeypatch):
    # |Aut M| is a closed form and lifted words are memoized in process, so
    # a cold cyclic run writes the certified bundle alone, and a warm rerun
    # reads it, writes nothing and prints the same bytes.
    cache = tmp_path / "cache"
    args = ["canonical", "--quiver", "cyclic:3", "--dim", "2,2,1", "--cache-dir", str(cache)]
    code, cold = run_cli(capsys, *args)
    assert code == 0
    kinds = sorted(json.loads(p.read_text())["key"][0] for p in cache.rglob("*.json"))
    assert kinds == ["bundle"]
    puts = []
    monkeypatch.setattr(CacheStore, "put", lambda self, *record: puts.append(record))
    code, warm = run_cli(capsys, *args)
    assert code == 0
    assert puts == []
    assert warm == cold


def test_long_quiver_name_gets_a_digest_directory(tmp_path, capsys, monkeypatch):
    # An inline JSON path on 40 vertices is named after every vertex and
    # arrow, longer than a file name may be; its store directory is a digest.
    vertices = list(range(1, 41))
    spec = json.dumps({"vertices": vertices, "arrows": [[i, i + 1] for i in vertices[:-1]]})
    cache = tmp_path / "cache"
    args = ["canonical", "--quiver", spec, "--dim", ",".join(["1"] + ["0"] * 39),
            "--cache-dir", str(cache)]
    code, cold = run_cli(capsys, *args)
    assert code == 0, cold
    assert json.loads(cold)["certificates"]["ok"]
    (quiver_dir,) = [p.name for p in cache.iterdir()]
    assert quiver_dir.startswith("sha256-") and len(quiver_dir) == 71
    # A warm run is served the bundle record: it builds no engine.
    import hallcanon.hallalg

    def refuse(*args, **kwargs):
        raise AssertionError("a warm run built an engine")

    monkeypatch.setattr(hallcanon.hallalg, "HallEngine", refuse)
    code, warm = run_cli(capsys, *args)
    assert code == 0
    assert warm == cold


def _forge(bundle, how):
    """A bundle of the run's key that must not be served, edited in place."""
    if how == "g-row":
        # a v^-1 entry added below the diagonal of g: still unitriangular,
        # but no longer bar-invariant
        g = bundle["g"]
        i, j = next((i, j) for i in range(len(g)) for j in range(i) if j not in dict(g[i]))
        g[i] = sorted(g[i] + [[j, [[-1, "1"]]]])
    elif how == "quiver":  # the opposite orientation
        bundle["quiver"]["arrows"] = [[t, h] for h, t in bundle["quiver"]["arrows"]]
    elif how == "primes":
        bundle["meta"]["primes"] = bundle["meta"]["primes"][1:]
    elif how == "dim":
        bundle["dim"] = bundle["dim"][::-1]
    elif how == "uncertified":
        bundle["certificates"]["ok"] = False
    elif how == "malformed":  # verify_bundle raises BundleFormatError
        del bundle["gram_E"]


@pytest.mark.parametrize(
    "how", ["g-row", "quiver", "primes", "dim", "uncertified", "malformed"]
)
def test_forged_bundle_record_is_not_served(tmp_path, capsys, how):
    # A bundle record whose checksum holds is still served only if its
    # bundle is the run's and certifies; otherwise the run recomputes, prints
    # the honest bundle and overwrites the record.
    cache = tmp_path / "cache"
    args = ["canonical", "--quiver", "cyclic:3", "--dim", "2,2,1", "--cache-dir", str(cache)]
    code, honest = run_cli(capsys, *args)
    assert code == 0
    (path,) = [
        p for p in cache.rglob("*.json") if json.loads(p.read_text())["key"][0] == "bundle"
    ]
    record = json.loads(path.read_text())
    _forge(record["bundle"], how)
    assert record["bundle"] != json.loads(honest)
    record["checksum"] = store_mod._checksum(record)
    path.write_text(json.dumps(record))
    assert CacheStore(str(cache)).verify() == [(str(p), True) for p in sorted(cache.rglob("*.json"))]
    code, out = run_cli(capsys, *args)
    assert code == 0
    assert out == honest
    assert json.loads(path.read_text())["bundle"] == json.loads(honest)


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["canonical", "--quiver", "nosuch", "--dim", "1,1"], id="unknown-quiver"),
        # usage errors, which argparse alone reports as usage text without JSON
        pytest.param(["canonical", "--quiver", "kronecker"], id="missing-dim"),
        pytest.param(
            ["canonical", "--quiver", "kronecker", "--dim", "1,1", "--budget-subspaces", "x"],
            id="budget-not-int",
        ),
        pytest.param(["canonical", "--quiver", "kronecker", "--dim", "-1,2"], id="dim-read-as-option"),
        pytest.param(["nosuch"], id="unknown-command"),
        pytest.param([], id="no-command"),
        pytest.param(["verify"], id="verify-missing-bundle"),
        pytest.param(["cache", "frob"], id="unknown-cache-action"),
    ],
)
def test_error_is_machine_readable(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 2
    assert set(json.loads(out)["error"]) == {"type", "message"}


@pytest.mark.parametrize("argv", [["--help"], ["canonical", "--help"]], ids=["top", "canonical"])
def test_help_still_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: hallcanon")


@pytest.mark.parametrize(
    "spec",
    [
        '{"vertices":[1,2],"arrows":[[1,3]]}',  # arrow to an unknown vertex
        '{"vertices":[1,2]}',  # no arrows
        '{"vertices":[[1],2],"arrows":[]}',  # unhashable label
        '{"vertices":5,"arrows":[]}',
        '{"vertices":[1,2],"arrows":5}',
        '[{"vertices":[1,2],"arrows":[[1,2]]}]',  # a list, not an object
    ],
)
def test_malformed_json_quiver_is_machine_readable(tmp_path, capsys, spec):
    path = tmp_path / "quiver.json"
    path.write_text(spec)
    forms = [f"@{path}"] + ([spec] if spec.startswith("{") else [])
    for form in forms:
        code, out = run_cli(capsys, "canonical", "--quiver", form, "--dim", "1,1")
        assert code == 2, form
        assert json.loads(out)["error"]["type"] == "ValueError", form


@pytest.mark.parametrize(
    "spec, dim",
    [
        # one arrow out of and into each vertex, but not i -> i+1 in vertex
        # order (an AssertionError and two ArithmeticErrors before)
        ('{"vertices":[1,2,3],"arrows":[[1,3],[3,2],[2,1]]}', "1,1,1"),
        ('{"vertices":[1,2],"arrows":[[1,1],[2,2]]}', "1,1"),
        ('{"vertices":[1,2,3],"arrows":[[1,2],[2,1],[3,3]]}', "1,1,1"),
    ],
)
def test_permuted_cycle_is_unsupported(capsys, spec, dim):
    code, out = run_cli(capsys, "canonical", "--quiver", spec, "--dim", dim)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "UnsupportedQuiverError"


def test_json_cycle_in_vertex_order_solves(capsys):
    spec = '{"vertices":[1,2,3],"arrows":[[1,2],[2,3],[3,1]]}'
    code, out = run_cli(capsys, "canonical", "--quiver", spec, "--dim", "1,1,1")
    assert code == 0
    assert json.loads(out)["certificates"]["ok"]


def test_determinism_across_runs(tmp_path):
    args = ["canonical", "--quiver", "kronecker", "--dim", "2,1"]
    f1 = tmp_path / "run1.json"
    f2 = tmp_path / "run2.json"
    assert main(args + ["--out", str(f1)]) == 0
    assert main(args + ["--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_internal_check_failure_exits_2(capsys, monkeypatch):
    # A broken invariant (here the index count against dim f_nu) is reported
    # as an error object, not a traceback with the exit code of failed
    # certificates.
    import hallcanon.pbw

    monkeypatch.setattr(hallcanon.pbw, "dim_f", lambda quiver, nu: 99)
    code, out = run_cli(capsys, "canonical", "--quiver", "kronecker", "--dim", "1,1")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ArithmeticError"


def test_sample_pool_is_checked_before_any_word_is_lifted(capsys, monkeypatch):
    # Kronecker (4,4) has a word of q-degree D = 7, which needs 10 sample
    # fields; the default pool has 9, so the run fails before it lifts the
    # first word, naming the first word in basis order that fails.
    from hallcanon.hallalg import HallEngine, word_degree_bound

    def refuse(*args, **kwargs):
        raise AssertionError("a word was lifted")

    monkeypatch.setattr(HallEngine, "lift_family", refuse)
    code, out = run_cli(capsys, "canonical", "--quiver", "kronecker", "--dim", "4,4")
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "InterpolationError"
    word = ((1, 3), (0, 2), (1, 1), (0, 2))
    assert word_degree_bound(word) == 7
    assert error["message"] == (
        f"word {word} has q-degree up to D = 7 and needs 10 sample fields; "
        "primes [2, 3, 4, 5, 7, 8, 9, 11, 13] give 9"
    )


def test_quiver_kind_is_classified_once_per_quiver(capsys, monkeypatch):
    # A Kronecker (2,2) run builds a field context at each sample field;
    # the kind, delta and admissible sequence are worked out once for all.
    from hallcanon import fqrep
    from hallcanon.quiver import Quiver

    calls = []
    finite_type = Quiver.is_finite_type

    def counting(self):
        calls.append(self.name)
        return finite_type(self)

    monkeypatch.setattr(Quiver, "is_finite_type", counting)
    fqrep._quiver_kind.cache_clear()
    code, out = run_cli(capsys, "canonical", "--quiver", "kronecker", "--dim", "2,2")
    assert code == 0 and json.loads(out)["certificates"]["ok"]
    assert calls == ["kronecker"]


_PATH_40 = json.dumps(
    {"vertices": list(range(1, 41)), "arrows": [[i, i + 1] for i in range(1, 40)]}
)


@pytest.mark.parametrize(
    "quiver, dim, primes",
    [
        ("kronecker", "4,4", None),
        ("kronecker", "4,3", None),
        ("kronecker", "3,4", None),
        ("an:3:><", "3,3,3", None),
        ("kronecker", "3,3", "2,3,4,5,7,8,9,11,16"),
        ("jordan", "3", None),
        (_PATH_40, ",".join(["1"] + ["0"] * 39), None),
    ],
    ids=["kron44", "kron43", "kron34", "an3-3,3,3", "kron33-9primes", "jordan3", "path40"],
)
def test_run_grid_ends_in_ok_or_json_error(capsys, quiver, dim, primes):
    # Every run of a fixed grid ends in exit 0 with certificates ok, or in
    # exit 2 with a JSON error object; never in a traceback.
    argv = ["canonical", "--quiver", quiver, "--dim", dim]
    if primes:
        argv += ["--primes", primes]
    code, out = run_cli(capsys, *argv)
    data = json.loads(out)
    if code == 0:
        assert data["certificates"]["ok"]
    else:
        assert code == 2
        assert set(data["error"]) == {"type", "message"}


LEG_RUN = """
import json, sys
from hallcanon.cli import main

rc = main(json.loads(sys.argv[1]))
print(json.dumps({"rc": rc, "modules": sorted(sys.modules)}))
"""

# hashlib loads OpenSSL and dataclasses loads inspect, ast and dis: several
# MB of a leg's peak memory, which only a run with a store needs (sha256).
UNUSED_WITHOUT_STORE = {"hashlib", "_hashlib", "dataclasses"}


@pytest.mark.parametrize(
    "leg, absent, present",
    [
        ("canonical", UNUSED_WITHOUT_STORE, set()),
        # Hall polynomials need no PBW basis and no bar solve.
        ("hallpoly", UNUSED_WITHOUT_STORE | {"hallcanon.canonical", "hallcanon.pbw"}, set()),
        # A bundle is checked from its matrices alone, so ``verify`` needs no
        # field, census, Hall polynomial, PBW or quiver code.
        ("verify", UNUSED_WITHOUT_STORE | {
            f"hallcanon.{m}" for m in ("fqrep", "hallalg", "hallpoly", "pbw", "quiver", "gf")
        }, set()),
        # the store path runs, so the rule above is not met by skipping it
        ("canonical-store", {"dataclasses"}, {"hashlib"}),
        # a rerun is served the stored bundle and builds no engine
        ("canonical-warm", {"dataclasses"} | {
            f"hallcanon.{m}" for m in ("fqrep", "gf", "hallalg", "hallpoly", "pbw")
        }, {"hashlib", "hallcanon.store"}),
    ],
    ids=["canonical", "hallpoly", "verify", "canonical-store", "canonical-warm"],
)
def test_leg_loads_only_what_it_runs(tmp_path, monkeypatch, leg, absent, present):
    monkeypatch.delenv("HALLCANON_CACHE", raising=False)
    bundle = tmp_path / "bundle.json"
    canonical = ["canonical", "--quiver", "kronecker", "--dim", "2,2", "--out", str(bundle)]
    argv = {
        "canonical": canonical,
        "hallpoly": ["hallpoly", "--quiver", "jordan", "--L", "[[1,1,2]]",
                     "--M", "[[1,1,1]]", "--N", "[[1,1,1]]"],
        "verify": ["verify", "--bundle", str(bundle)],
        "canonical-store": canonical + ["--cache-dir", str(tmp_path / "store")],
        "canonical-warm": canonical + ["--cache-dir", str(tmp_path / "store")],
    }[leg]
    if leg == "verify":
        assert main(canonical) == 0
    if leg == "canonical-warm":
        assert main(argv) == 0
    root = Path(__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "HALLCANON_CACHE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", LEG_RUN, json.dumps(argv)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout.splitlines()[-1])
    assert report["rc"] == 0, run.stdout
    modules = set(report["modules"])
    assert not absent & modules
    assert present <= modules
    if leg == "verify":
        assert json.loads(run.stdout.splitlines()[0])["ok"]
    if leg in ("canonical-store", "canonical-warm"):
        assert list((tmp_path / "store").rglob("*.json"))


TRACED_RUN = """
import json, sys
sys.path.insert(0, sys.argv[1])
from tracing import Tracer, install
from hallcanon import cli

tracer = Tracer()
install(tracer)
rc = cli.main(["canonical", "--quiver", "kronecker", "--dim", "1,1"])
print(json.dumps({"rc": rc, "calls": dict(tracer.calls)}))
"""


def test_benchmark_tracer_patches_the_package():
    # perfbench/tracing.py patches package names by their current spelling
    # and signature; a rename shows here, not only in a traced benchmark run.
    root = Path(__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "HALLCANON_CACHE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # perfbench/ is only read
    run = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(root / "perfbench")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout.splitlines()[-1])
    assert report["rc"] == 0
    traced = ("fqrep.FieldContext.hall_table", "pbw.IndexSystem.pbw_basis", "hallalg.lift_family")
    for name in traced:
        assert report["calls"].get(name, 0) > 0, name
