"""The command-line interface: outputs, determinism, exit codes."""

import hashlib
import json
import os

import pytest

from blueforge import catalog, jsonio
from blueforge.budget import Budget
from blueforge.cli import _space_of, build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# the points of cspec(F1^4) that a budget of 6,3,5 still decides
F1N4_POINTS = ["0/1/z1/z2/z3", "0/1z1z2z3", "0/1z2/z1z3"]


class TestBasicVerbs:
    def test_zeta_affine_line(self, capsys):
        code, out, _ = run(capsys, "zeta", "catalog:A1", "--deg", "1")
        assert code == 0
        assert out.strip() == "s - 1"

    def test_zeta_absolute_point(self, capsys):
        code, out, _ = run(capsys, "zeta", "f1", "--deg", "0")
        assert code == 0
        assert out.strip() == "s"

    def test_spec_sl2_json(self, capsys):
        code, out, _ = run(capsys, "spec", "catalog:sl2", "--json")
        assert code == 0
        data = json.loads(out)
        assert len(data["points"]) == 7

    def test_proj_p2(self, capsys):
        code, out, _ = run(capsys, "proj", "catalog:P2")
        assert code == 0
        assert out.startswith("7 points")

    def test_count(self, capsys):
        code, out, _ = run(capsys, "count", "catalog:P2", "--q", "2,3")
        assert code == 0
        assert "q=2: 7" in out and "q=3: 13" in out

    def test_count_scheme_json(self, capsys):
        code, out, _ = run(capsys, "count", "P3", "--json")
        assert code == 0
        assert out == ('{\n "counts": {\n  "2": 15,\n  "3": 40,\n'
                       '  "5": 156\n }\n}\n')

    def test_polyfit_sl2(self, capsys):
        code, out, _ = run(capsys, "polyfit", "sl2", "--deg", "3")
        assert code == 0
        assert out.strip() == "q^3 - q"

    def test_hasse_dot(self, capsys):
        code, out, _ = run(capsys, "hasse", "catalog:A1")
        assert code == 0
        assert out.startswith("digraph")
        assert '"(0)" -> "(T1)";' in out

    def test_catalog_list(self, capsys):
        code, out, _ = run(capsys, "catalog", "list")
        assert code == 0
        assert "sl2" in out

    def test_catalog_build_round_trips(self, capsys):
        code, out, _ = run(capsys, "catalog", "build", "sl2")
        assert code == 0
        bp = jsonio.blueprint_loads(out)
        assert bp.backend.gens == ("T1", "T2", "T3", "T4")

    def test_catalog_build_without_a_name_is_an_error(self, capsys):
        code, out, err = run(capsys, "catalog", "build")
        assert code == 1 and out == ""
        assert err == "error: catalog build needs a name\n"

    def test_coxeter_facets(self, capsys):
        code, out, _ = run(capsys, "coxeter", "A", "2")
        assert code == 0
        assert len(out.strip().splitlines()) == 6

    def test_orbit_plain_flag(self, capsys):
        code, out, _ = run(capsys, "orbit", "D", "3", "--plain")
        assert code == 0

    def test_building(self, capsys):
        code, out, _ = run(capsys, "building", "1", "2")
        assert code == 0
        assert len(out.strip().splitlines()) == 3

    def test_cspec(self, capsys):
        code, out, _ = run(capsys, "cspec", "f1_squared")
        assert code == 0
        assert "-11/0" in out

    def test_cspec_needs_no_budget(self, capsys):
        # five steps per search used to leave the identity partition
        # undecided; the completion of each quotient reads no budget
        argv = ("cspec", "catalog:f1n:4", "--json")
        code, out, err = run(capsys, *argv, "--budget", "6,3,5")
        assert code == 0 and err == ""
        assert json.loads(out)["points"] == F1N4_POINTS
        assert run(capsys, *argv) == (0, out, "")

    def test_cspec_semiring_needs_no_budget(self, capsys):
        # F2 x F3 is decided by its addition table: five steps per search
        # used to leave the kernel of the projection onto F3 undecided
        argv = ("cspec", "catalog:product_ring:2,3", "--json")
        code, out, err = run(capsys, *argv, "--budget", "6,3,5")
        assert code == 0 and err == ""
        assert json.loads(out)["points"] == ["(0,1)(0,2)0/(1,0)(1,2)1",
                                             "(0,1)1/(0,2)(1,2)/(1,0)0"]
        assert run(capsys, *argv) == (0, out, "")

    @pytest.mark.parametrize("budget_first", [True, False])
    def test_budget_leaves_catalog_cache_alone(self, capsys, budget_first):
        # The catalog builders are memoized and their Blueprints capture the
        # default budget: a --budget call must neither fill the cache for
        # later default calls nor replace what is already there.
        for builder in vars(catalog).values():
            if hasattr(builder, "cache_clear"):
                builder.cache_clear()
        argv = ("cspec", "catalog:f1n:4", "--json")

        def budgeted():
            code, out, err = run(capsys, *argv, "--budget", "6,3,5")
            assert code == 0 and err == ""
            assert json.loads(out)["points"] == F1N4_POINTS

        def default():
            code, out, err = run(capsys, *argv)
            assert code == 0 and err == ""
            assert json.loads(out)["points"] == F1N4_POINTS
            return out

        if budget_first:
            budgeted()
            default()
        else:
            before = catalog.f1n(4)
            first = default()
            budgeted()
            assert default() == first
            assert catalog.f1n(4) is before
        assert catalog.f1n(4).budget == Budget()

    def test_k0(self, capsys):
        code, out, _ = run(capsys, "k0", "f1", "--bound", "4")
        assert code == 0
        assert "Z^1" in out


class TestArith:
    def test_member(self, capsys):
        code, out, _ = run(capsys, "arith", "member", "1/2", "--remove", "2")
        assert code == 0 and out.strip() == "true"
        code, out, _ = run(capsys, "arith", "member", "1/2")
        assert code == 0 and out.strip() == "false"

    def test_member_with_a_large_prime_denominator(self, capsys):
        # 2^64 - 59 is prime; trial division of the denominator took hours
        p = 2 ** 64 - 59
        code, out, _ = run(capsys, "arith", "member", f"1/{p}")
        assert code == 0 and out.strip() == "false"
        code, out, _ = run(capsys, "arith", "member", f"1/{8 * p}",
                           "--remove", "2")
        assert code == 0 and out.strip() == "false"

    def test_member_with_a_zero_denominator_is_an_error(self, capsys):
        code, out, err = run(capsys, "arith", "member", "1/0")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_member_remove_infinity(self, capsys):
        code, out, _ = run(capsys, "arith", "member", "7", "--remove", "inf")
        assert code == 0 and out.strip() == "true"

    def test_classify(self, capsys):
        code, out, _ = run(capsys, "arith", "classify-ideal", "2/3,1/2")
        assert code == 0
        assert "closed ball of radius 2/3" in out

    def test_surface_dim(self, capsys):
        code, out, _ = run(capsys, "arith", "surface-dim", "--primes", "2")
        assert code == 0
        assert out.startswith("dimension 2")


class TestQGrass:
    def test_chi_of_p1_identity(self, capsys, tmp_path):
        payload = {"vertices": 2, "arrows": [[0, 1]], "dims": [2, 2],
                   "matrices": [[[1, 0], [0, 1]]], "e": [1, 1]}
        path = tmp_path / "p1-identity.json"
        path.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "qgrass", "chi", str(path))
        assert code == 0 and out.strip() == "2"
        code, out, _ = run(capsys, "qgrass", "naive", str(path))
        assert code == 0 and out.strip() == "2"
        code, out, _ = run(capsys, "qgrass", "count", str(path), "--q", "3")
        assert code == 0 and "q=3: 4" in out

    @pytest.mark.parametrize("matrix", [[[1.5, 0], [0, 1]], [["1", 0], [0, 1]],
                                        [1, 0, 0, 1]])
    def test_matrix_not_integral_rows_is_an_error(self, capsys, tmp_path,
                                                  matrix):
        # Non-integer entries were truncated and flat lists reshaped, so
        # the answer was for a different matrix than the file gave.
        payload = {"vertices": 2, "arrows": [[0, 1]], "dims": [2, 2],
                   "matrices": [matrix], "e": [1, 1]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, "qgrass", "chi", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: matrix for arrow 0->1")

    @pytest.mark.parametrize("action", ["chi", "naive"])
    @pytest.mark.parametrize("field, value, message", [
        ("dims", [2.0, 2], "error: dims must be a list of integers"),
        ("e", [1.0, 1], "error: dimension vector entries must be integers"),
    ])
    def test_non_integer_dims_or_e_is_an_error(self, capsys, tmp_path,
                                               action, field, value,
                                               message):
        # Both used to end in a TypeError traceback.
        payload = {"vertices": 2, "arrows": [[0, 1]], "dims": [2, 2],
                   "matrices": [[[1, 0], [0, 1]]], "e": [1, 1], field: value}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, "qgrass", action, str(path))
        assert code == 1
        assert out == ""
        assert err.startswith(message)

    @pytest.mark.parametrize("argv", [["chi"], ["naive"], ["weyl"],
                                      ["count", "--q", "2"]])
    def test_negative_dims_is_an_error(self, capsys, tmp_path, argv):
        # chi printed 0, weyl 1 and count 1 for a dimension of -2.
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"vertices": 1, "arrows": [], "dims": [-2],
                                    "matrices": [], "e": [0]}))
        code, out, err = run(capsys, "qgrass", argv[0], str(path), *argv[1:])
        assert code == 1
        assert out == ""
        assert err.startswith("error: dims must be nonnegative")

    def test_naive_above_the_family_cap_is_an_error(self, capsys, tmp_path):
        # C(12,6)^2 = 853,776 families, listed in full before the cap
        path = tmp_path / "free.json"
        path.write_text(json.dumps({"vertices": 2, "arrows": [],
                                    "dims": [12, 12], "matrices": [],
                                    "e": [6, 6]}))
        code, out, err = run(capsys, "qgrass", "naive", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: 853776 coordinate families")

    def test_chi_without_good_primes(self, capsys, tmp_path):
        # diag(2,3) leaves two good sample q; interpolation needed four.
        path = tmp_path / "diag23.json"
        path.write_text(json.dumps({"vertices": 2, "arrows": [[0, 1]],
                                    "dims": [2, 2],
                                    "matrices": [[[2, 0], [0, 3]]],
                                    "e": [1, 1]}))
        code, out, _ = run(capsys, "qgrass", "chi", str(path), "--json")
        assert code == 0
        assert out == '{\n "chi": 2\n}\n'


QGRASS_REPS = {
    # a three-vertex line, one arrow pointing backwards
    "line": ({"vertices": 3, "arrows": [[0, 1], [2, 1]], "dims": [2, 2, 2],
              "matrices": [[[1, 0], [0, 1]], [[1, 0], [0, 1]]],
              "e": [1, 1, 1]},
             [3, 4, 5, 6, 8, 9, 10], 2),
    # a star around vertex 0: identity and shear in, a rank-one map out
    "star": ({"vertices": 4, "arrows": [[1, 0], [2, 0], [0, 3]],
              "dims": [2, 2, 2, 2],
              "matrices": [[[1, 0], [0, 1]], [[1, 1], [0, 1]],
                           [[1, 0], [0, 0]]],
              "e": [1, 1, 1, 1]},
             [5, 7, 9, 11, 15, 17, 19], 3),
    # the scaled identity: degenerate over F_2, F_4 and F_8, chi still 2
    "diag22": ({"vertices": 2, "arrows": [[0, 1]], "dims": [2, 2],
                "matrices": [[[2, 0], [0, 2]]], "e": [1, 1]},
               [9, 4, 25, 6, 8, 81, 10], 2),
}


class TestQGrassPinned:
    """`qgrass count` and `qgrass chi` output, byte for byte."""

    @pytest.mark.parametrize("name", sorted(QGRASS_REPS))
    def test_count_and_chi_json(self, capsys, tmp_path, name):
        payload, counts, chi = QGRASS_REPS[name]
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "qgrass", "count", str(path),
                           "--q", "2,3,4,5,7,8,9", "--json")
        assert code == 0
        assert out == "{\n \"counts\": {\n" + ",\n".join(
            f'  "{q}": {n}' for q, n in zip((2, 3, 4, 5, 7, 8, 9), counts)) \
            + "\n }\n}\n"
        code, out, _ = run(capsys, "qgrass", "chi", str(path), "--json")
        assert code == 0
        assert out == f'{{\n "chi": {chi}\n}}\n'


LINE = {"coefficients": "F1", "generators": ["T"], "inverted": [],
        "relations": []}
QUIVER = {"vertices": 2, "arrows": [[0, 1]], "dims": [1, 1],
          "matrices": [[[1]]], "e": [1, 0]}


class TestInputShapes:
    """Files of the wrong shape are errors that name the field, checked
    before anything is built."""

    def write(self, tmp_path, payload):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        return str(path)

    @pytest.mark.parametrize("verb", ["spec", "count", "cspec", "k0"])
    def test_blueprint_file_that_is_a_list(self, capsys, tmp_path, verb):
        # a TypeError traceback
        code, out, err = run(capsys, verb, self.write(tmp_path, [LINE]))
        assert (code, out) == (1, "")
        assert err.startswith("error: blueprint must be an object")

    def test_quiver_file_that_is_a_list(self, capsys, tmp_path):
        code, out, err = run(capsys, "qgrass", "chi",
                             self.write(tmp_path, [QUIVER]))
        assert (code, out) == (1, "")
        assert err.startswith("error: quiver must be an object")

    @pytest.mark.parametrize("field, value, message", [
        # an AttributeError traceback
        ("relations", [[[1], ["T"]]], "blueprint.relations[0][0][0] must be"
                                      " a string"),
        # read as the generators T and 1: 4 points
        ("generators", "T1", "blueprint.generators must be a list"),
        ("inverted", "T", "blueprint.inverted must be a list"),
        ("relations", [["T", ["T"]]], "blueprint.relations[0][0] must be a"
                                      " list"),
        ("relations", [[["T"]]], "blueprint.relations[0] must have 2"
                                 " entries"),
    ])
    def test_bad_blueprint_field(self, capsys, tmp_path, field, value,
                                 message):
        code, out, err = run(capsys, "spec",
                             self.write(tmp_path, {**LINE, field: value}))
        assert (code, out) == (1, "")
        assert err.strip() == f"error: {message}"

    def test_missing_coefficients(self, capsys, tmp_path):
        payload = {k: v for k, v in LINE.items() if k != "coefficients"}
        code, _, err = run(capsys, "spec", self.write(tmp_path, payload))
        assert code == 1
        assert err.strip() == "error: blueprint has no 'coefficients'"

    def test_valid_file(self, capsys, tmp_path):
        code, out, err = run(capsys, "spec", self.write(tmp_path, LINE))
        assert (code, err) == (0, "")
        assert out == "2 points\n0: (0)\n1: (T)\n"

    def test_spec_of_a_finite_table_reads_no_budget(self, capsys):
        # (6, 3, 5) cut the closure loop: "0 points", with no notice
        code, out, err = run(capsys, "spec", "catalog:f1n:6", "--budget",
                             "6,3,5")
        assert (code, out, err) == (0, "1 points\n0: (0)\n", "")
        assert run(capsys, "spec", "catalog:f1n:6")[1] == out


class TestContracts:
    def test_determinism(self, capsys):
        outs = set()
        for _ in range(3):
            _, out, _ = run(capsys, "spec", "catalog:sl2", "--json")
            outs.add(out)
        assert len(outs) == 1

    def test_json_round_trip(self, capsys):
        _, out, _ = run(capsys, "count", "sl2", "--q", "2", "--json")
        data = json.loads(out)
        assert json.loads(jsonio.dumps(data)) == data

    def test_domain_error_exit_code(self, capsys):
        code, _, err = run(capsys, "spec", "catalog:not_a_thing")
        assert code == 1
        assert "error:" in err

    def test_orbit_rank_above_guard_is_an_error(self, capsys):
        code, out, err = run(capsys, "orbit", "A", "9")
        assert code == 1
        assert out == ""
        assert err.startswith("error: A_9")

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["not_a_verb"])
        assert exc.value.code == 2

    def test_budget_flag(self, capsys):
        code, out, _ = run(capsys, "spec", "sl2", "--budget", "6,8,100000")
        assert code == 0

    def test_blueprint_file_input(self, capsys, tmp_path):
        from blueforge import catalog, jsonio
        path = tmp_path / "sl2.json"
        path.write_text(jsonio.blueprint_dumps(catalog.sl2_f1()))
        code, out, _ = run(capsys, "spec", str(path), "--json")
        assert code == 0
        assert len(json.loads(out)["points"]) == 7

    def test_complex_verb(self, capsys):
        code, out, _ = run(capsys, "complex", "catalog:P2", "--drop-generic")
        assert code == 0
        assert len(out.strip().splitlines()) == 6
        code, out, _ = run(capsys, "complex", "catalog:P1", "--dot")
        assert code == 0
        assert out.startswith("graph")

    def test_budget_flag_does_not_leak(self, capsys):
        env = dict(os.environ)
        code, _, _ = run(capsys, "spec", "catalog:A2", "--budget", "1,2,3")
        assert code == 0
        assert dict(os.environ) == env
        assert catalog.affine_space(2).budget == Budget()

    def test_budget_environment_variable_is_ignored(self, capsys, tmp_path,
                                                    monkeypatch):
        # BLUEFORGE_BUDGET once set every default budget; 0,0,0 would let
        # the guard pass T1 = T2
        monkeypatch.setenv("BLUEFORGE_BUDGET", "0,0,0")
        assert catalog.affine_space(2).budget == Budget()
        path = tmp_path / "x.json"
        path.write_text(json.dumps(_json_blueprint([["T1"], ["T2"]])))
        assert run(capsys, "spec", str(path)) == \
            (1, "", "error: relations identify T1 and T2\n")
        code, _, _ = run(capsys, "spec", str(path), "--budget", "0,0,0")
        assert code == 0
        assert os.environ["BLUEFORGE_BUDGET"] == "0,0,0"

    @pytest.mark.parametrize("value", ["1,2", "a,b,c", "1,2,3,4", "",
                                       "-1,2,3"])
    @pytest.mark.parametrize("verb", ["spec", "hasse", "count", "polyfit",
                                      "cspec", "k0"])
    def test_malformed_budget_is_a_usage_error(self, capsys, verb, value):
        # the value was split before the error handling: a ValueError
        # traceback on every verb with the flag
        with pytest.raises(SystemExit) as exc:
            main([verb, "catalog:f1", f"--budget={value}"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --budget: expected 'deg,terms,steps'" in captured.err

    @pytest.mark.parametrize("argv, message", [
        (("building", "0", "2", "--json"),
         "no building of type A_0: the rank must be at least 1"),
        (("building", "-1", "2"),
         "no building of type A_-1: the rank must be at least 1"),
        (("polyfit", "sl2", "--deg", "-1"), "degree bound -1 is negative"),
        (("zeta", "sl2", "--deg", "-1"), "degree bound -1 is negative"),
    ])
    def test_rank_and_degree_below_range(self, capsys, argv, message):
        assert run(capsys, *argv) == (1, "", f"error: {message}\n")

    def test_threads_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["spec", "catalog:A1", "--threads", "2"])
        assert exc.value.code == 2

    def test_shared_parser_survives_a_parse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["not_a_verb"])
        assert exc.value.code == 2
        capsys.readouterr()
        argv = ["spec", "catalog:sl2", "--json"]
        code, out, err = run(capsys, *argv)
        assert build_parser() is build_parser()
        fresh = build_parser.__wrapped__()
        assert vars(build_parser().parse_args(argv)) == \
            vars(fresh.parse_args(argv))
        args = fresh.parse_args(argv)
        args.budget = None
        assert args.func(args) == code
        assert capsys.readouterr() == (out, err)


def _json_blueprint(relation, gens=("T1", "T2")):
    """F1[gens] with one relation, as a blueprint JSON object."""
    return {"coefficients": "F1", "generators": list(gens), "inverted": [],
            "relations": [relation]}


class TestBudgetReach:
    """--budget reaches only the properness guards of the blueprints read
    from a JSON file; catalog objects keep the default budget."""

    @pytest.mark.parametrize("relation, gens, budget, points", [
        ([["T1"], ["T2"]], ("T1", "T2"), None, None),
        ([["T1"], ["T2"]], ("T1", "T2"), "1,1,1", None),
        ([["T1"], ["T2"]], ("T1", "T2"), "6,20,100000", None),
        ([["T1"], ["T2"]], ("T1", "T2"), "0,0,0",
         "2 points\n0: (0)\n1: (T1, T2)\n"),
        ([["0"], ["1", "T1"]], ("T1",), None, None),
        ([["0"], ["1", "T1"]], ("T1",), "6,20,100000", None),
        ([["0"], ["1", "T1"]], ("T1",), "0,0,0", "1 points\n0: (0)\n"),
        ([["0"], ["1", "T1"]], ("T1",), "1,1,1", "1 points\n0: (0)\n"),
    ])
    def test_budget_sets_the_guard_of_a_file(self, capsys, tmp_path,
                                             relation, gens, budget, points):
        # None: the guard finds the improper pair within the budget
        path = tmp_path / "x.json"
        path.write_text(json.dumps(_json_blueprint(relation, gens)))
        flags = ("--budget", budget) if budget else ()
        code, out, err = run(capsys, "spec", str(path), *flags)
        if points is None:
            assert code == 1 and out == ""
            assert err.startswith("error: relations identify ")
        else:
            assert (code, out, err) == (0, points, "")

    @pytest.mark.parametrize("verb", ["spec", "count", "polyfit", "cspec",
                                      "k0"])
    @pytest.mark.parametrize("ref", ["sl2", "f1n:4", "two_fields:2,3"])
    def test_budget_does_not_reach_catalog_objects(self, capsys, verb, ref):
        assert run(capsys, verb, ref, "--budget", "0,0,0") == \
            run(capsys, verb, ref)

    def test_catalog_verb_takes_no_budget(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["catalog", "build", "sl2", "--budget", "1,2,3"])
        assert exc.value.code == 2
        assert "--budget" in capsys.readouterr().err


# sha256 of stdout for every family and rank <= 4 (D from rank 2), computed
# with the parabolic-coset Coxeter complex that the orbit build replaced.
COMPLEX_JSON_SHA256 = [
    ('coxeter A 1 --json',
     'bebe2c831de61e333ee083a8b3db1a7535e30ab8b510b80cc09102fecdb2d642'),
    ('orbit A 1 --json',
     '6da2c4bdb57f2de50cc8fb54f40de043180c47422576c88a6ce05765aa3b2ce4'),
    ('coxeter A 2 --json',
     '9e6c7700e2f26514ba276d47190332eb7dee78ef87967ae4e5a24a13684682e0'),
    ('orbit A 2 --json',
     '75655983f3abc3e86ae452aafd5205224399ad858ba635ab1eb5a712428e5d35'),
    ('coxeter A 3 --json',
     '045a65f671633704f62e681c8a7e28e5b63bd1835d6cd86832464301c362e15c'),
    ('orbit A 3 --json',
     'f000fab13c94294f5d7d6d93a282b5d189ee30e4196ad396bd6950c37483d924'),
    ('coxeter A 4 --json',
     'beb89827eacc46aba429f055785f26485ac392750accaac0212677a49e842a89'),
    ('orbit A 4 --json',
     '9481614bcbfc5cb50bcd79d2f5bef1816596edf99c7c40a7530169870efd07aa'),
    ('coxeter B 1 --json',
     '74c21258db601bbfe6e0982c058a97e0d4940ab1c0fb1931b22714faedc7f3ed'),
    ('orbit B 1 --json',
     'b7aa42442b520d7e3e705030a36201924968ab693af3310483a60a70e7c306a0'),
    ('coxeter B 2 --json',
     'e4ffac98c4ab7b8a630ff7155cf6455aa0d80909ab1a7f4c6ceefe531d4bf21c'),
    ('orbit B 2 --json',
     '0e3dfef00d840a5ac15f719719bc65031a029d38f0efa2991fb7dcc9bef4942e'),
    ('coxeter B 3 --json',
     'c2b74b30411a7174846aa8adbd61581c12b0a698a9a1c0bd99c262fc49b8342d'),
    ('orbit B 3 --json',
     'dbd98778bf1c27432c7258700546fdd326d4739174d1a8036a865ee4c8239437'),
    ('coxeter B 4 --json',
     '683d171c508259cbe9544f013ccafb9d178732de2b033425a69858571de137bb'),
    ('orbit B 4 --json',
     'ba6a8a8773922b130b1ddb960b6f8af7d2a32ac8e5d9511b944fa7ef9da25371'),
    ('coxeter C 1 --json',
     '74c21258db601bbfe6e0982c058a97e0d4940ab1c0fb1931b22714faedc7f3ed'),
    ('orbit C 1 --json',
     '6da2c4bdb57f2de50cc8fb54f40de043180c47422576c88a6ce05765aa3b2ce4'),
    ('coxeter C 2 --json',
     'e4ffac98c4ab7b8a630ff7155cf6455aa0d80909ab1a7f4c6ceefe531d4bf21c'),
    ('orbit C 2 --json',
     'a40c24ed4f99b0ac1590e66571f567f1cb00e84b456a0f37fd74cd7259f24278'),
    ('coxeter C 3 --json',
     'c2b74b30411a7174846aa8adbd61581c12b0a698a9a1c0bd99c262fc49b8342d'),
    ('orbit C 3 --json',
     '2ac56c281cdacbf02e555d33e7289c1f1c3aa04c3b7f2804d22092c029a6e4e7'),
    ('coxeter C 4 --json',
     '683d171c508259cbe9544f013ccafb9d178732de2b033425a69858571de137bb'),
    ('orbit C 4 --json',
     'ed026891dd917abe1ac26607ba7bb8d1ccbe8fcbba564a19b86f6b3c56a64070'),
    ('coxeter D 2 --json',
     '1251db4d5224308772253bc59ec1702073c7a56e4f0a8fb0e38d55a0e577b49f'),
    ('orbit D 2 --json',
     '376e86a86791dd8df551d4a473e45b2640500ff02c8e54354af9d3ddcd4cf783'),
    ('orbit D 2 --plain --json',
     'd678bbdd171e62325deb7f3c1f2343f9367a101c8aa6a69ed844925cd3f3e6ca'),
    ('coxeter D 3 --json',
     '2fe088e50951a4c208770b22c67021368be6159d85adc2be0361a6e64416a9b0'),
    ('orbit D 3 --json',
     'd48ccaba7047c896b72be6cbd16a365c13ee044c909d92d1ea5a833cc06f994a'),
    ('orbit D 3 --plain --json',
     '5e754f6e5d2e287aefcb4f46da354e81929897fabf347820a91344d8bc624afb'),
    ('coxeter D 4 --json',
     '944e6abfb9f45aa8737a59696bd5c6ae47a13854d1fea06334d9f2317e707064'),
    ('orbit D 4 --json',
     '7540329d434082a681c5434b6fd0539523a1973ff3aaa45b6c40f6a89f7c08f6'),
    ('orbit D 4 --plain --json',
     '8896c0205ec1f358dcf4fbf22a90040de2d691c0d3a6bc63960e15104ff4b5da'),
]


class TestCoxeterAndOrbitPinned:
    @pytest.mark.parametrize("argv,digest", COMPLEX_JSON_SHA256)
    def test_json_bytes(self, capsys, argv, digest):
        code, out, _ = run(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv", [
        ("coxeter", "B", "0"), ("coxeter", "D", "1"), ("coxeter", "A", "-1"),
        ("coxeter", "A", "0"), ("orbit", "D", "1", "--plain"),
        ("orbit", "C", "0")])
    def test_rank_naming_no_group_is_an_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: no Coxeter group")


# sha256 of stdout of the spectra verbs, computed while `_monomial_primes`
# still sorted its candidates and the writers scanned all n^2 index pairs.
SPECTRA_SHA256 = [
    ('spec A0 --json',
     '71c61777770077a08e880c63b24b84cbd8725c5104d433924da7b939ade12e49'),
    ('spec A0 --dot',
     '9861331f793406d629bdb24f69eb2a419d3de7eb8ffe31f1161b77e54656c5d2'),
    ('spec A0',
     '98eb9719dcdf51d6d5445f5e160ea30ff18ae843fcfddae93ef49a141ceecf2d'),
    ('hasse A0',
     '9861331f793406d629bdb24f69eb2a419d3de7eb8ffe31f1161b77e54656c5d2'),
    ('spec A1 --json',
     'd9572b23c23242acb6563c983fe4e9b0226dc4188d372fbca22ea67367280203'),
    ('spec A1 --dot',
     'd973d1525ec645862b9434626e125f18b5967b4013dba844e7efdb4c6d79bbd8'),
    ('spec A1',
     '04f1f580ebb06c133d309ac4f93c0f27231ff0c24e8533c01cb8de5df6b303ab'),
    ('hasse A1',
     'd973d1525ec645862b9434626e125f18b5967b4013dba844e7efdb4c6d79bbd8'),
    ('spec A2 --json',
     'b8d829647ba5d010349f37c9abeb9454e70f2f25db8ac5b2db0a4206c8bb3c99'),
    ('spec A2 --dot',
     '08562149c90e5b2eeb03b9641ff9faf6326d28eaebccce36c71e9df9b75effdb'),
    ('spec A2',
     '8c4ec485e3728b35a9c23a68c5cf4e1b19712edd934296172a093d53385038bf'),
    ('hasse A2',
     '08562149c90e5b2eeb03b9641ff9faf6326d28eaebccce36c71e9df9b75effdb'),
    ('spec A3 --json',
     'b594f12d14f200b8c667cc3b683522e1c7ede6bb121a73c8383118a9cb6196da'),
    ('spec A3 --dot',
     '89fa8ce07f37ce2f680f877fc0b7f0cde339f7f6a1eed06b9e2b4cc9145b5a2d'),
    ('spec A3',
     'b7643c1df63c1a480a11398b5f2730440195874a039ce8eedec7120e7ca78c7a'),
    ('hasse A3',
     '89fa8ce07f37ce2f680f877fc0b7f0cde339f7f6a1eed06b9e2b4cc9145b5a2d'),
    ('spec A4 --json',
     '44d20bc8d8341aa5c43ac28db306b31bd37ccf79d20060223bc56a186e676ef6'),
    ('spec A4 --dot',
     '28e9e9b7c5c490f18c2b2ba7ba75ca9814345ff9aa686ce2ed62a6490609f3e7'),
    ('spec A4',
     '7e5dcac3dcf833830f00780393020034ef12e479982c91715d5c9db3597f662e'),
    ('hasse A4',
     '28e9e9b7c5c490f18c2b2ba7ba75ca9814345ff9aa686ce2ed62a6490609f3e7'),
    ('spec A5 --json',
     '52c468676650fe6077f1befc81229ed4bba2af6bf23885967bc858a919c3383c'),
    ('spec A5 --dot',
     'fbe74ee036fcda326e7f7b3129d15b062c2e4c884ee41c7bc7c97653aa91ebf4'),
    ('spec A5',
     'a23a31e14a3d38b179c2205011dc83070c1795f128ab5e1ba95ec33b3fa953c9'),
    ('hasse A5',
     'fbe74ee036fcda326e7f7b3129d15b062c2e4c884ee41c7bc7c97653aa91ebf4'),
    ('spec A6 --json',
     'd4329a01c53ad452691ae665c68fb27f35daf651b36532a75099e6234d5a49d6'),
    ('spec A6 --dot',
     'b9f0980babf8a94ad76ff393d67587484ed00225a743a43426d6ad39bd3157b1'),
    ('spec A6',
     'bce2b82319b54a9740d8856470a116b6c1ee577e9430e1edaaac0554bb720000'),
    ('hasse A6',
     'b9f0980babf8a94ad76ff393d67587484ed00225a743a43426d6ad39bd3157b1'),
    ('spec A7 --json',
     'f6b6ab595d9f5d0c07b8a821c88a9268281f0546b2eaf77526e788122e824767'),
    ('spec A7 --dot',
     'a0798100f715b199aa67f920b5c7a09e204a6110d5e809947ddd31a32ae3220d'),
    ('spec A7',
     '6d2273ea0e74fd669f6b979239877e411bafbdbeead6b9af8bff7e3c7413536b'),
    ('hasse A7',
     'a0798100f715b199aa67f920b5c7a09e204a6110d5e809947ddd31a32ae3220d'),
    ('spec A8 --json',
     '78bdaeb5b67a6ab11810142f2fa1733c812ebad17e285757eb5a18453c34a42c'),
    ('spec A8 --dot',
     '1223c537b304d5a5a4b7aba7722e16725a8c3a16afa8dbe10fac9c4666d50699'),
    ('spec A8',
     'd09884ab214d9e02571b3e021f6737f47e98f900a0306018e0bb7de42fcb5ffc'),
    ('hasse A8',
     '1223c537b304d5a5a4b7aba7722e16725a8c3a16afa8dbe10fac9c4666d50699'),
    ('spec A9 --json',
     'e80cd40ab0026a94ca1b2501f78ed93fe1bc66c5cc8c9bb4da80b211ec31eddc'),
    ('spec A9 --dot',
     'a2c920ef0e8210d98c829c06a502e2c22b7fe946d1511a2a1f304db23c5f6e2b'),
    ('spec A9',
     'd923b6662eb9eb8de2ec28a06a8b60d066be54db38634aa4a7a90bfe2efdd1f9'),
    ('hasse A9',
     'a2c920ef0e8210d98c829c06a502e2c22b7fe946d1511a2a1f304db23c5f6e2b'),
    ('proj P1 --json',
     '8cf0b6579ffe46343bc4718419a2992f5428c676d0b6f1a3ba79e8506143482f'),
    ('proj P1 --dot',
     '003b323216c8dc18374e58bc3a90a755f5341d532dec933be45933753d8a662c'),
    ('proj P1',
     '828cb44a8083bb3115f45c384116ee90d44fcbc90a0543c2f8d5b48cdc47adfb'),
    ('hasse P1',
     '003b323216c8dc18374e58bc3a90a755f5341d532dec933be45933753d8a662c'),
    ('proj P2 --json',
     '392547f025fb688f42e90809128c5402d5abdb5a2346937b5fcfabb5419d852d'),
    ('proj P2 --dot',
     'e39ee41bbbbb0e0ea3f5a65eb17a11f85721df7b6ea4e27003e1e7e81b6b33fc'),
    ('proj P2',
     '2e6e6723be1a8df0075d02e5aeb20890a5bc8248fcd0f2266a4336c6e70c7069'),
    ('hasse P2',
     'e39ee41bbbbb0e0ea3f5a65eb17a11f85721df7b6ea4e27003e1e7e81b6b33fc'),
    ('proj P3 --json',
     '87cdf8134a4beee8f56682940a0d16a099bedc637795cbaf385e853105c41d27'),
    ('proj P3 --dot',
     '78741653d2960d0912da58d31650e215473b79add5bd0320e8c9788a716d1378'),
    ('proj P3',
     '6ab5e3708c7fefd02e15c7d3cadae7a288fb4e586536cb35c7e8f3a9a1aa5bf7'),
    ('hasse P3',
     '78741653d2960d0912da58d31650e215473b79add5bd0320e8c9788a716d1378'),
    ('proj P4 --json',
     '4c236b3649988fbb93ca8b91da4394cf4d5a90e61041a1c97494cb6861cc437c'),
    ('proj P4 --dot',
     '910310a402bf47c3c8e33edc52142bff16e9464edf21a5a6f5398afa6906a182'),
    ('proj P4',
     '2a4bca5e1af456089d2e165929e4e05bc660dc24ec465a6a2c6f25e6fc23176d'),
    ('hasse P4',
     '910310a402bf47c3c8e33edc52142bff16e9464edf21a5a6f5398afa6906a182'),
    ('proj P5 --json',
     'f46a48677d872de4813bbde647a66bbf98ccd147ddbc427c8b527ff56cd95a32'),
    ('proj P5 --dot',
     '88b75759f09f3482b8ee9b28cb40bac76f02f269342c1970b234be882ad16f13'),
    ('proj P5',
     '3f168be2334f64be314098e8472c0b03b79237c67638268aee324373be6aec03'),
    ('hasse P5',
     '88b75759f09f3482b8ee9b28cb40bac76f02f269342c1970b234be882ad16f13'),
    ('proj gr:2,4 --json',
     '8b499e0c6232637422008be7723adb3f9fd96077fc368a0ec28f3ea34b0584b4'),
    ('proj gr:2,4 --dot',
     '8044398b67d46cd14750f7ccf2f504340f8b491d58804ca3b8e1094fa6d2ac29'),
    ('hasse gr:2,4',
     '8044398b67d46cd14750f7ccf2f504340f8b491d58804ca3b8e1094fa6d2ac29'),
    ('spec sl2 --json',
     '7ba362775263b3cc27f87f24092d8e6864e91efe09555bc56af805e618f70d60'),
    ('spec sl2 --dot',
     'c77875cdb47ffcf2e045a625187f961978dce2b0218c22d7ef4dd3ac2183cf53'),
    ('spec sl2',
     'd3826abdf0191ac889191963a186b0ece804a6e68bd189da90b5f0200796bd44'),
    ('hasse sl2',
     'c77875cdb47ffcf2e045a625187f961978dce2b0218c22d7ef4dd3ac2183cf53'),
    ('spec two_fields:2,3 --json',
     '569945d876655cee6d767e9948101d996eafa2b4aa51260c0d8ea15c4eac753e'),
    ('spec two_fields:2,3 --dot',
     'b5f953e33bc20e9f948a2adeaa2d21f0d3e1e2d9be680c9ecd9055cb88817c07'),
    ('spec two_fields:2,3',
     '2c77d895f5ba9a2938728c0ca54cdafbb1066ece2b7a24a6840a9041b4cecf16'),
    ('hasse two_fields:2,3',
     'b5f953e33bc20e9f948a2adeaa2d21f0d3e1e2d9be680c9ecd9055cb88817c07'),
    ('complex A2 --json',
     '4acc46bc1699fcd38c290eae2c55c05a63ca56f00fbb155752eeedc2ced09b98'),
    ('complex A3 --json',
     '24bfee5575964bd1b678ec7528a132e05a4722dccb7fb2e9187b6ef4dcdb52ee'),
    ('complex P2 --json',
     '93ac927b6fd3e77db31935c698dce27a39b0bf81ecc05e47cb4bdb55e0564789'),
    ('complex P3 --json',
     '2173a2fe95c0275485e3ff2688ce544401ddd485290daf460ecd355a4d646aaa'),
    ('complex sl2 --json',
     'dd4951db56113d7976c036803c0d066f522ed38d297e7547c7bff565e2ebbfbe'),
]


def reference_specialization(space):
    """The n^2 scan of `space.lt`, kept as the oracle for the mask read."""
    n = len(space)
    return sorted([i, j] for i in range(n) for j in range(n) if space.lt(i, j))


class TestSpectraVerbsPinned:
    @pytest.mark.parametrize("argv,digest", SPECTRA_SHA256)
    def test_bytes(self, capsys, argv, digest):
        code, out, _ = run(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        verb, ref, *flags = argv.split()
        if verb in ("spec", "proj") and flags == ["--json"]:
            space = _space_of(catalog.build(ref))
            assert json.loads(out)["specialization"] == \
                reference_specialization(space)


# sha256 of stdout of the congruence spectrum and K0 verbs, computed while
# each congruence verdict built the quotient B/~ as a `Blueprint` and blue
# modules held their action as a dict (b, m) -> b·m.
CSPEC_K0_SHA256 = [
    ('cspec f1 --json',
     '2a77192028991f54864317ab4210c860e18b7eb350438525e40a6797145b2b36'),
    ('cspec f12 --json',
     '91af753c5186ddadce599090346a988334bae07e78030af3da435ffdf9412173'),
    ('cspec b1 --json',
     '2a77192028991f54864317ab4210c860e18b7eb350438525e40a6797145b2b36'),
    ('cspec idempotent --json',
     '659fd94e92daf378f7f1f5b2212a14a96309fe7481542dc340046fcc56118855'),
    ('cspec catalog:f1n:2 --json',
     '91af753c5186ddadce599090346a988334bae07e78030af3da435ffdf9412173'),
    ('cspec catalog:f1n:3 --json',
     'b6aae5d2d21f1e8c0d9834ed4da7b8ab9f4bc13711f027d68c0284d50b4ecc47'),
    ('cspec catalog:f1n:4 --json',
     'd49e121925f6ed26f6111820f6065154f5f3f4a3759cc2e9a844714cf12045e2'),
    ('cspec catalog:f1n:5 --json',
     '20b9504518dc154dde0108439b76b48db041817aef728aed3ced0c1f38636c50'),
    ('cspec catalog:roots_sums:4 --json',
     'd49e121925f6ed26f6111820f6065154f5f3f4a3759cc2e9a844714cf12045e2'),
    ('cspec catalog:two_fields:2,3 --json',
     '877b2c343e2f592428ae1b53d796d7261484e99b076927313c0c0d270310e38c'),
    ('cspec catalog:product_ring:2,3 --json',
     '47730ba9e466d4e476690978fb4a73254481641e5ff9528b84c57beb15fc100a'),
    ('k0 f1 --bound 5 --json',
     '9ab215b0aba00c437ea99cc94b19afab1477f4a41ce7d6d357261ee07fe76dbe'),
    ('k0 f1 --bound 6 --json',
     '1f0e83ec77ffee2c4434a9d7d3f2242cce28ce0e2ca058dca9267f8dbd0b2365'),
    ('k0 f12 --bound 5 --json',
     'e8a6e4ccd918a4732b7aa7d1833cc80a8352356042bc20d1505a8f977670ffb6'),
    ('k0 f12 --bound 6 --json',
     'e8a6e4ccd918a4732b7aa7d1833cc80a8352356042bc20d1505a8f977670ffb6'),
    ('k0 b1 --bound 5 --json',
     '9ab215b0aba00c437ea99cc94b19afab1477f4a41ce7d6d357261ee07fe76dbe'),
    ('k0 b1 --bound 6 --json',
     '1f0e83ec77ffee2c4434a9d7d3f2242cce28ce0e2ca058dca9267f8dbd0b2365'),
    ('k0 idempotent --bound 5 --json',
     'f6c167c68bdb3e3897551f4e74a7267e7a466bb4c349c4e234300ac9bf96f848'),
    ('k0 idempotent --bound 6 --json',
     'e189f781deda8a4b78fc9b20bd506585bdd32b4d1cc1a9ea3ce77eeb16181fcb'),
    ('k0 catalog:f1n:2 --bound 5 --json',
     'e8a6e4ccd918a4732b7aa7d1833cc80a8352356042bc20d1505a8f977670ffb6'),
    ('k0 catalog:f1n:2 --bound 6 --json',
     'e8a6e4ccd918a4732b7aa7d1833cc80a8352356042bc20d1505a8f977670ffb6'),
    ('k0 catalog:f1n:3 --bound 5 --json',
     '194f1a43cfdfba32a5ee5ad2ba1a9bb4c0d45cbe221889b5ee973e23380bb0ee'),
    ('k0 catalog:f1n:3 --bound 6 --json',
     '194f1a43cfdfba32a5ee5ad2ba1a9bb4c0d45cbe221889b5ee973e23380bb0ee'),
    ('k0 catalog:f1n:4 --bound 5 --json',
     'a38db49487db52d7959f11e6afcdffe5b749a02d72522e4c3d4a72fa21ead976'),
    ('k0 catalog:f1n:4 --bound 6 --json',
     'a38db49487db52d7959f11e6afcdffe5b749a02d72522e4c3d4a72fa21ead976'),
    ('k0 catalog:f1n:5 --bound 5 --json',
     'a057098933c839c6c9ac43f4f27522a8a8f019f1a3bb69f7f996f775df84dcea'),
    ('k0 catalog:f1n:5 --bound 6 --json',
     '4e724e30e80b88dd09f14c8f26c50f891b4cf268660817761ffc651317cf561d'),
    ('k0 catalog:roots_sums:4 --bound 5 --json',
     'a38db49487db52d7959f11e6afcdffe5b749a02d72522e4c3d4a72fa21ead976'),
    ('k0 catalog:roots_sums:4 --bound 6 --json',
     'a38db49487db52d7959f11e6afcdffe5b749a02d72522e4c3d4a72fa21ead976'),
    ('k0 catalog:two_fields:2,3 --bound 5 --json',
     'f6c167c68bdb3e3897551f4e74a7267e7a466bb4c349c4e234300ac9bf96f848'),
    ('k0 catalog:two_fields:2,3 --bound 6 --json',
     '67429cd905c67096105af197b1ea5ffe6c312f25cd60cf5a7196cbce36f997ce'),
    ('k0 catalog:product_ring:2,3 --bound 5 --json',
     'f6c167c68bdb3e3897551f4e74a7267e7a466bb4c349c4e234300ac9bf96f848'),
    ('k0 catalog:product_ring:2,3 --bound 6 --json',
     '67429cd905c67096105af197b1ea5ffe6c312f25cd60cf5a7196cbce36f997ce'),
]


class TestCongruenceAndK0VerbsPinned:
    @pytest.mark.parametrize("argv,digest", CSPEC_K0_SHA256)
    def test_json_bytes(self, capsys, argv, digest):
        code, out, _ = run(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest
