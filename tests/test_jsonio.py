"""JSON round-trips for blueprints, schemes, and quiver representations."""

import json
import os
import subprocess
import sys

import pytest

from blueforge import catalog, jsonio
from blueforge import quivergrass as qg
from blueforge.core import parse_element


CASES = ["f1", "f1_squared", "b1", "sl2", "sl2_minors", "idempotent"]


class TestBlueprintRoundTrip:
    @pytest.mark.parametrize("name", CASES)
    def test_value_round_trip(self, name):
        bp = catalog.build(name)
        text = jsonio.blueprint_dumps(bp)
        back = jsonio.blueprint_loads(text)
        assert back.relations == bp.relations
        if bp.backend.kind == "monomial":
            assert back.backend.gens == bp.backend.gens
            assert back.backend.inverted == bp.backend.inverted
        else:
            assert back.backend.symbols == bp.backend.symbols
            assert back.backend.mul_table == bp.backend.mul_table

    @pytest.mark.parametrize("name", CASES + ["affine:3", "torus:2", "f1n:4"])
    def test_bit_exact_round_trip(self, name):
        bp = catalog.build(name)
        text = jsonio.blueprint_dumps(bp)
        again = jsonio.blueprint_dumps(jsonio.blueprint_loads(text))
        assert text == again

    def test_quotient_with_lattice(self, sl2, sl2_space):
        from blueforge.core import quotient_by_ideal
        p = next(pt for pt in sl2_space.points if pt.label() == "(T2, T3)")
        q = quotient_by_ideal(sl2, p.ideal)
        text = jsonio.blueprint_dumps(q)
        back = jsonio.blueprint_loads(text)
        assert back.backend.lattice == q.backend.lattice
        assert back.backend.inverted == q.backend.inverted

    def test_monomial_grammar(self, sl2):
        assert parse_element(sl2, "T1*T4") == \
            sl2.mul(sl2.backend.gen_element("T1"),
                    sl2.backend.gen_element("T4"))
        assert parse_element(sl2, "T1^2*T2") == \
            sl2.backend.normalize(("1", (2, 1, 0, 0)))
        assert parse_element(sl2, "0") == sl2.zero()
        assert parse_element(sl2, "1") == sl2.one()

    def test_grammar_with_coefficient(self, f12):
        from blueforge.core import Blueprint, MonomialBackend
        bp = Blueprint(MonomialBackend(f12, ("T",)))
        elem = parse_element(bp, "-1*T^2")
        assert elem == ("-1", (2,))
        assert bp.render(elem) == "-1*T^2"


class TestSchemeRoundTrip:
    def test_p2_round_trip(self):
        ps = catalog.proj_space(2)
        data = jsonio.scheme_to_json(ps)
        back = jsonio.scheme_from_json(data)
        assert len(back.charts) == 3
        assert len(back.gluings) == len(ps.gluings)
        assert len(back.point_space()) == 7

    def test_scheme_json_is_json(self):
        text = jsonio.dumps(jsonio.scheme_to_json(catalog.proj_space(1)))
        json.loads(text)


class TestQuiverRoundTrip:
    def test_round_trip(self):
        quiver = qg.Quiver(2, ((0, 1),))
        rep = qg.IntegralRep(quiver, (2, 2), [[[2, 0], [0, 3]]])
        data = jsonio.quiver_rep_to_json(rep, e=(1, 1))
        back, e = jsonio.quiver_rep_from_json(data)
        assert e == (1, 1)
        assert back.dims == (2, 2)
        assert back.matrices[0] == rep.matrices[0]
        again = jsonio.quiver_rep_to_json(back, e=e)
        assert jsonio.dumps(data) == jsonio.dumps(again)

    def test_flat_matrix_rejected_with_shape(self):
        data = {"vertices": 2, "arrows": [[0, 1]], "dims": [2, 2],
                "matrices": [[1, 0, 0, 1]], "e": [1, 1]}
        with pytest.raises(ValueError, match=r"0->1 must be 2x2: a list of 2"
                                             r" rows of 2 integers"):
            jsonio.quiver_rep_from_json(data)

    @pytest.mark.parametrize("matrix", [[[1.7, 0], [0, 1]], [["1", 0], [0, 1]],
                                        [[1.0, 0], [0, 1]]])
    def test_non_integer_entry_rejected(self, matrix):
        data = {"vertices": 2, "arrows": [[0, 1]], "dims": [2, 2],
                "matrices": [matrix]}
        with pytest.raises(ValueError, match="arrow 0->1 has an entry"):
            jsonio.quiver_rep_from_json(data)

    def test_non_integer_dims_rejected(self):
        data = {"vertices": 2, "arrows": [[0, 1]], "dims": [2.0, 2],
                "matrices": [[[1, 0], [0, 1]]], "e": [1, 1]}
        with pytest.raises(ValueError, match="dims must be a list of integers"):
            jsonio.quiver_rep_from_json(data)

    def test_zero_dimensional_vertex(self):
        # The arrow 0 -> 1 into a vertex of dimension 0 carries a 0 x 2
        # matrix, which has no rows; its Grassmannian at e = (1, 0) is P^1.
        quiver = qg.Quiver(2, ((0, 1),))
        direct = qg.IntegralRep(quiver, (2, 0), [[]])
        data = {"vertices": 2, "arrows": [[0, 1]], "dims": [2, 0],
                "matrices": [[]], "e": [1, 0]}
        loaded, e = jsonio.quiver_rep_from_json(data)
        assert e == (1, 0)
        assert jsonio.quiver_rep_to_json(direct, e) == data
        for rep in (direct, loaded):
            assert rep.matrices == ((),)
            assert qg.chi_via_interpolation(rep, e) == 2
            for q in (2, 3, 4, 5):
                assert qg.subrep_count_fq(rep, e, q) == q + 1
        with pytest.raises(ValueError, match="must be 0x2"):
            qg.IntegralRep(quiver, (2, 0), [[[]]])

    def test_numpy_input_matches_lists(self):
        # Callers may still pass numpy arrays of integers.
        np = pytest.importorskip("numpy")
        quiver = qg.Quiver(3, ((0, 1), (2, 1)))
        lists = [[[1, 0], [0, 1]], [[-1, 0], [0, 3]]]
        arrays = [np.eye(2, dtype=int), np.diag([-1, 3])]
        from_lists = qg.IntegralRep(quiver, (2, 2, 2), lists)
        from_arrays = qg.IntegralRep(quiver, (2, 2, 2), arrays)
        assert from_arrays.matrices == from_lists.matrices
        assert all(type(x) is int for m in from_arrays.matrices
                   for row in m for x in row)
        e = (1, 1, 1)
        for q in (3, 7, 9):
            assert qg.subrep_count_fq(from_arrays, e, q) == \
                qg.subrep_count_fq(from_lists, e, q)
        assert qg.chi_via_interpolation(from_arrays, e) == \
            qg.chi_via_interpolation(from_lists, e)
        assert qg.weyl_count_diagonal_tree(from_arrays, e) == \
            qg.weyl_count_diagonal_tree(from_lists, e)
        assert jsonio.dumps(jsonio.quiver_rep_to_json(from_arrays, e)) == \
            jsonio.dumps(jsonio.quiver_rep_to_json(from_lists, e))


def test_no_module_imports_numpy():
    # Importing every module loads only the standard library and blueforge:
    # no numpy, and no runtime sympy (a test-only oracle).
    import blueforge
    src = os.path.dirname(os.path.dirname(blueforge.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import pkgutil, importlib, sys\n"
            "before = set(sys.modules)\n"
            "import blueforge\n"
            "for mod in pkgutil.iter_modules(blueforge.__path__):\n"
            "    if mod.name != '__main__':\n"
            "        importlib.import_module('blueforge.' + mod.name)\n"
            "tops = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
            "print(sorted(tops - sys.stdlib_module_names - {'blueforge'}))\n")
    out = subprocess.run([sys.executable, "-c", code], check=True, env=env,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_no_module_reads_the_environment():
    # Budgets and every other setting are passed as arguments: the library
    # reads no environment variable.
    import blueforge
    pkg = os.path.dirname(blueforge.__file__)
    readers = ("environ", "getenv")
    found = []
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                found += [f"{name}:{i}" for i, line in enumerate(fh, 1)
                          if any(r in line for r in readers)]
    assert found == []
