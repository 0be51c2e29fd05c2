"""Proj, projective spaces, closed subschemes, products, scheme point counts."""

import itertools

import pytest

from blueforge import catalog, jsonio
from blueforge.core import Blueprint, BlueprintError, MonomialBackend
from blueforge.counting import fq_morphisms
from blueforge.schemes import (BlueScheme, GradedBlueprint,
                               check_triple_overlaps,
                               closed_subscheme_from_integer_relations,
                               fq_points_of_scheme, product, proj)
from blueforge.spectra import spec


def reference_chart_count(scheme, q):
    """Points of a chart-glued scheme by listing every chart morphism and
    keeping those that send each generator the chart inverts on a gluing to
    an earlier chart to 0."""
    total = 0
    for i, chart in enumerate(scheme.charts):
        lower = [g for g in scheme.gluings if g.i == i and g.j < i]
        for f in fq_morphisms(chart, q):
            vals = [f.apply(chart.backend.gen_element(g.invert_i))
                    for g in lower]
            if all(v == "0" for v in vals):
                total += 1
    return total


class TestProj:
    def test_p1_three_points(self):
        P = proj(catalog.proj_cone(1))
        assert P.labels() == ["(0)", "(T0)", "(T1)"]
        assert len(P.closed_points()) == 2
        assert len(P.generic_points()) == 1

    def test_p2_seven_points(self):
        P = proj(catalog.proj_cone(2))
        assert len(P) == 7

    def test_scheme_uses_its_graded_model(self):
        # proj of a BlueScheme raised AttributeError (positive_generators)
        scheme = catalog.proj_space(2)
        P = proj(scheme)
        assert P.labels() == proj(scheme.graded_model).labels()
        assert len(P) == 7

    @pytest.mark.parametrize("obj", [
        lambda: BlueScheme(catalog.proj_space(1).charts,
                           catalog.proj_space(1).gluings),
        lambda: catalog.affine_space(2)])
    def test_without_a_graded_model_is_an_error(self, obj):
        with pytest.raises(BlueprintError, match="graded blueprint"):
            proj(obj())

    def test_pn_point_counts_and_subset_order(self):
        for n in range(0, 7):
            P = proj(catalog.proj_cone(n))
            assert len(P) == 2 ** (n + 1) - 1
        # anti-isomorphic to proper nonempty subsets of {0..n} by inclusion
        n = 3
        P = proj(catalog.proj_cone(n))
        coords = set(f"T{k}" for k in range(n + 1))
        complements = [coords - set(p.generator_names()) for p in P.points]
        assert sorted(map(len, complements)) == sorted(
            len(s) for r in range(1, n + 2) for s in
            itertools.combinations(range(n + 1), r))
        for i in range(len(P)):
            for j in range(len(P)):
                assert P.leq(i, j) == (complements[i] >= complements[j])

    def test_gr24_poset(self, gr24):
        G = proj(gr24)
        assert len(G.closed_points()) == 6
        assert len(G.generic_points()) == 1

    def test_homogeneity_enforced(self, f1):
        backend = MonomialBackend(f1, ("X", "Y"))
        x, y = backend.gen_element("X"), backend.gen_element("Y")
        bad = Blueprint(backend, [([backend.mul(x, y)], [x])],
                        check_proper=False)
        with pytest.raises(BlueprintError):
            GradedBlueprint(bad, {"X": 1, "Y": 1})


class TestProjectiveSpaceScheme:
    def test_chart_count(self):
        ps = catalog.proj_space(2)
        assert len(ps.charts) == 3
        assert all(len(c.backend.gens) == 2 for c in ps.charts)

    def test_glued_points_match_proj(self):
        for n in (1, 2):
            ps = catalog.proj_space(n)
            glued = ps.point_space()
            assert len(glued) == 2 ** (n + 1) - 1

    def test_triple_overlap_compatibility(self):
        for n in (1, 2, 3):
            assert check_triple_overlaps(catalog.proj_space(n))

    def test_gluings_are_isomorphisms_onto_principal_opens(self):
        from blueforge.schemes import _gluing_morphism
        from blueforge.core import is_morphism, PROVED
        ps = catalog.proj_space(2)
        for g in ps.gluings:
            morph, loc = _gluing_morphism(ps, g)
            assert is_morphism(morph)[0] == PROVED

    def test_p0_single_point(self):
        ps = catalog.proj_space(0)
        assert len(ps.point_space()) == 1


class TestClosedSubscheme:
    def test_sl2_model(self, f1):
        ambient = catalog.affine_space(4)
        g = {n: ambient.backend.gen_element(n) for n in ambient.backend.gens}
        rel = ([ambient.mul(g["T1"], g["T4"])],
               [ambient.mul(g["T2"], g["T3"]), ambient.one()])
        model = closed_subscheme_from_integer_relations(ambient, [rel])
        X = spec(model)
        assert len(X) == 7
        # the inclusion into the ambient spectrum is order-preserving
        Y = spec(ambient)
        index = {p.generator_names(): i for i, p in enumerate(Y.points)}
        emb = [index[p.generator_names()] for p in X.points]
        for i in range(len(X)):
            for j in range(len(X)):
                assert X.leq(i, j) == Y.leq(emb[i], emb[j])

    def test_grassmannian_model(self, gr24):
        assert len(gr24.blueprint.relations) == 1
        assert len(gr24.blueprint.backend.gens) == 6

    def test_empty_relations_unchanged(self):
        ambient = catalog.affine_space(2)
        model = closed_subscheme_from_integer_relations(ambient, [])
        assert model.relations == ambient.relations
        assert model.backend.gens == ambient.backend.gens


class TestProduct:
    def test_a1_times_a1_is_a2(self):
        X = spec(catalog.affine_space(1))
        P = product(X, X)
        assert len(P) == 4
        A2 = spec(catalog.affine_space(2))
        heights = sorted(sum(P.lt(b, a) for b in range(len(P)))
                         for a in range(len(P)))
        heights2 = sorted(sum(A2.lt(b, a) for b in range(len(A2)))
                          for a in range(len(A2)))
        assert heights == heights2

    def test_point_times_x_is_x(self, f1):
        pt = spec(f1)
        X = spec(catalog.affine_space(2))
        P = product(pt, X)
        assert len(P) == len(X)
        for a in range(len(P)):
            for b in range(len(P)):
                assert P.leq(a, b) == X.leq(P.points[a][1], P.points[b][1])

    def test_a1_times_a2_boolean(self):
        P = product(spec(catalog.affine_space(1)),
                    spec(catalog.affine_space(2)))
        assert len(P) == 8
        assert P.projections_continuous()

    def test_unknown_pairs_excluded_with_warning(self, sl2_space):
        with pytest.warns(UserWarning):
            P = product(sl2_space, sl2_space)
        assert P.excluded
        hook = lambda l, i, r, j: True
        P2 = product(sl2_space, sl2_space, compatibility=hook)
        assert len(P2) == 49


class TestSchemePoints:
    def test_p1_counts(self):
        ps = catalog.proj_space(1)
        assert fq_points_of_scheme(ps, 3) == 4

    def test_p2_counts(self):
        assert fq_points_of_scheme(catalog.proj_space(2), 2) == 7

    def test_pn_formula(self):
        for n in range(0, 5):
            ps = catalog.proj_space(n)
            for q in (2, 3, 4, 5):
                assert fq_points_of_scheme(ps, q) == sum(q ** i
                                                         for i in range(n + 1))

    def test_chart_union_matches_graded_model(self):
        for n in (1, 2):
            ps = catalog.proj_space(n)
            graded = ps.graded_model
            ps.graded_model = None
            try:
                for q in (2, 3):
                    assert ps.fq_points(q) == graded.fq_points(q)
            finally:
                ps.graded_model = graded

    def test_chart_counts_match_morphism_loop(self):
        """The chart counts against the loop they replaced: every chart
        morphism built, kept when all its lower-gluing generators map to 0."""
        for n in (1, 2, 3):
            ps = catalog.proj_space(n)
            loaded = jsonio.scheme_from_json(jsonio.scheme_to_json(ps))
            assert loaded.graded_model is None
            for q in (2, 3, 4, 5):
                expected = reference_chart_count(loaded, q)
                assert expected == sum(q ** i for i in range(n + 1))
                assert loaded.fq_points(q) == expected, (n, q)

    def test_chart_counts_with_inverted_gluing_generator(self):
        """A generator inverted on its own chart can never map to 0, so the
        chart that must send it to 0 contributes nothing."""
        ps = catalog.proj_space(1)
        u0, u1 = ps.charts
        inverted = Blueprint(MonomialBackend(catalog.f1(), u1.backend.gens,
                                             u1.backend.gens), name="U1*")
        scheme = BlueScheme([u0, inverted], ps.gluings, name="P1*")
        for q in (2, 3, 5):
            assert scheme.fq_points(q) == reference_chart_count(scheme, q) == q

    def test_sl2_brute_force(self, sl2):
        assert fq_points_of_scheme(spec(sl2), 2) == 6

    def test_multiplicativity_on_monoidal_products(self):
        a1 = catalog.affine_space(1)
        a2 = catalog.affine_space(2)
        t1 = catalog.torus(1)
        from blueforge.counting import fq_points
        for q in (2, 3):
            assert fq_points(catalog.affine_space(3), q) == \
                fq_points(a1, q) * fq_points(a2, q)
            assert fq_points(catalog.torus(2), q) == \
                fq_points(t1, q) * fq_points(t1, q)
