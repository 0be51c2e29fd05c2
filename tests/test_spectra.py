"""Spectra, stalks, residue fields, globalization, ranks, Weyl extensions."""

import itertools
import math
import random
import time

import pytest

from blueforge import catalog, counting
from blueforge.budget import Budget
from blueforge.core import (PROVED, REFUTED, UNKNOWN, Blueprint,
                            BlueprintError, MonomialBackend, _derive3, derive,
                            is_blue_field, BlueprintMorphism, is_morphism,
                            field_blueprint, quotient_by_ideal)
from blueforge.schemes import proj
from blueforge.spectra import (globalize, rank_of_point, residue_field, spec,
                               spec_map, stalk, weyl_extension)


class TestSpec:
    def test_affine_line(self, f1):
        X = spec(catalog.affine_space(1))
        assert X.labels() == ["(0)", "(T1)"]
        assert X.lt(0, 1)

    def test_affine_plane(self):
        X = spec(catalog.affine_space(2))
        assert len(X) == 4
        assert X.labels() == ["(0)", "(T1)", "(T2)", "(T1, T2)"]

    def test_affine_n_boolean_lattice(self):
        for n in (3, 4):
            X = spec(catalog.affine_space(n))
            assert len(X) == 2 ** n
            varsets = [frozenset(p.generator_names()) for p in X.points]
            for i in range(len(X)):
                for j in range(len(X)):
                    assert X.leq(i, j) == (varsets[i] <= varsets[j])

    def test_sl2_seven_points(self, sl2_space):
        assert len(sl2_space) == 7
        closed = {sl2_space.points[i].label()
                  for i in sl2_space.closed_points()}
        assert closed == {"(T1, T4)", "(T2, T3)"}

    def test_torus_single_point(self):
        X = spec(catalog.torus(1))
        assert X.labels() == ["(0)"]

    def test_idempotent_two_points(self, idem):
        X = spec(idem)
        assert X.labels() == ["(0)", "(e)"]

    def test_b1_single_point(self, b1):
        assert spec(b1).labels() == ["(0)"]

    def test_two_fields_has_the_phantom_top_point(self):
        # the non-units are additively closed (no rewrite changes the mixed
        # terms of a sum) with multiplicative complement: a third prime
        X = spec(catalog.two_fields(2, 3))
        assert len(X) == 3
        assert len(X.closed_points()) == 1

    def test_each_prime_is_listed_once(self):
        # -W + Z = X + Z over F1^2: (X, Z) and (W, Z) are not closed, and
        # closing them gives (W, X, Z) again, with the generator -1*W resp.
        # -1*X; comparing generator tuples listed that prime three times
        backend = MonomialBackend(catalog.f1_squared(), ("W", "X", "Z"))
        w, x, z = (backend.gen_element(n) for n in backend.gens)
        minus_w = backend.mul(backend.coeff_element("-1"), w)
        X = spec(Blueprint(backend, [([minus_w, z], [x, z])]))
        assert X.labels() == ["(0)", "(W)", "(X)", "(Z)", "(W, X)",
                              "(W, X, Z)"]
        assert X.complete


class TestDecidedSpectra:
    """Monomial spectra are decided without a budget."""

    def test_grassmannian_2_5(self):
        start = time.perf_counter()
        P = proj(catalog.grassmannian_f1(2, 5))
        elapsed = time.perf_counter() - start
        assert len(P) == 171 and P.complete
        closed = P.closed_points()
        assert len(closed) == math.comb(5, 2)
        # a closed point kills every Pluecker coordinate but one
        assert all(len(P.points[i].generator_names()) == 9 for i in closed)
        assert elapsed < 1.0

    def test_affine_10(self):
        X = spec(catalog.affine_space(10))
        assert len(X) == 1024 and X.complete

    def test_tiny_budget_gives_the_same_points(self, sl2_space, gr24):
        tiny = Budget(1, 1, 1)
        for small, full in ((spec(catalog.sl2_f1(), tiny), sl2_space),
                            (spec(gr24.blueprint, tiny), spec(gr24.blueprint)),
                            (proj(gr24, tiny), proj(gr24))):
            assert small.complete
            assert small.labels() == full.labels()
            assert small.covers() == full.covers()


class TestStalkResidue:
    def test_stalk_at_closed_point_of_line(self):
        a1 = catalog.affine_space(1)
        X = spec(a1)
        local = stalk(a1, X.points[1])
        assert local.backend.inverted == frozenset()

    def test_stalk_of_plane_at_coordinate_axis(self):
        a2 = catalog.affine_space(2)
        X = spec(a2)
        p = next(pt for pt in X.points if pt.label() == "(T1)")
        local = stalk(a2, p)
        assert set(local.backend.inverted) == {"T2"}

    def test_residue_field_of_line_at_closed(self):
        a1 = catalog.affine_space(1)
        X = spec(a1)
        kappa = residue_field(a1, X.points[1])
        assert kappa.backend.gens == ()

    def test_residue_field_of_line_at_generic(self):
        a1 = catalog.affine_space(1)
        X = spec(a1)
        kappa = residue_field(a1, X.points[0])
        assert set(kappa.backend.inverted) == {"T1"}
        assert is_blue_field(kappa)

    def test_sl2_residue_at_diagonal_torus(self, sl2, sl2_space):
        p = next(pt for pt in sl2_space.points if pt.label() == "(T2, T3)")
        kappa = residue_field(sl2, p)
        assert is_blue_field(kappa)
        assert kappa.backend.lattice == (((1, 1), "1"),)

    def test_every_residue_field_is_blue(self, sl2, sl2_space):
        for p in sl2_space.points:
            assert is_blue_field(residue_field(sl2, p))

    def test_stalk_maximal_ideal_is_nonunits(self, sl2, sl2_space):
        from blueforge.spectra import maximal_ideal_of_local
        for p in sl2_space.points:
            local = stalk(sl2, p)
            m = maximal_ideal_of_local(local)
            for name in local.backend.gens:
                g = local.backend.gen_element(name)
                assert m.contains(g) == (not local.is_unit(g))


class TestGlobalize:
    def test_global_when_unique_top(self):
        a2 = catalog.affine_space(2)
        assert globalize(a2) is a2

    def test_two_fields_is_global_with_phantom_point(self):
        # with the third prime present the space has a maximum, so Gamma = B
        B = catalog.two_fields(2, 3)
        G = globalize(B)
        assert G is B
        one = "1"
        f2 = "(0,2)"
        assert derive(B, [one, one], [f2], B.budget.scaled(10)) == UNKNOWN
        verdict, forms = _derive3(B, (one, one), (f2,), B.budget)
        assert verdict == REFUTED
        assert forms[0] != forms[1]

    def test_product_ring_derives_the_sum(self):
        R = catalog.product_ring(2, 3)
        assert derive(R, ["1", "1"], ["(0,2)"]) == PROVED
        X = spec(R)
        assert len(X) == 2
        assert all(not X.lt(i, j) for i in range(2) for j in range(2))

    def test_product_ring_globalize_idempotent(self):
        from blueforge.core import finite_blueprints_isomorphic
        R = catalog.product_ring(2, 3)
        G = globalize(R)
        X, Y = spec(R), spec(G)
        assert len(X) == len(Y) == 2
        GG = globalize(G)
        assert len(spec(GG)) == 2
        # stalks match across the globalization, pointwise up to iso
        stalks_r = sorted((stalk(R, p) for p in X.points),
                          key=lambda s: len(s.carrier()))
        stalks_g = sorted((stalk(G, p) for p in Y.points),
                          key=lambda s: len(s.carrier()))
        for a, b in zip(stalks_r, stalks_g):
            assert finite_blueprints_isomorphic(a, b) is not None

    def test_spec_globalize_iso_on_catalog(self, sl2, idem):
        for bp in (catalog.affine_space(1), catalog.torus(1), sl2, idem):
            G = globalize(bp)
            X, Y = spec(bp), spec(G)
            assert sorted(p.generator_names() for p in X.points) == \
                sorted(p.generator_names() for p in Y.points)


class TestRanks:
    def test_affine_plane_ranks(self):
        X = spec(catalog.affine_space(2))
        ranks = {X.points[i].label(): rank_of_point(X, i)
                 for i in range(len(X))}
        assert ranks == {"(0)": 2, "(T1)": 1, "(T2)": 1, "(T1, T2)": 0}

    def test_sl2_ranks(self, sl2_space):
        ranks = [rank_of_point(sl2_space, i) for i in range(len(sl2_space))]
        assert sorted(ranks) == [1, 1, 2, 2, 2, 2, 3]

    @pytest.mark.parametrize("build, want", [
        (lambda: catalog.affine_space(3),
         {"(0)": 3, "(T1)": 2, "(T2)": 2, "(T3)": 2, "(T1, T2)": 1,
          "(T1, T3)": 1, "(T2, T3)": 1, "(T1, T2, T3)": 0}),
        (lambda: catalog.torus(2), {"(0)": 2}),
    ], ids=["A3", "Gm2"])
    def test_affine_and_torus_ranks(self, build, want):
        X = spec(build())
        assert {X.points[i].label(): rank_of_point(X, i)
                for i in range(len(X))} == want

    def test_closures_are_eliminated_once(self, monkeypatch):
        calls = []
        real = counting._eliminate
        monkeypatch.setattr(counting, "_eliminate",
                            lambda bp: calls.append(id(bp)) or real(bp))
        X = spec(catalog.sl2_minors())
        ranks = [rank_of_point(X, i) for i in range(len(X))]
        assert [X.counting_rank(i) for i in range(len(X))] == ranks
        assert sorted(ranks) == [1, 1, 2, 2, 2, 2, 3]
        assert calls and len(calls) == len(set(calls))

    def test_rank_monotone_on_integral_catalog(self, sl2_space):
        for X in (spec(catalog.affine_space(2)), sl2_space,
                  spec(catalog.torus(2))):
            for i in range(len(X)):
                for j in range(len(X)):
                    if X.lt(i, j):
                        assert rank_of_point(X, i) > rank_of_point(X, j)

    def test_torus_recognition_agrees_with_counting(self, sl2_space):
        # closed points have certificates; the agreement check runs inside
        # rank_of_point and would raise on mismatch
        for i in sl2_space.closed_points():
            cert = sl2_space.torus_certificate_at(i)
            assert cert is not None
            assert cert[0] == rank_of_point(sl2_space, i) == 1


class TestWeylExtension:
    def test_sl2(self, sl2_space):
        W = weyl_extension(sl2_space)
        assert len(W) == 2
        assert W.min_rank == 1
        labels = {sl2_space.points[i].label() for i in W.points}
        assert labels == {"(T1, T4)", "(T2, T3)"}
        assert sorted(c[1] for c in W.certificates.values()) == ["F1", "F1^2"]
        assert all(c[0] == 1 for c in W.certificates.values())
        assert W.hypothesis_h

    def test_spec_f1_single_point(self, f1):
        X = spec(f1)
        W = weyl_extension(X)
        assert len(W) == 1 and W.min_rank == 0
        assert W.certificates[0] == (0, "F1")

    def test_proj_plane_weyl(self):
        from blueforge.schemes import proj
        P2 = proj(catalog.proj_cone(2))
        W = weyl_extension(P2)
        assert len(W) == 3
        assert W.min_rank == 0
        assert all(c == (0, "F1") for c in W.certificates.values())


class TestFunctoriality:
    def test_spec_map_continuous(self, sl2):
        f5 = field_blueprint(5)
        f = BlueprintMorphism(sl2, f5, {"T1": "1", "T2": "1", "T3": "1",
                                        "T4": "2"})
        assert is_morphism(f)[0] == PROVED
        X, Y, mapping = spec_map(f)
        for i in range(len(X)):
            for j in range(len(X)):
                if X.leq(i, j):
                    assert Y.leq(mapping[i], mapping[j])

    def test_inclusion_of_line_in_plane(self):
        a1 = catalog.affine_space(1)
        a2 = catalog.affine_space(2)
        f = BlueprintMorphism(a1, a2, {"T1": a2.backend.gen_element("T1")})
        assert is_morphism(f)[0] == PROVED
        X, Y, mapping = spec_map(f)
        assert len(X) == 4 and len(Y) == 2
        assert set(mapping.values()) == {0, 1}

    def test_closed_points_have_quotient_blue_fields(self, sl2, sl2_space):
        for i in range(len(sl2_space)):
            q = quotient_by_ideal(sl2, sl2_space.points[i].ideal)
            closed = i in sl2_space.closed_points()
            assert closed == is_blue_field(q)


def brute_order(n, leq):
    """Hasse edges, closed and generic points of `leq` on range(n), by
    checking every triple."""
    def lt(i, j):
        return i != j and leq(i, j)

    covers = [(i, j) for i in range(n) for j in range(n)
              if lt(i, j) and not any(lt(i, k) and lt(k, j)
                                      for k in range(n))]
    closed = [i for i in range(n) if not any(lt(i, j) for j in range(n))]
    generic = [i for i in range(n) if not any(lt(j, i) for j in range(n))]
    return covers, closed, generic


def brute_up_set(n, leq, indices):
    out = set(indices)
    for i in range(n):
        if any(leq(j, i) for j in out):
            out.add(i)
    return frozenset(out)


def ideal_leq(space):
    pts = space.points
    return lambda i, j: all(pts[j].ideal.contains(g)
                            for g in pts[i].ideal.minimal)


def brute_components(n, leq):
    comp = list(range(n))
    for i in range(n):
        for j in range(n):
            if leq(i, j) and comp[i] != comp[j]:
                old, new = max(comp[i], comp[j]), min(comp[i], comp[j])
                comp = [new if c == old else c for c in comp]
    return sorted([i for i in range(n) if comp[i] == c] for c in set(comp))


def check_order(space, leq):
    n = len(space)
    for i in range(n):
        for j in range(n):
            assert space.leq(i, j) is leq(i, j)
            assert space.lt(i, j) is (i != j and leq(i, j))
    covers, closed, generic = brute_order(n, leq)
    assert space.covers() == covers
    assert space.closed_points() == closed
    if hasattr(space, "generic_points"):
        assert space.generic_points() == generic
        rng = random.Random(n)
        subsets = [[i] for i in range(n)]
        subsets += [rng.sample(range(n), min(n, 3)) for _ in range(10)]
        for sub in subsets + [[]]:
            assert space.up_set(sub) == brute_up_set(n, leq, sub)
        components = brute_components(n, leq)
        assert space.connected_components() == components
        assert space.is_connected() == (len(components) <= 1)


class TestOrderAgainstBruteForce:
    def test_affine_spaces(self):
        for n in range(1, 7):
            X = spec(catalog.affine_space(n))
            check_order(X, ideal_leq(X))

    def test_projective_spaces(self):
        for n in range(1, 5):
            P = proj(catalog.proj_cone(n))
            check_order(P, ideal_leq(P))

    def test_sl2_models_and_grassmannian(self, sl2_space, gr24):
        for X in (sl2_space, spec(catalog.sl2_minors()), proj(gr24)):
            check_order(X, ideal_leq(X))

    def test_finite_catalog_entries(self):
        for bp in (catalog.f1(), catalog.f1_squared(), catalog.b1(),
                   catalog.idempotent_example(), catalog.f1n(3),
                   catalog.two_fields(2, 3), catalog.product_ring(2, 3)):
            X = spec(bp)
            check_order(X, ideal_leq(X))

    def test_glued_projective_plane(self):
        ps = catalog.proj_space(2)
        glued = ps.point_space()

        def vanishing(a):
            # the coordinates k with x{k}_{chart} in the point's prime
            ci, pi = glued.reps[a]
            return {name.split("_")[0]
                    for name in glued.chart_spaces[ci].points[pi]
                    .generator_names()}

        assert len(glued) == 7
        check_order(glued, lambda a, b: vanishing(a) <= vanishing(b))

    def test_closed_sets(self, sl2_space):
        for X in (spec(catalog.affine_space(3)), sl2_space,
                  spec(catalog.two_fields(2, 3))):
            n, leq = len(X), ideal_leq(X)
            want = {frozenset(sub) for r in range(n + 1)
                    for sub in itertools.combinations(range(n), r)
                    if all(j in sub for i in sub for j in range(n)
                           if leq(i, j))}
            assert X.closed_sets() == want

    def test_closed_sets_refuses_past_12_points(self):
        with pytest.raises(BlueprintError, match="too many points"):
            spec(catalog.affine_space(4)).closed_sets()

    def test_affine_hasse_edge_count(self):
        for n in range(1, 11):
            X = spec(catalog.affine_space(n))
            assert len(X.covers()) == n * 2 ** (n - 1)
