"""Blueprint values, derivation, ideals, quotients, localization, units,
presentations, cancellativity and Frobenius."""

import itertools

import pytest

from blueforge import catalog
from blueforge.budget import Budget
from blueforge.core import (PROVED, UNKNOWN, Blueprint, BlueprintMorphism,
                            FiniteTable, ImproperRelations, MonomialBackend,
                            NotAnIdeal, additive_closure, count_presentation_points,
                            derive, enumerate_morphisms, field_blueprint,
                            finite_blueprints_isomorphic, is_blue_field,
                            is_cancellative, is_frobenius, is_morphism,
                            is_prime_ideal, localize, localization_morphism,
                            parse_element, presentation_normalizes_to_integers,
                            quotient_by_ideal, quotient_universal_factoring,
                            ring_presentation, semiring_presentation,
                            unit_field)
from blueforge.spectra import spec


def gens_of(bp):
    return {n: bp.backend.gen_element(n) for n in bp.backend.gens}


class TestMkBlueprint:
    def test_free_monoid_f1t(self, f1):
        bp = Blueprint(MonomialBackend(f1, ("T",)))
        assert bp.relations == ()
        assert bp.render(bp.backend.gen_element("T")) == "T"

    def test_b1_accepted(self, b1):
        assert len(b1.relations) == 1

    def test_sl2_accepted(self, sl2):
        (l, r) = sl2.relations[0]
        rendered = sorted([sl2.render_sum(l), sl2.render_sum(r)])
        assert rendered == ["1 + T2*T3", "T1*T4"]

    def test_improper_rejected(self, f1):
        backend = MonomialBackend(f1, ("S", "T"))
        s, t = backend.gen_element("S"), backend.gen_element("T")
        with pytest.raises(ImproperRelations):
            Blueprint(backend, [([s], [t])])

    def test_nonassociative_table_rejected(self):
        from blueforge.core import MalformedBackend
        mul = {("0", "0"): "0", ("0", "1"): "0", ("0", "a"): "0",
               ("1", "1"): "1", ("1", "a"): "a", ("a", "a"): "1"}
        FiniteTable(("0", "1", "a"), mul)  # fine: this one is a group
        bad = dict(mul)
        bad[("a", "a")] = "a"
        bad[("1", "a")] = "1"
        with pytest.raises(MalformedBackend):
            FiniteTable(("0", "1", "a"), bad)


class TestDerive:
    def test_b1_three_ones(self, b1):
        assert derive(b1, ["1", "1", "1"], ["1"]) == PROVED

    def test_reflexivity(self, f1):
        bp = Blueprint(MonomialBackend(f1, ("T",)))
        t = bp.backend.gen_element("T")
        assert derive(bp, [t], [t]) == PROVED

    def test_b1_one_not_zero(self, b1):
        assert derive(b1, ["1"], ["0"]) == UNKNOWN
        assert derive(b1, ["1"], ["0"], Budget(12, 16, 200000)) == UNKNOWN

    def test_f1n_cross_relation(self, f12):
        # i + (-i) = 0 follows in F1^4 from the divisor relations
        f14 = catalog.f1n(4)
        z1, z3 = "z1", "z3"
        assert derive(f14, [z1, z3], []) == PROVED


class TestMorphisms:
    def test_identity_on_sl2(self, sl2):
        images = {n: sl2.backend.gen_element(n) for n in sl2.backend.gens}
        f = BlueprintMorphism(sl2, sl2, images)
        assert is_morphism(f)[0] == PROVED

    def test_f1t_to_f1_kills_t(self, f1):
        bp = Blueprint(MonomialBackend(f1, ("T",)))
        f = BlueprintMorphism(bp, f1, {"T": "0"})
        assert is_morphism(f)[0] == PROVED

    def test_sl2_point_in_f5(self, sl2):
        f5 = field_blueprint(5)
        f = BlueprintMorphism(sl2, f5, {"T1": "1", "T2": "1", "T3": "1",
                                        "T4": "2"})
        assert is_morphism(f)[0] == PROVED

    def test_sl2_non_point_refuted(self, sl2):
        f5 = field_blueprint(5)
        f = BlueprintMorphism(sl2, f5, {"T1": "1", "T2": "1", "T3": "1",
                                        "T4": "1"})
        verdict, _ = is_morphism(f)
        assert verdict == "RefutedOnGenerator"


class TestAdditiveClosure:
    def test_sl2_t1_t2_improper(self, sl2):
        g = gens_of(sl2)
        ideal = additive_closure(sl2, [g["T1"], g["T2"]])
        assert not ideal.is_proper()

    def test_monomial_ideal_of_s(self, f1):
        bp = Blueprint(MonomialBackend(f1, ("S", "T")))
        s = bp.backend.gen_element("S")
        ideal = additive_closure(bp, [s])
        assert ideal.contains(parse_element(bp, "S*T^3"))
        assert not ideal.contains(parse_element(bp, "T"))

    def test_empty_closure_is_zero(self, sl2):
        ideal = additive_closure(sl2, [])
        assert ideal.minimal == ()
        assert ideal.contains(sl2.zero())
        assert not ideal.contains(sl2.one())

    def test_monotone_and_idempotent(self, sl2):
        g = gens_of(sl2)
        small = additive_closure(sl2, [g["T1"]])
        big = additive_closure(sl2, [g["T1"], g["T3"]])
        assert all(big.contains(x) for x in small.minimal)
        again = additive_closure(sl2, list(small.minimal))
        assert again.minimal == small.minimal


class TestPrimality:
    def test_plane_coordinate_prime(self, f1):
        bp = Blueprint(MonomialBackend(f1, ("S", "T")))
        ideal = additive_closure(bp, [bp.backend.gen_element("S")])
        assert is_prime_ideal(bp, ideal) is True

    def test_zero_ideal_prime_in_free(self, f1):
        bp = Blueprint(MonomialBackend(f1, ("T",)))
        ideal = additive_closure(bp, [])
        assert is_prime_ideal(bp, ideal) is True

    def test_improper_rejected(self, sl2):
        g = gens_of(sl2)
        ideal = additive_closure(sl2, [g["T1"], g["T2"]])
        with pytest.raises(NotAnIdeal):
            is_prime_ideal(sl2, ideal)

    def test_nonradical_monomial_not_prime(self, f1):
        bp = Blueprint(MonomialBackend(f1, ("S", "T")))
        st = parse_element(bp, "S*T")
        ideal = additive_closure(bp, [st])
        assert is_prime_ideal(bp, ideal) is False


class TestQuotient:
    def test_kill_generator(self, f1):
        bp = Blueprint(MonomialBackend(f1, ("T",)))
        ideal = additive_closure(bp, [bp.backend.gen_element("T")])
        q = quotient_by_ideal(bp, ideal)
        assert q.backend.gens == ()

    def test_sl2_torus_quotient(self, sl2):
        g = gens_of(sl2)
        ideal = additive_closure(sl2, [g["T2"], g["T3"]])
        q = quotient_by_ideal(sl2, ideal)
        assert q.backend.gens == ("T1", "T4")
        assert q.backend.lattice == (((1, 1), "1"),)
        assert set(q.backend.inverted) == {"T1", "T4"}
        assert q.relations == ()

    def test_quotient_by_zero(self, sl2):
        ideal = additive_closure(sl2, [])
        q = quotient_by_ideal(sl2, ideal)
        assert q.backend.gens == sl2.backend.gens
        assert q.relations == sl2.relations

    def test_universal_property_finite(self, idem):
        # every morphism killing the ideal factors uniquely through B/I
        ideal = additive_closure(idem, ["e"])
        q = quotient_by_ideal(idem, ideal)
        for target_q in (2, 3):
            target = field_blueprint(target_q)
            for h in enumerate_morphisms(idem, target):
                kills = all(h.apply(s) == "0" for s in ideal.minimal)
                factored = quotient_universal_factoring(idem, ideal, q, h)
                if kills:
                    assert factored is not None
                    for s in idem.backend.symbols:
                        assert factored.apply(q.projection[s]) == h.apply(s)
                else:
                    assert factored is None


class TestLocalize:
    def test_invert_t(self, f1):
        bp = Blueprint(MonomialBackend(f1, ("T",)))
        loc = localize(bp, [bp.backend.gen_element("T")])
        assert set(loc.backend.inverted) == {"T"}
        assert is_blue_field(loc)

    def test_at_one_identity(self, sl2):
        loc = localize(sl2, [sl2.one()])
        assert loc.backend.inverted == sl2.backend.inverted
        assert loc.relations == sl2.relations

    def test_zero_inverted_flag(self, f1):
        bp = Blueprint(MonomialBackend(f1, ("T",)))
        loc = localize(bp, [bp.zero()])
        assert loc.zero_inverted

    def test_plane_localized_spectrum(self, f1):
        bp = Blueprint(MonomialBackend(f1, ("S", "T")))
        loc = localize(bp, [bp.backend.gen_element("S")])
        labels = spec(loc).labels()
        assert labels == ["(0)", "(T)"]

    def test_canonical_map_is_morphism(self, sl2):
        loc = localize(sl2, [sl2.backend.gen_element("T1")])
        f = localization_morphism(sl2, loc)
        assert is_morphism(f)[0] == PROVED

    def test_localization_spectrum_correspondence(self, f1):
        # primes of S^-1 B = primes of B missing S
        bp = Blueprint(MonomialBackend(f1, tuple("ABC")))
        for invert in (["A"], ["A", "B"], ["C"]):
            loc = localize(bp, [bp.backend.gen_element(n) for n in invert])
            expected = sorted(
                p.generator_names() for p in spec(bp).points
                if not any(p.ideal.contains(bp.backend.gen_element(n))
                           for n in invert))
            got = sorted(p.generator_names() for p in spec(loc).points)
            assert got == expected


class TestUnitField:
    def test_f1t_unit_field(self, f1):
        bp = Blueprint(MonomialBackend(f1, ("T",)))
        u = unit_field(bp)
        assert u.backend.gens == ()
        assert is_blue_field(u)

    def test_f1n_fixed_point(self):
        f14 = catalog.f1n(4)
        u = unit_field(f14)
        assert finite_blueprints_isomorphic(u, f14) is not None

    def test_torus_fixed_point(self, f1):
        t = catalog.torus(1)
        u = unit_field(t)
        assert u.backend.gens == ("T1",)
        assert is_blue_field(t)

    def test_idempotent_fixpoint(self, idem):
        u = unit_field(idem)
        uu = unit_field(u)
        assert finite_blueprints_isomorphic(u, uu) is not None
        assert is_blue_field(idem) == (len(u.carrier()) == len(idem.carrier()))

    def test_monomial_fixpoint_and_blue_field_criterion(self, f1, sl2):
        for bp in (Blueprint(MonomialBackend(f1, ("S", "T"))), sl2,
                   catalog.torus(2)):
            u = unit_field(bp)
            uu = unit_field(u)
            assert uu.backend.gens == u.backend.gens
            assert uu.backend.inverted == u.backend.inverted
            assert uu.relations == u.relations
            fixed = (u.backend.gens == bp.backend.gens
                     and u.backend.inverted == bp.backend.inverted)
            assert is_blue_field(bp) == fixed


class TestPresentations:
    def test_f1_semiring_presentation(self, f1):
        pres = semiring_presentation(f1)
        assert pres.gens == ()
        assert pres.relations == ()

    def test_b1_boolean_presentation(self, b1):
        pres = semiring_presentation(b1)
        assert pres.gens == ()
        [(l, r)] = pres.relations
        assert sorted([l, r], key=str) == sorted([{(): 1}, {(): 2}], key=str)

    def test_sl2_ring_presentation(self, sl2):
        pres = ring_presentation(sl2)
        assert set(pres.gens) == {"T1", "T2", "T3", "T4"}
        assert len(pres.relations) == 1

    def test_f1_squared_normalizes_to_z(self, f12):
        pres = ring_presentation(f12)
        assert set(pres.gens) == {"-1"}
        assert presentation_normalizes_to_integers(pres)

    def test_f1n4_is_gaussian_integers(self):
        pres = ring_presentation(catalog.f1n(4))
        # Z[i] has q points in F_q iff q splits: 2 homs into F5, 1 into F2
        assert count_presentation_points(pres, 5) == 2
        assert count_presentation_points(pres, 2) == 1

    def test_point_count_consistency(self, sl2, f12, b1, idem, gr24):
        from blueforge.counting import fq_points
        cases = [sl2, f12, b1, idem, catalog.affine_space(2),
                 catalog.torus(1), catalog.f1n(3), catalog.f1n(4),
                 catalog.roots_of_unity_sums(4), gr24.blueprint]
        for bp in cases:
            pres = ring_presentation(bp)
            for q in (2, 3, 4, 5):
                assert fq_points(bp, q) == count_presentation_points(pres, q), \
                    (bp.name, q)


class TestCancellative:
    def test_b1_refuted_with_witness(self, b1):
        verdict, witness = is_cancellative(b1)
        assert verdict == "no"
        assert witness["cancelled"] == ("1",)

    def test_f1_yes(self, f1):
        assert is_cancellative(f1)[0] == "yes"

    def test_f1_squared_yes(self, f12):
        assert is_cancellative(f12)[0] == "yes"

    def test_sl2_yes(self, sl2):
        assert is_cancellative(sl2)[0] == "yes"


class TestFrobenius:
    def test_pure_monoid_trivially_frobenius(self, f1):
        bp = Blueprint(MonomialBackend(f1, ("S", "T")))
        for p in (2, 3, 5):
            assert is_frobenius(bp, p)[0] == PROVED

    def test_roots_of_unity_sums(self):
        bp = catalog.roots_of_unity_sums(4)
        assert is_frobenius(bp, 2)[0] == PROVED

    def test_b1_squares(self, b1):
        assert is_frobenius(b1, 2)[0] == PROVED


class TestFiniteIdealCharacterizations:
    def cases(self):
        return [catalog.f1(), catalog.f1_squared(), catalog.b1(),
                catalog.idempotent_example(), catalog.f1n(3)]

    def all_proper_ideals(self, bp):
        syms = [s for s in bp.backend.symbols if s != "0"]
        out = []
        for r in range(len(syms) + 1):
            for sub in itertools.combinations(syms, r):
                ideal = additive_closure(bp, sub)
                if set(ideal.minimal) == {"0"} | set(sub) and ideal.is_proper():
                    out.append(ideal)
        return out

    def test_maximal_iff_blue_field_quotient(self):
        for bp in self.cases():
            ideals = self.all_proper_ideals(bp)
            for ideal in ideals:
                maximal = not any(set(ideal.minimal) < set(other.minimal)
                                  for other in ideals)
                q = quotient_by_ideal(bp, ideal)
                assert maximal == is_blue_field(q), (bp.name, ideal)

    def test_prime_iff_no_zero_divisors(self):
        for bp in self.cases():
            for ideal in self.all_proper_ideals(bp):
                q = quotient_by_ideal(bp, ideal)
                syms = [s for s in q.backend.symbols if s != "0"]
                no_zero_div = all(q.backend.mul(a, b) != "0"
                                  for a in syms for b in syms)
                assert (is_prime_ideal(bp, ideal) is True) == no_zero_div


class TestTooLarge:
    def test_one_class_under_every_module_name(self):
        from blueforge import (catalog as cat, complexes, congruence, core,
                               counting, kzero, quivergrass)
        for mod in (cat, complexes, congruence, counting, kzero, quivergrass):
            assert mod.TooLarge is core.TooLarge, mod.__name__
