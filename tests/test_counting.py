"""F_q points, counting polynomials, Euler characteristics, zeta functions,
and nonnegative-semifield points."""

import ast
import itertools
import math
import pathlib
import random
import timeit
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from blueforge import catalog, cli, counting
from blueforge.core import (ONE, ZERO, Blueprint, BlueprintError,
                            BlueprintMorphism,
                            MonomialBackend, _coefficient_images,
                            _count_solutions, _free_domains,
                            _solutions, enumerate_morphisms, field_blueprint,
                            refutation_targets)
from blueforge.counting import (SAMPLE_Q, CountingPolynomial, TooLarge,
                                _count_points, _eliminate, _proved,
                                counting_polynomial,
                                euler_characteristic, fit_polynomial,
                                fq_points, projective_fq_points, soule_zeta,
                                verify_point_over_ordered_semifield)
from blueforge.fields import SUPPORTED_Q, gf
from blueforge.spectra import spec
from test_properties import divides_backends


class TestFields:
    def test_tables_are_fields(self):
        for q in SUPPORTED_Q:
            f = gf(q)
            assert all(f.mul(a, f.inv(a)) == 1 for a in range(1, q))
            assert all(f.add(a, f.neg(a)) == 0 for a in range(q))
            # Frobenius is additive
            p = f.p
            for a in range(q):
                for b in range(q):
                    assert f.pow(f.add(a, b), p) == f.add(f.pow(a, p),
                                                          f.pow(b, p))


class TestFqPoints:
    def test_affine_line(self):
        assert fq_points(catalog.affine_space(1), 3) == 3

    def test_sl2_counts(self, sl2):
        assert fq_points(sl2, 3) == 24
        assert fq_points(sl2, 2) == 6

    def test_torus(self):
        assert fq_points(catalog.torus(1), 5) == 4

    def test_f1n_counts_roots_of_unity(self):
        f14 = catalog.f1n(4)
        assert fq_points(f14, 5) == 2   # Z[i] splits at 5
        assert fq_points(f14, 3) == 0   # inert
        assert fq_points(f14, 2) == 1   # ramified


class TestCountingPolynomial:
    def test_p1(self):
        poly = counting_polynomial(catalog.proj_space(1), 1)
        assert poly.coeffs == (1, 1)
        assert poly.render() == "q + 1"

    def test_sl2(self, sl2):
        poly = counting_polynomial(sl2, 3)
        assert poly.coeffs == (0, -1, 0, 1)
        assert poly.render() == "q^3 - q"

    def test_gr24(self, gr24):
        poly = counting_polynomial(gr24, 4)
        assert poly.render() == "q^4 + q^3 + 2*q^2 + q + 1"

    def test_stability_under_sample_permutation(self, sl2):
        counts = [(q, fq_points(sl2, q)) for q in SUPPORTED_Q]
        rng = random.Random(3)
        for _ in range(5):
            shuffled = counts[:]
            rng.shuffle(shuffled)
            assert fit_polynomial(shuffled, 3).coeffs == (0, -1, 0, 1)

    def test_held_out_rejects_non_polynomial(self):
        pairs = [(2, 4), (3, 9), (4, 16), (5, 25), (7, 50)]
        assert fit_polynomial(pairs, 2) is None

    def test_too_large_degree(self, sl2):
        from blueforge.counting import TooLarge
        with pytest.raises(TooLarge):
            counting_polynomial(sl2, 7)

    @pytest.mark.parametrize("bound", [-1, -5])
    def test_negative_degree(self, sl2, bound):
        # `polyfit sl2 --deg -1` used to say the counts are not polynomial
        with pytest.raises(ValueError, match="is negative"):
            counting_polynomial(sl2, bound)


class TestEulerAndZeta:
    def test_chi_p2(self):
        assert euler_characteristic(catalog.proj_space(2), 2) == 3

    def test_chi_sl2(self, sl2):
        assert euler_characteristic(sl2, 3) == 0

    def test_chi_gr24(self, gr24):
        assert euler_characteristic(gr24, 4) == 6

    def test_zeta_absolute_point(self):
        z = soule_zeta(CountingPolynomial((1,)))
        assert z.render() == "s"

    def test_zeta_affine_line(self):
        z = soule_zeta(CountingPolynomial((0, 1)))
        assert z.render() == "s - 1"

    def test_zeta_p1(self):
        z = soule_zeta(CountingPolynomial((1, 1)))
        assert z.render() == "s (s - 1)"

    def test_zeta_torus_with_pole(self):
        z = soule_zeta(CountingPolynomial((-1, 1)))
        assert z.render() == "s^-1 (s - 1)"
        assert z.as_pairs() == [[0, -1], [1, 1]]


class TestOrderedSemifieldPoints:
    def test_tnn_matrix_accepted(self):
        m = catalog.sl2_minors()
        assert verify_point_over_ordered_semifield(
            m, {"a": 2, "b": 1, "c": 1, "d": 1})

    def test_identity_accepted(self):
        m = catalog.sl2_minors()
        assert verify_point_over_ordered_semifield(
            m, {"a": 1, "b": 0, "c": 0, "d": 1})

    def test_wrong_determinant_rejected(self):
        m = catalog.sl2_minors()
        assert not verify_point_over_ordered_semifield(
            m, {"a": 1, "b": 1, "c": 1, "d": 1})

    def test_negative_entry_rejected(self):
        m = catalog.sl2_minors()
        assert not verify_point_over_ordered_semifield(
            m, {"a": -2, "b": 1, "c": 1, "d": 1})

    def test_sampled_tnn_matrices(self):
        # (a b; c d) >= 0 entrywise with ad - bc = 1 is exactly TNN for 2x2
        m = catalog.sl2_minors()
        rng = random.Random(11)
        for _ in range(1000):
            b = Fraction(rng.randrange(0, 20), rng.randrange(1, 10))
            c = Fraction(rng.randrange(0, 20), rng.randrange(1, 10))
            d = Fraction(rng.randrange(1, 20), rng.randrange(1, 10))
            a = (1 + b * c) / d
            assert verify_point_over_ordered_semifield(
                m, {"a": a, "b": b, "c": c, "d": d})

    def test_random_assignments_accepted_iff_tnn(self):
        m = catalog.sl2_minors()
        rng = random.Random(12)
        for _ in range(300):
            vals = {g: Fraction(rng.randrange(0, 6)) for g in "abcd"}
            accepted = verify_point_over_ordered_semifield(m, vals)
            tnn = (all(v >= 0 for v in vals.values())
                   and vals["a"] * vals["d"] - vals["b"] * vals["c"] == 1)
            assert accepted == tnn


# ---------------------------------------------------------------------------
# The solver against the brute-force loops it replaced


def reference_enumerate(bp, target):
    """Images of every morphism into `target`, found by building each
    candidate of the full product and checking it with apply/apply_sum."""
    tb = target.backend
    backend = bp.backend
    out = []
    if backend.kind == "finite":
        frees = [s for s in backend.symbols if s not in (ZERO, ONE)]
        for values in itertools.product(tb.symbols, repeat=len(frees)):
            images = dict(zip(frees, values))
            images[ZERO] = ZERO
            images[ONE] = ONE
            f = BlueprintMorphism(bp, target, images)
            ok = all(f.apply(backend.mul(a, b)) == tb.mul(f.apply(a), f.apply(b))
                     for a in backend.symbols for b in backend.symbols)
            if not ok:
                continue
            if all(tb.eval_sum(f.apply_sum(l)) == tb.eval_sum(f.apply_sum(r))
                   for l, r in bp.relations):
                out.append(f.images)
        return out
    cb = backend.coeff.backend
    cfrees = [s for s in cb.symbols if s not in (ZERO, ONE)]
    coeff_assignments = []
    for values in itertools.product(tb.symbols, repeat=len(cfrees)):
        images = dict(zip(cfrees, values))
        images[ZERO] = ZERO
        images[ONE] = ONE
        if any(tb.mul(images[a], images[b]) != images[cb.mul(a, b)]
               for a in cb.symbols for b in cb.symbols):
            continue
        if any(tb.eval_sum([images[t] for t in l])
               != tb.eval_sum([images[t] for t in r])
               for l, r in backend.coeff.relations):
            continue
        coeff_assignments.append(images)
    units = sorted(set(tb.symbols) - {ZERO})
    gen_domains = [units if name in backend.inverted else list(tb.symbols)
                   for name in backend.gens]
    for cimages in coeff_assignments:
        for values in itertools.product(*gen_domains):
            images = dict(cimages)
            images.update(zip(backend.gens, values))
            ok = True
            for vec, char in backend.lattice:
                acc = ONE
                for name, e in zip(backend.gens, vec):
                    if e:
                        acc = tb.mul(acc, tb.power(images[name], e))
                if acc != images.get(char, char):
                    ok = False
                    break
            if not ok:
                continue
            f = BlueprintMorphism(bp, target, images)
            if all(tb.eval_sum(f.apply_sum(l)) == tb.eval_sum(f.apply_sum(r))
                   for l, r in bp.relations):
                out.append(f.images)
    return out


def reference_projective(blueprint, q, vanishing=()):
    """Canonical projective representatives counted by evaluating every
    relation on every vector with the field tables."""
    backend = blueprint.backend
    n = len(backend.gens)
    dead = {backend.gens.index(name) for name in vanishing}
    live = [i for i in range(n) if i not in dead]
    field = gf(q)
    rels = [([t[1] for t in l], [t[1] for t in r])
            for l, r in blueprint.relations]

    def side_value(exps_list, v):
        acc = 0
        for exps in exps_list:
            term = 1
            for x, e in zip(v, exps):
                if e:
                    if x == 0:
                        term = 0
                        break
                    term = field.mul(term, field.pow(x, e))
            acc = field.add(acc, term)
        return acc

    count = 0
    for pidx, pivot in enumerate(live):
        for rest in itertools.product(range(q), repeat=len(live) - pidx - 1):
            v = [0] * n
            v[pivot] = 1
            for coord, val in zip(live[pidx + 1:], rest):
                v[coord] = val
            if all(side_value(l, v) == side_value(r, v) for l, r in rels):
                count += 1
    return count


def one_relation(backend):
    """X*Z = Y^k + c over `backend`, with k = -1 on an inverted Y and c its
    last nonzero coefficient."""
    g = {n: backend.gen_element(n) for n in backend.gens}
    k = -1 if "Y" in backend.inverted else 2
    c = [s for s in backend.coeff.backend.symbols if s != ZERO][-1]
    rel = ([backend.mul(g["X"], g["Z"])],
           [backend.power(g["Y"], k), backend.coeff_element(c)])
    return Blueprint(backend, [rel], check_proper=False)


ENUMERATION_SOURCES = {
    "sl2": catalog.sl2_f1,
    "sl2_minors": catalog.sl2_minors,
    "gr24_cone": lambda: catalog.grassmannian_f1(2, 4).blueprint,
    "A3": lambda: catalog.affine_space(3),
    "torus2": lambda: catalog.torus(2),
    "f1n4": lambda: catalog.f1n(4),
    "b1": catalog.b1,
    "idempotent": catalog.idempotent_example,
    "two_fields23": lambda: catalog.two_fields(2, 3),
    "roots_sums4": lambda: catalog.roots_of_unity_sums(4),
}
ENUMERATION_SOURCES.update(
    (f"one_relation{i}", lambda b=b: one_relation(b))
    for i, b in enumerate(divides_backends()))


def search_space(bp, target):
    q = len(target.backend.symbols)
    backend = bp.backend
    if backend.kind == "finite":
        return q ** (len(backend.symbols) - 2)
    out = q ** (len(backend.coeff.backend.symbols) - 2)
    for name in backend.gens:
        out *= q - 1 if name in backend.inverted else q
    return out


def solver_images(bp, target):
    return [f.images for f in enumerate_morphisms(bp, target)]


class TestSolverAgainstReference:
    @pytest.mark.parametrize("name", sorted(ENUMERATION_SOURCES))
    def test_enumeration_matches_reference_in_order(self, name):
        bp = ENUMERATION_SOURCES[name]()
        targets = refutation_targets() + [field_blueprint(q) for q in (7, 8, 9)]
        checked = 0
        for target in targets:
            if search_space(bp, target) > 10 ** 5:
                continue
            expected = reference_enumerate(bp, target)
            assert solver_images(bp, target) == expected, target.name
            checked += 1
        assert checked >= 5

    @pytest.mark.parametrize("name", ["gr24", "P2", "P3", "P4_cone"])
    def test_projective_matches_reference(self, name):
        bp = {"gr24": lambda: catalog.grassmannian_f1(2, 4).blueprint,
              "P2": lambda: catalog.proj_space(2).graded_model.blueprint,
              "P3": lambda: catalog.proj_space(3).graded_model.blueprint,
              "P4_cone": lambda: catalog.proj_cone(4).blueprint}[name]()
        gens = bp.backend.gens
        for q in (2, 3, 4, 5, 7):
            for vanishing in ((), (gens[1],), (gens[0], gens[-1])):
                assert projective_fq_points(bp, q, vanishing) == \
                    reference_projective(bp, q, vanishing), (q, vanishing)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_monomial_blueprints(self, data):
        gens = ("X", "Y", "Z")[:data.draw(st.integers(2, 3))]
        coeff = data.draw(st.sampled_from([catalog.f1(), catalog.f1_squared()]))
        inverted = data.draw(st.sampled_from([()] + [(g,) for g in gens]))
        backend = MonomialBackend(coeff, gens, inverted)
        nonzero = [c for c in coeff.backend.symbols if c != ZERO]

        def term():
            c = data.draw(st.sampled_from(nonzero))
            exps = tuple(data.draw(st.integers(-2 if g in inverted else 0, 2))
                         for g in gens)
            return backend.normalize((c, exps))

        rels = []
        for _ in range(data.draw(st.integers(1, 2))):
            k = data.draw(st.integers(2, 3))
            split = data.draw(st.integers(1, k - 1))
            terms = [term() for _ in range(k)]
            rels.append((terms[:split], terms[split:]))
        bp = Blueprint(backend, rels, check_proper=False)
        for q in (2, 3, 4):
            target = field_blueprint(q)
            expected = reference_enumerate(bp, target)
            assert solver_images(bp, target) == expected
            assert fq_points(bp, q) == _count_points(bp, q) == len(expected)

    @pytest.mark.parametrize("name", sorted(ENUMERATION_SOURCES))
    def test_counts_match_reference(self, name):
        bp = ENUMERATION_SOURCES[name]()
        checked = 0
        for q in SUPPORTED_Q:
            target = field_blueprint(q)
            if search_space(bp, target) > 10 ** 5:
                continue
            assert fq_points(bp, q) == _count_points(bp, q) == \
                len(reference_enumerate(bp, target)), q
            checked += 1
        assert checked >= 3

    @pytest.mark.parametrize("name", sorted(ENUMERATION_SOURCES))
    def test_counter_matches_solver_on_restricted_domains(self, name):
        """Domains of every size from empty to full, so the elimination
        order and the tail meet frees of size 0, 1 and more."""
        bp = ENUMERATION_SOURCES[name]()
        rng = random.Random(name)
        for q in (2, 3, 4):
            tb = field_blueprint(q).backend
            full = _free_domains(bp, tb)
            images = ([None] if bp.backend.kind == "finite"
                      else _coefficient_images(bp, tb))
            for _ in range(6):
                domains = [sorted(rng.sample(list(d), rng.randint(0, len(d))))
                           if rng.random() < 0.6 else d for d in full]
                for cimages in images:
                    assert _count_solutions(bp, tb, domains, cimages) == \
                        sum(1 for _ in _solutions(bp, tb, domains, cimages))


class TestCheapCounts:
    """Answers that counting without listing makes cheap."""

    def test_affine_six_is_not_degree_four(self):
        assert counting_polynomial(catalog.affine_space(6), 4) is None

    def test_affine_six_at_nine(self):
        assert fq_points(catalog.affine_space(6), 9) == 9 ** 6

    def test_gr24_cone_polynomial(self, gr24):
        poly = counting_polynomial(gr24.blueprint, 5)
        assert poly.coeffs == (0, 0, -1, 1, 0, 1)
        assert poly.render() == "q^5 + q^3 - q^2"
        for q in SUPPORTED_Q:
            # The cone is the origin and a line's worth of nonzero
            # representatives over each point of Gr(2,4), a [4 choose 2]_q.
            grass = (q ** 4 - 1) * (q ** 3 - 1) // ((q ** 2 - 1) * (q - 1))
            assert poly(q) == 1 + (q - 1) * grass


# ---------------------------------------------------------------------------
# Counting polynomials by elimination, against the direct counter


def monomial_catalog():
    """Every monomial catalog blueprint with at most 6 generators: A^n and
    tori, sl2 and its minors model, and the cones of P^n and of the
    Grassmannians."""
    out = {}
    for n in range(1, 7):
        out[f"affine:{n}"] = lambda n=n: catalog.affine_space(n)
        out[f"torus:{n}"] = lambda n=n: catalog.torus(n)
    out["sl2"] = catalog.sl2_f1
    out["sl2_minors"] = catalog.sl2_minors
    for n in range(6):
        out[f"proj_cone:{n}"] = lambda n=n: catalog.proj_cone(n).blueprint
    for e, d in [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4), (1, 5),
                 (4, 5), (1, 6), (5, 6)]:
        out[f"gr:{e},{d}.cone"] = \
            lambda e=e, d=d: catalog.grassmannian_f1(e, d).blueprint
    return out


# name: (N(q) at SAMPLE_Q, natural bound b = deg N, counting_polynomial at
# b - 1 and at b (coefficients, None or the exception), euler_characteristic),
# as the seven-q sampling gave them.
PINNED_COUNTS = {
    "affine:1": ((2, 3, 4, 5, 7, 8, 9), 1, None, (0, 1), 1),
    "torus:1": ((1, 2, 3, 4, 6, 7, 8), 1, None, (-1, 1), 0),
    "affine:2": ((4, 9, 16, 25, 49, 64, 81), 2, None, (0, 0, 1), 1),
    "torus:2": ((1, 4, 9, 16, 36, 49, 64), 2, None, (1, -2, 1), 0),
    "affine:3": ((8, 27, 64, 125, 343, 512, 729), 3, None, (0, 0, 0, 1), 1),
    "torus:3": ((1, 8, 27, 64, 216, 343, 512), 3, None, (-1, 3, -3, 1), 0),
    "affine:4": ((16, 81, 256, 625, 2401, 4096, 6561), 4, None,
                 (0, 0, 0, 0, 1), 1),
    "torus:4": ((1, 16, 81, 256, 1296, 2401, 4096), 4, None,
                (1, -4, 6, -4, 1), 0),
    "affine:5": ((32, 243, 1024, 3125, 16807, 32768, 59049), 5, None,
                 (0, 0, 0, 0, 0, 1), 1),
    "torus:5": ((1, 32, 243, 1024, 7776, 16807, 32768), 5, None,
                (-1, 5, -10, 10, -5, 1), 0),
    "affine:6": ((64, 729, 4096, 15625, 117649, 262144, 531441), 6, None,
                 TooLarge, BlueprintError),
    "torus:6": ((1, 64, 729, 4096, 46656, 117649, 262144), 6, None,
                TooLarge, BlueprintError),
    "sl2": ((6, 24, 60, 120, 336, 504, 720), 3, None, (0, -1, 0, 1), 0),
    "sl2_minors": ((6, 24, 60, 120, 336, 504, 720), 3, None, (0, -1, 0, 1),
                   0),
    "proj_cone:0": ((2, 3, 4, 5, 7, 8, 9), 1, None, (0, 1), 1),
    "proj_cone:1": ((4, 9, 16, 25, 49, 64, 81), 2, None, (0, 0, 1), 1),
    "proj_cone:2": ((8, 27, 64, 125, 343, 512, 729), 3, None, (0, 0, 0, 1),
                    1),
    "proj_cone:3": ((16, 81, 256, 625, 2401, 4096, 6561), 4, None,
                    (0, 0, 0, 0, 1), 1),
    "proj_cone:4": ((32, 243, 1024, 3125, 16807, 32768, 59049), 5, None,
                    (0, 0, 0, 0, 0, 1), 1),
    "proj_cone:5": ((64, 729, 4096, 15625, 117649, 262144, 531441), 6,
                    None, TooLarge, BlueprintError),
    "gr:1,2.cone": ((4, 9, 16, 25, 49, 64, 81), 2, None, (0, 0, 1), 1),
    "gr:1,3.cone": ((8, 27, 64, 125, 343, 512, 729), 3, None, (0, 0, 0, 1),
                    1),
    "gr:2,3.cone": ((8, 27, 64, 125, 343, 512, 729), 3, None, (0, 0, 0, 1),
                    1),
    "gr:1,4.cone": ((16, 81, 256, 625, 2401, 4096, 6561), 4, None,
                    (0, 0, 0, 0, 1), 1),
    "gr:2,4.cone": ((36, 261, 1072, 3225, 17101, 33216, 59697), 5, None,
                    (0, 0, -1, 1, 0, 1), 1),
    "gr:3,4.cone": ((16, 81, 256, 625, 2401, 4096, 6561), 4, None,
                    (0, 0, 0, 0, 1), 1),
    "gr:1,5.cone": ((32, 243, 1024, 3125, 16807, 32768, 59049), 5, None,
                    (0, 0, 0, 0, 0, 1), 1),
    "gr:4,5.cone": ((32, 243, 1024, 3125, 16807, 32768, 59049), 5, None,
                    (0, 0, 0, 0, 0, 1), 1),
    "gr:1,6.cone": ((64, 729, 4096, 15625, 117649, 262144, 531441), 6,
                    None, TooLarge, BlueprintError),
    "gr:5,6.cone": ((64, 729, 4096, 15625, 117649, 262144, 531441), 6,
                    None, TooLarge, BlueprintError),
}

# Canonical --json output of CLI verbs that count, byte for byte.
PINNED_CLI = {
    ("polyfit", "sl2", "--deg", "3", "--json"):
        '{\n "coefficients": [\n  0,\n  -1,\n  0,\n  1\n ],\n'
        ' "rendered": "q^3 - q"\n}\n',
    ("zeta", "catalog:A1", "--json"):
        '{\n "factors": [\n  [\n   1,\n   1\n  ]\n ],\n'
        ' "rendered": "s - 1"\n}\n',
    ("zeta", "catalog:A2", "--json"):
        '{\n "factors": [\n  [\n   2,\n   1\n  ]\n ],\n'
        ' "rendered": "s - 2"\n}\n',
    ("zeta", "catalog:A3", "--json"):
        '{\n "factors": [\n  [\n   3,\n   1\n  ]\n ],\n'
        ' "rendered": "s - 3"\n}\n',
    ("count", "P1", "--json"):
        '{\n "counts": {\n  "2": 3,\n  "3": 4,\n  "5": 6\n }\n}\n',
    ("count", "P2", "--json"):
        '{\n "counts": {\n  "2": 7,\n  "3": 13,\n  "5": 31\n }\n}\n',
    ("count", "P3", "--json"):
        '{\n "counts": {\n  "2": 15,\n  "3": 40,\n  "5": 156\n }\n}\n',
    ("count", "P4", "--json"):
        '{\n "counts": {\n  "2": 31,\n  "3": 121,\n  "5": 781\n }\n}\n',
    ("count", "sl2", "--q", "2,3,4,5,7,8,9", "--json"):
        '{\n "counts": {\n  "2": 6,\n  "3": 24,\n  "4": 60,\n  "5": 120,\n'
        '  "7": 336,\n  "8": 504,\n  "9": 720\n }\n}\n',
    ("count", "sl2_minors", "--q", "2,3,4,5,7,8,9", "--json"):
        '{\n "counts": {\n  "2": 6,\n  "3": 24,\n  "4": 60,\n  "5": 120,\n'
        '  "7": 336,\n  "8": 504,\n  "9": 720\n }\n}\n',
    ("count", "catalog:A3", "--q", "2,3,4,5,7,8,9", "--json"):
        '{\n "counts": {\n  "2": 8,\n  "3": 27,\n  "4": 64,\n  "5": 125,\n'
        '  "7": 343,\n  "8": 512,\n  "9": 729\n }\n}\n',
    ("count", "catalog:Gm2", "--q", "2,3,4,5,7,8,9", "--json"):
        '{\n "counts": {\n  "2": 1,\n  "3": 4,\n  "4": 9,\n  "5": 16,\n'
        '  "7": 36,\n  "8": 49,\n  "9": 64\n }\n}\n',
    ("polyfit", "sl2_minors", "--deg", "3", "--json"):
        '{\n "coefficients": [\n  0,\n  -1,\n  0,\n  1\n ],\n'
        ' "rendered": "q^3 - q"\n}\n',
}


class TestPinnedCounts:
    def test_pins_cover_the_catalog(self):
        assert set(PINNED_COUNTS) == set(monomial_catalog())

    @pytest.mark.parametrize("name", sorted(PINNED_COUNTS))
    def test_counting_polynomial(self, name):
        bp = monomial_catalog()[name]()
        counts, natural, below, at, _ = PINNED_COUNTS[name]
        pairs = tuple(zip(SAMPLE_Q, counts))
        for bound, want in ((natural - 1, below), (natural, at)):
            if isinstance(want, type):
                with pytest.raises(want):
                    counting_polynomial(bp, bound)
                continue
            poly = counting_polynomial(bp, bound)
            if want is None:
                assert poly is None, bound
                continue
            assert poly.coeffs == want
            assert poly.sample_witness == pairs[:bound + 1]
            assert poly.held_out_witness == pairs[bound + 1:]

    @pytest.mark.parametrize("name", sorted(PINNED_COUNTS))
    def test_euler_characteristic(self, name):
        bp = monomial_catalog()[name]()
        want = PINNED_COUNTS[name][-1]
        if isinstance(want, type):
            with pytest.raises(want):
                euler_characteristic(bp)
        else:
            assert euler_characteristic(bp) == want

    @pytest.mark.parametrize("argv", sorted(PINNED_CLI))
    def test_cli_output(self, argv, capsys):
        assert cli.main(list(argv)) == 0
        assert capsys.readouterr().out == PINNED_CLI[argv]


def x_plus_x_is_one():
    backend = MonomialBackend(catalog.f1(), ("x",))
    x = backend.gen_element("x")
    return Blueprint(backend, [([x, x], [backend.one()])], check_proper=False)


def random_monomial_blueprint(data):
    """2-5 generators over F1 or F1^2, some inverted, at most one lattice
    row, and 1-3 relations of 2-4 terms."""
    n = data.draw(st.integers(2, 5))
    gens = tuple(f"x{i}" for i in range(n))
    coeff = data.draw(st.sampled_from([catalog.f1(), catalog.f1_squared()]))
    units = [c for c in coeff.backend.symbols if coeff.is_unit(c)]
    inverted = tuple(g for g in gens if data.draw(st.booleans()))
    lattice = []
    if data.draw(st.booleans()):
        vec = tuple(data.draw(st.integers(-2, 2)) for _ in gens)
        if any(vec):
            lattice.append((vec, data.draw(st.sampled_from(units))))
    backend = MonomialBackend(coeff, gens, inverted, lattice=lattice)
    nonzero = [c for c in coeff.backend.symbols if c != ZERO]

    def term():
        c = data.draw(st.sampled_from(nonzero))
        exps = tuple(data.draw(st.integers(
            -1 if g in backend.inverted else 0, 2)) for g in gens)
        return backend.normalize((c, exps))

    rels = []
    for _ in range(data.draw(st.integers(1, 3))):
        k = data.draw(st.integers(2, 4))
        split = data.draw(st.integers(0, k))
        terms = [term() for _ in range(k)]
        rels.append((terms[:split], terms[split:]))
    return Blueprint(backend, rels, check_proper=False)


def count_eliminations(monkeypatch):
    """The blueprints `_eliminate` is called on from here on, in order."""
    calls = []
    monkeypatch.setattr(counting, "_eliminate",
                        lambda bp: calls.append(bp) or _eliminate(bp))
    return calls


class TestElimination:
    """`_eliminate` proves N(q) for every q; the solver (`_count_points`)
    is its oracle, since `fq_points` reads the proof."""

    @pytest.mark.parametrize("name", sorted(PINNED_COUNTS))
    def test_catalog(self, name):
        bp = monomial_catalog()[name]()
        poly = _eliminate(bp)
        assert poly is not None
        assert tuple(map(poly, SAMPLE_Q)) == PINNED_COUNTS[name][0]

    @pytest.mark.parametrize("name", ["sl2", "sl2_minors", "gr:2,4.cone"])
    def test_every_closure_of_a_point(self, name):
        space = spec(monomial_catalog()[name]())
        answered = 0
        for i in range(len(space)):
            try:
                closure = space.closure_blueprint(i)
            except BlueprintError:
                continue      # the cone's quotients the backend cannot hold
            poly = _eliminate(closure)
            assert poly is not None, space.points[i].label()
            assert [poly(q) for q in SAMPLE_Q] == \
                [_count_points(closure, q) for q in SAMPLE_Q]
            answered += 1
        assert answered >= 7

    def test_x_plus_x_is_one_gives_up(self, monkeypatch):
        # 2x = 1 has no point in characteristic 2 and one elsewhere
        calls = count_eliminations(monkeypatch)
        bp = x_plus_x_is_one()
        assert _eliminate(bp) is None
        assert [fq_points(bp, q) for q in SAMPLE_Q] == [0, 1, 0, 1, 1, 0, 1]
        assert counting_polynomial(bp, 5) is None
        assert _proved(bp) is None and calls == [bp]

    def test_gr24_cone(self, gr24):
        cone = gr24.blueprint
        assert counting_polynomial(cone, 5).render() == "q^5 + q^3 - q^2"
        assert counting_polynomial(cone, 4) is None
        best = min(timeit.repeat(lambda: counting_polynomial(cone, 5),
                                 number=1, repeat=20))
        assert best < 1e-3

    def test_mu3_coefficients_give_up(self, monkeypatch):
        calls = count_eliminations(monkeypatch)
        bp = Blueprint(MonomialBackend(catalog.f1n(3), ("X",)))
        assert _eliminate(bp) is None
        assert [fq_points(bp, q) for q in SAMPLE_Q] == [0, 3, 8, 0, 14, 0, 9]
        assert _proved(bp) is None and calls == [bp]

    def test_lattice_rows(self):
        # X = -Y on units over F1^2: one point per unit Y
        backend = MonomialBackend(catalog.f1_squared(), ("X", "Y"),
                                  lattice=[((1, -1), "-1")])
        bp = Blueprint(backend)
        assert _eliminate(bp).coeffs == (-1, 1)
        assert [_count_points(bp, q) for q in SAMPLE_Q] == \
            [q - 1 for q in SAMPLE_Q]

    def test_too_many_generators_stay_too_large(self):
        bp = catalog.affine_space(9)
        assert _eliminate(bp) is None
        with pytest.raises(TooLarge):
            counting_polynomial(bp, 3)
        with pytest.raises(TooLarge, match="more than 8 generators"):
            fq_points(bp, 3)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_random_monomial_blueprints(self, data):
        bp = random_monomial_blueprint(data)
        poly = _eliminate(bp)
        if poly is not None:
            assert [poly(q) for q in SAMPLE_Q] == \
                [_count_points(bp, q) for q in SAMPLE_Q]


class TestKeptProof:
    """`fq_points` and `counting_polynomial` read the elimination's verdict
    kept on the blueprint (`_proved`); the solver answers where it gives
    up."""

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_fq_points_matches_the_solver(self, data):
        # all seven q, so q = 2, 4 and 8, where -1 = 1, are included
        bp = random_monomial_blueprint(data)
        assert [fq_points(bp, q) for q in SUPPORTED_Q] == \
            [_count_points(bp, q) for q in SUPPORTED_Q]

    @pytest.mark.parametrize("name", sorted(PINNED_COUNTS))
    def test_catalog_counts(self, name):
        bp = monomial_catalog()[name]()
        assert tuple(fq_points(bp, q) for q in SUPPORTED_Q) == \
            PINNED_COUNTS[name][0]

    def test_checks_stay_after_a_kept_proof(self, sl2):
        assert counting_polynomial(sl2, 3).coeffs == (0, -1, 0, 1)
        with pytest.raises(TooLarge, match="no field table for q=6"):
            fq_points(sl2, 6)
        with pytest.raises(TypeError):
            fq_points("sl2", 3)

    def test_one_elimination_per_blueprint(self, monkeypatch):
        calls = count_eliminations(monkeypatch)
        bp = catalog.sl2_minors()
        for _ in range(3):
            assert [fq_points(bp, q) for q in SAMPLE_Q] == \
                list(PINNED_COUNTS["sl2_minors"][0])
            assert counting_polynomial(bp, 3).coeffs == (0, -1, 0, 1)
            assert counting_polynomial(bp, 2) is None
            assert euler_characteristic(bp) == 0
        assert calls == [bp]


def reference_fit(pairs, bound):
    """The lowest-degree integer polynomial through every pair, tried at
    degrees up to `bound` only, so that at least one pair is held out;
    Lagrange interpolation on the first d+1 pairs in q order. Coefficients
    low to high, or None."""
    pairs = sorted(pairs)
    for d in range(bound + 1):
        pts = pairs[:d + 1]
        coeffs = [Fraction(0)] * (d + 1)
        for i, (xi, yi) in enumerate(pts):
            basis, denom = [Fraction(1)], Fraction(1)
            for j, (xj, _) in enumerate(pts):
                if j != i:
                    basis = [(basis[k - 1] if k else 0)
                             - xj * (basis[k] if k < len(basis) else 0)
                             for k in range(len(basis) + 1)]
                    denom *= xi - xj
            for k, c in enumerate(basis):
                coeffs[k] += yi * c / denom
        while len(coeffs) > 1 and not coeffs[-1]:
            coeffs.pop()
        if len(coeffs) - 1 > d or any(c.denominator != 1 for c in coeffs):
            continue
        ints = tuple(int(c) for c in coeffs)
        if all(sum(c * q ** k for k, c in enumerate(ints)) == n
               for q, n in pairs):
            return ints
    return None


class TestOneFitter:
    """`fit_polynomial` is the one fitter: interpolated once on the first
    degree_bound+1 counts, verified on the rest, and never with nothing
    held out."""

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_lowest_degree_reference(self, data):
        qs = data.draw(st.lists(st.sampled_from(SAMPLE_Q), min_size=2,
                                unique=True))
        bound = data.draw(st.integers(0, len(qs) - 2))
        # integer-valued in the binomial basis, so some coefficients in the
        # monomial basis are not integers
        binom = data.draw(st.lists(st.integers(-3, 3), max_size=7))
        counts = [(q, sum(a * math.comb(q, k) for k, a in enumerate(binom)))
                  for q in qs]
        if data.draw(st.booleans()):
            i = data.draw(st.integers(0, len(qs) - 1))
            counts[i] = (counts[i][0],
                         counts[i][1] + data.draw(st.integers(-2, 2)))
        poly = fit_polynomial(counts, bound)
        assert (poly and poly.coeffs) == reference_fit(counts, bound)
        if poly is not None:
            ordered = sorted(counts)
            assert poly.sample_witness == tuple(ordered[:bound + 1])
            assert poly.held_out_witness == tuple(ordered[bound + 1:])

    def test_degree_six_with_nothing_held_out_is_refused(self):
        # q^6 at q = 2..8 and 9^6 + 1680 at q = 9: the old lowest-degree
        # loop fit an integral degree-6 interpolant that no count verified
        counts = [(q, q ** 6) for q in SAMPLE_Q[:-1]] + [(9, 9 ** 6 + 1680)]
        assert fit_polynomial(counts, len(SAMPLE_Q) - 2) is None
        with pytest.raises(ValueError, match="hold out one"):
            fit_polynomial(counts, len(SAMPLE_Q) - 1)

    @pytest.mark.parametrize("bound", [-1, 6])
    def test_bound_that_holds_out_nothing_is_refused(self, bound):
        with pytest.raises(ValueError, match="hold out one"):
            fit_polynomial([(q, q) for q in SAMPLE_Q], bound)

    def test_witnesses_match_counting_polynomial(self, sl2):
        counts = [(q, fq_points(sl2, q)) for q in SAMPLE_Q]
        fit = fit_polynomial(counts, 4)
        proved = counting_polynomial(sl2, 4)
        assert fit == proved
        assert fit.sample_witness == tuple(counts[:5])

    def test_interpolate_has_one_caller(self):
        src = pathlib.Path(counting.__file__).resolve().parent
        callers = []
        for path in sorted(src.glob("*.py")):
            tree = ast.parse(path.read_text())
            for fn in ast.walk(tree):
                if not isinstance(fn, ast.FunctionDef):
                    continue
                for node in ast.walk(fn):
                    if isinstance(node, ast.Call) and "_interpolate" in (
                            getattr(node.func, "id", None),
                            getattr(node.func, "attr", None)):
                        callers.append((path.name, fn.name))
        assert callers == [("counting.py", "fit_polynomial")]
