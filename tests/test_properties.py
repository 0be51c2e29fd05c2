"""Property-based checks with hypothesis."""

import itertools
import random
from fractions import Fraction
from functools import lru_cache

from hypothesis import given, settings, strategies as st

from blueforge import arithcurve as ac
from blueforge import catalog
from blueforge.budget import Budget
from blueforge.core import (ONE, PROVED, ZERO, Blueprint, ForeignElement,
                            MonomialBackend,
                            additive_closure, derive, enumerate_morphisms,
                            field_blueprint, is_prime_ideal, localize,
                            _monomial_divides, _rewrites)
from blueforge.counting import fit_polynomial
from blueforge.schemes import proj
from blueforge.spectra import _monomial_primes, spec

rationals = st.fractions(min_value=Fraction(-1000), max_value=Fraction(1000),
                         max_denominator=1000)

place_sets = st.sets(st.sampled_from([2, 3, 5, 7, -1]), max_size=3)


def open_of(places):
    out = []
    for p in places:
        out.append(ac.ARCH if p == -1 else ac.finite_place(p))
    return ac.CurveOpen.without(*out)


class TestArithSheaf:
    @given(a=rationals, u=place_sets, v=place_sets)
    @settings(max_examples=300, deadline=None)
    def test_union_axiom(self, a, u, v):
        U, V = open_of(u), open_of(v)
        both = ac.sheaf_membership(a, U) and ac.sheaf_membership(a, V)
        assert ac.sheaf_membership(a, U.union(V)) == both

    @given(a=rationals, u=place_sets, v=place_sets)
    @settings(max_examples=300, deadline=None)
    def test_restriction_monotone(self, a, u, v):
        U, V = open_of(u), open_of(v.union(u))
        if ac.sheaf_membership(a, U):
            assert ac.sheaf_membership(a, V)


class TestClosureProperties:
    @given(subset=st.sets(st.sampled_from(["T1", "T2", "T3", "T4"]),
                          max_size=4),
           extra=st.sampled_from(["T1", "T2", "T3", "T4"]))
    @settings(max_examples=60, deadline=None)
    def test_monotone_and_contains(self, subset, extra):
        sl2 = catalog.sl2_f1()
        gens = [sl2.backend.gen_element(n) for n in sorted(subset)]
        small = additive_closure(sl2, gens)
        big = additive_closure(sl2, gens + [sl2.backend.gen_element(extra)])
        for g in gens:
            assert small.contains(g)
        for g in small.minimal:
            assert big.contains(g)

    @given(subset=st.sets(st.sampled_from(["T1", "T2", "T3", "T4"]),
                          max_size=2))
    @settings(max_examples=30, deadline=None)
    def test_idempotent(self, subset):
        sl2 = catalog.sl2_f1()
        gens = [sl2.backend.gen_element(n) for n in sorted(subset)]
        once = additive_closure(sl2, gens)
        twice = additive_closure(sl2, list(once.minimal))
        assert once.minimal == twice.minimal


class TestDeriveSoundness:
    def random_walk_relation(self, bp, rng, steps=2):
        """A relation in the generated congruence, by a random rewrite walk."""
        l, r = bp.relations[rng.randrange(len(bp.relations))]
        side = list(l)
        for _ in range(steps):
            succ = list(_rewrites(bp, tuple(side), bp.budget))
            if not succ:
                break
            side = list(succ[rng.randrange(len(succ))])
        return tuple(side), r

    @settings(max_examples=1, deadline=None)
    @given(st.none())
    def test_walked_relations_hold_at_points(self, _):
        rng = random.Random(99)
        for bp in (catalog.sl2_f1(), catalog.f1n(4), catalog.b1()):
            morphisms = {q: enumerate_morphisms(bp, field_blueprint(q))
                         for q in (2, 3)}
            for _ in range(40):
                lhs, rhs = self.random_walk_relation(bp, rng)
                assert derive(bp, lhs, rhs) == PROVED
                for q, fs in morphisms.items():
                    tb = field_blueprint(q).backend
                    for f in fs:
                        assert tb.eval_sum(f.apply_sum(lhs)) == \
                            tb.eval_sum(f.apply_sum(rhs))


class TestCountingStability:
    @given(perm=st.permutations(list(range(7))))
    @settings(max_examples=25, deadline=None)
    def test_fit_stable_under_permutation(self, perm):
        base = [(2, 6), (3, 24), (4, 60), (5, 120), (7, 336), (8, 504),
                (9, 720)]
        shuffled = [base[i] for i in perm]
        poly = fit_polynomial(shuffled)
        assert poly is not None and poly.coeffs == (0, -1, 0, 1)


def reference_divides(backend, g, m):
    """Does g divide m: try every nonzero coefficient c and check that the
    normalized (c, m - g) times g gives m back."""
    if backend.is_zero(g):
        return backend.is_zero(m)
    diff = tuple(x - y for x, y in zip(m[1], g[1]))
    for c in backend.coeff.backend.symbols:
        if c == ZERO or backend.coeff.mul(c, g[0]) != m[0]:
            continue
        try:
            h = backend.normalize((c, diff))
        except ForeignElement:
            continue
        if backend.mul(h, g) == m:
            return True
    return False


def reference_is_prime(bp, ideal):
    """Variable generators with unit coefficients, and no product of two
    variables outside the ideal lies in it."""
    backend = bp.backend
    for coeff, exps in ideal.minimal:
        nz = [e for e in exps if e]
        if not backend.coeff.is_unit(coeff) or nz != [1]:
            return False
    inside = {i for _, exps in ideal.minimal for i, e in enumerate(exps) if e}
    outside = [backend.gen_element(n) for i, n in enumerate(backend.gens)
               if i not in inside]
    return not any(ideal.contains(backend.mul(a, b))
                   for a in outside for b in outside)


@lru_cache(maxsize=None)
def divides_backends():
    gens = ("X", "Y", "Z")
    out = []
    for coeff in (catalog.f1(), catalog.f1_squared(), catalog.f1n(3)):
        out.append(MonomialBackend(coeff, gens))
        out.append(MonomialBackend(coeff, gens, inverted=("Y",)))
    out.append(MonomialBackend(catalog.f1(), gens,
                               lattice=[((1, 1, 0), ONE)]))
    out.append(MonomialBackend(catalog.f1_squared(), gens,
                               lattice=[((0, 2, 0), "-1")]))
    return tuple(out)


class TestFastPaths:
    @given(data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_monomial_divides_matches_coefficient_loop(self, data):
        backend = data.draw(st.sampled_from(divides_backends()))

        def draw_elem():
            c = data.draw(st.sampled_from(backend.coeff.backend.symbols))
            exps = tuple(data.draw(st.integers(-2 if n in backend.inverted
                                               else 0, 3))
                         for n in backend.gens)
            return backend.normalize((c, exps))

        g = draw_elem()
        m = draw_elem()
        if data.draw(st.booleans()):
            m = backend.mul(g, m)
        assert _monomial_divides(backend, g, m) == \
            reference_divides(backend, g, m)

    def test_is_prime_matches_product_check(self):
        objects = [catalog.affine_space(n) for n in (1, 2, 3)]
        objects += [catalog.torus(2), catalog.sl2_f1(), catalog.sl2_minors(),
                    catalog.grassmannian_f1(2, 4).blueprint,
                    catalog.proj_cone(2).blueprint]
        for bp in objects:
            backend = bp.backend
            assert backend.kind == "monomial" and not backend.lattice
            free = [n for n in backend.gens if n not in backend.inverted]
            checked = 0
            for r in range(len(free) + 1):
                for sub in itertools.combinations(free, r):
                    ideal = additive_closure(
                        bp, [backend.gen_element(n) for n in sub])
                    if not ideal.is_proper():
                        continue
                    assert is_prime_ideal(bp, ideal) == \
                        reference_is_prime(bp, ideal), (bp, sub)
                    checked += 1
            assert checked


def reference_monomial_primes(bp, budget, keep=None):
    """The closure loop: the `additive_closure` of every set of non-inverted
    variables, kept when it is proper, passes `keep` and is prime. A prime
    reached from several sets can be listed more than once, under different
    generator tuples."""
    backend = bp.backend
    candidates = [n for n in backend.gens if n not in backend.inverted]
    points = []
    seen = set()
    for r in range(len(candidates) + 1):
        for sub in itertools.combinations(candidates, r):
            ideal = additive_closure(
                bp, [backend.gen_element(n) for n in sub], budget)
            if ideal.minimal in seen:
                continue
            seen.add(ideal.minimal)
            if not ideal.is_proper():
                continue
            if keep is not None and not keep(ideal):
                continue
            if is_prime_ideal(bp, ideal) is True:
                points.append(ideal)
    points.sort(key=lambda i: (len(i.minimal), i.generator_names()))
    return points


def variable_set(ideal):
    gens = ideal.blueprint.backend.gens
    return frozenset(n for _, exps in ideal.minimal
                     for n, e in zip(gens, exps) if e)


def irrelevant_keep(bp, names):
    elems = [bp.backend.gen_element(n) for n in names]
    return lambda ideal: not all(map(ideal.contains, elems))


class TestMonomialPrimes:
    """The support-mask rule of `_monomial_primes` against the closure
    loop."""

    def monomial_catalog(self):
        # In A^11, T10 sorts before T2: name order differs from index order.
        affine = [catalog.affine_space(n) for n in (0, 1, 2, 3, 4, 5, 11)]
        tori = [catalog.torus(n) for n in (1, 2, 3)]
        sl2 = catalog.sl2_f1()
        b = sl2.backend
        local = [localize(sl2, [b.gen_element("T1")]),
                 localize(sl2, [b.gen_element("T2"), b.gen_element("T3")])]
        charts = list(catalog.proj_space(2).charts)
        return affine + tori + [sl2, catalog.sl2_minors()] + local + charts

    def graded_catalog(self):
        return [catalog.proj_cone(n) for n in (1, 2, 3, 10)] + \
            [catalog.grassmannian_f1(1, 3), catalog.grassmannian_f1(2, 4)]

    def test_catalog_entries(self):
        compared = 0
        for budget in (None, Budget(4, 8, 600)):
            cases = [(bp, spec(bp, budget), None)
                     for bp in self.monomial_catalog()]
            for g in self.graded_catalog():
                cases.append((g.blueprint, spec(g.blueprint, budget), None))
                cases.append((g.blueprint, proj(g, budget), irrelevant_keep(
                    g.blueprint, g.positive_generators())))
            for bp, space, keep in cases:
                assert space.complete
                ref = reference_monomial_primes(bp, budget or bp.budget, keep)
                assert space.labels() == [repr(i) for i in ref], bp
                compared += 1
        assert compared >= 40

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_random_blueprints(self, data):
        backend = data.draw(st.sampled_from(divides_backends()))

        def term():
            c = data.draw(st.sampled_from(backend.coeff.backend.symbols))
            exps = tuple(data.draw(st.integers(-1 if n in backend.inverted
                                               else 0, 2))
                         for n in backend.gens)
            return backend.normalize((c, exps))

        relations = [tuple([term() for _ in range(data.draw(
                         st.integers(0, 3)))] for _side in range(2))
                     for _ in range(data.draw(st.integers(1, 3)))]
        # Both sides only read the closure rule, which does not need a
        # proper blueprint; the properness guard would cost most of the run.
        bp = Blueprint(backend, relations, check_proper=False)
        positive = data.draw(st.sets(st.sampled_from(backend.gens)))
        mask = sum(1 << backend.gens.index(n) for n in positive)
        points, varsets = _monomial_primes(bp, mask)
        assert varsets == [variable_set(p.ideal) for p in points]
        assert len(set(varsets)) == len(varsets)
        order = [(len(v), sorted(v)) for v in varsets]
        assert order == sorted(order)
        assert all(list(p.ideal.minimal) == sorted(p.ideal.minimal,
                                                   key=backend.sort_key)
                   for p in points)
        ref = reference_monomial_primes(
            bp, bp.budget, irrelevant_keep(bp, positive) if positive else None)
        assert set(varsets) == {variable_set(i) for i in ref}
