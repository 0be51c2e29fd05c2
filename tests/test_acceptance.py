"""The acceptance gate: one test per criterion, each printing a PASS/FAIL
line (run with -s to see them). Tolerances are exact unless a runtime bound
is part of the criterion.

Criterion 4 checks globalization on the two-field example and on the
blueprint it aims at. The two-field blueprint two_fields(2,3) has three
primes, not two: every generating pair is a monomial times a one-component
field relation, so every rewrite of the generated pre-addition keeps the
multiset of mixed terms (those with both components nonzero). No derivable
relation therefore forces a unit into the set of non-units, which is a
third prime and the unique closed point. With that maximum point the global
sections are the blueprint itself, and the sum (1,1)+(1,1) = (0,2) stays
underivable at every budget: the completion of `core._derive3` refutes it
with two distinct normal forms. The test replays the invariant over every
generating pair (m*L, m*R) as an independent certificate. The two-point
half is checked on F2 x F3 (catalog.product_ring), whose spectrum has two
incomparable points, whose global sections are isomorphic to it, and in
whose global sections the sum is derivable.
"""
import contextlib
import itertools
import math
import random
import time
from collections import Counter
from fractions import Fraction

from blueforge import arithcurve as ac
from blueforge import catalog, complexes as cx, congruence as cg
from blueforge import kzero as kz
from blueforge import quivergrass as qg
from blueforge.core import (PROVED, REFUTED, UNKNOWN, _derive3,
                            additive_closure, derive,
                            enumerate_morphisms, field_blueprint,
                            finite_blueprints_isomorphic, is_prime_ideal,
                            localize, quotient_by_ideal,
                            quotient_universal_factoring, _rewrites)
from blueforge.counting import counting_polynomial, soule_zeta
from blueforge.schemes import fq_points_of_scheme, proj
from blueforge.spectra import (globalize, rank_of_point, spec, weyl_extension)


@contextlib.contextmanager
def criterion(n, desc):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n:>2}: FAIL  {desc}")
        raise
    print(f"ACCEPTANCE {n:>2}: PASS  {desc}")


def test_criterion_01_affine_spectra():
    with criterion(1, "spec(A^n) Boolean lattices; affine line"):
        start = time.monotonic()
        for n in range(1, 11):
            X = spec(catalog.affine_space(n))
            assert len(X) == 2 ** n
            varsets = [frozenset(p.generator_names()) for p in X.points]
            assert len(set(varsets)) == 2 ** n
            for i in range(len(X)):
                for j in range(len(X)):
                    assert X.leq(i, j) == (varsets[i] <= varsets[j])
        assert time.monotonic() - start < 5.0
        a1 = spec(catalog.affine_space(1))
        assert a1.labels() == ["(0)", "(T1)"]
        assert a1.lt(0, 1)


def test_criterion_02_sl2(sl2_space):
    with criterion(2, "SL2: 7 primes, 2 closed points, Weyl extension"):
        expected = {frozenset(), frozenset({"T1"}), frozenset({"T2"}),
                    frozenset({"T3"}), frozenset({"T4"}),
                    frozenset({"T1", "T4"}), frozenset({"T2", "T3"})}
        got = {frozenset(p.generator_names()) for p in sl2_space.points}
        assert got == expected
        closed = {frozenset(sl2_space.points[i].generator_names())
                  for i in sl2_space.closed_points()}
        assert closed == {frozenset({"T2", "T3"}), frozenset({"T1", "T4"})}
        W = weyl_extension(sl2_space)
        assert len(W) == 2
        assert all(cert is not None and cert[0] == 1
                   for cert in W.certificates.values())
        assert all(cert[1] in ("F1", "F1^2")
                   for cert in W.certificates.values())
        assert W.hypothesis_h


def test_criterion_03_projective_spaces():
    with criterion(3, "P^n point counts and structure"):
        for n in range(0, 7):
            P = proj(catalog.proj_cone(n))
            assert len(P) == 2 ** (n + 1) - 1
        P1 = proj(catalog.proj_cone(1))
        assert len(P1.generic_points()) == 1
        assert len(P1.closed_points()) == 2
        assert len(proj(catalog.proj_cone(2))) == 7


def _is_mixed(sym):
    """Whether an element "(a,b)" of k1 x k2 has both components nonzero;
    "1" is (1,1) and "0" is (0,0)."""
    if sym in ("0", "1"):
        return sym == "1"
    return all(int(c) != 0 for c in sym[1:-1].split(","))


def _mixed_terms(terms):
    return Counter(t for t in terms if _is_mixed(t))


def test_criterion_04_globalization():
    with criterion(4, "two-field example: 3 primes, GammaB = B; "
                      "F2xF3: 2 points, GammaR = R"):
        B = catalog.two_fields(2, 3)
        G = globalize(B)
        X, Y = spec(B), spec(G)
        assert sorted(p.generator_names() for p in X.points) == \
            sorted(p.generator_names() for p in Y.points)
        assert derive(B, ["1", "1"], ["(0,2)"],
                      B.budget.scaled(10)) == UNKNOWN
        # the completion refutes the sum: its two sides keep distinct
        # normal forms, each derivable from its side
        verdict, forms = _derive3(B, ("1", "1"), ("(0,2)",), B.budget)
        assert verdict == REFUTED
        assert forms[0] != forms[1]
        assert derive(B, ["1", "1"], forms[0]) == PROVED
        assert derive(B, ["(0,2)"], forms[1]) == PROVED
        # the three-point order: two incomparable primes below the non-units
        assert X.complete
        assert all(p.ideal.saturated == "exact" for p in X.points)
        names = [p.generator_names() for p in X.points]
        assert sorted(names) == [("(0,1)", "(0,2)"),
                                 ("(0,1)", "(0,2)", "(1,0)"), ("(1,0)",)]
        a = names.index(("(1,0)",))
        b = names.index(("(0,1)", "(0,2)"))
        top = names.index(("(0,1)", "(0,2)", "(1,0)"))
        assert not X.leq(a, b) and not X.leq(b, a)
        assert X.lt(a, top) and X.lt(b, top)
        assert X.closed_points() == [top]
        nonunits = {s for s in B.carrier()
                    if s != "0" and not _is_mixed(s)}
        assert set(names[top]) == nonunits
        assert G is B
        # certificate: every generating pair m*L = m*R keeps the mixed
        # terms, so no derivable relation changes them
        mul = B.backend.mul
        for m in B.carrier():
            if m == "0":
                continue
            for lhs, rhs in B.relations:
                assert _mixed_terms(mul(m, t) for t in lhs) == \
                    _mixed_terms(mul(m, t) for t in rhs)
        assert _mixed_terms(["1", "1"]) != _mixed_terms(["(0,2)"])
        # the two-point half, on the product ring
        R = catalog.product_ring(2, 3)
        XR = spec(R)
        assert len(XR) == 2
        assert all(not XR.lt(i, j) for i in range(2) for j in range(2))
        GR = globalize(R)
        iso = finite_blueprints_isomorphic(R, GR)
        assert iso is not None
        assert len(spec(GR)) == 2
        assert derive(GR, ["1", "1"], [iso["(0,2)"]]) == PROVED


def test_criterion_05_counting_and_zeta(sl2, gr24):
    with criterion(5, "counting polynomials and zeta functions"):
        start = time.monotonic()
        for n in range(0, 5):
            ps = catalog.proj_space(n)
            for q in (2, 3, 4, 5):
                assert fq_points_of_scheme(ps, q) == \
                    sum(q ** i for i in range(n + 1))
        assert counting_polynomial(sl2, 3).coeffs == (0, -1, 0, 1)
        gr_poly = counting_polynomial(gr24, 4)
        assert gr_poly.coeffs == (1, 1, 2, 1, 1)
        assert gr_poly(1) == 6
        assert soule_zeta(counting_polynomial(catalog.f1(), 0)).render() == "s"
        assert soule_zeta(counting_polynomial(
            catalog.affine_space(1), 1)).render() == "s - 1"
        assert time.monotonic() - start < 30.0


def test_criterion_06_complexes():
    with criterion(6, "Coxeter complexes, oriflamme, order complexes"):
        P2 = proj(catalog.proj_cone(2))
        po = cx.poset_of_space(P2)
        hexagon = cx.tilde_complex(po.restricted(
            [e for e in po.elements if e != "(0)"]))
        assert hexagon.f_vector() == (6, 6)
        a2, _ = cx.coxeter_complex("A", 2)
        assert cx.is_isomorphic_typed(hexagon, a2) is not None
        for n in range(1, 6):
            c, _ = cx.coxeter_complex("A", n)
            assert len(c.chambers()) == math.factorial(n + 1)
            P = proj(catalog.proj_cone(n))
            pon = cx.poset_of_space(P)
            t = cx.tilde_complex(pon.restricted(
                [e for e in pon.elements if e != "(0)"]))
            assert len(t.chambers()) == math.factorial(n + 1)
        for family, max_n in (("A", 4), ("B", 4), ("C", 4), ("D", 4)):
            for n in range(2 if family != "D" else 3, max_n + 1):
                c, _ = cx.coxeter_complex(family, n)
                assert c.is_thin()
        for family in ("B", "C", "D"):
            for n in (2, 3):
                if family == "D" and n == 2:
                    continue
                oc, _ = cx.weyl_orbit_complex(family, n)
                ab, _ = cx.coxeter_complex(family, n)
                assert cx.is_isomorphic_typed(oc, ab) is not None
        plain = [frozenset({1}), frozenset({1, 2}), frozenset({1, 2, 3})]
        bad, _ = cx.weyl_orbit_complex("D", 3, plain)
        assert min(bad.panel_chamber_counts().values()) == 1
        good, _ = cx.weyl_orbit_complex("D", 3)
        d3, _ = cx.coxeter_complex("D", 3)
        assert good.is_thin()
        assert cx.is_isomorphic_typed(good, d3) is not None


def test_criterion_07_buildings():
    with criterion(7, "type-A buildings over F_q"):
        def q_factorial(n, q):
            out = 1
            for k in range(1, n + 1):
                out *= (q ** k - 1) // (q - 1)
            return out

        for n, q in ((1, 2), (1, 3), (2, 2), (2, 3)):
            b = cx.building_type_a(n, q)
            assert len(b.chambers()) == q_factorial(n + 1, q)
            assert set(b.panel_chamber_counts().values()) == {q + 1}
            ap = cx.coordinate_apartment(b, n, q)
            an, _ = cx.coxeter_complex("A", n)
            assert cx.is_isomorphic_typed(ap, an) is not None


def test_criterion_08_quiver_grassmannians():
    with criterion(8, "quiver Grassmannian Euler characteristics"):
        start = time.monotonic()
        q2 = qg.Quiver(2, ((0, 1),))
        counterexample = qg.IntegralRep(q2, (2, 2), [[[2, 0], [0, 2]]])
        assert qg.naive_f1_points(counterexample, (1, 1)) == []
        assert qg.chi_via_interpolation(counterexample, (1, 1)) == 2
        assert qg._interpolated_chi(counterexample, (1, 1)) == 2

        from test_quivergrass import random_tree_instance
        rng = random.Random(20240810)
        for _ in range(50):
            rep, e = random_tree_instance(rng, [1])
            naive = len(qg.naive_f1_points(rep, e))
            weyl = qg.weyl_count_diagonal_tree(rep, e)
            chi = qg._interpolated_chi(rep, e)
            assert naive == weyl == chi
            assert qg.chi_via_interpolation(rep, e) == chi
        for _ in range(50):
            rep, e = random_tree_instance(rng, [1, -1, 5, -5])
            chi = qg._interpolated_chi(rep, e)
            assert qg.weyl_count_diagonal_tree(rep, e) == chi
            assert qg.chi_via_interpolation(rep, e) == chi
        assert time.monotonic() - start < 120.0


def test_criterion_09_arithmetic_curve():
    with criterion(9, "arithmetic curve over Q"):
        assert finite_blueprints_isomorphic(ac.global_sections(),
                                            catalog.f1n(2)) is not None
        primes = ac.arch_stalk_primes()
        assert [(p.radius, p.boundary) for p in primes] == \
            [(Fraction(0), "closed"), (Fraction(1), "open")]
        dim, chain = ac.surface_dimension(3)
        assert dim == 2
        assert len(chain) == 3 and chain[0] == ("eta", "eta")
        rng = random.Random(271828)
        places = [ac.finite_place(p) for p in (2, 3, 5, 7, 11)] + [ac.ARCH]
        failures = 0
        for _ in range(10_000):
            a = Fraction(rng.randrange(-1000, 1001), rng.randrange(1, 1001))
            U = ac.CurveOpen.without(*rng.sample(places, rng.randrange(0, 4)))
            V = ac.CurveOpen.without(*rng.sample(places, rng.randrange(0, 4)))
            both = ac.sheaf_membership(a, U) and ac.sheaf_membership(a, V)
            if ac.sheaf_membership(a, U.union(V)) != both:
                failures += 1
        assert failures == 0


def test_criterion_10_congruence_spectra():
    with criterion(10, "congruence spectra and absorbing ideals"):
        assert len(cg.cspec(catalog.f1())) == 1
        C = cg.cspec(catalog.f1_squared())
        parts = {c.partition for c in C.points}
        assert cg.canonical_partition([["0"], ["1", "-1"]]) in parts
        assert cg.canonical_partition([["0"], ["1"], ["-1"]]) in parts
        finite_catalog = [catalog.f1(), catalog.f1_squared(), catalog.b1(),
                          catalog.f1n(3), catalog.idempotent_example(),
                          catalog.two_fields(2, 3)]
        for bp in finite_catalog:
            for c in cg.cspec(bp).points:
                ideal = cg.absorbing_ideal(c)
                if ideal.is_proper():
                    assert is_prime_ideal(bp, ideal) is True
            _, X, mapping = cg.cspec_to_spec(bp)
            assert set(mapping.values()) == set(range(len(X))), bp.name


def test_criterion_11_k0():
    with criterion(11, "K0 of blue-module categories"):
        assert kz.k0(catalog.f1(), 6).is_infinite_cyclic()
        assert kz.k0(catalog.f1n(3), 7).is_infinite_cyclic()
        idem = catalog.idempotent_example()
        be = kz.BlueModule(idem, ("x",), {("e", "x"): "x"})
        assert kz.is_projective(be)
        assert not kz.is_free(be)


def _walk_relation(bp, rng, max_steps=2):
    l, r = bp.relations[rng.randrange(len(bp.relations))]
    side = tuple(l)
    for _ in range(rng.randrange(1, max_steps + 1)):
        succ = list(_rewrites(bp, side, bp.budget))
        if not succ:
            break
        side = succ[rng.randrange(len(succ))]
    return side, r


def test_criterion_12_soundness_suite(sl2, sl2_space):
    with criterion(12, "derivation soundness and structural properties"):
        rng = random.Random(314159)
        qs = (2, 3, 4, 5)
        blueprints = [(sl2, 4000), (catalog.f1n(4), 3000),
                      (catalog.b1(), 3000)]
        for bp, count in blueprints:
            evaluators = []
            for q in qs:
                tb = field_blueprint(q).backend
                for f in enumerate_morphisms(bp, field_blueprint(q)):
                    cache = {}

                    def value(term, f=f, tb=tb, cache=cache):
                        if term not in cache:
                            cache[term] = f.apply(term)
                        return cache[term]

                    evaluators.append((tb, value))
            for _ in range(count):
                lhs, rhs = _walk_relation(bp, rng)
                assert derive(bp, lhs, rhs) == PROVED
                for tb, value in evaluators:
                    lv = tb.eval_sum([value(t) for t in lhs])
                    rv = tb.eval_sum([value(t) for t in rhs])
                    assert lv == rv

        # quotient universal property across the finite catalog
        for bp in (catalog.f1(), catalog.f1_squared(), catalog.b1(),
                   catalog.idempotent_example()):
            syms = [s for s in bp.backend.symbols if s != "0"]
            for rsize in range(len(syms) + 1):
                for sub in itertools.combinations(syms, rsize):
                    ideal = additive_closure(bp, sub)
                    if set(ideal.minimal) != {"0"} | set(sub) \
                            or not ideal.is_proper():
                        continue
                    quotient = quotient_by_ideal(bp, ideal)
                    for q in (2, 3):
                        for h in enumerate_morphisms(bp, field_blueprint(q)):
                            kills = all(h.apply(s) == "0"
                                        for s in ideal.minimal)
                            g = quotient_universal_factoring(bp, ideal,
                                                             quotient, h)
                            assert (g is not None) == kills

        # localization-spectrum correspondence on monomial catalog entries
        for bp in (catalog.affine_space(3), catalog.sl2_f1(),
                   catalog.torus(2)):
            names = [n for n in bp.backend.gens
                     if n not in bp.backend.inverted]
            picks = [names[:1], names[:2]] if names else []
            for invert in picks:
                loc = localize(bp, [bp.backend.gen_element(n)
                                    for n in invert])
                expected = sorted(
                    p.generator_names() for p in spec(bp).points
                    if not any(p.ideal.contains(bp.backend.gen_element(n))
                               for n in invert))
                got = sorted(p.generator_names() for p in spec(loc).points)
                assert got == expected

        # rank monotonicity on the integral catalog spaces
        spaces = [spec(catalog.affine_space(2)), sl2_space,
                  spec(catalog.torus(2)), proj(catalog.proj_cone(1)),
                  proj(catalog.proj_cone(2)),
                  proj(catalog.grassmannian_f1(2, 4))]
        for X in spaces:
            ranks = [rank_of_point(X, i) for i in range(len(X))]
            for i in range(len(X)):
                for j in range(len(X)):
                    if X.lt(i, j):
                        assert ranks[i] > ranks[j]
