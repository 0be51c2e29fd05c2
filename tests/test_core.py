"""Blueprint values, derivation, ideals, quotients, localization, units,
presentations, cancellativity and Frobenius."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from blueforge import catalog, derivation
from blueforge.budget import Budget
from blueforge.core import (ONE, PROVED, UNKNOWN, ZERO, Blueprint,
                            BlueprintError, BlueprintMorphism, FiniteTable,
                            ImproperRelations, MonomialBackend, NotAnIdeal,
                            UnsupportedIdeal, _certified_proper,
                            _guard_budget, _refuting_target, _UnionFind,
                            additive_closure,
                            count_presentation_points, derive,
                            enumerate_morphisms, field_blueprint,
                            finite_blueprints_isomorphic, improper_pair,
                            is_blue_field, is_cancellative, is_frobenius,
                            is_morphism, is_prime_ideal, localize,
                            localization_morphism, parse_element,
                            presentation_normalizes_to_integers,
                            quotient_by_ideal, quotient_universal_factoring,
                            ring_presentation, semiring_presentation,
                            unit_field)
from blueforge.spectra import rank_of_point, spec


def gens_of(bp):
    return {n: bp.backend.gen_element(n) for n in bp.backend.gens}


class TestMkBlueprint:
    def test_free_monoid_f1t(self, f1):
        bp = Blueprint(MonomialBackend(f1, ("T",)))
        assert bp.relations == ()
        assert bp.render(bp.backend.gen_element("T")) == "T"

    def test_no_relations_are_certified_proper(self, f1):
        # used to raise KeyError: 'pop from an empty set'
        assert _certified_proper(Blueprint(MonomialBackend(f1, ("X",)), []))

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

    def test_two_fields_refutes_minus_one_as_mixed_unit(self):
        # (1,2) squares to 1, but 1 + (1,2) = 0 mixes the components, which
        # no relation of the two-field blueprint does
        f = BlueprintMorphism(catalog.f1n(2), catalog.two_fields(2, 3),
                              {"-1": "(1,2)"})
        assert is_morphism(f) == ("RefutedOnGenerator",
                                  ((), ("-1", "1")))


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


# Frozen from the guard that searched every quotient, at the benchmark's
# catalog budget: per variable prime, named by its generators, the
# quotient's generators, inverted generators, lattice and rendered
# relations, then the rank of the point; None where the quotient is
# unsupported. Cone primes with three or more generators, not listed, give
# the free monoid on the other generators, of rank their number.
PIN_BUDGET = Budget(4, 8, 600)
SL2_PINS = {
    (): (("T1", "T2", "T3", "T4"), (), (), (("1 + T2*T3", "T1*T4"),), 3),
    ("T1",): (("T2", "T3", "T4"), ("T2", "T3"), (((2, 2, 0), "1"),),
              (("0", "1 + T2*T3"),), 2),
    ("T2",): (("T1", "T3", "T4"), ("T1", "T4"), (((1, 0, 1), "1"),), (), 2),
    ("T3",): (("T1", "T2", "T4"), ("T1", "T4"), (((1, 0, 1), "1"),), (), 2),
    ("T4",): (("T1", "T2", "T3"), ("T2", "T3"), (((0, 2, 2), "1"),),
              (("0", "1 + T2*T3"),), 2),
    ("T1", "T4"): (("T2", "T3"), ("T2", "T3"), (((2, 2), "1"),),
                   (("0", "1 + T2*T3"),), 1),
    ("T2", "T3"): (("T1", "T4"), ("T1", "T4"), (((1, 1), "1"),), (), 1),
}
MINORS_PINS = {
    (): (("a", "b", "c", "d"), (), (), (("1 + b*c", "a*d"),), 3),
    ("a",): (("b", "c", "d"), ("b", "c"), (((2, 2, 0), "1"),),
             (("0", "1 + b*c"),), 2),
    ("b",): (("a", "c", "d"), ("a", "d"), (((1, 0, 1), "1"),), (), 2),
    ("c",): (("a", "b", "d"), ("a", "d"), (((1, 0, 1), "1"),), (), 2),
    ("d",): (("a", "b", "c"), ("b", "c"), (((0, 2, 2), "1"),),
             (("0", "1 + b*c"),), 2),
    ("a", "d"): (("b", "c"), ("b", "c"), (((2, 2), "1"),),
                 (("0", "1 + b*c"),), 1),
    ("b", "c"): (("a", "d"), ("a", "d"), (((1, 1), "1"),), (), 1),
}
CONE = ("x12", "x13", "x14", "x23", "x24", "x34")
CONE_QUOTIENTS = (("x13",), ("x24",), ("x13", "x24"))
CONE_PINS = {
    (): (CONE, (), (), (("x14*x23 + x12*x34", "x13*x24"),), 5),
    **{killed: (tuple(g for g in CONE if g not in killed), (), (),
                (("0", "x14*x23 + x12*x34"),), 5 - len(killed))
       for killed in CONE_QUOTIENTS},
    **{killed: None for killed in (("x12",), ("x14",), ("x23",), ("x34",),
                                   ("x12", "x34"), ("x14", "x23"))},
}
PINNED = {"sl2": (catalog.sl2_f1, SL2_PINS),
          "sl2_minors": (catalog.sl2_minors, MINORS_PINS),
          "gr24_cone": (lambda: catalog.grassmannian_f1(2, 4).blueprint,
                        CONE_PINS)}


def variable_prime_quotients(bp):
    """(generators of the prime, its index in spec, the quotient or None
    where it is unsupported) for every point of spec(bp)."""
    X = spec(bp, PIN_BUDGET)
    for i, p in enumerate(X.points):
        killed = tuple(sorted(map(bp.render, p.ideal.minimal)))
        try:
            Q = quotient_by_ideal(bp, p.ideal, PIN_BUDGET)
        except UnsupportedIdeal:
            Q = None
        yield X, i, killed, Q


class TestVariablePrimeQuotients:
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_quotients_and_ranks_as_pinned(self, name):
        build, pins = PINNED[name]
        bp = build()
        points = 0
        for X, i, killed, Q in variable_prime_quotients(bp):
            points += 1
            kept = tuple(g for g in bp.backend.gens if g not in killed)
            want = pins.get(killed, (kept, (), (), (), len(kept)))
            if Q is None:
                assert want is None, killed
                with pytest.raises(UnsupportedIdeal):
                    rank_of_point(X, i, PIN_BUDGET)
                continue
            assert Q.killed_generators == killed
            got = (Q.backend.gens, tuple(sorted(Q.backend.inverted)),
                   Q.backend.lattice,
                   tuple((Q.render_sum(l), Q.render_sum(r))
                         for l, r in Q.relations),
                   rank_of_point(X, i, PIN_BUDGET))
            assert got == want, killed
        assert points == {"sl2": 7, "sl2_minors": 7, "gr24_cone": 37}[name]

    @pytest.mark.parametrize("name", ["sl2", "sl2_minors"])
    def test_sl2_quotients_are_certified_without_search(self, name,
                                                        monkeypatch):
        # 0 = 1 + T2*T3 with (T2*T3)^2 = 1: one ratio, of order two. The
        # spy sits where the guard's search looks `_explore` up.
        explored, explore = [], derivation._explore
        monkeypatch.setattr(derivation, "_explore", lambda *a, **k:
                            explored.append(a) or explore(*a, **k))
        build, _ = PINNED[name]
        # positive control: the uncertified blueprint is searched, and the
        # spy sees it
        assert not _certified_proper(build())
        assert improper_pair(build(), _guard_budget(PIN_BUDGET)) is None
        assert explored
        certified = 0
        for _, _, killed, Q in variable_prime_quotients(build()):
            if Q is None or not Q.relations or not killed:
                continue
            del explored[:]
            assert _certified_proper(Q), killed
            assert improper_pair(Q, _guard_budget(PIN_BUDGET)) is None
            assert explored == []
            certified += 1
        assert certified == 3

    def test_cone_quotients_are_not_certified(self, gr24):
        # 0 = x14*x23 + x12*x34 has no unit term, so the guard searches
        for _, _, killed, Q in variable_prime_quotients(gr24.blueprint):
            if killed in CONE_QUOTIENTS:
                assert Q.backend.lattice == ()
                assert not _certified_proper(Q), killed

    @pytest.mark.xfail(strict=True, reason="the Gr(2,4) cone quotients are "
                       "improper: a^2 = b^2 for their relation 0 = a + b "
                       "(ROADMAP item 14)")
    def test_cone_quotients_are_proper(self, gr24):
        # with a = x12*x34 and b = x14*x23:
        # a^2 = a^2 + (a*b + b^2) = (a^2 + a*b) + b^2 = b^2
        for _, _, killed, Q in variable_prime_quotients(gr24.blueprint):
            if killed not in CONE_QUOTIENTS:
                continue
            a2, b2 = Q.element("x12^2*x34^2"), Q.element("x14^2*x23^2")
            assert a2 == b2 or \
                derive(Q, [a2], [b2], Budget(4, 8, 100000)) != PROVED, killed


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

    def test_zero_table_localizes_to_itself(self):
        zero = Blueprint(FiniteTable((ZERO,), {(ZERO, ZERO): ZERO}))
        loc = localize(zero, [])
        assert loc.backend.symbols == (ZERO,)
        assert loc.localization_map == {ZERO: ZERO}
        assert not loc.zero_inverted
        assert localize(zero, [ZERO]).zero_inverted

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


def power_chain():
    """{0, 1, t, t2, t3} with t^i t^j = t^min(i+j, 3): the power t3 is the
    first idempotent power of t, so inverting t identifies 1, t and t2."""
    syms = (ZERO, ONE, "t", "t2", "t3")
    mul = {(a, b): syms[min(syms.index(a) + syms.index(b) - 1, 4)]
           for a in syms[1:] for b in syms[1:]}
    mul.update({(a, ZERO): ZERO for a in syms})
    return Blueprint(FiniteTable(syms, mul), (), name="t^4=t^3")


# The finite tables that localizations are checked on.
FINITE_TABLES = {
    "power_chain": power_chain,
    "f1": catalog.f1, "b1": catalog.b1, "f1_squared": catalog.f1_squared,
    "idempotent": catalog.idempotent_example,
    "two_fields23": lambda: catalog.two_fields(2, 3),
    "product_ring22": lambda: catalog.product_ring(2, 2),
    "product_ring23": lambda: catalog.product_ring(2, 3),
    **{f"f1n{n}": (lambda n=n: catalog.f1n(n)) for n in (2, 3, 4, 5)},
    **{f"roots_sums{n}": (lambda n=n: catalog.roots_of_unity_sums(n))
       for n in (2, 3, 4)},
}


def reference_localize(bp, elems):
    """The pair-table localization that `ideals._finite_localize` replaced,
    with its closure of S taken under all products (it left out s*s)."""
    backend = bp.backend
    sset = {ONE}
    frontier = list(elems)
    while frontier:
        s = frontier.pop()
        if s not in sset:
            sset.add(s)
            frontier.extend(backend.mul(s, t) for t in sset)
    sset = sorted(sset)
    pairs = [(a, s) for a in backend.symbols for s in sset]

    def eq(p, q):
        a, s = p
        b, t = q
        return any(backend.mul(u, backend.mul(a, t))
                   == backend.mul(u, backend.mul(b, s)) for u in sset)

    classes = []
    for p in pairs:
        for cls in classes:
            if eq(p, cls[0]):
                cls.append(p)
                break
        else:
            classes.append([p])

    def label(cls):
        if any(a == ZERO for a, _s in cls):
            return ZERO
        if (ONE, ONE) in cls:
            return ONE
        plain = [a for (a, s) in cls if s == ONE]
        if plain:
            return min(plain)
        a, s = min(cls)
        return f"{a}/{s}"

    rep = {p: label(cls) for cls in classes for p in cls}
    symbols = sorted(set(rep.values()), key=lambda s: (s != ZERO, s != ONE, s))
    mul = {}
    for p in pairs:
        for q in pairs:
            prod = (backend.mul(p[0], q[0]), backend.mul(p[1], q[1]))
            mul[(rep[p], rep[q])] = rep[prod]
    add = None
    if bp.is_semiring:
        add = {}
        for p in pairs:
            for q in pairs:
                num = backend.add_table[(backend.mul(p[0], q[1]),
                                         backend.mul(q[0], p[1]))]
                s = (num, backend.mul(p[1], q[1]))
                key = (rep[p], rep[q])
                if key in add and add[key] != rep[s]:
                    raise BlueprintError("localized addition is inconsistent")
                add[key] = rep[s]
    rels = [([rep[(t, ONE)] for t in l], [rep[(t, ONE)] for t in r])
            for l, r in bp.relations]
    out = Blueprint(FiniteTable(symbols, mul, add), rels, budget=bp.budget,
                    name=f"{bp.name or 'B'}_loc", check_proper=False)
    out.zero_inverted = False
    out.localization_map = {s: rep[(s, ONE)] for s in backend.symbols}
    return out


def table_facts(bp):
    b = bp.backend
    syms = b.symbols
    return (syms, {k: b.mul(*k) for k in itertools.product(syms, syms)},
            None if b.add_table is None else
            {k: b.add_table[k] for k in itertools.product(syms, syms)},
            bp.relations, bp.name)


def assert_localizes_as_reference(bp, elems):
    got = localize(bp, elems)
    want = reference_localize(bp, elems)
    assert table_facts(got) == table_facts(want), (bp.name, elems)
    assert got.localization_map == want.localization_map
    assert got.zero_inverted is False
    assert got.projection == got.localization_map


def reference_finite_quotient(bp, ideal):
    """The merge loop that `ideals._finite_quotient` replaced: close under
    multiplication by rescanning the whole table, at most 40 rounds."""
    backend = bp.backend
    budget = bp.budget
    uf = _UnionFind(backend.symbols)
    for s in ideal.minimal:
        uf.union(ZERO, s)
    for _ in range(40):
        changed = True
        while changed:
            changed = False
            reps = {}
            for a in backend.symbols:
                for b in backend.symbols:
                    key = (uf.find(a), uf.find(b))
                    val = uf.find(backend.mul(a, b))
                    if key in reps:
                        if reps[key] != val:
                            uf.union(reps[key], val)
                            changed = True
                    else:
                        reps[key] = val
        proj = {s: uf.find(s) for s in backend.symbols}
        syms = sorted(set(proj.values()), key=lambda s: (s != ZERO, s != ONE, s))
        mul = {}
        for a in backend.symbols:
            for b in backend.symbols:
                mul[(proj[a], proj[b])] = proj[backend.mul(a, b)]
        rels = []
        for l, r in bp.relations:
            nl = [proj[t] for t in l if proj[t] != ZERO]
            nr = [proj[t] for t in r if proj[t] != ZERO]
            if sorted(nl) != sorted(nr):
                rels.append((nl, nr))
        candidate = Blueprint(FiniteTable(syms, mul), rels, budget=budget,
                              name=f"{bp.name or 'B'}/I", check_proper=False)
        pair = improper_pair(candidate, _guard_budget(budget))
        if pair is None:
            candidate.projection = proj
            return candidate
        uf.union(*pair)
    raise ImproperRelations("quotient symbol merging failed to stabilize")


def assert_quotients_as_reference(bp, elems):
    ideal = additive_closure(bp, elems)
    if not ideal.is_proper():
        return
    got = quotient_by_ideal(bp, ideal)
    want = reference_finite_quotient(bp, ideal)
    assert table_facts(got) == table_facts(want), (bp.name, elems)
    assert got.projection == want.projection


class TestQuotientAgainstReference:
    @pytest.mark.parametrize("name", sorted(FINITE_TABLES))
    def test_catalog_table(self, name):
        bp = FINITE_TABLES[name]()
        nonzero = [s for s in bp.backend.symbols if s != ZERO]
        for r in range(3):
            for elems in itertools.combinations(nonzero, r):
                assert_quotients_as_reference(bp, list(elems))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_ideals_and_relations(self, data):
        # added relations make pushed identifications to merge
        bp = FINITE_TABLES[data.draw(st.sampled_from(sorted(FINITE_TABLES)))]()
        nonzero = [s for s in bp.backend.symbols if s != ZERO]
        elems = data.draw(st.lists(st.sampled_from(nonzero), max_size=2))
        side = st.lists(st.sampled_from(nonzero), max_size=2)
        extra = data.draw(st.lists(st.tuples(side, side), max_size=2))
        bp = Blueprint(bp.backend, list(bp.relations) + extra, name=bp.name,
                       check_proper=False)
        assert_quotients_as_reference(bp, elems)


class TestLocalizeAgainstReference:
    @pytest.mark.parametrize("name", sorted(FINITE_TABLES))
    def test_catalog_table(self, name):
        bp = FINITE_TABLES[name]()
        nonzero = [s for s in bp.backend.symbols if s != ZERO]
        for r in range(4):
            for elems in itertools.combinations(nonzero, r):
                assert_localizes_as_reference(bp, list(elems))

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_random_sets_and_relations(self, data):
        bp = FINITE_TABLES[data.draw(st.sampled_from(sorted(FINITE_TABLES)))]()
        nonzero = [s for s in bp.backend.symbols if s != ZERO]
        elems = data.draw(st.lists(st.sampled_from(nonzero), max_size=3))
        side = st.lists(st.sampled_from(bp.backend.symbols), max_size=2)
        extra = data.draw(st.lists(st.tuples(side, side), max_size=2))
        bp = Blueprint(bp.backend, list(bp.relations) + extra, name=bp.name,
                       check_proper=False)
        assert_localizes_as_reference(bp, elems)

    def test_unit_of_f1_cubed(self):
        # the closure of S used to leave out z1*z1: this raised KeyError
        f13 = catalog.f1n(3)
        loc = localize(f13, ["z1"])
        assert table_facts(loc)[:3] == table_facts(f13)[:3]
        assert loc.relations == f13.relations
        assert loc.localization_map == {s: s for s in f13.backend.symbols}

    def test_power_chain(self):
        loc = localize(power_chain(), ["t"])
        assert loc.backend.symbols == (ZERO, ONE)
        assert loc.localization_map == {ZERO: ZERO, ONE: ONE, "t": ONE,
                                        "t2": ONE, "t3": ONE}

    def test_idempotent_of_product_ring(self):
        # inverting (0,2) in F2 x F3 kills the first factor: F3
        loc = localize(catalog.product_ring(2, 3), ["(0,2)"])
        t = "(0,2)"
        assert loc.backend.symbols == (ZERO, ONE, t)
        assert loc.mul(t, t) == ONE
        assert loc.backend.add_table[(ONE, ONE)] == t
        assert loc.backend.add_table[(ONE, t)] == ZERO
        assert loc.localization_map == {
            ZERO: ZERO, "(1,0)": ZERO, ONE: ONE, "(0,1)": ONE, t: t,
            "(1,2)": t}


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
        assert is_cancellative(b1) == ("no", {
            "cancelled": ("1",), "lhs": (), "rhs": ("1",), "target": "B1+"})

    def test_f1_yes(self, f1):
        assert is_cancellative(f1)[0] == "yes"

    def test_f1_squared_yes(self, f12):
        assert is_cancellative(f12)[0] == "yes"

    def test_sl2_yes(self, sl2):
        assert is_cancellative(sl2)[0] == "yes"

    @pytest.mark.parametrize("n,root", [(4, "z2"), (6, "z3")])
    def test_refuted_cancellation_without_a_target(self, n, root):
        # 1 + root = 1 + 1 cancels to 1 = root: the completion refutes it,
        # and no target separates the two sides
        bp = catalog.roots_of_unity_sums(n)
        assert _refuting_target(bp, (ONE,), (root,)) is None
        assert is_cancellative(bp) == ("no", {
            "cancelled": (ONE,), "lhs": (ONE,), "rhs": (root,),
            "normal_forms": ((ONE,), (root,))})


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

    def test_counterexamples_name_the_first_separating_target(self, f12):
        assert is_frobenius(f12, 2) == (
            "Counterexample", {"relation": ((), ("-1", "1")), "target": "F3"})
        assert is_frobenius(catalog.f1n(3), 3) == (
            "Counterexample",
            {"relation": ((), ("1", "z1", "z2")), "target": "F4"})


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
