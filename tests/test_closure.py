"""Ideal closures against the budgeted loops they replaced: finite ideal
closures and finite spectra by one rule closure (`ideals._closure_rules`),
monomial ideals by colon ideals."""

import itertools
import time

from hypothesis import example, given, settings, strategies as st

from blueforge import catalog
from blueforge.budget import Budget
from blueforge.core import (ONE, ZERO, Blueprint, FiniteTable,
                            IdealDescriptor, MonomialBackend,
                            _monomial_divides, _scale, additive_closure,
                            is_prime_ideal)
from blueforge.spectra import spec


def absorbing_sums():
    """A semiring table that is no ring: x^2 = xy = y^2 = y, sums of
    distinct nonzero terms are the larger in 0 < x < y < 1, and a + a = a.
    An ideal with y holds x, as x + y = y."""
    syms = (ZERO, ONE, "x", "y")
    rank = {s: i for i, s in enumerate((ZERO, "x", "y", ONE))}
    mul = {(a, b): ZERO if ZERO in (a, b) else b if a == ONE else
           a if b == ONE else "y" for a in syms for b in syms}
    add = {(a, b): max(a, b, key=rank.get) for a in syms for b in syms}
    return Blueprint(FiniteTable(syms, mul, add), name="absorbing_sums")


FINITE_TABLES = {
    "absorbing_sums": absorbing_sums,
    "f1": catalog.f1, "f1_squared": catalog.f1_squared, "b1": catalog.b1,
    "idempotent": catalog.idempotent_example,
    **{f"f1n{n}": (lambda n=n: catalog.f1n(n)) for n in range(1, 9)},
    **{f"roots_sums{n}": (lambda n=n: catalog.roots_of_unity_sums(n))
       for n in range(1, 9)},
    **{f"two_fields{a}{b}": (lambda a=a, b=b: catalog.two_fields(a, b))
       for a, b in ((2, 2), (2, 3), (3, 5))},
    **{f"product_ring{a}{b}": (lambda a=a, b=b: catalog.product_ring(a, b))
       for a, b in ((2, 2), (2, 3), (3, 3))},
}
# the reference spectrum runs one closure loop per symbol set
SMALL_TABLES = ["absorbing_sums", "f1", "f1_squared", "b1", "idempotent",
                "f1n2", "f1n3", "f1n4", "f1n5", "roots_sums3", "roots_sums4",
                "two_fields22", "two_fields23", "product_ring22"]
DEEP = Budget(6, 8, 10**7)


def reference_additive_closure(bp, elems, budget):
    """The budgeted closure loop that finite tables ran before the rule
    closure: the members and whether the step budget cut it."""
    backend = bp.backend
    members = {ZERO}
    members.update(backend.normalize(e) for e in elems)
    steps = 0
    while True:
        changed = False
        for a in list(members):
            for s in backend.symbols:
                p = backend.mul(a, s)
                if p not in members:
                    members.add(p)
                    changed = True
        if bp.is_semiring:
            pool = [()] + [(a,) for a in members] + \
                   [(a, b) for a in members for b in members]
            targets = {backend.eval_sum(list(b)) for b in pool}
            for c in list(backend.symbols):
                if c in members:
                    continue
                for aa in pool:
                    if backend.eval_sum(list(aa) + [c]) in targets:
                        members.add(c)
                        changed = True
                        break
        for L, R in bp.oriented_relations():
            for m in backend.multipliers(0):
                steps += 1
                if steps > budget.max_steps:
                    return members, True
                mR = _scale(bp, m, R)
                if not all(x in members for x in mR):
                    continue
                mL = _scale(bp, m, L)
                missing = [x for x in mL if x not in members]
                if len(missing) == 1:
                    members.add(missing[0])
                    changed = True
        if not changed:
            return members, False


def reference_spec(bp, budget):
    """The minimal sets of the primes, as the closure loop finds them."""
    syms = [s for s in bp.backend.symbols if s != ZERO]
    found = set()
    for r in range(len(syms) + 1):
        for sub in itertools.combinations(syms, r):
            members, cut = reference_additive_closure(bp, sub, budget)
            assert not cut
            if members != {ZERO, *sub}:
                continue
            ideal = IdealDescriptor(bp, sub, tuple(sorted(members)))
            if ideal.is_proper() and is_prime_ideal(bp, ideal):
                found.add(ideal.minimal)
    return found


def assert_closures_as_reference(bp, size=3):
    for r in range(size + 1):
        for sub in itertools.combinations(bp.backend.symbols, r):
            members, cut = reference_additive_closure(bp, sub, DEEP)
            assert not cut
            ideal = additive_closure(bp, sub)
            assert ideal.saturated == "exact"
            assert ideal.minimal == tuple(sorted(members)), (bp, sub)


def test_every_finite_table_closes_as_reference():
    for name, build in FINITE_TABLES.items():
        assert_closures_as_reference(build())


def test_small_spectra_as_reference():
    for name in SMALL_TABLES:
        bp = FINITE_TABLES[name]()
        X = spec(bp)
        assert X.complete
        assert {p.ideal.minimal for p in X.points} == reference_spec(bp, DEEP)


@st.composite
def tables_with_relations(draw):
    """A small catalog table plus 0-2 relations of at most 3 terms, with no
    properness check."""
    bp = FINITE_TABLES[draw(st.sampled_from(SMALL_TABLES))]()
    terms = st.lists(st.sampled_from(bp.backend.symbols), min_size=1,
                     max_size=3)
    rels = list(bp.relations)
    for t in draw(st.lists(terms, max_size=2)):
        cut = draw(st.integers(0, len(t)))
        rels.append((t[:cut], t[cut:]))
    return Blueprint(bp.backend, rels, check_proper=False)


@given(tables_with_relations())
@settings(max_examples=60, deadline=None)
def test_random_relations_close_as_reference(bp):
    assert_closures_as_reference(bp)
    assert {p.ideal.minimal for p in spec(bp).points} == \
        reference_spec(bp, DEEP)


def test_semiring_sums_force_both_ways():
    bp = absorbing_sums()
    assert additive_closure(bp, ["y"]).minimal == (ZERO, "x", "y")
    assert [p.ideal.minimal for p in spec(bp).points] == \
        [(ZERO,), (ZERO, "x", "y")]


def test_spec_reads_no_budget():
    # The budgeted closure loop was cut at (6, 3, 5): `spec` of f1n(6) then
    # had 0 points, with no notice.
    for name in SMALL_TABLES + ["f1n6", "roots_sums6", "product_ring33"]:
        bp = FINITE_TABLES[name]()
        small = spec(bp, Budget(6, 3, 5))
        default = spec(bp)
        assert small.complete and default.complete
        assert small.labels() == default.labels(), name
        assert small.covers() == default.covers(), name


def test_two_fields_35():
    # the closure loop took 33 s here
    start = time.perf_counter()
    X = spec(catalog.two_fields(3, 5))
    assert X.labels() == ["((1,0), (2,0))",
                          "((0,1), (0,2), (0,3), (0,4))",
                          "((0,1), (0,2), (0,3), (0,4), (1,0), (2,0))"]
    assert X.complete
    assert time.perf_counter() - start < 5


# ---------------------------------------------------------------------------
# Monomial ideals


def monomial_ideal(backend, elems):
    """The minimal generators of the ideal that `elems` generate, as a list
    that `add` grows, and its membership test."""
    mins = []

    def add(m):
        m = backend.normalize(m)
        if backend.is_zero(m) or contains(m):
            return False
        mins[:] = [g for g in mins if not _monomial_divides(backend, m, g)]
        mins.append(m)
        return True

    def contains(m):
        return backend.is_zero(m) or any(_monomial_divides(backend, g, m)
                                         for g in mins)

    for e in elems:
        add(e)
    return mins, add, contains


def fire(bp, m, contains, add):
    """The rule at multiplier m on every oriented relation (L, R): when all
    of mR and all but one of mL lie in the ideal, add that one."""
    changed = False
    for L, R in bp.oriented_relations():
        mR = _scale(bp, m, R)
        if not all(contains(x) for x in mR):
            continue
        missing = [x for x in _scale(bp, m, L) if not contains(x)]
        if len(missing) == 1:
            changed |= add(missing[0])
    return changed


def reference_budgeted_closure(bp, elems, budget):
    """The budgeted loop that monomial closures ran before the colon ideals:
    it tries the multipliers 1, the generators and g/t, for a minimal
    generator g and a relation term t. Returns the sorted minimal generators
    and whether the step budget cut it."""
    backend = bp.backend
    mins, add, contains = monomial_ideal(backend, elems)
    steps = 0
    changed = True
    while changed and bp.relations:
        changed = False
        for L, R in bp.oriented_relations():
            cands = {backend.one()}
            for g in list(mins):
                for t in L + R:
                    cands.update(backend.divide(g, t))
            for gname in backend.gens:
                cands.add(backend.gen_element(gname))
            for m in sorted(cands, key=backend.sort_key):
                if backend.degree(m) > budget.max_degree:
                    continue
                steps += 1
                if steps > budget.max_steps:
                    return tuple(sorted(mins, key=backend.sort_key)), True
                mR = _scale(bp, m, R)
                if not all(contains(x) for x in mR):
                    continue
                missing = [x for x in _scale(bp, m, L) if not contains(x)]
                if len(missing) == 1 and add(missing[0]):
                    changed = True
    return tuple(sorted(mins, key=backend.sort_key)), False


def brute_force_closure(bp, elems, degree):
    """The least ideal closed under the rule at every multiplier c*T^v with
    |v| <= degree: a sub-ideal of the closure, equal to it for large
    enough degree."""
    backend = bp.backend
    mins, add, contains = monomial_ideal(backend, elems)
    multipliers = backend.multipliers(degree)
    while any([fire(bp, m, contains, add) for m in multipliers]):
        pass
    return mins


def test_lcm_multiplier_is_found_at_every_budget():
    # ab*x + ab*y = ab*z with abx, aby in the ideal: the multiplier ab is
    # lcm(ax, by)/x, which the budgeted loop never tried
    backend = MonomialBackend(catalog.f1(), ("x", "y", "z", "a", "b"))
    x, y, z, a, b = map(backend.gen_element, backend.gens)
    bp = Blueprint(backend, [([x, y], [z])])
    ax, by, abz = backend.mul(a, x), backend.mul(b, y), \
        backend.mul(backend.mul(a, b), z)
    for budget in (Budget(0, 0, 0), Budget(4, 8, 600), Budget(6, 8, 10**6),
                   Budget(12, 8, 10**7)):
        ideal = additive_closure(bp, [ax, by], budget)
        assert ideal.minimal == tuple(sorted([ax, by, abz],
                                             key=backend.sort_key))
        assert ideal.saturated == "exact"
        assert reference_budgeted_closure(bp, [ax, by], budget)[0] == \
            tuple(sorted([ax, by], key=backend.sort_key))


MONOMIAL_OBJECTS = {
    "sl2": catalog.sl2_f1, "sl2_minors": catalog.sl2_minors,
    "gr24_cone": lambda: catalog.grassmannian_f1(2, 4).blueprint,
    **{f"A{n}": (lambda n=n: catalog.affine_space(n)) for n in (1, 2, 3)},
    "torus2": lambda: catalog.torus(2),
    "proj_cone2": lambda: catalog.proj_cone(2).blueprint,
}


def test_variable_sets_close_as_budgeted_reference():
    # On variable-generated ideals the multiplier 1 suffices, so the
    # budgeted loop is complete there; the generators it keeps, and their
    # order, must not change. Inverted variables are closed too: torus(2)'s
    # (T1, T2) stays (T1).
    for name, build in MONOMIAL_OBJECTS.items():
        bp = build()
        elems = {n: bp.backend.gen_element(n) for n in bp.backend.gens}
        for r in range(len(elems) + 1):
            for sub in itertools.combinations(bp.backend.gens, r):
                gens = [elems[n] for n in sub]
                want, cut = reference_budgeted_closure(bp, gens, bp.budget)
                assert not cut
                ideal = additive_closure(bp, gens)
                assert ideal.minimal == want, (name, sub)
    torus = catalog.torus(2)
    assert additive_closure(torus, [torus.backend.gen_element("T1"),
                                    torus.backend.gen_element("T2")]) \
        .generator_names() == ("T1",)


COEFFICIENTS = {"f1": catalog.f1, "f1_squared": catalog.f1_squared,
                "idempotent": catalog.idempotent_example}


@st.composite
def monomial_closures(draw):
    """A blueprint on 2-3 variables with 1-2 relations of at most 2 terms per
    side and exponents <= 1, with no properness check, and 1-2 generators
    of exponents <= 2."""
    coeff = COEFFICIENTS[draw(st.sampled_from(sorted(COEFFICIENTS)))]()
    nvars = draw(st.integers(2, 3))
    backend = MonomialBackend(coeff, [f"x{i}" for i in range(nvars)])
    units = [c for c in coeff.backend.symbols if c != ZERO]

    def monomial(top):
        return backend.normalize((draw(st.sampled_from(units)),
                                  tuple(draw(st.integers(0, top))
                                        for _ in range(nvars))))

    def side():
        return [monomial(1) for _ in range(draw(st.integers(0, 2)))]

    rels = [(side(), side()) for _ in range(draw(st.integers(1, 2)))]
    bp = Blueprint(backend, rels, check_proper=False)
    gens = [monomial(2) for _ in range(draw(st.integers(1, 2)))]
    return bp, gens


def degree_seven_case():
    """0 = x + z and 2y = y + xz close (x^2 y^2 z^2) through generators
    whose multipliers need degree 7, such as y z^6 from x z^6 (I : y)."""
    backend = MonomialBackend(catalog.f1(), ("x", "y", "z"))
    x, y, z = map(backend.gen_element, backend.gens)
    xz = backend.mul(x, z)
    bp = Blueprint(backend, [([], [z, x]), ([y, y], [y, xz])],
                   check_proper=False)
    return bp, [backend.normalize((ONE, (2, 2, 2)))]


@given(monomial_closures())
@example(degree_seven_case())
@settings(max_examples=60, deadline=None)
def test_closure_is_the_brute_force_fixpoint(case):
    # the brute-force fixpoint grows with the degree, so equality at degree
    # 8 puts every lower degree's fixpoint in the closure too
    bp, gens = case
    ideal = additive_closure(bp, gens)
    assert not any(_monomial_divides(bp.backend, g, m)
                   for g, m in itertools.permutations(ideal.minimal, 2))
    brute = brute_force_closure(bp, gens, 8)
    assert all(ideal.contains(g) for g in brute)
    assert all(any(_monomial_divides(bp.backend, g, m) for g in brute)
               for m in ideal.minimal)


def test_degree_seven_case_needs_degree_seven():
    bp, gens = degree_seven_case()
    ideal = additive_closure(bp, gens)
    for degree in range(8):
        brute = brute_force_closure(bp, gens, degree)
        assert all(ideal.contains(g) for g in brute)
        covered = all(any(_monomial_divides(bp.backend, g, m) for g in brute)
                      for m in ideal.minimal)
        assert covered == (degree == 7), degree
