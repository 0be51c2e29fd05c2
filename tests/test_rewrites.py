"""The rewrite kernel against a plain reference copy.

`reference_rewrites` is the kernel without its per-search memo: it divides,
scales and sorts (by `sort_key`) afresh for every sum. The memoized kernel
must yield the same sequence, order and duplicates included, so every search
built on it takes the same steps.
"""

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from blueforge import catalog
from blueforge.budget import Budget
from blueforge.core import (ONE, PROVED, REFUTED, UNKNOWN, ZERO, Blueprint,
                            ImproperRelations, MonomialBackend, _RewriteMemo,
                            _certified_proper, _completion, _derive3,
                            _probe_elements, _rewrites, derive, improper_pair)

CATALOG_BUDGET = Budget(4, 8, 600)
REFUTE_BUDGET = Budget(6, 12, 3000)
GUARD_BUDGET = Budget(3, 8, 600)
BUDGETS = (CATALOG_BUDGET, REFUTE_BUDGET, GUARD_BUDGET)


def reference_rewrites(bp, u, budget):
    backend = bp.backend
    u_counter = Counter(u)
    for L, R in bp.oriented_relations():
        if L:
            cands = set()
            for t in set(u):
                for l in L:
                    cands.update(backend.divide(t, l))
            for m in sorted(cands, key=backend.sort_key):
                if backend.degree(m) > budget.max_degree:
                    continue
                mL = Counter(x for x in (bp.mul(m, t) for t in L)
                             if not backend.is_zero(x))
                if not mL or any(u_counter[t] < k for t, k in mL.items()):
                    continue
                v = u_counter - mL
                for x in (bp.mul(m, t) for t in R):
                    if not backend.is_zero(x):
                        v[x] += 1
                flat = tuple(sorted(v.elements(), key=backend.sort_key))
                if len(flat) <= budget.max_terms:
                    yield flat
        else:
            for m in backend.multipliers(budget.max_degree):
                add = [x for x in (bp.mul(m, t) for t in R)
                       if not backend.is_zero(x)]
                if not add:
                    continue
                v = list(u) + add
                if len(v) <= budget.max_terms:
                    yield tuple(sorted(v, key=backend.sort_key))


def reference_explore(bp, start, budget, targets=frozenset(),
                      collect_singles=False):
    seen = {start}
    frontier = [start]
    singles = set()
    steps = 0
    while frontier:
        nxt = []
        for u in frontier:
            for v in reference_rewrites(bp, u, budget):
                steps += 1
                if steps > budget.max_steps:
                    return False, singles, True
                if v in seen:
                    continue
                seen.add(v)
                if v in targets:
                    return True, singles, False
                if collect_singles and len(v) == 1:
                    singles.add(v[0])
                nxt.append(v)
        frontier = nxt
    return False, singles, False


def reference_derive(bp, lhs, rhs, budget):
    l, r = bp.normalize_sum(lhs), bp.normalize_sum(rhs)
    if l == r:
        return PROVED
    if bp.is_semiring:
        same = bp.backend.eval_sum(l) == bp.backend.eval_sum(r)
        return PROVED if same else UNKNOWN
    if not bp.relations:
        return UNKNOWN
    half = Budget(budget.max_degree, budget.max_terms,
                  max(1, budget.max_steps // 2))
    if reference_explore(bp, l, half, targets=frozenset([r]))[0]:
        return PROVED
    if reference_explore(bp, r, half, targets=frozenset([l]))[0]:
        return PROVED
    return UNKNOWN


def reference_improper_pair(bp, budget):
    """The first probe p whose search reaches the empty sum, as (0, p), or
    another single, the least such s, as (p, s)."""
    if not bp.relations:
        return None
    for p in _probe_elements(bp):
        hit, singles, _ = reference_explore(bp, (p,), budget,
                                            targets=frozenset([()]),
                                            collect_singles=True)
        if hit:
            return (bp.backend.zero(), p)
        for s in sorted(singles, key=bp.backend.sort_key):
            if s != p:
                return (p, s)
    return None


def reachable_sums(bp, budget, limit):
    """Up to `limit` sums, in BFS order from the relation sides and the
    guard's probe elements, that the reference kernel reaches."""
    out = []
    seen = set()
    frontier = [side for l, r in bp.relations for side in (l, r)]
    frontier += [(p,) for p in _probe_elements(bp)]
    while frontier and len(out) < limit:
        nxt = []
        for u in frontier:
            if u in seen:
                continue
            seen.add(u)
            out.append(u)
            if len(out) >= limit:
                break
            nxt.extend(reference_rewrites(bp, u, budget))
        frontier = nxt
    return out


def assert_same_rewrites(bp, budget, sums):
    memo = _RewriteMemo(bp, budget.max_degree)
    for u in sums:
        assert list(_rewrites(bp, u, budget, memo)) == \
            list(reference_rewrites(bp, u, budget)), (bp, u, budget)


CATALOG = {
    "sl2": catalog.sl2_f1,
    "sl2_minors": catalog.sl2_minors,
    "gr24_cone": lambda: catalog.grassmannian_f1(2, 4).blueprint,
    "f1n4": lambda: catalog.f1n(4),
    "b1": catalog.b1,
    "roots_sums4": lambda: catalog.roots_of_unity_sums(4),
    "roots_sums6": lambda: catalog.roots_of_unity_sums(6),
    "two_fields23": lambda: catalog.two_fields(2, 3),
    "idempotent": catalog.idempotent_example,
}


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_rewrites_match_reference(name):
    bp = CATALOG[name]()
    for budget in BUDGETS:
        sums = reachable_sums(bp, budget, 30)
        assert sums
        assert_same_rewrites(bp, budget, sums)
        # a fresh memo per call gives the same sequence as a shared one
        assert list(_rewrites(bp, sums[-1], budget)) == \
            list(reference_rewrites(bp, sums[-1], budget))


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_derive_matches_reference(name):
    bp = CATALOG[name]()
    budget = Budget(GUARD_BUDGET.max_degree, GUARD_BUDGET.max_terms, 200)
    sums = reachable_sums(bp, budget, 12)
    pairs = [(sums[0], s) for s in sums[1:]]
    if bp.relations:
        pairs += [(bp.relations[0][0], bp.relations[-1][1])]
    for lhs, rhs in pairs:
        assert derive(bp, lhs, rhs, budget) == \
            reference_derive(bp, lhs, rhs, budget)
    assert improper_pair(bp, budget) == reference_improper_pair(bp, budget)


FINITE = sorted(name for name, build in CATALOG.items()
                if build().backend.kind == "finite" and build().relations)


@pytest.mark.parametrize("name", FINITE)
def test_finite_derive_proves_what_reference_proves(name):
    # finite tables are decided by the completion, so they may prove more
    # than the bounded search, never less, and never refute what it proves
    bp = CATALOG[name]()
    budget = Budget(CATALOG_BUDGET.max_degree, CATALOG_BUDGET.max_terms, 300)
    sums = reachable_sums(bp, budget, 16)
    proved = 0
    for lhs, rhs in itertools.combinations(sums, 2):
        if reference_derive(bp, lhs, rhs, budget) == PROVED:
            proved += 1
            assert derive(bp, lhs, rhs, budget) == PROVED
            assert _derive3(bp, lhs, rhs, budget)[0] == PROVED
    assert proved


@pytest.mark.parametrize("n", [7, 11])
def test_completion_past_its_cap_keeps_the_search(n):
    bp = catalog.roots_of_unity_sums(n)
    assert _completion(bp) is None
    budget = Budget(GUARD_BUDGET.max_degree, GUARD_BUDGET.max_terms, 200)
    sums = reachable_sums(bp, budget, 12)
    for lhs, rhs in itertools.product(sums[:4], sums):
        assert derive(bp, lhs, rhs, budget) == \
            reference_derive(bp, lhs, rhs, budget)
        assert _derive3(bp, lhs, rhs, budget)[0] != REFUTED


def monomial_backends():
    gens = ("X", "Y", "Z")
    out = []
    for coeff in (catalog.f1(), catalog.f1_squared(), catalog.f1n(3)):
        out.append(MonomialBackend(coeff, gens))
        out.append(MonomialBackend(coeff, gens, inverted=("Y",)))
    out.append(MonomialBackend(catalog.f1(), gens,
                               lattice=[((1, 1, 0), ONE)]))
    out.append(MonomialBackend(catalog.f1_squared(), gens,
                               lattice=[((0, 2, 0), "-1")]))
    out.append(MonomialBackend(catalog.f1_squared(), gens,
                               lattice=[((-1, 1, 0), "-1")]))
    return tuple(out)


@st.composite
def monomial_blueprints(draw):
    backend = draw(st.sampled_from(monomial_backends()))

    def elem():
        c = draw(st.sampled_from(backend.coeff.backend.symbols))
        exps = tuple(draw(st.integers(-1 if n in backend.inverted else 0, 2))
                     for n in backend.gens)
        return backend.normalize((c, exps))

    def side():
        return [elem() for _ in range(draw(st.integers(0, 3)))]

    rels = [(side(), side()) for _ in range(draw(st.integers(1, 2)))]
    return Blueprint(backend, rels, budget=Budget(2, 5, 150),
                     check_proper=False)


class TestMonomialBlueprints:
    @given(bp=monomial_blueprints())
    @settings(max_examples=120, deadline=None)
    def test_rewrites_match_reference(self, bp):
        budget = bp.budget
        sums = reachable_sums(bp, budget, 25)
        probe = (bp.backend.one(), bp.backend.gen_element("X"))
        assert_same_rewrites(bp, budget, sums + [bp.normalize_sum(probe)])

    @given(bp=monomial_blueprints())
    @settings(max_examples=60, deadline=None)
    def test_derive_and_guard_match_reference(self, bp):
        budget = Budget(2, 5, 60)
        assert improper_pair(bp, budget) == reference_improper_pair(bp, budget)
        sums = reachable_sums(bp, budget, 6)
        for rhs in sums[1:]:
            assert derive(bp, sums[0], rhs, budget) == \
                reference_derive(bp, sums[0], rhs, budget)


class TestSortInvariant:
    """The kernel sorts sums without a key: both backends' `sort_key` orders
    as the elements do."""

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_monomial_elements_sort_as_their_keys(self, data):
        backend = data.draw(st.sampled_from(monomial_backends()))

        def elem():
            c = data.draw(st.sampled_from(backend.coeff.backend.symbols))
            exps = tuple(data.draw(st.integers(-3 if n in backend.inverted
                                               else 0, 3))
                         for n in backend.gens)
            return backend.normalize((c, exps))

        xs = [elem() for _ in range(data.draw(st.integers(0, 8)))]
        assert sorted(xs) == sorted(xs, key=backend.sort_key)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_finite_symbols_sort_as_their_keys(self, data):
        name = data.draw(st.sampled_from(sorted(CATALOG)))
        backend = CATALOG[name]().backend
        if backend.kind != "finite":
            backend = backend.coeff.backend
        xs = data.draw(st.lists(st.sampled_from(backend.symbols), max_size=8))
        assert sorted(xs) == sorted(xs, key=backend.sort_key)


@pytest.mark.parametrize("bp,killed", [
    (catalog.f1(), "1"), (catalog.idempotent_example(), "e")],
    ids=["f1", "idempotent"])
def test_guard_sees_an_element_identified_with_zero(bp, killed):
    # a relation x = 0 leaves no two single terms equal, but identifies x
    # with 0: the blueprint is improper
    with pytest.raises(ImproperRelations) as err:
        Blueprint(bp.backend, [([killed], [])])
    assert str(err.value) == f"relations identify 0 and {killed}"
    bp = Blueprint(bp.backend, [([killed], [])], check_proper=False)
    assert derive(bp, [killed], []) == PROVED
    assert improper_pair(bp, GUARD_BUDGET) == (ZERO, killed)


def test_guard_names_the_improper_pair():
    backend = MonomialBackend(catalog.f1_squared(), ("X", "Y", "Z"))
    xy = backend.normalize((ONE, (1, 1, 0)))
    rels = [([], [backend.normalize(("-1", (1, 1, 2))),
                  backend.normalize(("-1", (1, 1, 0))), xy])]
    with pytest.raises(ImproperRelations) as err:
        Blueprint(backend, rels)
    assert str(err.value) == \
        "relations identify -1*X*Y*Z^2 and X*Y*Z^2"


def mu(n):
    """mu_n with zero, without coefficient relations."""
    return Blueprint(catalog._mu_n_table(n, catalog._mu_names(n)), ())


def unit_binomial_backends():
    """Monomial backends over mu_n with zero and no coefficient relations,
    with inverted generators and lattice characters."""
    gens = ("X", "Y")
    out = []
    for n in (1, 2, 4):
        coeff = mu(n)
        out.append(MonomialBackend(coeff, gens, inverted=("X",)))
        out.append(MonomialBackend(coeff, gens, inverted=gens))
        for char in dict.fromkeys((ONE, coeff.backend.symbols[-1])):
            out.append(MonomialBackend(coeff, gens,
                                       lattice=[((2, 0), char)]))
            out.append(MonomialBackend(coeff, gens, inverted=("Y",),
                                       lattice=[((1, 1), char)]))
    return tuple(out)


def small_units(backend):
    """The units c*X^i*Y^j with |i|, |j| <= 1."""
    out = set()
    for c in backend.coeff.backend.units():
        for exps in itertools.product((-1, 0, 1), repeat=len(backend.gens)):
            if all(e == 0 or g in backend.inverted
                   for g, e in zip(backend.gens, exps)):
                out.add(backend.normalize((c, exps)))
    return sorted(out)


@st.composite
def unit_binomial_blueprints(draw):
    """Relations 0 = a + a*u over units a, mostly with one ratio u whose
    square is 1, sometimes with other ratios."""
    backend = draw(st.sampled_from(unit_binomial_backends()))
    units = small_units(backend)
    roots = [u for u in units if backend.mul(u, u) == backend.one()]
    ratio = draw(st.sampled_from(roots) | st.sampled_from(units))
    rels = []
    for _ in range(draw(st.integers(1, 3))):
        a = draw(st.sampled_from(units))
        u = draw(st.sampled_from([ratio] * 4 + units))
        rels.append(([], [a, backend.mul(a, u)]))
    return Blueprint(backend, rels, check_proper=False)


class TestUnitBinomialCertificate:
    """`_certified_proper` answers only where no search, however deep, finds
    an identification; everywhere else the guard searches as before."""

    @given(bp=unit_binomial_blueprints())
    @settings(max_examples=40, deadline=None)
    def test_certificate_agrees_with_the_reference(self, bp):
        assert improper_pair(bp, GUARD_BUDGET) == \
            reference_improper_pair(bp, GUARD_BUDGET)

    @given(bp=unit_binomial_blueprints().filter(_certified_proper))
    @settings(max_examples=3, deadline=None)
    def test_certified_blueprints_survive_a_deep_search(self, bp):
        assert reference_improper_pair(bp, Budget(4, 10, 30000)) is None

    @pytest.mark.parametrize("coeff,inverted,relations,improper", [
        # 0 = 1 + X gives 1 = 1 + X + X^2 = X^2: one ratio, X, whose square
        # is not 1
        (mu(1), ("X",), [([], ["1", "X"])], True),
        # 0 = 1 + 1 and 0 = 1 + (-1) give 1 = 1 + 1 + (-1) = -1: two ratios
        (mu(2), (), [([], ["1", "1"]), ([], ["1", "-1"])], True),
        # -X^-1 = -1 + 1 gives X^-1 = 1 + (-1) = -X^-1: two sides
        (mu(2), ("X",), [(["-1*X^-1"], ["-1", "1"])], True),
        # the coefficient relation 1 + (-1) = 0 is outside the proof
        (catalog.f1_squared(), (), [([], ["1", "1"])], False),
    ], ids=["ratio_of_order_above_two", "two_ratios", "two_sides",
            "coefficient_relations"])
    def test_declined_blueprints_are_searched(self, coeff, inverted,
                                              relations, improper):
        backend = MonomialBackend(coeff, ("X",), inverted)
        free = Blueprint(backend)
        bp = Blueprint(backend, [([free.element(t) for t in l],
                                  [free.element(t) for t in r])
                                 for l, r in relations], check_proper=False)
        assert not _certified_proper(bp)
        assert improper_pair(bp, GUARD_BUDGET) == \
            reference_improper_pair(bp, GUARD_BUDGET)
        if improper:
            assert improper_pair(bp, GUARD_BUDGET) is not None
