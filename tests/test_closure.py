"""Finite ideal closures and finite spectra, one rule closure
(`core._closure_rules`) against the budgeted loops it replaced."""

import itertools
import time

from hypothesis import given, settings, strategies as st

from blueforge import catalog
from blueforge.budget import Budget
from blueforge.core import (ONE, ZERO, Blueprint, FiniteTable,
                            IdealDescriptor, _scale, additive_closure,
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
            ideal = IdealDescriptor(bp, sub, tuple(sorted(members)), "exact")
            if ideal.is_proper() and is_prime_ideal(bp, ideal) is True:
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
