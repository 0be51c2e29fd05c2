"""The completion that decides `derive` on finite tables
(`derivation._Completion`) against `sympy.groebner`: its rules are the reduced
Gröbner basis of the binomial ideal of the pairs (m*L, m*R) in grevlex
order, which is unique, and u ~ v iff x^u - x^v lies in that ideal. The
oracles here also serve the congruence and module tests."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from blueforge import catalog, derivation
from blueforge.budget import Budget
from blueforge.core import (PROVED, REFUTED, ZERO, Blueprint, TooLarge,
                            _close_under_action, _collapse, _completion,
                            _derive3, _guard_budget, _improper_pair,
                            _improper_search, _probe_elements,
                            _quotient_improper_pair, _rewrites, _scale,
                            _scaled_pairs, _UnionFind, derive, improper_pair)

TABLES = {
    "b1": catalog.b1, "f1_squared": catalog.f1_squared,
    **{f"f1n{n}": (lambda n=n: catalog.f1n(n)) for n in range(2, 7)},
    **{f"roots_sums{n}": (lambda n=n: catalog.roots_of_unity_sums(n))
       for n in range(2, 7)},
    "two_fields22": lambda: catalog.two_fields(2, 2),
    "two_fields23": lambda: catalog.two_fields(2, 3),
}
SMALL = ["b1", "f1_squared", "f1n3", "f1n4", "roots_sums3", "roots_sums4",
         "two_fields22"]
WALK = Budget(2, 8, 100)


def sympy_basis(elements, pairs):
    """The reduced grevlex basis of sympy of the binomials x^L - x^R, (L, R)
    in `pairs`, with the generators x0 > x1 > ... in the order of
    `elements`, and a monomial builder."""
    sympy = pytest.importorskip("sympy")
    elements = list(elements)
    xs = sympy.symbols(f"x0:{len(elements)}")

    def mono(terms):
        return sympy.Mul(*(xs[elements.index(t)] for t in terms))

    gens = [mono(L) - mono(R) for L, R in pairs]
    return sympy.groebner(gens, *xs, order="grevlex"), mono


def sympy_ideal(bp):
    """`sympy_basis` of the pairs (m*L, m*R) of a finite table, over its
    nonzero symbols."""
    syms = [s for s in bp.backend.symbols if s != ZERO]
    return sympy_basis(syms, [(_scale(bp, m, L), _scale(bp, m, R))
                              for L, R in bp.relations for m in syms])


def sympy_improper_pair(G, mono, elements, zero):
    """The pair of `derivation._improper_pair`, by sympy's membership test:
    (zero, a) for the first a with x_a - 1 in the ideal, else (a, b) for the
    first a with some x_a - x_b in it, b the least such element."""
    for a in elements:
        if G.contains(mono([a]) - 1):
            return zero, a
        same = [b for b in elements
                if b != a and G.contains(mono([a]) - mono([b]))]
        if same:
            return a, min(same)
    return None


def assert_rules_as_sympy(done, G, mono):
    """The rules of the completion `done` are sympy's basis `G`."""
    rules = {mono(done.symbols[k] for k, e in enumerate(lhs)
                  for _ in range(e))
             - mono(done.symbols[k] for k, e in enumerate(rhs)
                    for _ in range(e))
             for lhs, rhs in done.rules.values()}
    assert rules == set(G.exprs) - {0}


def pairs_of(bp, rng, count):
    """Random pairs of sums, half of them a short rewrite walk apart."""
    syms = [s for s in bp.backend.symbols if s != ZERO]
    out = []
    for i in range(count):
        l = bp.normalize_sum(rng.choices(syms, k=rng.randint(0, 4)))
        r = bp.normalize_sum(rng.choices(syms, k=rng.randint(0, 4)))
        if i % 2:
            r = l
            for _ in range(3):
                r = rng.choice([r, *_rewrites(bp, r, WALK)])
        out.append((l, r))
    return out


def assert_as_sympy(bp, rng, count=30):
    done = _completion(bp)
    assert done is not None
    G, mono = sympy_ideal(bp)
    assert_rules_as_sympy(done, G, mono)
    pairs = _scaled_pairs(bp.relations, done.symbols, bp.backend.mul, ZERO)
    assert _improper_pair(done.symbols, pairs, ZERO) == \
        sympy_improper_pair(G, mono, done.symbols, ZERO) == \
        improper_pair(bp, Budget(0, 0, 0))
    for l, r in pairs_of(bp, rng, count):
        verdict, forms = _derive3(bp, l, r, WALK)
        assert verdict == (PROVED if G.contains(mono(l) - mono(r))
                           else REFUTED), (bp, l, r)
        if verdict == REFUTED:
            assert forms == (done.normal_form(l), done.normal_form(r))
            assert forms[0] != forms[1]
        for side in (l, r):
            assert mono(done.normal_form(side)) == G.reduce(mono(side))[1]


@pytest.mark.parametrize("name", sorted(TABLES))
def test_catalog_tables_as_sympy(name):
    assert_as_sympy(TABLES[name](), random.Random(name))


@st.composite
def tables_with_relations(draw):
    """A small catalog table plus 1-2 relations of at most 3 terms, with no
    properness check."""
    bp = TABLES[draw(st.sampled_from(SMALL))]()
    syms = [s for s in bp.backend.symbols if s != ZERO]
    rels = list(bp.relations)
    for t in draw(st.lists(st.lists(st.sampled_from(syms), min_size=1,
                                    max_size=3), min_size=1, max_size=2)):
        cut = draw(st.integers(0, len(t)))
        rels.append((t[:cut], t[cut:]))
    return Blueprint(bp.backend, rels, check_proper=False)


@given(tables_with_relations(), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_random_tables_as_sympy(bp, rng):
    if _completion(bp) is not None:
        assert_as_sympy(bp, rng, count=10)


def assert_guard_reads_no_budget(bp):
    """The properness guard of a finite table below the completion cap
    answers at the budget that stops every search as at the guard's own,
    and as the search does wherever that search is not cut."""
    guard = _guard_budget(bp.budget)
    got = improper_pair(bp, Budget(0, 0, 0))
    assert got == improper_pair(bp, guard)
    searched, cut = _improper_search(bp, _probe_elements(bp), guard)
    if not cut:
        assert got == searched, bp.relations


@pytest.mark.parametrize("name", sorted(TABLES))
def test_catalog_guards_read_no_budget(name):
    bp = TABLES[name]()
    assert improper_pair(bp, Budget(0, 0, 0)) is None
    assert_guard_reads_no_budget(bp)


@given(tables_with_relations())
@settings(max_examples=40, deadline=None)
def test_random_guards_read_no_budget(bp):
    if _completion(bp) is not None:
        assert_guard_reads_no_budget(bp)


@given(tables_with_relations(), st.data())
@settings(max_examples=40, deadline=None)
def test_random_quotients_as_sympy(bp, data):
    # a multiplicative equivalence: up to two pairs joined, then closed
    syms = bp.backend.symbols
    uf = _UnionFind(syms)
    for a, b in data.draw(st.lists(st.tuples(st.sampled_from(syms),
                                             st.sampled_from(syms)),
                                   max_size=2)):
        uf.union(a, b)
    _close_under_action(uf, syms, syms, bp.backend.mul)
    rep = {s: uf.find(s) for s in syms}
    try:
        got = _quotient_improper_pair(bp, rep)
    except TooLarge:
        return
    reps = [s for s in syms if s != ZERO and rep[s] == s]
    if not reps:
        assert got is None
        return
    # sympy on the quotient table itself, over the representatives
    q = _collapse(bp, rep, "B/~", bp.budget)
    G, mono = sympy_basis(reps, [(_scale(q, m, L), _scale(q, m, R))
                                 for L, R in q.relations for m in reps])
    assert got == sympy_improper_pair(G, mono, reps, ZERO), rep


@given(st.integers(2, 5), st.data())
@settings(max_examples=30, deadline=None)
def test_sides_of_two_terms_or_more_need_no_completion(k, data):
    # units never multiply a term to 0, so every scaled side keeps its
    # terms, and no rewrite reaches the empty sum or a single term
    backend = catalog.f1n(k).backend
    syms = [s for s in backend.symbols if s != ZERO]
    side = st.lists(st.sampled_from(syms), min_size=2, max_size=4)
    bp = Blueprint(backend, data.draw(st.lists(st.tuples(side, side),
                                               min_size=1, max_size=2)),
                   check_proper=False)
    pairs = _scaled_pairs(bp.relations, syms, backend.mul, ZERO)
    assert _improper_pair(syms, pairs, ZERO) is None
    G, mono = sympy_ideal(bp)
    assert sympy_improper_pair(G, mono, syms, ZERO) is None


def count_completions(monkeypatch):
    """Count the `_Completion`s that the derivation layer builds, failed
    ones included, and record what each guard search returns."""
    built, searched = [], []

    class Counted(derivation._Completion):
        def __init__(self, *args):
            built.append(self)
            super().__init__(*args)

    def search(*args):
        searched.append(_improper_search(*args))
        return searched[-1]

    monkeypatch.setattr(derivation, "_Completion", Counted)
    monkeypatch.setattr(derivation, "_improper_search", search)
    return built, searched


def fresh(table):
    """A new blueprint on a catalog table's carrier and relations, built
    with the guard and holding nothing the catalog's copy keeps."""
    return Blueprint(table.backend, table.relations)


def test_built_on_first_use_only(monkeypatch):
    # the first use is the guard of `Blueprint`; `derive` reads what it kept
    tables = catalog.f1n(4), catalog.roots_of_unity_sums(6), catalog.f1n(14)
    built, searched = count_completions(monkeypatch)
    bp = fresh(tables[0])
    assert built == [bp.__dict__["_cached_completion"]]
    assert derive(bp, ["z1", "z3"], []) == PROVED
    assert built == [_completion(bp)] and not searched
    # sides of two terms or more: the guard builds none
    del built[:]
    bp = fresh(tables[1])
    assert not built and "_cached_completion" not in bp.__dict__
    # past the cap: one failed completion, an uncut guard search that finds
    # nothing, and a derive that reads the kept None
    bp = fresh(tables[2])
    assert len(built) == 1 and bp.__dict__["_cached_completion"] is None
    assert searched == [(None, False)]
    derive(bp, ["z1", "z3"], ["z2"], WALK)
    assert len(built) == 1
    # a semiring evaluates its sums, and no relation relates nothing
    for bp in (catalog.product_ring(2, 3), catalog.idempotent_example()):
        assert _derive3(bp, ("1", "1"), ("1",), WALK)[0] == REFUTED
        assert "_cached_completion" not in bp.__dict__
