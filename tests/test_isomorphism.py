"""The one isomorphism search for finite structures,
`predicates._structure` and `predicates._isomorphism`, as modules, typed
complexes and finite tables use it: metamorphic tests under relabelling,
the permutation-order search it replaced for finite tables, and inputs on
which the earlier searches did not finish."""

import itertools
import random
import sys
import time
from collections import Counter

import pytest

from blueforge import catalog, complexes as cx, kzero as kz
from blueforge.core import (ONE, PROVED, ZERO, Blueprint, BlueprintMorphism,
                            FiniteTable, _isomorphism, _structure,
                            _table_structure, finite_blueprints_isomorphic,
                            is_morphism, localize)

BASE = kz.BASE


def timed(limit, fn, *args):
    start = time.monotonic()
    out = fn(*args)
    assert time.monotonic() - start < limit
    return out


# ---------------------------------------------------------------------------
# The search on small structures


class TestSearch:
    def test_least_bijection(self):
        # a 4-cycle a -> b -> c -> d -> a onto itself: the rotations keep
        # it, and the least one in element order is the identity
        cycle = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]
        s = _structure("abcd", [0] * 4, [cycle])
        assert _isomorphism(s, s) == {x: x for x in "abcd"}
        # refusing the identity at the leaf gives the next rotation
        assert _isomorphism(s, s, lambda f: f["a"] != "a") == \
            {"a": "b", "b": "c", "c": "d", "d": "a"}

    def test_relations_map_onto_relations(self):
        # a 4-cycle and two 2-cycles: equal colours, equal tuple counts
        cycle = _structure("abcd", [0] * 4,
                           [[("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]])
        pairs = _structure("abcd", [0] * 4,
                           [[("a", "b"), ("b", "a"), ("c", "d"), ("d", "c")]])
        assert cycle.shape == pairs.shape
        assert _isomorphism(cycle, pairs) is None
        assert _isomorphism(pairs, cycle) is None

    def test_start_colours_are_kept(self):
        s = _structure("ab", [0, 1], [[("a", "b")]])
        t = _structure("ab", [1, 0], [[("b", "a")]])
        assert _isomorphism(s, t) == {"a": "b", "b": "a"}

    def test_empty(self):
        s = _structure((), [], [[]])
        assert _isomorphism(s, s) == {}
        assert _isomorphism(s, s, lambda f: False) is None

    def test_zero_table(self):
        # the mapping names the one symbol of the zero table, and no 1
        zero = localize(catalog.f1(), [ZERO])
        assert zero.backend.symbols == (ZERO,)
        assert finite_blueprints_isomorphic(zero, zero) == {ZERO: ZERO}
        assert finite_blueprints_isomorphic(zero, catalog.f1()) is None

    def test_explicit_stack(self):
        # D5 has more elements than Python's recursion limit allows frames
        d5, _ = cx.coxeter_complex("D", 5)
        s = cx._typed_structure(d5)
        assert len(s.elements) == 2087 > sys.getrecursionlimit()
        found = _isomorphism(s, s)
        assert found == {x: x for x in s.elements}


# ---------------------------------------------------------------------------
# Inputs on which the earlier searches did not finish


@pytest.mark.parametrize("family,n", [
    ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("B", 2), ("B", 3), ("B", 4),
    ("C", 2), ("C", 3), ("C", 4), ("D", 4), ("D", 5)])
def test_orbit_complexes_both_orders(family, n):
    # the earlier vertex-profile backtracking did not finish on C3 and B3
    # (abstract complex first) nor on D4 (either order)
    abstract, _ = cx.coxeter_complex(family, n)
    orbit, _ = cx.weyl_orbit_complex(family, n)
    for c1, c2 in ((abstract, orbit), (orbit, abstract)):
        found = timed(2.0, cx.is_isomorphic_typed, c1, c2)
        assert found is not None
        assert_typed_isomorphism(c1, c2, found)


def group_with_zero(*orders):
    """The abelian group Z/o1 x ... x Z/ok with a zero adjoined."""
    elems = list(itertools.product(*(range(o) for o in orders)))
    name = {e: ONE if not any(e) else "g" + "_".join(map(str, e))
            for e in elems}
    syms = (ZERO,) + tuple(name[e] for e in elems)
    mul = {(ZERO, s): ZERO for s in syms}
    for a in elems:
        for b in elems:
            mul[(name[a], name[b])] = name[tuple(
                (x + y) % o for x, y, o in zip(a, b, orders))]
    return Blueprint(FiniteTable(syms, mul), (),
                     name="x".join(f"Z/{o}" for o in orders))


@pytest.mark.parametrize("cyclic,split", [
    ((8,), (2, 4)), ((9,), (3, 3)), ((12,), (2, 6)), ((16,), (4, 4))])
def test_groups_with_zero(cyclic, split):
    # the earlier search tried up to (n - 2)! permutations, and did not
    # finish on the last two pairs
    a, b = group_with_zero(*cyclic), group_with_zero(*split)
    assert timed(1.0, finite_blueprints_isomorphic, a, b) is None
    assert timed(1.0, finite_blueprints_isomorphic, b, a) is None


def test_cyclic_group_split():
    # Z/12 = Z/4 x Z/3: the generators go to elements of order 12
    a, b = group_with_zero(12), group_with_zero(4, 3)
    found = timed(1.0, finite_blueprints_isomorphic, a, b)
    assert found is not None and found["g1"] == "g1_1"
    assert_table_isomorphism(a, b, found)


# ---------------------------------------------------------------------------
# Metamorphic: relabelling keeps colours, and the search finds a map back


def colour_of(structure):
    return dict(zip(structure.elements, structure.colours))


def relabelled_module(module, rng):
    names = list(module.nonbase())
    rng.shuffle(names)
    new = {BASE: BASE, **{x: f"r{i}" for i, x in enumerate(names)}}
    action = {(b, new[m]): new[v] for (b, m), v in module.action.items()}
    relations = [([new[t] for t in l], [new[t] for t in r])
                 for l, r in module.relations]
    return kz.BlueModule(module.blueprint, tuple(new.values()), action,
                         relations), new


MODULE_CASES = [(catalog.f1n(3), 4), (catalog.b1(), 4),
                (catalog.idempotent_example(), 4),
                (catalog.roots_of_unity_sums(4), 3)]


@pytest.mark.parametrize("bp,bound", MODULE_CASES,
                         ids=["f1n3", "b1", "idempotent", "roots_sums4"])
def test_relabelled_modules(bp, bound):
    rng = random.Random(25)
    for m in kz.enumerate_modules(bp, bound):
        copy, new = relabelled_module(m, rng)
        colour, copy_colour = colour_of(m.structure()), \
            colour_of(copy.structure())
        assert Counter(colour.values()) == Counter(copy_colour.values())
        assert all(colour[x] == copy_colour[new[x]] for x in m.carrier)
        back = kz.modules_isomorphic(copy, m)
        assert back is not None and list(back) == list(copy.carrier)
        assert kz.is_module_morphism(kz.ModuleMorphism(copy, m, back))
        assert kz.is_module_morphism(kz.ModuleMorphism(
            m, copy, {y: x for x, y in back.items()}))


def relabelled_complex(c, rng):
    vertices = list(c.vertices)
    rng.shuffle(vertices)
    new = {v: ("w", i) for i, v in enumerate(vertices)}
    types = sorted(set(c.types.values()))
    shuffled = types[:]
    rng.shuffle(shuffled)
    new_type = {t: f"T{s}" for t, s in zip(types, shuffled)}
    return cx.TypedComplex(
        [new[v] for v in vertices],
        {new[v]: new_type[c.types[v]] for v in c.vertices},
        [frozenset(new[v] for v in f) for f in c.facets]), new


def assert_typed_isomorphism(c1, c2, found):
    vmap, tmap = found["vertex_map"], found["type_map"]
    assert sorted(vmap.values(), key=repr) == sorted(c2.vertices, key=repr)
    assert all(c2.types[vmap[v]] == tmap[c1.types[v]] for v in c1.vertices)
    assert {frozenset(vmap[v] for v in f) for f in c1.facets} == \
        set(c2.facets)


@pytest.mark.parametrize("family,n", [("A", 3), ("B", 3), ("D", 4)])
def test_relabelled_complexes(family, n):
    rng = random.Random(25)
    for c in (cx.coxeter_complex(family, n)[0],
              cx.building_type_a(2, 2)):
        copy, new = relabelled_complex(c, rng)
        s, t = cx._typed_structure(c), cx._typed_structure(copy)
        assert Counter(s.colours) == Counter(t.colours)
        colour, copy_colour = colour_of(s), colour_of(t)
        assert all(colour[("v", v)] == copy_colour[("v", new[v])]
                   for v in c.vertices)
        back = cx.is_isomorphic_typed(copy, c)
        assert back is not None
        assert_typed_isomorphism(copy, c, back)


def relabelled_table(bp, rng):
    """A copy with the symbols other than 0 and 1 renamed, and all symbols
    listed in a shuffled order."""
    t = bp.backend
    frees = [s for s in t.symbols if s not in (ZERO, ONE)]
    names = [f"s{i}" for i in range(len(frees))]
    rng.shuffle(names)
    new = {ZERO: ZERO, ONE: ONE, **dict(zip(frees, names))}
    syms = [new[s] for s in t.symbols]
    rng.shuffle(syms)
    mul = {(new[a], new[b]): new[c] for (a, b), c in t.mul_table.items()}
    add = None if t.add_table is None else \
        {(new[a], new[b]): new[c] for (a, b), c in t.add_table.items()}
    rels = [([new[x] for x in l], [new[x] for x in r])
            for l, r in bp.relations]
    return Blueprint(FiniteTable(syms, mul, add), rels, name=f"{bp.name}'"), \
        new


def reference_finite_isomorphic(b1, b2):
    """The permutation-order search that `finite_blueprints_isomorphic`
    replaced: the first permutation of b2's symbols other than 0 and 1
    that keeps the products and is a morphism both ways."""
    t1, t2 = b1.backend, b2.backend
    if len(t1.symbols) != len(t2.symbols):
        return None
    frees1 = [s for s in t1.symbols if s not in (ZERO, ONE)]
    frees2 = [s for s in t2.symbols if s not in (ZERO, ONE)]
    for perm in itertools.permutations(frees2):
        mapping = dict(zip(frees1, perm))
        mapping[ZERO] = ZERO
        mapping[ONE] = ONE
        if any(mapping[t1.mul(a, b)] != t2.mul(mapping[a], mapping[b])
               for a in t1.symbols for b in t1.symbols):
            continue
        back = {v: k for k, v in mapping.items()}
        if is_morphism(BlueprintMorphism(b1, b2, mapping))[0] == PROVED \
                and is_morphism(BlueprintMorphism(b2, b1, back))[0] == PROVED:
            return mapping
    return None


def assert_table_isomorphism(b1, b2, found):
    t1, t2 = b1.backend, b2.backend
    assert sorted(found) == sorted(t1.symbols)
    assert sorted(found.values()) == sorted(t2.symbols)
    assert all(found[t1.mul(a, b)] == t2.mul(found[a], found[b])
               for a in t1.symbols for b in t1.symbols)


TABLES = {
    "f1": catalog.f1, "b1": catalog.b1, "f1_squared": catalog.f1_squared,
    "idempotent": catalog.idempotent_example,
    **{f"f1n{n}": (lambda n=n: catalog.f1n(n)) for n in range(2, 8)},
    **{f"roots_sums{n}": (lambda n=n: catalog.roots_of_unity_sums(n))
       for n in range(2, 8)},
    "product_ring22": lambda: catalog.product_ring(2, 2),
    "product_ring23": lambda: catalog.product_ring(2, 3),
    "two_fields22": lambda: catalog.two_fields(2, 2),
    "two_fields23": lambda: catalog.two_fields(2, 3),
    "z2xz3": lambda: group_with_zero(2, 3),
    "z2xz2": lambda: group_with_zero(2, 2),
}


@pytest.mark.parametrize("name", sorted(TABLES))
def test_relabelled_tables(name):
    bp = TABLES[name]()
    assert len(bp.backend.symbols) - 2 <= 6
    rng = random.Random(25)
    for _ in range(3):
        copy, new = relabelled_table(bp, rng)
        colour = colour_of(_table_structure(bp.backend))
        copy_colour = colour_of(_table_structure(copy.backend))
        assert all(colour[s] == copy_colour[new[s]] for s in colour)
        for b1, b2 in ((copy, bp), (bp, copy)):
            found = finite_blueprints_isomorphic(b1, b2)
            assert found is not None
            assert found == reference_finite_isomorphic(b1, b2)
            assert list(found) == list(b1.backend.symbols)
            assert_table_isomorphism(b1, b2, found)


def test_tables_as_reference():
    # every pair of the tables above, isomorphic or not
    tables = [TABLES[name]() for name in sorted(TABLES)]
    answered = 0
    for b1, b2 in itertools.product(tables, repeat=2):
        found = finite_blueprints_isomorphic(b1, b2)
        assert found == reference_finite_isomorphic(b1, b2), (b1, b2)
        answered += found is not None
    assert answered > len(tables)
