"""Ideals of blueprints, quotients by them, and localization."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial

from .core import (ONE, PROVED, ZERO, Blueprint, BlueprintError, FiniteTable,
                   ForeignElement, ImproperIdeal, ImproperRelations,
                   MonomialBackend, NotAnIdeal, UnsupportedIdeal,
                   _guard_budget, _per_blueprint)
from .derivation import _scaled_pairs, improper_pair
from .morphisms import BlueprintMorphism, is_morphism


@dataclass(frozen=True)
class IdealDescriptor:
    blueprint: Blueprint
    given: tuple
    minimal: tuple          # minimal generators (monomial) or the full set (finite)
    saturated = "exact"     # every closure is decided

    def contains(self, elem):
        bp = self.blueprint
        backend = bp.backend
        elem = backend.normalize(elem)
        if backend.is_zero(elem):
            return True
        if backend.kind == "finite":
            return elem in self.minimal
        return any(_monomial_divides(backend, g, elem) for g in self.minimal)

    def is_proper(self):
        return not self.contains(self.blueprint.one())

    def generator_names(self):
        bp = self.blueprint
        if bp.backend.kind == "finite":
            gens = [s for s in self.minimal if s != ZERO]
            return tuple(sorted(gens))
        return tuple(sorted(bp.render(g) for g in self.minimal))

    def __repr__(self):
        inner = ", ".join(self.generator_names())
        return f"({inner})" if inner else "(0)"


def _monomial_divides(backend, g, m):
    if backend.is_zero(g):
        return backend.is_zero(m)
    if not backend.lattice and not backend.is_zero(m):
        # Without a lattice, normalize((c, m - g)) is (c, m - g) when no
        # fixed exponent goes negative and raises otherwise, and then
        # (c, m - g) * g == m iff c * g0 == m0: the loop below reduces to this.
        ge, me = g[1], m[1]
        return ((g[0], m[0]) in backend._coeff_multiples
                and all(me[i] >= ge[i] for i in backend._fixed))
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


def additive_closure(bp, elems, budget=None):
    """Smallest ideal containing `elems`: closed under multiplication by the
    monoid and under the rule (sum a_i + c = sum b_j, a_i and b_j in I) => c in I.
    No backend reads the budget. Finite tables take the least fixpoint of
    `_ideal_rules`. A monomial ideal is its minimal generators g. For a
    relation with terms T, a term t once in T and a coefficient c != 0, the
    rule adds h*c*t for the minimal h of the intersection, by lcms, of the
    colon ideals (I : c*s), s != t. Units never change membership, so
    (I : c*s) is generated by the max(g - s, 0) on non-inverted columns
    that it holds (Cox-Little-O'Shea, "Ideals, Varieties, and Algorithms",
    ch. 4 §4). Dickson's lemma ends the loop."""
    backend = bp.backend
    if backend.kind == "finite":
        syms = backend.symbols
        start = {ZERO, *(backend.normalize(e) for e in elems)}
        members = _close(_ideal_rules(bp), _bits(syms, start))
        return IdealDescriptor(bp, bp.normalize_sum(elems),
                               tuple(sorted(_members(syms, members))))
    divides, cmul = partial(_monomial_divides, backend), backend.coeff.mul
    coeffs = [c for c in backend.coeff.backend.symbols if c != ZERO]
    fixed = [i in backend._fixed for i in range(len(backend.gens))]

    def colon(c, s):
        cands = ((g, tuple(max(a - b, 0) if f else 0
                           for a, b, f in zip(g[1], s[1], fixed))) for g in mins)
        return [v for g, v in cands if divides(g, backend.mul((c, v), s))]

    mins = _minimal([m for m in map(backend.normalize, elems)
                     if not backend.is_zero(m)], divides)
    changed = bool(bp.relations)
    while changed:
        changed = False
        for l, r in bp.relations:
            terms = l + r
            for t, c in itertools.product(terms, coeffs):
                if terms.count(t) != 1 or cmul(c, t[0]) == ZERO:
                    continue
                J = [(0,) * len(fixed)]
                for s in terms:
                    if s != t and cmul(c, s[0]) != ZERO:
                        J = _minimal((tuple(map(max, a, b)) for a in J
                                      for b in colon(c, s)),
                                     lambda a, b: all(map(int.__le__, a, b)))
                grown = _minimal(
                    mins + [backend.mul((c, h), t) for h in J], divides)
                changed, mins = changed or grown != mins, grown
    return IdealDescriptor(bp, bp.normalize_sum(elems),
                           tuple(sorted(mins, key=backend.sort_key)))


def _minimal(items, divides):
    """The items that no other divides, in input order; of two that divide
    each other the first is kept."""
    out = []
    for x in items:
        if not any(divides(w, x) for w in out):
            out = [w for w in out if not divides(x, w)]
            out.append(x)
    return out


def _closure_rules(carrier, actors, act, relations):
    """Horn rules over bitmasks of `carrier` (bit i for carrier[i]), a dict
    premise -> conclusion: x => act(b, x) for b in `actors`, and for each
    oriented relation (L, R), a term once in L and not in R is forced when
    all other terms are in. Their fixpoints read no budget (Dowling-Gallier,
    J. Logic Programming 1, 1984)."""
    bit = {x: 1 << i for i, x in enumerate(carrier)}
    rules = {bit[x]: _bits(carrier, {act(b, x) for b in actors})
             for x in carrier}
    for L, R in relations:
        premise = _bits(carrier, {*L, *R})
        for t in set(L).difference(R):
            if L.count(t) == 1:
                key = premise & ~bit[t]
                rules[key] = rules.get(key, 0) | bit[t]
    return rules


def _close(rules, members):
    """The least bitmask above `members` that is closed under `rules`."""
    changed = True
    while changed:
        changed = False
        for premise, conclusion in rules.items():
            if premise & members == premise and conclusion & ~members:
                members |= conclusion
                changed = True
    return members


def _closed(rules, members):
    return not any(premise & members == premise and conclusion & ~members
                   for premise, conclusion in rules.items())


def _bits(carrier, elems):
    return sum(1 << i for i, x in enumerate(carrier) if x in elems)


def _members(carrier, mask):
    return [x for i, x in enumerate(carrier) if mask >> i & 1]


@_per_blueprint
def _ideal_rules(bp):
    """The closure rules of ideals of a finite table: the relations scaled by
    every nonzero m, and each sum a + b = c of a semiring table as the
    relation [c] = [a, b], both ways round. These have the closed sets of
    the rule "c is forced when c plus at most two members sums to a sum of
    at most two members": as 0 is neutral and addition commutative, both
    say that members are closed under sums and that x + c = y, x and y
    members, forces c."""
    backend = bp.backend
    rels = _scaled_pairs(bp.oriented_relations(), backend.multipliers(0),
                         backend.mul, ZERO)
    if bp.is_semiring:
        for (a, b), c in backend.add_table.items():
            rels += [((c,), (a, b)), ((a, b), (c,))]
    return _closure_rules(backend.symbols, backend.symbols, backend.mul, rels)


def is_prime_ideal(bp, ideal):
    """True or False, never Unknown: is the complement a multiplicative set?"""
    if not ideal.is_proper():
        raise NotAnIdeal("ideal is not proper")
    backend = bp.backend
    if backend.kind == "finite":
        comp = [s for s in backend.symbols if s not in ideal.minimal]
        if ONE not in comp:
            return False
        return all(backend.mul(a, b) in comp for a in comp for b in comp)
    for g in ideal.minimal:
        coeff, exps = g
        if not backend.coeff.is_unit(coeff):
            return False
        nz = [e for e in exps if e]
        if len(nz) != 1 or nz[0] != 1:
            return False
    if not backend.lattice:
        # A proper ideal's generators are non-inverted variables in S; a
        # product of two variables outside S has exponent 0 on all of S, so
        # with no lattice no generator divides it.
        return True
    varset = {backend.gens[i] for g in ideal.minimal
              for i, e in enumerate(g[1]) if e}
    outside = [backend.gen_element(n) for n in backend.gens if n not in varset]
    for a in outside:
        for b in outside:
            if ideal.contains(backend.mul(a, b)):
                return False
    return True


# ---------------------------------------------------------------------------
# Quotients


def quotient_by_ideal(bp, ideal, budget=None):
    """B/I with I collapsed to zero and relations pushed forward.

    Pushed relations that identify two distinct surviving elements migrate
    into the monoid structure (identification lattice / symbol merge) so the
    quotient stays proper. Satisfies the universal property: morphisms killing
    I factor uniquely through the result.
    """
    budget = budget or bp.budget
    if not ideal.is_proper():
        raise ImproperIdeal("cannot quotient by an improper ideal")
    backend = bp.backend
    if backend.kind == "finite":
        return _finite_quotient(bp, ideal, budget)

    kill = set()
    for g in ideal.minimal:
        coeff, exps = g
        nz = [(i, e) for i, e in enumerate(exps) if e]
        if len(nz) != 1 or nz[0][1] != 1 or not backend.coeff.is_unit(coeff):
            raise UnsupportedIdeal("monomial quotients need variable-generated ideals")
        kill.add(nz[0][0])
    keep = [i for i in range(len(backend.gens)) if i not in kill]
    gens = tuple(backend.gens[i] for i in keep)
    inverted = tuple(n for n in backend.inverted if n in gens)
    lattice = []
    for vec, char in backend.lattice:
        if any(vec[i] for i in kill):
            raise UnsupportedIdeal("ideal meets the identification lattice")
        lattice.append((tuple(vec[i] for i in keep), char))

    def push(elem):
        coeff, exps = elem
        if coeff == ZERO or any(exps[i] for i in kill):
            return None
        return (coeff, tuple(exps[i] for i in keep))

    rels = []
    for l, r in bp.relations:
        pl = [push(t) for t in l]
        pr = [push(t) for t in r]
        rels.append(([t for t in pl if t is not None],
                     [t for t in pr if t is not None]))
    out = build_proper_monomial(backend.coeff, gens, inverted, lattice, rels,
                                budget, name=f"{bp.name or 'B'}/{ideal!r}")
    out.killed_generators = tuple(backend.gens[i] for i in sorted(kill))
    return out


def build_proper_monomial(coeff_bp, gens, inverted, lattice, relations, budget,
                          name=None):
    """Build a monomial blueprint, migrating derivable single=single
    identifications into the lattice until the properness guard, certified
    or searched (`improper_pair`), is clean."""
    lattice = list(lattice)
    for _ in range(20):
        backend = MonomialBackend(coeff_bp, gens, inverted, lattice)
        rels = []
        improper = None
        for l, r in relations:
            nl = [backend.normalize(t) for t in l]
            nr = [backend.normalize(t) for t in r]
            nl = [t for t in nl if not backend.is_zero(t)]
            nr = [t for t in nr if not backend.is_zero(t)]
            if sorted(nl) == sorted(nr):
                continue
            if (not nl and len(nr) == 1) or (not nr and len(nl) == 1):
                raise ImproperIdeal("a pushed relation kills a surviving element")
            if len(nl) == 1 and len(nr) == 1:
                improper = (nl[0], nr[0])
                break
            rels.append((nl, nr))
        if improper is None:
            candidate = Blueprint(backend, rels, budget=budget, name=name,
                                  check_proper=False)
            improper = improper_pair(candidate, _guard_budget(budget))
            if improper is None:
                return candidate
            if backend.is_zero(improper[0]):
                raise ImproperIdeal("a derivation kills a surviving element")
        (c1, e1), (c2, e2) = improper
        vec = tuple(x - y for x, y in zip(e1, e2))
        if not any(vec):
            raise ImproperRelations("quotient identifies distinct coefficients")
        if all(any(e) for e in (e1, e2)):
            # m1 = m2 with neither side a unit monomial is a genuine monoid
            # identification (a non-free semigroup), outside this backend
            raise UnsupportedIdeal(
                "quotient needs a non-unit monomial identification")
        char = next((c for c in coeff_bp.backend.symbols
                     if coeff_bp.mul(c, c1) == c2), None)
        if char is None or not coeff_bp.is_unit(char):
            raise ImproperRelations("identification needs a unit character")
        lattice.append((vec, char))
    raise ImproperRelations("identification lattice failed to stabilize")


def _symbol_key(s):
    """The carrier order of finite tables: 0, then 1, then by name."""
    return (s != ZERO, s != ONE, s)


class _UnionFind:
    """Each class is named by its least member under `_symbol_key`."""

    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        keep, drop = sorted((ra, rb), key=_symbol_key)
        self.parent[drop] = keep
        return True


def _close_under_action(uf, symbols, carrier, act):
    """Merge classes of `uf` until x ~ y forces act(b, x) ~ act(b, y) for
    every b in `symbols`, a monoid acting on `carrier`: act(b, act(c, x)) =
    act(bc, x). The pairs (x, root of x) generate the classes, and b c again
    lies in `symbols`, so one pass over those pairs closes them."""
    for x, r in [(x, uf.find(x)) for x in carrier]:
        for b in symbols:
            uf.union(act(b, x), act(b, r))


def _collapse(bp, rep, name, budget, add=None):
    """The quotient table of the finite blueprint `bp` by the multiplicative
    equivalence whose classes `rep` names (symbol -> class name), with the
    pushed relations, the pushed addition table `add` when one is given,
    and `projection` = rep."""
    symbols = bp.backend.symbols
    mul = {(rep[a], rep[b]): rep[bp.backend.mul(a, b)]
           for a in symbols for b in symbols}
    pushed = None
    if add is not None:
        pushed = {}
        for a in symbols:
            for b in symbols:
                c = rep[add[(a, b)]]
                if pushed.setdefault((rep[a], rep[b]), c) != c:
                    raise BlueprintError("pushed addition is inconsistent")
    rels = [([rep[t] for t in l], [rep[t] for t in r]) for l, r in bp.relations]
    syms = sorted(set(rep.values()), key=_symbol_key)
    out = Blueprint(FiniteTable(syms, mul, pushed), rels, budget=budget,
                    name=name, check_proper=False)
    out.projection = dict(rep)
    return out


def _finite_quotient(bp, ideal, budget):
    """Collapse the ideal to 0, close under multiplication, and merge each
    derivable identification until the quotient is proper; each merge joins
    two classes, so the loop ends."""
    symbols = bp.backend.symbols
    uf = _UnionFind(symbols)
    for s in ideal.minimal:
        uf.union(ZERO, s)
    while True:
        _close_under_action(uf, symbols, symbols, bp.backend.mul)
        out = _collapse(bp, {s: uf.find(s) for s in symbols},
                        f"{bp.name or 'B'}/I", budget)
        pair = improper_pair(out, _guard_budget(budget))
        if pair is None:
            return out
        uf.union(*pair)


def quotient_universal_factoring(bp, ideal, quotient, morphism):
    """The unique morphism B/I -> C with g(f(x)) = h(x), or None."""
    if bp.backend.kind != "finite":
        raise BlueprintError("universal-property checks run on finite tables")
    images = {}
    for s in bp.backend.symbols:
        q = quotient.projection[s]
        tgt = morphism.apply(s)
        if q in images and images[q] != tgt:
            return None
        images[q] = tgt
    g = BlueprintMorphism(quotient, morphism.target, images)
    verdict, _ = is_morphism(g, bp.budget)
    return g if verdict == PROVED else None


# ---------------------------------------------------------------------------
# Localization and unit fields


def localize(bp, elems):
    """Invert a finitely generated multiplicative set.

    Inverting 0 yields the zero blueprint, flagged via `zero_inverted`.
    """
    backend = bp.backend
    elems = [backend.normalize(e) for e in elems]
    if any(backend.is_zero(e) for e in elems):
        zero_table = FiniteTable((ZERO,), {(ZERO, ZERO): ZERO})
        out = Blueprint(zero_table, (), budget=bp.budget, name="0",
                        check_proper=False)
        out.zero_inverted = True
        return out
    if backend.kind == "monomial":
        newly = set()
        for e in elems:
            for name, exp in zip(backend.gens, e[1]):
                if exp:
                    newly.add(name)
        nb = MonomialBackend(backend.coeff, backend.gens,
                             backend.inverted | newly, backend.lattice)
        out = Blueprint(nb, [(list(l), list(r)) for l, r in bp.relations],
                        budget=bp.budget, name=f"{bp.name or 'B'}_loc",
                        check_proper=False)
        out.zero_inverted = False
        return out
    return _finite_localize(bp, elems)


def _idempotent_power(backend, elems):
    """The idempotent power e of the product of `elems` in a finite table.
    e lies in the monoid S that `elems` generate, every s in S divides it,
    and S·e is a group with identity e: so a·c = b·c for some c in S iff
    a·e = b·e."""
    s = backend.one()
    for x in elems:
        s = backend.mul(s, x)
    e = s
    while backend.mul(e, e) != e:
        e = backend.mul(e, s)
    return e


def _finite_localize(bp, elems):
    """B[S^-1] for S generated by `elems`, as the image eB, with e the
    idempotent power of the product of `elems` (`_idempotent_power`): every
    s in S divides e, e = st. So a/1 = b/1 iff ea = eb, and a/s = at/e =
    at/1: every class holds some a/1, and the class names and the pushed
    addition of a semiring table come from B."""
    backend = bp.backend
    e = _idempotent_power(backend, elems)
    blocks = {}
    for a in backend.symbols:
        blocks.setdefault(backend.mul(e, a), []).append(a)
    rep = {a: min(block, key=_symbol_key)
           for block in blocks.values() for a in block}
    out = _collapse(bp, rep, f"{bp.name or 'B'}_loc", bp.budget,
                    add=backend.add_table)
    out.zero_inverted = False
    out.localization_map = out.projection
    return out


def localization_morphism(bp, localized):
    if bp.backend.kind == "monomial":
        images = {g: localized.backend.gen_element(g) for g in bp.backend.gens}
        for c in bp.backend.coeff.backend.symbols:
            images[c] = localized.backend.coeff_element(c)
        return BlueprintMorphism(bp, localized, images)
    images = {s: localized.localization_map[s] for s in bp.backend.symbols}
    return BlueprintMorphism(bp, localized, images)


def unit_field(bp):
    """The blue field on the units plus zero, with the restricted relations."""
    backend = bp.backend
    if backend.kind == "finite":
        units = set(backend.units())
        syms = sorted(units | {ZERO}, key=_symbol_key)
        mul = {(a, b): backend.mul(a, b) for a in syms for b in syms}
        rels = [(l, r) for l, r in bp.relations
                if all(t in syms for t in l + r)]
        add = None
        if bp.is_semiring:
            add0 = {(a, b): backend.add_table[(a, b)] for a in syms for b in syms}
            if all(v in set(syms) for v in add0.values()):
                add = add0
        return Blueprint(FiniteTable(syms, mul, add), rels, budget=bp.budget,
                         name=f"{bp.name or 'B'}^x", check_proper=False)
    coeff = backend.coeff if is_blue_field(backend.coeff) else unit_field(backend.coeff)
    gens = tuple(n for n in backend.gens if n in backend.inverted)
    keep = [i for i, n in enumerate(backend.gens) if n in backend.inverted]
    lattice = [(tuple(v[i] for i in keep), c) for v, c in backend.lattice]
    nb = MonomialBackend(coeff, gens, gens, lattice)

    def restrict(t):
        if not backend.is_unit(t):
            return None
        c, exps = t
        return (c, tuple(exps[i] for i in keep))

    rels = []
    for l, r in bp.relations:
        nl = [restrict(t) for t in l]
        nr = [restrict(t) for t in r]
        if all(t is not None for t in nl + nr):
            rels.append((nl, nr))
    return Blueprint(nb, rels, budget=bp.budget, name=f"{bp.name or 'B'}^x",
                     check_proper=False)


def is_blue_field(bp):
    backend = bp.backend
    if backend.kind == "finite":
        units = set(backend.units())
        return all(s in units for s in backend.symbols if s != ZERO)
    return (all(n in backend.inverted for n in backend.gens)
            and is_blue_field(backend.coeff))
